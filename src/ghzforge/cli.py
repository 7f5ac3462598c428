"""Command-line front end: run scenarios, sweep drive strengths, tabulate
the SQUID coupler, and solve the gate phase conditions.

Exit codes: 0 success, 2 input error (bad file, bad flag, schema
violation), 3 numerical precondition violation, 4 unsolvable phase
condition.  All file writes happen from this module; the numerics layers
never touch the filesystem.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    SquidCoupler,
    effective_mutual_inductance,
    resonator_coupling_rate,
    solve_coupled_phase_condition,
    solve_single_phase_condition,
)
from .constants import ghz_from_rad_per_ns
from .dynamics import Trajectory, sweep_drive_strength, worker_count
from .errors import PreconditionError, ScenarioFormatError, UnsolvableConditionError
from .scenario import LoadedScenario, check_run_size, load_scenario, run_scenario, scenario_document

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_UNSOLVABLE = 4

MAX_GRID_POINTS = 10**6  # coupler flux grid, checked before it is allocated
_ROWS_PER_WRITE = 4096  # trajectory CSV rows formatted per write


def _fmt(value: float) -> str:
    """CSV number format: 12 significant digits, locale-independent."""
    return f"{value:.11e}"


def _mode_columns(n_modes: int) -> list[str]:
    if n_modes == 1:
        return ["mode_occupation"]
    if n_modes == 2:  # the normal modes P and Q of the coupled pair
        return ["mode_occupation_p", "mode_occupation_q"]
    return [f"mode_occupation_{m}" for m in range(n_modes)]


def _write_trajectory_csv(path: Path, trajectory: Trajectory) -> None:
    """One row per sample: the numbers in _fmt's format, then the label.

    Every row comes from one template over the whole table; the template's
    tail, the label cell and the CRLF row end, is written by csv.writer, so
    the bytes are those of writing each row with csv.writer.  One % on the
    template repeated _ROWS_PER_WRITE times formats each chunk of rows.
    """
    columns = np.column_stack(
        [trajectory.times, trajectory.fidelity, trajectory.norm, trajectory.mode_occupation]
    )
    header = ["t_ns", "fidelity", "norm", *_mode_columns(columns.shape[1] - 3), "variant"]
    tail = io.StringIO()
    csv.writer(tail).writerow(["", trajectory.label])
    row = ",".join(["%.11e"] * columns.shape[1]) + tail.getvalue().replace("%", "%%")
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for first in range(0, len(columns), _ROWS_PER_WRITE):
            chunk = columns[first : first + _ROWS_PER_WRITE]
            handle.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def _summary_dict(scenario: LoadedScenario, trajectory: Trajectory, wall_s: float) -> dict:
    summary = {
        "scenario": scenario.name,
        "variant": trajectory.label,
        "fidelity_at_t_final": trajectory.final_fidelity,
        "peak_fidelity": trajectory.peak_fidelity,
        "peak_time_ns": trajectory.peak_time,
        "ghz_phase_convention_selected": trajectory.convention,
        "propagator": trajectory.propagator,
        "steps": trajectory.steps,
        "dim": trajectory.dim,
        "diagnostics": trajectory.diagnostics,
        "wall_time_s": wall_s,
        "parameters": scenario.raw,
    }
    if scenario.drive_mapping is not None:
        summary["drive_mapping"] = {
            "rabi_per_qubit_ghz": [
                ghz_from_rad_per_ns(r) for r in scenario.drive_mapping.rabi_per_qubit
            ],
            "displacement_magnitude": scenario.drive_mapping.displacement_magnitude,
        }
    return summary


def _multiplier_token(value: float) -> str:
    """Stable text form of a multiplier for file names (5.0 -> '5')."""
    return f"{value:g}"


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    trajectory = run_scenario(scenario)
    wall = time.perf_counter() - start
    csv_path = out_dir / f"{scenario.name}.csv"
    written = time.perf_counter()
    _write_trajectory_csv(csv_path, trajectory)
    write_ms = 1e3 * (time.perf_counter() - written)
    summary = _summary_dict(scenario, trajectory, wall)
    summary["csv"] = csv_path.name
    summary["timings_ms"] = {**trajectory.timings_ms, "write": write_ms}
    json_path = out_dir / f"{scenario.name}_summary.json"
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"{scenario.name}: F(t={scenario.t_final_ns:g} ns) = "
        f"{trajectory.final_fidelity:.6f}, peak {trajectory.peak_fidelity:.6f} "
        f"at {trajectory.peak_time:g} ns ({trajectory.convention}), "
        f"{wall:.3g} s"
    )
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _parse_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ScenarioFormatError(f"--values must be a comma-separated number list, got {text!r}")
    if not values:
        raise ScenarioFormatError("--values list is empty")
    if not all(math.isfinite(v) for v in values):
        raise ScenarioFormatError(f"--values must be finite numbers, got {text!r}")
    return values


def _parse_window(text: str | None, t_final: float) -> tuple[float, float]:
    if text is None:
        return (0.0, t_final)
    parts = text.split(":")
    if len(parts) != 2:
        raise ScenarioFormatError(f"--window must look like start:end, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ScenarioFormatError(f"--window must contain numbers, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioFormatError(f"--window must contain finite numbers, got {text!r}")
    if not 0 <= lo < hi:
        raise ScenarioFormatError("--window must satisfy 0 <= start < end")
    return (lo, hi)


def cmd_sweep(args) -> int:
    if args.param != "omega_r_multiple":
        raise ScenarioFormatError(
            f"unsupported sweep parameter {args.param!r}; supported: omega_r_multiple "
            "(drive amplitude as a multiple of |delta| or J)"
        )
    scenario = load_scenario(args.scenario)
    values = _parse_values(args.values)
    tokens = [_multiplier_token(v) for v in values]
    clashes = [v for v, token in zip(values, tokens) if tokens.count(token) > 1]
    if clashes:
        raise ScenarioFormatError(
            f"--values {', '.join(map(repr, clashes))} share a point file name; "
            "give each sweep point a value that differs in 6 significant digits"
        )
    window = _parse_window(args.window, scenario.t_final_ns)
    check_run_size(scenario, window[1] - window[0], "--window")
    try:
        workers = worker_count(args.workers, len(values))
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    trajectories = sweep_drive_strength(
        scenario.circuit,
        scenario.variant,
        values,
        window,
        scenario.sample_every_ns,
        fock=scenario.fock,
        dt=scenario.dt,
        convention=scenario.convention,
        workers=workers,
    )
    wall = time.perf_counter() - start
    rows = []
    for value, token, trajectory in zip(values, tokens, trajectories):
        point_path = out_dir / f"{scenario.name}_{args.param}={token}.csv"
        written = time.perf_counter()
        _write_trajectory_csv(point_path, trajectory)
        write_ms = 1e3 * (time.perf_counter() - written)
        rows.append(
            {
                "omega_r_multiple": value,
                "peak_fidelity": trajectory.peak_fidelity,
                "peak_time_ns": trajectory.peak_time,
                "convention": trajectory.convention,
                "propagator": trajectory.propagator,
                "steps": trajectory.steps,
                "dim": trajectory.dim,
                "diagnostics": trajectory.diagnostics,
                "csv": point_path.name,
                "timings_ms": {**trajectory.timings_ms, "write": write_ms},
            }
        )
        print(
            f"  x{token}: peak F = {trajectory.peak_fidelity:.6f} "
            f"at {trajectory.peak_time:g} ns ({trajectory.convention})"
        )
    table_path = out_dir / f"{scenario.name}_{args.param}_summary.csv"
    with open(table_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["omega_r_multiple", "peak_fidelity", "peak_time_ns", "convention"])
        for row in rows:
            writer.writerow(
                [
                    _multiplier_token(row["omega_r_multiple"]),
                    _fmt(row["peak_fidelity"]),
                    _fmt(row["peak_time_ns"]),
                    row["convention"],
                ]
            )
    summary = {
        "scenario": scenario.name,
        "param": args.param,
        "values": values,
        "window_ns": list(window),
        "workers": workers,
        "wall_time_s": wall,
        "points": rows,
        "parameters": scenario.raw,
    }
    json_path = out_dir / f"{scenario.name}_sweep_summary.json"
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    best = max(rows, key=lambda r: r["peak_fidelity"])
    print(
        f"best: x{_multiplier_token(best['omega_r_multiple'])} with peak "
        f"F = {best['peak_fidelity']:.6f}; wrote {table_path}"
    )
    return EXIT_OK


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioFormatError(f"--phie-grid must look like start:stop:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ScenarioFormatError(f"--phie-grid must be number:number:integer, got {text!r}")
    if not 2 <= count <= MAX_GRID_POINTS or not lo < hi or not math.isfinite(hi - lo):
        raise ScenarioFormatError(
            f"--phie-grid needs finite start < stop and 2 <= count <= {MAX_GRID_POINTS}"
        )
    return np.linspace(lo, hi, count)


def cmd_coupler(args) -> int:
    try:
        coupler = SquidCoupler(
            loop_inductance_ph=args.lc_ph,
            critical_current_ua=args.ic_ua,
            mutual_a_ph=args.mca_ph,
            mutual_b_ph=args.mcb_ph,
            branch_parity=args.l,
            zero_point_current_a_na=args.ia0_na,
            zero_point_current_b_na=args.ib0_na,
        )
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    grid = _parse_grid(args.phie_grid)
    m_eff = np.array([effective_mutual_inductance(coupler, phi) for phi in grid])
    j_rate = np.array([resonator_coupling_rate(coupler, phi) for phi in grid])
    m_zero = effective_mutual_inductance(coupler, 0.0)
    j_zero = resonator_coupling_rate(coupler, 0.0)
    if not np.isfinite([*m_eff, *j_rate, m_zero, j_zero]).all():
        raise ScenarioFormatError(
            "the coupler table is not finite: M_eff or J overflows for these device parameters"
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "coupler.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["phi_e_over_phi0", "m_eff_ph", "j_ghz"])
        for phi, m, j in zip(grid, m_eff, j_rate):
            writer.writerow([_fmt(phi), _fmt(m), _fmt(ghz_from_rad_per_ns(j))])
    # zero crossings by sign change with linear interpolation
    crossings = []
    for i in range(len(grid) - 1):
        if m_eff[i] == 0.0:
            crossings.append(float(grid[i]))
        elif m_eff[i] * m_eff[i + 1] < 0:
            frac = m_eff[i] / (m_eff[i] - m_eff[i + 1])
            crossings.append(float(grid[i] + frac * (grid[i + 1] - grid[i])))
    i_max = int(np.argmax(np.abs(m_eff)))
    summary = {
        "beta_l": coupler.screening_parameter,
        "grid": {"start": float(grid[0]), "stop": float(grid[-1]), "count": len(grid)},
        "max_abs_m_eff_ph": float(abs(m_eff[i_max])),
        "max_abs_m_eff_at_phi": float(grid[i_max]),
        "m_eff_at_zero_flux_ph": m_zero,
        "j_at_zero_flux_ghz": ghz_from_rad_per_ns(j_zero),
        "zero_crossings_phi0": crossings,
        "csv": csv_path.name,
    }
    json_path = out_dir / "coupler_summary.json"
    json_path.write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"beta_L = {summary['beta_l']:.5f}, M_eff(0) = "
        f"{summary['m_eff_at_zero_flux_ph']:.4f} pH, J(0) = "
        f"{summary['j_at_zero_flux_ghz']:.6f} GHz, zero crossings at "
        f"{[round(c, 6) for c in crossings]} Phi_0"
    )
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _solution(args, coupling: float) -> dict:
    """The solved phase condition and a `full` scenario on 10 GHz resonators
    that runs it, sampled 200 times over the gate."""
    if args.mode == "single":
        solution = solve_single_phase_condition(coupling, n=args.n, m=args.m)
        detuning_ghz = ghz_from_rad_per_ns(solution.deltas[1])  # negative-detuning branch
        resonator, rabi_ghz, fock, hosts = (10.0,), 20.0 * abs(detuning_ghz), (10,), (0, 0)
        result = {
            "mode": "single",
            "inputs": {"n": args.n, "m": args.m, "g_ghz": args.g_ghz},
            "abs_detuning_ghz": ghz_from_rad_per_ns(abs(solution.deltas[0])),
            "detunings_ghz": [ghz_from_rad_per_ns(d) for d in solution.deltas],
            "gate_time_ns": solution.gate_time,
            "pair_phase_rad": solution.pair_phase,
        }
    else:
        if args.xi is None:
            raise ScenarioFormatError("--xi is required for --mode coupled")
        l = 0 if args.l is None else args.l
        solution = solve_coupled_phase_condition(coupling, args.xi, n=args.n, m=args.m, l=l)
        j_ghz = ghz_from_rad_per_ns(solution.coupler_rate)
        detuning_ghz = ghz_from_rad_per_ns(solution.delta_prime)
        resonator, rabi_ghz, fock, hosts = (10.0, 10.0, j_ghz), 42.0 * j_ghz, (8, 8), (0, 1)
        result = {
            "mode": "coupled",
            "inputs": {"n": args.n, "m": args.m, "l": l, "xi": args.xi, "g_ghz": args.g_ghz},
            "coupler_rate_ghz": j_ghz,
            "delta_prime_ghz": detuning_ghz,
            "gate_time_ns": solution.gate_time,
            "same_pair_phase_rad": solution.same_pair_phase,
            "cross_pair_phase_rad": solution.cross_pair_phase,
        }
    drive_ghz = 10.0 - detuning_ghz  # the qubits sit at the drive frequency
    result["scenario_fragment"] = scenario_document(
        args.mode,
        resonator=resonator,
        qubits=[(drive_ghz, args.g_ghz, host) for host in hosts],  # host: the qubit's resonator
        fock=fock,
        rabi_ghz=rabi_ghz,
        drive_frequency_ghz=drive_ghz,
        variant="full",
        t_final_ns=solution.gate_time,
        sample_every_ns=solution.gate_time / 200.0,
    )
    return result


def cmd_solve(args) -> int:
    if args.mode == "single":
        ignored = [f"--{flag}" for flag in ("xi", "l") if getattr(args, flag) is not None]
        if ignored:
            raise ScenarioFormatError(f"--mode single takes no {' or '.join(ignored)}")
    coupling = 2.0 * np.pi * args.g_ghz
    if not math.isfinite(coupling):
        raise ScenarioFormatError(f"--g-ghz {args.g_ghz!r} is not finite after the 2 pi scaling")
    try:
        text = json.dumps(_solution(args, coupling), indent=2, allow_nan=False)
    except (OverflowError, ValueError) as exc:
        raise ScenarioFormatError(
            f"--g-ghz {args.g_ghz!r} gives no finite solution ({exc})"
        ) from exc
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzforge",
        description="One-step GHZ-state generation for flux qubits coupled "
        "to driven transmission-line resonators.",
    )
    parser.add_argument("--version", action="version", version=f"ghzforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario file, write CSV + JSON summary")
    p_run.add_argument("scenario", help="path to a scenario .json file")
    p_run.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario over a list of drive strengths")
    p_sweep.add_argument("scenario", help="path to a scenario .json file")
    p_sweep.add_argument(
        "--param",
        required=True,
        help="sweep parameter; omega_r_multiple = drive amplitude as a "
        "multiple of |delta| (single) or J (coupled)",
    )
    p_sweep.add_argument("--values", required=True, help="comma-separated multiplier list")
    p_sweep.add_argument(
        "--window",
        default=None,
        help="start:end (ns) sampling window, default 0:t_final",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    p_sweep.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_coupler = sub.add_parser(
        "coupler", help="tabulate the dc-SQUID effective mutual inductance and J(phi_e)"
    )
    p_coupler.add_argument("--lc-ph", type=float, required=True, help="SQUID loop inductance (pH)")
    p_coupler.add_argument("--ic-ua", type=float, required=True, help="junction critical current (uA)")
    p_coupler.add_argument("--mca-ph", type=float, required=True, help="mutual to resonator A (pH)")
    p_coupler.add_argument("--mcb-ph", type=float, required=True, help="mutual to resonator B (pH)")
    p_coupler.add_argument("--l", type=int, default=0, help="branch parity integer (default 0)")
    p_coupler.add_argument(
        "--ia0-na", type=float, default=50.0, help="resonator A zero-point current (nA)"
    )
    p_coupler.add_argument(
        "--ib0-na", type=float, default=50.0, help="resonator B zero-point current (nA)"
    )
    p_coupler.add_argument(
        "--phie-grid",
        default="0:1:201",
        help="external flux grid start:stop:count in units of Phi_0 (default 0:1:201)",
    )
    p_coupler.add_argument("--out-dir", default=".", help="output directory (default: .)")
    p_coupler.set_defaults(func=cmd_coupler)

    p_solve = sub.add_parser(
        "solve", help="solve the gate phase conditions for detuning / coupler rate"
    )
    p_solve.add_argument("--mode", choices=("single", "coupled"), required=True)
    p_solve.add_argument("--n", type=int, default=1, help="decoupling winding number (default 1)")
    p_solve.add_argument("--m", type=int, default=0, help="phase branch integer (default 0)")
    p_solve.add_argument(
        "--l", type=int, default=None, help="cross-pair phase branch (coupled; default 0)"
    )
    p_solve.add_argument("--xi", type=int, default=None, help="delta'/J ratio, odd (coupled)")
    p_solve.add_argument("--g-ghz", type=float, required=True, help="qubit-resonator coupling g (GHz)")
    p_solve.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    return parser


# main's parser, built once per process: each build leaves about 250
# objects in reference cycles for the garbage collector.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # inputs are read in scenario, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except UnsolvableConditionError as exc:
        print(f"unsolvable: {exc}", file=sys.stderr)
        return EXIT_UNSOLVABLE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
