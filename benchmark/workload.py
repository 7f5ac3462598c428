"""Closed-loop workload client; run.py starts it in a child process.

One client sends requests back to back through `ghzforge.cli.main` in this
process, so interpreter start and imports are paid once (run.py measures
them separately as set-up).  Every request's outputs are checked before the
next request is sent.  The result, raw request times and, with --trace 1,
the per-layer figures, goes to the --result JSON file.

Usage (from the repository root):
    python3 benchmark/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracing

HERE = Path(__file__).resolve().parent
FIDELITY_TOLERANCE = 1e-10  # ROADMAP aim 2: agreement with the seed code
NNZ_TIME_NS = 1.0  # H(t) is evaluated here for model.h_nnz
FLOPS_PER_NNZ_STEP = 32  # 4 RHS calls per RK4 step, 8 flops per complex multiply-add
POOL_PROBE = "single_sweep"  # traced runs of `run` workloads measure the pool with it


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI request and what its outputs must show."""

    command: str  # "run" or "sweep"
    scenario: str  # bundled scenario name
    overrides: tuple[tuple[str, float], ...] = ()  # scenario keys replaced
    values: tuple[float, ...] = ()  # sweep multipliers of |delta|
    window: str | None = None  # sweep sampling window start:end (ns)
    norm_drift_limit: float | None = None


WORKLOADS = {
    # The paper's coupled-pair Hamiltonian (dim 256, pinned dt) over its
    # first 0.1 ns: the dense RHS matvec is nearly all the time.  The full
    # 25 ns gate takes about a minute and does not fit a run.
    "coupled_gate": Workload(
        "run", "coupled_tlr_ghz", overrides=(("t_final_ns", 0.1),), norm_drift_limit=1e-8
    ),
    # The README drive-strength sweep (5 points at dim 40 on the default
    # pool, 101 samples each) with its 1 ns window moved to 0.2:1.2 ns, so
    # each point integrates 1.2 ns instead of 10.5 ns: per-step Python
    # overhead and pool scheduling dominate.
    "single_sweep": Workload(
        "sweep", "single_tlr_drive_sweep", values=(5, 10, 20, 40, 100), window="0.2:1.2"
    ),
    # The whole 10 ns effective-model gate, sampled every 4 ps instead of
    # 50 ps: the RHS is cheap, so observation and output writing carry a
    # visible share.  The denser grid makes a request about 0.4 s, so a run
    # holds ~60 of them and its tail percentile is not set by a few
    # stalls of the host.
    "effective_gate": Workload(
        "run", "single_tlr_ghz_effective", overrides=(("sample_every_ns", 0.004),)
    ),
}


def token(value: float) -> str:
    return f"{value:g}"


def multipliers(workload: Workload, seed: int) -> list[float]:
    """The seed permutes the sweep order (pool scheduling), not the points."""
    values = list(workload.values)
    random.Random(seed).shuffle(values)
    return values


def scenario_path(workload: Workload, root: Path, work: Path) -> Path:
    bundled = root / "src" / "ghzforge" / "scenarios" / f"{workload.scenario}.json"
    if not workload.overrides:
        return bundled
    data = json.loads(bundled.read_text())
    data.update(workload.overrides)
    suffix = "_".join(f"{key}={token(value)}" for key, value in workload.overrides)
    path = work / f"{workload.scenario}_{suffix}.json"
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def request_argv(workload: Workload, scenario: Path, out_dir: Path, values, serial=False):
    if workload.command == "run":
        return ["run", str(scenario), "--out-dir", str(out_dir)]
    argv = [
        "sweep", str(scenario), "--param", "omega_r_multiple",
        "--values", ",".join(token(v) for v in values),
        "--window", workload.window, "--out-dir", str(out_dir),
    ]
    return argv + ["--workers", "1"] if serial else argv


def max_norm_drift(csv_path: Path) -> float:
    with open(csv_path, newline="") as handle:
        return max(abs(float(row["norm"]) - 1.0) for row in csv.DictReader(handle))


def _close(value: float, reference, what: str, problems: list[str]) -> None:
    if not abs(value - float(reference)) <= FIDELITY_TOLERANCE:
        problems.append(f"{what} = {value!r}, reference {reference!r}")


def check_outputs(workload: Workload, rc, out_dir: Path, references, baseline: dict | None):
    """Problems found in one request's outputs, and facts read from them.

    Any error while reading outputs or references is a problem, never an
    exception: a broken reference counts as a failed request.
    """
    if rc != 0:
        return [f"exit code {rc}"], {}
    if references is None:
        return ["no usable references"], {}
    problems: list[str] = []
    facts: dict = {}
    try:
        csvs = sorted(out_dir.glob("*.csv"))
        facts["hashes"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in csvs}
        facts["bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        facts["norm_drift"] = max(
            max_norm_drift(p) for p in csvs if not p.name.endswith("_summary.csv")
        )
        if workload.command == "run":
            (summary_path,) = out_dir.glob("*_summary.json")
            summary = json.loads(summary_path.read_text())
            _close(summary["fidelity_at_t_final"], references["fidelity_at_t_final"],
                   "fidelity at t_final", problems)
            facts["gates"] = 1
        else:
            (summary_path,) = out_dir.glob("*_sweep_summary.json")
            summary = json.loads(summary_path.read_text())
            expected = references["peak_fidelity"]
            seen = {token(p["omega_r_multiple"]): p["peak_fidelity"] for p in summary["points"]}
            if sorted(seen) != sorted(expected):
                problems.append(f"sweep points {sorted(seen)}, reference {sorted(expected)}")
            for key, value in seen.items():
                _close(value, expected[key], f"peak fidelity x{key}", problems)
            facts["gates"] = len(seen)
            facts["workers"] = summary["workers"]
        limit = workload.norm_drift_limit
        if limit is not None and not facts["norm_drift"] < limit:
            problems.append(f"norm drift {facts['norm_drift']:.3g} not below {limit:g}")
        if baseline is not None and facts["hashes"] != baseline:
            problems.append("output CSVs differ from the first request's")
    except Exception as exc:  # a check must count a failure, not stop the loop
        problems.append(f"check error: {type(exc).__name__}: {exc}")
    return problems, facts


def rk4_steps(dynamics, hamiltonian, samples, config) -> int:
    """Steps evolve_sampled takes: each sample segment is split uniformly."""
    dt = dynamics.resolve_step(hamiltonian, config)
    steps, t_now = 0, 0.0
    for t in samples:
        span = float(t) - t_now
        if span > 1e-15:
            steps += max(1, math.ceil(span / dt - 1e-12))
            t_now = float(t)
    return steps


def dense_nnz(hamiltonian) -> int:
    h = hamiltonian(NNZ_TIME_NS)
    h = h.toarray() if hasattr(h, "toarray") else np.asarray(h)
    return int(np.count_nonzero(h))


def layer_record(dynamics, spans, calls, wall: float) -> dict:
    """Per-layer figures of one traced request, in seconds and counts."""
    self_s, covered = tracing.self_times(spans)
    record = {"self_s": self_s, "unattributed_s": wall - covered}
    steps = flops = 0
    dims = []
    for args in calls.get("dynamics.evolve", []):
        hamiltonian, _psi0, samples = args[:3]
        config = args[3] if len(args) > 3 else None
        n = rk4_steps(dynamics, hamiltonian, samples, config)
        nnz = dense_nnz(hamiltonian)
        steps += n
        flops += FLOPS_PER_NNZ_STEP * nnz * n
        dims.append((hamiltonian.space.dim, nnz))
    record["steps"] = steps
    record["flops"] = flops
    record["dim_nnz"] = max(dims) if dims else (0, 0)
    record["samples"] = sum(len(args[0]) for args in calls.get("dynamics.observe", []))
    record["point_s"] = tracing.durations(spans, "dynamics.sweep_point")
    record["sweep_s"] = sum(tracing.durations(spans, "dynamics.sweep"))
    return record


def median(values, default=0.0):
    return statistics.median(values) if values else default


def sweep_metrics(sweeps: list[dict]) -> dict[str, float]:
    """Pool figures from traced sweep requests.

    Point times come from the workers=1 pass, where every point runs in
    this process; pool size and sweep wall from the default-pool pass.
    """
    traced = [r for r in sweeps if r["mode"] == "traced" and r["ok"]]
    serial = [r for r in sweeps if r["mode"] == "serial" and r["ok"]]
    workers = median([r["workers"] for r in traced], default=1)
    sweep_wall = median([r["layers"]["sweep_s"] for r in traced])
    point_sum = median([sum(r["layers"]["point_s"]) for r in serial])
    return {
        "dynamics.sweep_point_s": median([p for r in serial for p in r["layers"]["point_s"]]),
        "dynamics.sweep_workers": workers,
        "dynamics.sweep_parallel_efficiency": (
            point_sum / (workers * sweep_wall) if sweep_wall else 0.0
        ),
    }


def layer_metrics(workload: Workload, requests: list[dict], sweeps: list[dict]) -> dict:
    """Per-layer metrics from the requests of one traced run.

    A sweep's layer figures come from its workers=1 pass, a run's from its
    traced requests; `sweeps` supplies the pool figures.
    """
    plain = [r["wall"] for r in requests if r["mode"] == "plain" and r["ok"]]
    traced = [r for r in requests if r["mode"] == "traced" and r["ok"]]
    serial = [r for r in requests if r["mode"] == "serial" and r["ok"]]
    layered = serial if workload.command == "sweep" else traced
    recs = [r["layers"] for r in layered]

    def self_med(layer, scale=1.0):
        return median([rec["self_s"].get(layer, 0.0) for rec in recs]) * scale

    evolve_s = self_med("dynamics.evolve")
    steps = median([rec["steps"] for rec in recs])
    samples = median([rec["samples"] for rec in recs])
    observe_ms = self_med("dynamics.observe", 1e3)
    dim, nnz = max((rec["dim_nnz"] for rec in recs), default=(0, 0))
    return {
        "scenario.load_ms": self_med("scenario.load", 1e3),
        "model.build_ms": self_med("model.build", 1e3),
        "model.dim": dim,
        "model.h_nnz": nnz,
        "dynamics.evolve_s": evolve_s,
        "dynamics.steps": steps,
        "dynamics.step_us": evolve_s / steps * 1e6 if steps else 0.0,
        "dynamics.useful_gflop_s": median(
            [rec["flops"] / rec["self_s"]["dynamics.evolve"] / 1e9
             for rec in recs if rec["self_s"].get("dynamics.evolve")]
        ),
        "dynamics.observe_ms": observe_ms,
        "dynamics.samples": samples,
        "dynamics.observe_us_per_sample": observe_ms * 1e3 / samples if samples else 0.0,
        "dynamics.max_norm_drift": max((r["norm_drift"] for r in layered), default=0.0),
        **sweep_metrics(sweeps),
        "cli.write_ms": self_med("cli.write", 1e3),
        "cli.bytes_written": median([r["bytes"] for r in layered]),
        "trace.unattributed_ms": median([rec["unattributed_s"] for rec in recs]) * 1e3,
        "trace.overhead_fraction": (
            median([r["wall"] for r in traced]) / median(plain) - 1.0 if plain and traced else 0.0
        ),
    }


def environment(dynamics) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "default_sweep_workers": dynamics.worker_count(None),
    }


class Client:
    """One closed-loop client: each send() is one checked request."""

    def __init__(self, cli, dynamics, references, root: Path, work: Path, seed: int):
        self.cli, self.dynamics = cli, dynamics
        self.references = references
        self.root, self.work, self.seed = root, work, seed
        self.tracer = tracing.Tracer()
        self.scenarios: dict[str, Path] = {}
        self.baselines: dict[str, dict] = {}
        self.requests: list[dict] = []
        self.failures: list[str] = []

    def send(self, name: str, mode: str) -> None:
        """mode: plain, traced, or serial (traced, sweep at --workers 1)."""
        workload = WORKLOADS[name]
        if name not in self.scenarios:
            self.scenarios[name] = scenario_path(workload, self.root, self.work)
        out_dir = self.work / f"out_{name}"
        argv = request_argv(workload, self.scenarios[name], out_dir,
                            multipliers(workload, self.seed), serial=mode == "serial")
        shutil.rmtree(out_dir, ignore_errors=True)
        if mode != "plain":
            self.tracer.install()
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            rc = exc.code
        except Exception:  # a crashing request is a failed request
            traceback.print_exc()
            rc = "exception"
        wall = time.perf_counter() - start
        self.tracer.uninstall()
        spans, calls = self.tracer.take()
        try:
            references = self.references[name]
        except (KeyError, TypeError):
            references = None
        problems, facts = check_outputs(workload, rc, out_dir, references,
                                        self.baselines.get(name))
        if name not in self.baselines and not problems:
            self.baselines[name] = facts["hashes"]
        record = {"workload": name, "mode": mode, "wall": wall, "ok": not problems, **facts}
        record.pop("hashes", None)
        if mode != "plain" and not problems:
            record["layers"] = layer_record(self.dynamics, spans, calls, wall)
        self.requests.append(record)
        index = len(self.requests) - 1
        self.failures += [f"request {index} ({name}, {mode}): {p}" for p in problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    try:
        from ghzforge import cli, dynamics
    except ImportError as exc:
        print(f"cannot import ghzforge from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"ghzforge imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    try:
        references = json.loads((HERE / "references.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"references unusable ({exc}); every request will fail its check", file=sys.stderr)
        references = None

    workload = WORKLOADS[args.workload]
    modes = ["plain"]
    if args.trace:
        modes += ["traced", "serial"] if workload.command == "sweep" else ["traced"]
    client = Client(cli, dynamics, references, root, Path(args.work), args.seed)
    client.send(args.workload, "plain")  # warm-up: checked and counted, not timed
    deadline = time.perf_counter() + args.seconds
    sent = 0
    while sent < len(modes) or time.perf_counter() < deadline:
        client.send(args.workload, modes[sent % len(modes)])
        sent += 1
    own = client.requests[1:]
    if args.trace and workload.command == "run":
        # a run never touches the sweep pool; probe it with the README sweep
        for mode in ("traced", "serial"):
            client.send(POOL_PROBE, mode)
    sweeps = [r for r in client.requests[1:] if WORKLOADS[r["workload"]].command == "sweep"]

    requests = client.requests
    timed = [r for r in own if r["mode"] == "plain"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "values": multipliers(workload, args.seed) if workload.command == "sweep" else None,
        "attempted": len(requests),
        "failed": sum(not r["ok"] for r in requests),
        "failures": client.failures[:20],
        "walls": [r["wall"] for r in timed],
        "gates": sum(r.get("gates", 0) for r in timed if r["ok"]),
        "environment": environment(dynamics),
        "missing_boundaries": client.tracer.missing,
    }
    if args.trace:
        result["layers"] = layer_metrics(workload, own, sweeps)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
