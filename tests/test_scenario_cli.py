"""Scenario schema validation and the command-line front end.

CLI tests call main() in-process and assert on exit codes and the files
written, so they cover the same code path as the installed entry point
without process-spawn overhead.
"""

import copy
import csv
import gc
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghzforge import cli
from ghzforge.cli import _write_trajectory_csv, main
from ghzforge.dynamics import Trajectory, resolve_step, sweep_drive_strength
from ghzforge.errors import ApproximationWarning, ScenarioFormatError
from ghzforge.model import effective_hamiltonian, exchange_sector
from ghzforge.operators import HilbertSpace
from ghzforge.scenario import (
    MAX_STORED_AMPLITUDES,
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    scenario_document,
    validate_scenario,
)


def scenario_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "single",
        "resonator": {"omega_ghz": 10.0},
        "drive_frequency_ghz": 10.1,
        "qubits": [
            {"gap_ghz": 10.1, "coupling_ghz": 0.05},
            {"gap_ghz": 10.1, "coupling_ghz": 0.05},
        ],
        "drive": {"rabi_ghz": 2.0},
        "variant": "effective",
        "fock_cutoff": 6,
        "t_final_ns": 10.0,
        "sample_every_ns": 0.5,
    }
    doc.update(overrides)
    return doc


def write_scenario(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def test_bundled_scenarios_validate():
    names = bundled_scenario_names()
    assert len(names) >= 4
    kinds = set()
    for name in names:
        scenario = load_scenario(bundled_scenario_path(name))
        assert scenario.name == name
        kinds.add(scenario.circuit.kind)
    assert kinds == {"single", "coupled"}


def test_missing_bundled_scenario():
    with pytest.raises(ScenarioFormatError, match="available"):
        bundled_scenario_path("no_such_scenario")


def test_reference_doc_round_trip():
    scenario = validate_scenario(scenario_doc(), name="reference")
    assert scenario.circuit.kind == "single"
    assert scenario.circuit.rabi == pytest.approx(2 * np.pi * 2.0)
    assert scenario.circuit.detuning == pytest.approx(-2 * np.pi * 0.1)
    assert scenario.fock == (6,)
    assert scenario.convention == "auto"
    assert scenario.drive_mapping is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(extra_key=1),
        lambda d: d["resonator"].update(omega_b_ghz=10.0),
        lambda d: d["qubits"][0].update(anharmonicity_ghz=0.3),
        lambda d: d["drive"].update(phase_rad=0.1),
        lambda d: d.update(integrator={"dt_ns": 0.01, "scheme": "rk4"}),
    ],
    ids=["top", "resonator", "qubit", "drive", "integrator"],
)
def test_unknown_keys_rejected_everywhere(mutate):
    doc = scenario_doc()
    mutate(doc)
    with pytest.raises(ScenarioFormatError, match="unknown key"):
        validate_scenario(doc)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"schema_version": 2}, "schema_version"),
        ({"kind": "triple"}, "kind"),
        ({"variant": "exact"}, "variant"),
        ({"t_final_ns": -1.0}, "t_final_ns"),
        ({"sample_every_ns": 0.0}, "sample_every_ns"),
        ({"fock_cutoff": 0}, "fock_cutoff"),
        ({"fock_cutoffs": [8, 8]}, "fock_cutoff"),
        ({"ghz_phase_convention": "random"}, "ghz_phase_convention"),
        ({"drive": {}}, "exactly one"),
        ({"drive": {"rabi_ghz": 2.0, "resonator_amplitude_ghz": 0.1}}, "exactly one"),
        ({"qubits": []}, "non-empty"),
        ({"kind": ["single"]}, "kind"),  # unhashable: still a format error
    ],
)
def test_structural_errors(overrides, fragment):
    with pytest.raises(ScenarioFormatError, match=fragment):
        validate_scenario(scenario_doc(**overrides))


def test_biased_qubit_rejected():
    doc = scenario_doc()
    doc["qubits"][0]["bias_ghz"] = 0.2
    with pytest.raises(ScenarioFormatError, match="degeneracy"):
        validate_scenario(doc)


def test_resonant_drive_rejected():
    # drive exactly on the resonator: the dispersive scheme has no gate there
    doc = scenario_doc(drive_frequency_ghz=10.0)
    doc["qubits"] = [{"gap_ghz": 10.0, "coupling_ghz": 0.05}] * 2
    with pytest.raises(ScenarioFormatError, match="detuned"):
        validate_scenario(doc)


def test_amplitude_drive_maps_to_rabi():
    doc = scenario_doc(drive={"resonator_amplitude_ghz": 1.0})
    scenario = validate_scenario(doc)
    # Omega_R = -2 g nu / delta with g = 0.05, nu = 1.0, delta = -0.1 (GHz)
    assert scenario.circuit.rabi == pytest.approx(2 * np.pi * 1.0, rel=1e-12)
    assert scenario.drive_mapping is not None
    assert scenario.drive_mapping.rabi_per_qubit == pytest.approx(
        (2 * np.pi * 1.0,) * 2, rel=1e-12
    )
    assert scenario.drive_mapping.displacement_magnitude == pytest.approx(10.0, rel=1e-12)


def test_amplitude_drive_rejected_for_coupled():
    doc = coupled_doc(drive={"resonator_amplitude_ghz": 1.0})
    with pytest.raises(ScenarioFormatError, match="rabi_ghz"):
        validate_scenario(doc)


def coupled_doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "coupled",
        "resonator": {"omega_a_ghz": 10.0, "omega_b_ghz": 10.0, "coupler_rate_ghz": 0.04},
        "drive_frequency_ghz": 10.12,
        "qubits": [
            {"gap_ghz": 10.12, "coupling_ghz": 0.0565685424949238, "resonator": "A"},
            {"gap_ghz": 10.12, "coupling_ghz": 0.0565685424949238, "resonator": "B"},
        ],
        "drive": {"rabi_ghz": 1.68},
        "variant": "effective",
        "fock_cutoffs": [6, 6],
        "t_final_ns": 25.0,
        "sample_every_ns": 1.0,
    }
    doc.update(overrides)
    return doc


def test_coupled_doc_round_trip():
    scenario = validate_scenario(coupled_doc(), name="coupled_ref")
    assert scenario.circuit.kind == "coupled"
    assert scenario.fock == (6, 6)
    assert scenario.circuit.hopping[0][1] == pytest.approx(2 * np.pi * 0.04)
    assert scenario.circuit.detuning == pytest.approx(-2 * np.pi * 0.12)


def test_coupled_structural_errors():
    with pytest.raises(ScenarioFormatError, match="degenerate"):
        validate_scenario(coupled_doc(resonator={
            "omega_a_ghz": 10.0, "omega_b_ghz": 9.9, "coupler_rate_ghz": 0.04,
        }))
    with pytest.raises(ScenarioFormatError, match="fock_cutoffs"):
        validate_scenario(coupled_doc(fock_cutoff=8))
    doc = coupled_doc()
    del doc["qubits"][0]["resonator"]
    with pytest.raises(ScenarioFormatError, match="resonator"):
        validate_scenario(doc)


def test_scenario_document_writes_only_keys_its_layout_leaves_open():
    qubits = [(10.1, 0.05, 0)] * 2
    doc = scenario_document("single", (10.0,), qubits, (6,), 2.0, drive_frequency_ghz=10.1,
                            variant="effective", t_final_ns=10.0, sample_every_ns=0.5)
    assert list(doc) == list(scenario_doc(drive={"rabi_ghz": 2.0}))
    assert validate_scenario(doc).circuit.kind == "single"
    for key in ("fock_cutoff", "schema_version", "typo_ghz"):
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            scenario_document("single", (10.0,), qubits, (6,), 2.0, **{key: 8})


def _field_paths(node, prefix=()):
    """Every key and list index of a parsed document, as paths from the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


BUNDLED_DOCS = {
    name: json.loads(bundled_scenario_path(name).read_text())
    for name in bundled_scenario_names()
}
FIELD_PATHS = sorted(
    (name, path) for name, doc in BUNDLED_DOCS.items() for path in _field_paths(doc)
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_any_json_value_loads_finite_or_is_a_format_error(target, value):
    name, path = target
    doc = copy.deepcopy(BUNDLED_DOCS[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        scenario = validate_scenario(doc, name)
    except ScenarioFormatError:
        return
    circuit = scenario.circuit
    numbers = [
        circuit.omega,
        circuit.omega_d,
        circuit.rabi,
        *circuit.mode_detunings,
        *circuit.coupling_matrix.ravel(),
        *(q.gap for q in circuit.qubits),
        scenario.t_final_ns,
        scenario.sample_every_ns,
        scenario.dt if scenario.dt is not None else 0.0,
    ]
    assert all(math.isfinite(x) for x in numbers)
    assert all(n >= 2 for n in scenario.fock)


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def test_run_writes_csv_and_summary(tmp_path):
    path = write_scenario(tmp_path, "quick_gate", scenario_doc())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    header, rows = read_csv(out / "quick_gate.csv")
    assert header == ["t_ns", "fidelity", "norm", "mode_occupation", "variant"]
    assert len(rows) == 21  # 0 .. 10 ns every 0.5 ns
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 10.0
    assert float(rows[-1][1]) > 0.999  # effective model closes the loop
    summary = json.loads((out / "quick_gate_summary.json").read_text())
    assert summary["scenario"] == "quick_gate"
    assert summary["ghz_phase_convention_selected"] == "i_power"
    assert summary["csv"] == "quick_gate.csv"
    # the summary echoes the input parameters verbatim, still in GHz
    assert summary["parameters"]["drive_frequency_ghz"] == 10.1
    assert summary["parameters"]["qubits"][0]["coupling_ghz"] == 0.05


def test_summaries_record_the_propagator(tmp_path):
    effective = write_scenario(tmp_path, "eff", scenario_doc())
    full = write_scenario(tmp_path, "full", scenario_doc(variant="full", t_final_ns=0.1))
    out = tmp_path / "out"
    assert main(["run", str(effective), "--out-dir", str(out)]) == 0
    assert main(["run", str(full), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "eff_summary.json").read_text())
    assert (summary["propagator"], summary["steps"]) == ("exact", 0)
    summary = json.loads((out / "full_summary.json").read_text())
    assert summary["propagator"] == "rk4" and summary["steps"] > 0
    assert main([
        "sweep", str(effective), "--param", "omega_r_multiple", "--values", "5,20",
        "--window", "9.5:10.0", "--workers", "1", "--out-dir", str(out),
    ]) == 0
    points = json.loads((out / "eff_sweep_summary.json").read_text())["points"]
    assert [(p["propagator"], p["steps"]) for p in points] == [("exact", 0)] * 2
    assert [p["dim"] for p in points] == [2**2 * 6] * 2  # two qubits, Fock cutoff 6
    for point in points:
        timings = point["timings_ms"]
        assert set(timings) == {"build", "propagate", "observe", "write"}
        assert all(math.isfinite(ms) and ms >= 0 for ms in timings.values())


@pytest.mark.parametrize(
    "overrides", [{}, {"variant": "full", "t_final_ns": 0.1}], ids=["exact", "rk4"]
)
def test_run_summary_records_dim_and_per_phase_timings(overrides, tmp_path):
    path = write_scenario(tmp_path, "timed", scenario_doc(**overrides))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "timed_summary.json").read_text())
    assert summary["dim"] == 2**2 * 6  # two qubits, Fock cutoff 6
    timings = summary["timings_ms"]
    assert set(timings) == {"build", "propagate", "observe", "write"}
    assert all(math.isfinite(ms) and ms >= 0 for ms in timings.values())
    run_ms = timings["build"] + timings["propagate"] + timings["observe"]
    assert run_ms <= summary["wall_time_s"] * 1e3


def test_summaries_carry_norm_and_truncation_diagnostics(tmp_path):
    """The bundled effective gate keeps its norm to 1e-12 and leaves its top
    Fock level nearly empty; cut at Fock 3, the gate puts over 5 % of the
    population there.  Sweep points carry the same record."""
    out = tmp_path / "out"
    bundled = str(bundled_scenario_path("single_tlr_ghz_effective"))
    assert main(["run", bundled, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "single_tlr_ghz_effective_summary.json").read_text())
    diagnostics = summary["diagnostics"]
    assert set(diagnostics) == {
        "max_norm_drift", "top_fock_population", "propagated_dim", "dt", "nnz",
        "approximation_warnings",
    }
    assert diagnostics["approximation_warnings"] == []
    # the exact run propagates the exchange sector; dt is validated, though unused
    assert (diagnostics["propagated_dim"], summary["dim"]) == (30, 40)
    scenario = load_scenario(bundled)
    h = effective_hamiltonian(scenario.circuit, HilbertSpace(2, scenario.fock))
    assert diagnostics["dt"] == resolve_step(h, scenario.dt)
    sector = exchange_sector(h, scenario.circuit.coupling_matrix).hamiltonian
    assert diagnostics["nnz"] == np.count_nonzero(sector(0.3)) == 72
    assert 0 <= diagnostics["max_norm_drift"] < 1e-12
    assert len(diagnostics["top_fock_population"]) == 1
    assert 0 < diagnostics["top_fock_population"][0] < 1e-6
    truncated = write_scenario(tmp_path, "fock3", scenario_doc(fock_cutoff=3, sample_every_ns=0.05))
    assert main(["run", str(truncated), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "fock3_summary.json").read_text())
    assert summary["diagnostics"]["top_fock_population"][0] > 0.05
    assert main([
        "sweep", str(truncated), "--param", "omega_r_multiple", "--values", "5,20",
        "--window", "9.5:10.0", "--workers", "1", "--out-dir", str(out),
    ]) == 0
    points = json.loads((out / "fock3_sweep_summary.json").read_text())["points"]
    for point in points:
        assert point["diagnostics"]["max_norm_drift"] < 1e-12
        assert len(point["diagnostics"]["top_fock_population"]) == 1
        assert (point["diagnostics"]["propagated_dim"], point["dim"]) == (9, 12)
        assert point["diagnostics"]["nnz"] > 0 and point["diagnostics"]["dt"] > 0


def test_summaries_record_the_approximation_warnings_of_the_builder(tmp_path):
    """A drive of Omega_R/omega_d > 0.2 trips the rotating-wave check: the
    warning is still raised, and the run and every sweep point, pool
    workers included, record its message in their diagnostics."""
    path = write_scenario(tmp_path, "strained", scenario_doc(drive={"rabi_ghz": 2.5}))
    out = tmp_path / "out"
    with pytest.warns(ApproximationWarning, match="rotating-wave") as caught:
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "strained_summary.json").read_text())
    expected = ["Omega_R/omega_d = 0.248 strains the rotating-wave approximation"]
    assert [str(w.message) for w in caught] == expected
    assert summary["diagnostics"]["approximation_warnings"] == expected
    assert main([
        "sweep", str(path), "--param", "omega_r_multiple", "--values", "5,25,40",
        "--window", "9.5:10.0", "--workers", "2", "--out-dir", str(out),
    ]) == 0
    points = json.loads((out / "strained_sweep_summary.json").read_text())["points"]
    assert [p["diagnostics"]["approximation_warnings"] for p in points] == [
        [],
        ["Omega_R/omega_d = 0.248 strains the rotating-wave approximation"],
        ["Omega_R/omega_d = 0.396 strains the rotating-wave approximation"],
    ]


def test_run_prints_the_wall_time_of_its_summary(tmp_path, capsys):
    """The stdout line shows wall_time_s to 3 significant figures, so a
    run of a few milliseconds does not read 0.0 s."""
    path = write_scenario(tmp_path, "timed", scenario_doc())
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    printed = re.fullmatch(r"timed: .*, (\S+) s", line).group(1)
    wall = json.loads((out / "timed_summary.json").read_text())["wall_time_s"]
    assert printed == f"{wall:.3g}"
    assert float(printed) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{scenario}", "--out-dir", "{file}"],
        [
            "sweep", "{scenario}", "--param", "omega_r_multiple", "--values", "20",
            "--window", "9.5:10.0", "--workers", "1", "--out-dir", "{file}",
        ],
        [
            "coupler", "--lc-ph", "200", "--ic-ua", "1.5", "--mca-ph", "60", "--mcb-ph", "60",
            "--out-dir", "{file}",
        ],
        ["solve", "--mode", "single", "--g-ghz", "0.05", "--out", "{missing}/x.json"],
    ],
    ids=["run", "sweep", "coupler", "solve"],
)
def test_an_output_path_that_cannot_be_written_exits_2(argv, tmp_path, capsys):
    """--out-dir names an existing file, or --out a file in a directory that
    does not exist: an error line and exit 2, not a traceback."""
    paths = {
        "scenario": write_scenario(tmp_path, "eff", scenario_doc()),
        "file": tmp_path / "taken",
        "missing": tmp_path / "missing",
    }
    paths["file"].write_text("not a directory\n")
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_repeated_main_calls_leave_little_cyclic_garbage(tmp_path, capsys):
    """The argparse parser is built once per process: a fresh parser per
    call left about 250 objects in reference cycles each time."""
    argv = ["run", str(bundled_scenario_path("single_tlr_ghz_effective")),
            "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        codes = [main(argv) for _ in range(5)]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert codes == [0] * 5
    assert garbage < 700


def test_run_outputs_are_deterministic(tmp_path):
    path = write_scenario(tmp_path, "det", scenario_doc())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out-dir", str(out_a)]) == 0
    assert main(["run", str(path), "--out-dir", str(out_b)]) == 0
    assert (out_a / "det.csv").read_bytes() == (out_b / "det.csv").read_bytes()


def test_run_reports_drive_mapping(tmp_path):
    doc = scenario_doc(drive={"resonator_amplitude_ghz": 1.0})
    path = write_scenario(tmp_path, "mapped", doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "mapped_summary.json").read_text())
    mapping = summary["drive_mapping"]
    assert mapping["rabi_per_qubit_ghz"] == pytest.approx([1.0, 1.0], rel=1e-12)
    assert mapping["displacement_magnitude"] == pytest.approx(10.0, rel=1e-12)


def _reference_trajectory_csv(path, trajectory):
    """The trajectory CSV written value by value through csv.writer."""
    n_modes = trajectory.mode_occupation.shape[1]
    columns = [f"mode_occupation_{m}" for m in range(n_modes)]
    if n_modes == 1:
        columns = ["mode_occupation"]
    if n_modes == 2:
        columns = ["mode_occupation_p", "mode_occupation_q"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_ns", "fidelity", "norm", *columns, "variant"])
        for i, t in enumerate(trajectory.times):
            writer.writerow([
                f"{t:.11e}",
                f"{trajectory.fidelity[i]:.11e}",
                f"{trajectory.norm[i]:.11e}",
                *(f"{x:.11e}" for x in trajectory.mode_occupation[i]),
                trajectory.label,
            ])


@pytest.mark.parametrize(
    "n_modes, label, rows_per_write",
    [
        (1, "single:full", None),
        (2, "coupled:effective", None),
        (3, "array:rotating", None),
        (1, "single:full:rabi=3.14159265", None),
        (2, "coupled:effective", 7),  # 36 whole chunks and one of 5 rows
        (1, 'a "100%", quoted label', None),  # csv quoting, and %% in the template
    ],
    ids=["one-mode", "two-mode", "three-mode", "sweep-label", "multi-chunk", "quoted-label"],
)
def test_trajectory_csv_is_byte_identical_to_csv_writer(
    n_modes, label, rows_per_write, tmp_path, monkeypatch
):
    if rows_per_write is not None:
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows_per_write)
    rng = np.random.default_rng(n_modes)
    samples = 257
    values = rng.normal(size=(samples, 3 + n_modes)) * 10.0 ** rng.integers(-300, 300, (samples, 1))
    values[:4, 1] = [0.0, -0.0, 5e-324, 1.0]
    trajectory = Trajectory(
        times=np.arange(samples) * 0.04,
        fidelity=values[:, 1],
        norm=values[:, 2],
        mode_occupation=values[:, 3:],
        label=label,
        convention="i_power",
    )
    _write_trajectory_csv(tmp_path / "fast.csv", trajectory)
    _reference_trajectory_csv(tmp_path / "reference.csv", trajectory)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    with open(tmp_path / "fast.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == samples + 1
    assert {len(row) for row in rows} == {4 + n_modes}
    assert {row[-1] for row in rows[1:]} == {label}


def test_run_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,,}')
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_key_exits_2(tmp_path):
    # a misspelt key, and time_budget_s and renormalize_every, which the
    # schema no longer has
    for doc in (
        scenario_doc(fock_cutof=8),
        scenario_doc(time_budget_s=30),
        scenario_doc(integrator={"renormalize_every": 1}),
    ):
        path = write_scenario(tmp_path, "typo", doc)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def _with_coupling(value):
    doc = scenario_doc(variant="full", t_final_ns=0.1, sample_every_ns=0.05)
    doc["qubits"] = [{"gap_ghz": 10.1, "coupling_ghz": value}] * 2
    return doc


def _uncoupled_pair():
    # J = 0: no photon exchange, so the sweep unit max|J| would be 0
    doc = coupled_doc()
    doc["resonator"] = dict(doc["resonator"], coupler_rate_ghz=0)
    return doc


def _overflowing_normal_mode():
    # each frequency is finite, but delta' - J is not
    doc = coupled_doc(drive_frequency_ghz=2.5e307)
    doc["resonator"] = dict(doc["resonator"], coupler_rate_ghz=2e307)
    for qubit in doc["qubits"]:
        qubit["gap_ghz"] = 2.5e307
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        scenario_doc(fock_cutoff=1),
        coupled_doc(fock_cutoffs=[8, 1]),
        _with_coupling(float("nan")),
        scenario_doc(drive={"rabi_ghz": float("nan")}),
        scenario_doc(t_final_ns=float("inf")),
        scenario_doc(t_final_ns=10**400),
        scenario_doc(drive_frequency_ghz=1e308),
        _overflowing_normal_mode(),
        _uncoupled_pair(),
        scenario_doc(fock_cutoff=10**6),
        scenario_doc(sample_every_ns=1e-300),
    ],
    ids=[
        "fock_cutoff=1", "fock_cutoffs=[8,1]", "coupling=NaN", "rabi=NaN",
        "t_final=Infinity", "t_final=10**400", "drive=1e308", "delta'-J=-inf",
        "coupler_rate=0", "fock_cutoff=10**6", "sample_every=1e-300",
    ],
)
def test_run_rejects_non_finite_and_out_of_range_numbers(doc, tmp_path, capsys):
    path = write_scenario(tmp_path, "bad_number", doc)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    sweep = ["sweep", str(path), "--param", "omega_r_multiple", "--values", "20,40"]
    assert main(sweep + ["--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "ghost.json"), "--out-dir", str(tmp_path)]) == 2


def test_run_off_resonant_gap_exits_3(tmp_path, capsys):
    doc = scenario_doc()
    doc["qubits"] = [{"gap_ghz": 10.0, "coupling_ghz": 0.05}] * 2
    doc["resonator"] = {"omega_ghz": 9.9}
    path = write_scenario(tmp_path, "detuned_qubit", doc)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    assert "precondition" in capsys.readouterr().err


def test_run_coarse_step_exits_3(tmp_path):
    doc = scenario_doc(integrator={"dt_ns": 0.5})  # limit is period/50 = 0.2 ns
    path = write_scenario(tmp_path, "coarse", doc)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("dt_ns", [1e-300, 5e-324])
def test_run_and_sweep_with_a_vanishing_step_exit_3(dt_ns, tmp_path, capsys):
    """A positive step so small that the RK4 step count overflows is a
    precondition error naming the step and the count, not a traceback."""
    doc = scenario_doc(
        variant="full", t_final_ns=0.1, sample_every_ns=0.05, integrator={"dt_ns": dt_ns}
    )
    path = write_scenario(tmp_path, "vanishing", doc)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"dt = {dt_ns:g} ns" in err and "RK4 steps" in err
    sweep = ["sweep", str(path), "--param", "omega_r_multiple", "--values", "20"]
    assert main(sweep + ["--window", "0:0.1", "--workers", "1", "--out-dir", str(out)]) == 3
    assert "RK4 steps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------


def test_sweep_outputs(tmp_path):
    path = write_scenario(tmp_path, "gate", scenario_doc())
    out = tmp_path / "out"
    code = main([
        "sweep", str(path), "--param", "omega_r_multiple",
        "--values", "5.0,20", "--window", "9.5:10.0", "--workers", "1",
        "--out-dir", str(out),
    ])
    assert code == 0
    # multiplier tokens are canonical: 5.0 -> '5'
    point5 = out / "gate_omega_r_multiple=5.csv"
    point20 = out / "gate_omega_r_multiple=20.csv"
    assert point5.exists() and point20.exists()
    header, rows = read_csv(point5)
    assert header == ["t_ns", "fidelity", "norm", "mode_occupation", "variant"]
    assert float(rows[0][0]) == 9.5
    assert float(rows[-1][0]) == 10.0
    table_header, table_rows = read_csv(out / "gate_omega_r_multiple_summary.csv")
    assert table_header == ["omega_r_multiple", "peak_fidelity", "peak_time_ns", "convention"]
    assert [r[0] for r in table_rows] == ["5", "20"]
    summary = json.loads((out / "gate_sweep_summary.json").read_text())
    assert summary["values"] == [5.0, 20.0]
    assert summary["window_ns"] == [9.5, 10.0]
    assert summary["workers"] == 1
    assert len(summary["points"]) == 2


def test_sweep_csv_matches_library_call(tmp_path):
    path = write_scenario(tmp_path, "gate", scenario_doc())
    out = tmp_path / "out"
    assert main([
        "sweep", str(path), "--param", "omega_r_multiple",
        "--values", "20", "--window", "9.5:10.0", "--workers", "1",
        "--out-dir", str(out),
    ]) == 0
    _, rows = read_csv(out / "gate_omega_r_multiple=20.csv")
    scenario = load_scenario(path)
    [traj] = sweep_drive_strength(
        scenario.circuit, scenario.variant, [20.0], (9.5, 10.0),
        scenario.sample_every_ns, fock=scenario.fock,
        dt=scenario.dt, convention=scenario.convention, workers=1,
    )
    assert len(rows) == len(traj.times)
    for row, t, f in zip(rows, traj.times, traj.fidelity):
        assert row[0] == f"{t:.11e}"
        assert row[1] == f"{f:.11e}"


def test_one_qubit_scenario_exits_2_before_running(tmp_path, capsys):
    doc = scenario_doc(qubits=[{"gap_ghz": 10.1, "coupling_ghz": 0.05}])
    path = write_scenario(tmp_path, "one", doc)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert "at least two qubits" in capsys.readouterr().err
    sweep = ["sweep", str(path), "--param", "omega_r_multiple", "--values", "5"]
    assert main(sweep + ["--out-dir", str(out)]) == 2
    assert "at least two qubits" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_input_errors(tmp_path, capsys):
    path = write_scenario(tmp_path, "gate", scenario_doc())
    base = ["sweep", str(path), "--out-dir", str(tmp_path / "o")]
    assert main(base + ["--param", "detuning", "--values", "5"]) == 2
    assert "unsupported sweep parameter" in capsys.readouterr().err
    assert main(base + ["--param", "omega_r_multiple", "--values", " , "]) == 2
    assert main(base + ["--param", "omega_r_multiple", "--values", "5;10"]) == 2
    assert main(
        base + ["--param", "omega_r_multiple", "--values", "5", "--window", "10:9"]
    ) == 2
    assert main(
        base + ["--param", "omega_r_multiple", "--values", "5", "--window", "1:2:3"]
    ) == 2
    # non-finite numbers
    assert main(base + ["--param", "omega_r_multiple", "--values", "5,nan"]) == 2
    assert main(base + ["--param", "omega_r_multiple", "--values", "inf"]) == 2
    assert main(
        base + ["--param", "omega_r_multiple", "--values", "5", "--window", "0:inf"]
    ) == 2
    assert main(
        base + ["--param", "omega_r_multiple", "--values", "5", "--window", "nan:1"]
    ) == 2
    # a window whose stored states would pass MAX_STORED_AMPLITUDES
    assert main(
        base + ["--param", "omega_r_multiple", "--values", "5", "--window", "0:1e300"]
    ) == 2
    assert "stored amplitudes" in capsys.readouterr().err
    # values whose point files share a name: 20.0000001 prints as '20'
    sweep = base + ["--param", "omega_r_multiple", "--values"]
    assert main(sweep + ["5,20,20.0000001"]) == 2
    assert "--values 20.0, 20.0000001 share a point file name" in capsys.readouterr().err
    assert main(sweep + ["20,20"]) == 2
    assert "--values 20.0, 20.0 share" in capsys.readouterr().err
    # worker counts from the flag
    one_point = base + ["--param", "omega_r_multiple", "--values", "5"]
    for flag in ("0", "-2"):
        assert main(one_point + ["--workers", flag]) == 2
        assert "worker count must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_size_limits_admit_the_largest_planned_run():
    """Six qubits on a 24-level mode (dim 1536) loads; seven (3072) does not,
    and a sampling grid loads just inside the amplitude limit, not past it."""
    six = [{"gap_ghz": 10.1, "coupling_ghz": 0.05}] * 6
    validate_scenario(scenario_doc(qubits=six, fock_cutoff=24))
    with pytest.raises(ScenarioFormatError, match="dimension 2\\^7 x 24 exceeds"):
        validate_scenario(scenario_doc(qubits=six + six[:1], fock_cutoff=24))
    # two qubits, 6 levels: dim 24, (10 ns / sample_every + 2) x 24 against 2**24
    every = 10.0 / (MAX_STORED_AMPLITUDES / 24 - 2)
    validate_scenario(scenario_doc(sample_every_ns=every * 1.000001))
    with pytest.raises(ScenarioFormatError, match="stored amplitudes"):
        validate_scenario(scenario_doc(sample_every_ns=every * 0.999999))


# ---------------------------------------------------------------------------
# coupler subcommand
# ---------------------------------------------------------------------------

COUPLER_ARGS = [
    "coupler", "--lc-ph", "200", "--ic-ua", "1.5",
    "--mca-ph", "60", "--mcb-ph", "60",
]


def test_coupler_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(COUPLER_ARGS + ["--phie-grid", "0:1:101", "--out-dir", str(out)]) == 0
    header, rows = read_csv(out / "coupler.csv")
    assert header == ["phi_e_over_phi0", "m_eff_ph", "j_ghz"]
    assert len(rows) == 101
    summary = json.loads((out / "coupler_summary.json").read_text())
    assert 0.9 < summary["beta_l"] < 0.92
    # the effective mutual vanishes at half a flux quantum and reverses sign
    assert summary["zero_crossings_phi0"] == pytest.approx([0.5], abs=1e-9)
    m_at = {float(r[0]): float(r[1]) for r in rows}
    assert m_at[0.4] * m_at[0.6] < 0
    assert summary["m_eff_at_zero_flux_ph"] < 0
    assert summary["j_at_zero_flux_ghz"] < 0
    assert abs(summary["j_at_zero_flux_ghz"]) == pytest.approx(0.0425, abs=0.005)


def test_coupler_hysteretic_device_exits_2(tmp_path, capsys):
    args = [
        "coupler", "--lc-ph", "200", "--ic-ua", "1.7",
        "--mca-ph", "60", "--mcb-ph", "60", "--out-dir", str(tmp_path),
    ]
    assert main(args) == 2
    assert "nonhysteretic" in capsys.readouterr().err


def test_coupler_bad_grid_exits_2(tmp_path, capsys):
    assert main(COUPLER_ARGS + ["--phie-grid", "0:1", "--out-dir", str(tmp_path)]) == 2
    assert main(COUPLER_ARGS + ["--phie-grid", "1:0:11", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()
    # a count past the limit is refused before the grid is allocated
    out = tmp_path / "out"
    huge = ["--phie-grid", "0:1:10000000000000", "--out-dir", str(out)]
    assert main(COUPLER_ARGS + huge) == 2
    assert f"count <= {cli.MAX_GRID_POINTS}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--lc-ph", "nan"],
        ["--phie-grid", "0:inf:5"],
        ["--phie-grid=-inf:0:5"],
        ["--phie-grid=-1e308:1e308:5"],
        ["--mca-ph", "1e200", "--mcb-ph", "1e200"],
        ["--ia0-na", "inf"],
        ["--l", "100000000000000000000"],
    ],
)
def test_coupler_non_finite_table_exits_2_without_writing(tmp_path, capsys, extra):
    """No NaN/inf coupler table: non-finite inputs, finite ones whose M_eff
    or J overflows, and a branch parity past 2**53, which no float holds,
    exit 2 before any file is opened."""
    out = tmp_path / "out"
    assert main(COUPLER_ARGS + extra + ["--out-dir", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "coupler.csv").exists()
    assert not out.exists()


# ---------------------------------------------------------------------------
# solve subcommand
# ---------------------------------------------------------------------------


def test_solve_single(tmp_path, capsys):
    assert main(["solve", "--mode", "single", "--g-ghz", "0.05"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["abs_detuning_ghz"] == pytest.approx(0.1, rel=1e-12)
    assert result["gate_time_ns"] == pytest.approx(10.0, rel=1e-12)
    assert result["detunings_ghz"][1] == pytest.approx(-0.1, rel=1e-12)
    # the emitted fragment is itself a valid scenario
    scenario = validate_scenario(result["scenario_fragment"], name="solved")
    assert scenario.circuit.kind == "single"
    assert scenario.circuit.detuning == pytest.approx(-2 * np.pi * 0.1, rel=1e-12)


def test_solve_coupled(tmp_path):
    out = tmp_path / "solution.json"
    g = np.sqrt(2.0) * 0.04
    assert main([
        "solve", "--mode", "coupled", "--xi", "3", "--g-ghz", f"{g:.17g}",
        "--out", str(out),
    ]) == 0
    result = json.loads(out.read_text())
    assert result["coupler_rate_ghz"] == pytest.approx(0.04, rel=1e-12)
    assert result["delta_prime_ghz"] == pytest.approx(0.12, rel=1e-12)
    assert result["gate_time_ns"] == pytest.approx(25.0, rel=1e-12)
    assert result["same_pair_phase_rad"] == pytest.approx(3 * np.pi / 8, rel=1e-12)
    assert result["cross_pair_phase_rad"] == pytest.approx(-np.pi / 8, rel=1e-12)
    scenario = validate_scenario(result["scenario_fragment"], name="solved")
    assert scenario.circuit.kind == "coupled"


# sha256 of `ghzforge solve <argv>` stdout, pinned so that any change to a
# byte of the printed solution or scenario fragment shows.
SOLVE_STDOUT_SHA256 = {
    "--mode single --g-ghz 0.05":
        "316425daa98f787958018c0f8b9c2ea9c4c68bd552998cd2e8819e5ccda3ab6e",
    "--mode single --n 2 --m 1 --g-ghz 0.05":
        "2c48b021c11ec4245e7a867b43810adbf4315c197ce6896a497dd111b639210e",
    "--mode coupled --xi 3 --g-ghz 0.0565685424949238":
        "30c4a58a5734be0fd589e0e5a12a8ab3830e8236f1b9f05877f9748349635daf",
    "--mode coupled --xi 7 --m 8 --l 1 --g-ghz 0.0565685424949238":
        "934fa94a00a7e8299676eb8ba9129e57977f19b41b58b5753b93e453d3407efc",
}


@pytest.mark.parametrize("argv", list(SOLVE_STDOUT_SHA256))
def test_solve_stdout_is_pinned_byte_for_byte(argv, capsys):
    assert main(["solve", *argv.split()]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == SOLVE_STDOUT_SHA256[argv], stdout


def test_solve_unsolvable_exits_4(capsys):
    assert main(["solve", "--mode", "coupled", "--xi", "4", "--g-ghz", "0.05"]) == 4
    assert "unsolvable" in capsys.readouterr().err
    assert main(["solve", "--mode", "coupled", "--xi", "5", "--g-ghz", "0.05"]) == 4


@pytest.mark.parametrize("mode", [["--mode", "single"], ["--mode", "coupled", "--xi", "3"]])
@pytest.mark.parametrize("g_ghz", ["nan", "inf", "-inf", "1e308", "1e200", "1e-300"])
def test_solve_never_prints_a_non_finite_solution(tmp_path, capsys, mode, g_ghz):
    """A coupling that is not finite after the 2 pi scaling, or whose
    solution over- or underflows, exits 2 without printing NaN/Infinity."""
    out = tmp_path / "solution.json"
    assert main(["solve", *mode, f"--g-ghz={g_ghz}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--g-ghz" in captured.err
    assert main(["solve", *mode, f"--g-ghz={g_ghz}", "--out", str(out)]) == 2
    assert not out.exists()


def test_solve_missing_xi_exits_2():
    assert main(["solve", "--mode", "coupled", "--g-ghz", "0.05"]) == 2


@pytest.mark.parametrize(
    "flags, named", [(["--xi", "4", "--l", "7"], "--xi or --l"), (["--l", "0"], "--l")]
)
def test_solve_single_refuses_the_coupled_flags(flags, named, capsys):
    assert main(["solve", "--mode", "single", *flags, "--g-ghz", "0.05"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--mode single takes no {named}" in captured.err
