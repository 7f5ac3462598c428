"""Fast tests of the benchmark itself:  python3 -m pytest benchmark -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
import workload

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ghzforge import cli, dynamics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((workload.HERE / "references.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_units_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == run.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workload.WORKLOADS)
    assert workload.POOL_PROBE in workload.WORKLOADS
    for name in [*end_to_end, *per_layer, *workload.WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.fixture(scope="module")
def effective_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    spec = workload.WORKLOADS["effective_gate"]
    scenario = workload.scenario_path(spec, ROOT, out)
    assert cli.main(workload.request_argv(spec, scenario, out, [])) == 0
    return spec, out


@pytest.mark.parametrize(
    "references",
    [
        {"fidelity_at_t_final": REFERENCES["effective_gate"]["fidelity_at_t_final"] + 1e-9},
        {"fidelity_at_t_final": "not a number"},
        {"peak_fidelity": {}},
        None,
    ],
)
def test_corrupted_reference_is_a_failure_not_an_exception(effective_outputs, references):
    spec, out = effective_outputs
    problems, _facts = workload.check_outputs(spec, 0, out, references, None)
    assert problems


def test_recorded_reference_passes_and_changed_csv_fails(effective_outputs):
    spec, out = effective_outputs
    refs = REFERENCES["effective_gate"]
    problems, facts = workload.check_outputs(spec, 0, out, refs, None)
    assert problems == []
    changed = {name: "0" * 64 for name in facts["hashes"]}
    problems, _ = workload.check_outputs(spec, 0, out, refs, changed)
    assert problems == ["output CSVs differ from the first request's"]


def test_corrupted_reference_counts_every_request_as_failed(tmp_path):
    references = {"effective_gate": {"fidelity_at_t_final": 0.5}}
    client = workload.Client(cli, dynamics, references, ROOT, tmp_path, 1)
    client.send("effective_gate", "plain")
    client.send("effective_gate", "traced")
    assert [r["ok"] for r in client.requests] == [False, False]
    assert len(client.failures) == 2
    assert all("fidelity at t_final" in f for f in client.failures)


def test_rejected_argv_is_a_failed_request(tmp_path):
    def main(argv):
        raise SystemExit(2)  # what argparse does with an unknown option

    client = workload.Client(SimpleNamespace(main=main), dynamics, REFERENCES, ROOT, tmp_path, 1)
    client.send("effective_gate", "plain")
    assert client.requests[0]["ok"] is False
    assert client.failures == ["request 0 (effective_gate, plain): exit code 2"]


def test_missing_boundary_is_reported_and_uninstall_restores():
    original = dynamics.evolve_sampled
    builder = dynamics._SINGLE_BUILDERS["full"]
    tracer = tracing.Tracer(
        tracing.BOUNDARIES
        + (("gone.fn", "ghzforge.dynamics", "no_such_function"),
           ("gone.module", "ghzforge.no_such_module", "f"))
    )
    tracer.install()
    try:
        assert tracer.missing == ["ghzforge.dynamics.no_such_function", "ghzforge.no_such_module.f"]
        assert dynamics.evolve_sampled is not original
        assert cli.sweep_drive_strength is dynamics.sweep_drive_strength
        assert dynamics._SINGLE_BUILDERS["full"] is not builder
    finally:
        tracer.uninstall()
    assert dynamics.evolve_sampled is original
    assert dynamics._SINGLE_BUILDERS["full"] is builder


def test_self_time_subtracts_direct_children():
    spans = [
        ["sweep", 0.0, 10.0, None],
        ["point", 1.0, 5.0, 0],
        ["evolve", 2.0, 4.0, 1],
        ["write", 11.0, 12.0, None],
    ]
    self_s, covered = tracing.self_times(spans)
    assert self_s == {"sweep": 6.0, "point": 2.0, "evolve": 2.0, "write": 1.0}
    assert covered == 11.0


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(1, 41)]
    value, rank = run.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert rank == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_sweep_seed_permutes_order_only():
    spec = workload.WORKLOADS["single_sweep"]
    orders = {tuple(workload.multipliers(spec, seed)) for seed in range(20)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(spec.values) for order in orders)
