"""Regression guard over the bundled scenarios.

Every bundled scenario goes through validate_scenario and run_scenario; its
fidelity at t_final is pinned to 1e-10 and the Hamiltonian it integrates to
its exact term count, fastest frequency and label.  Full-model runs are cut
to 0.5 ns to keep the guard fast; the effective scenario runs to the end.
The Hamiltonian is caught as its builder returns it, whichever propagator
then runs it, so the guard reads nothing but the public scenario path.
"""

import json
from functools import partial

import pytest

from ghzforge import dynamics
from ghzforge.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    run_scenario,
    validate_scenario,
)

CUT_NS = 0.5

# name: (fidelity_at_t_final, len(terms), fastest_frequency, label)
GOLDEN = {
    "coupled_tlr_drive_sweep": (0.34462049333794686, 2, 126.41768838045327, "coupled:full"),
    "coupled_tlr_ghz": (0.34462049160570063, 2, 126.41768838045327, "coupled:full"),
    "single_tlr_drive_sweep": (0.4949401001120082, 2, 126.29202467430969, "single:full"),
    "single_tlr_ghz": (0.4949401001120086, 2, 126.29202467430969, "single:full"),
    "single_tlr_ghz_effective": (0.9999999885086892, 1, 0.6283185307179551, "single:effective"),
}

# (scenario, variant): (len(terms), fastest_frequency) for every builder
BUILDERS = {
    ("single_tlr_ghz", "full"): (2, 126.29202467430969),
    ("single_tlr_ghz", "rotating"): (0, 13.194689145077128),
    ("single_tlr_ghz", "intermediate"): (3, 13.194689145077128),
    ("single_tlr_ghz", "effective"): (1, 0.6283185307179551),
    ("coupled_tlr_ghz", "full"): (2, 126.41768838045327),
    ("coupled_tlr_ghz", "rotating"): (0, 11.561060965210434),
    ("coupled_tlr_ghz", "intermediate"): (6, 11.561060965210434),
    ("coupled_tlr_ghz", "effective"): (2, 1.0053096491487294),
}


class _Built(Exception):
    """Raised instead of propagating once the Hamiltonian is captured."""


def _capture(monkeypatch, integrate: bool) -> list:
    seen = []

    def recording(build, circuit, space):
        seen.append(build(circuit, space))
        if not integrate:
            raise _Built
        return seen[-1]

    for variant, build in list(dynamics._BUILDERS.items()):
        monkeypatch.setitem(dynamics._BUILDERS, variant, partial(recording, build))
    return seen


def _doc(name: str) -> dict:
    return json.loads(bundled_scenario_path(name).read_text())


def test_every_bundled_scenario_is_pinned():
    assert sorted(GOLDEN) == bundled_scenario_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_golden(name, monkeypatch):
    fidelity, n_terms, fastest, label = GOLDEN[name]
    doc = _doc(name)
    if doc["variant"] != "effective":
        doc["t_final_ns"] = CUT_NS
    seen = _capture(monkeypatch, integrate=True)
    trajectory = run_scenario(validate_scenario(doc, name))
    [hamiltonian] = seen
    assert abs(trajectory.final_fidelity - fidelity) <= 1e-10
    assert len(hamiltonian.terms) == n_terms
    assert hamiltonian.fastest_frequency == fastest
    assert hamiltonian.label == label == trajectory.label


@pytest.mark.parametrize("name, variant", sorted(BUILDERS))
def test_builder_term_structure(name, variant, monkeypatch):
    n_terms, fastest = BUILDERS[(name, variant)]
    seen = _capture(monkeypatch, integrate=False)
    with pytest.raises(_Built):
        run_scenario(validate_scenario(dict(_doc(name), variant=variant), name))
    [hamiltonian] = seen
    assert len(hamiltonian.terms) == n_terms
    assert hamiltonian.fastest_frequency == fastest
    assert hamiltonian.label == f"{_doc(name)['kind']}:{variant}"
