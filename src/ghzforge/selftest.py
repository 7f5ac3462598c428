"""Built-in invariant checks, runnable from the command line.

Each check re-derives a closed-form or algebraic fact at reduced size and
compares against the package's implementation.  The checks deliberately
read package constants at call time so that a corrupted constant (or a
mutation introduced while refactoring) is caught by name rather than by a
distant numerical drift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import constants
from .analytic import (
    SquidCoupler,
    accumulated_pair_phase,
    decoupling_time,
    decoupling_unitary,
    effective_mutual_inductance,
    ghz_target,
    mode_displacement_amplitude,
    pair_phase_matrix,
    solve_coupled_phase_condition,
    solve_single_phase_condition,
)
from .dynamics import evolve_sampled, ground_vacuum_state, run
from .model import (
    QubitSpec,
    SingleTlrCircuit,
    lab_frame_hamiltonian,
    rotating_frame_hamiltonian,
)
from .operators import (
    HilbertSpace,
    annihilation,
    creation,
    hermiticity_defect,
    partial_trace_modes,
    pauli,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name):
    """Decorator: time the check and turn exceptions into failures."""

    def wrap(fn):
        def run() -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(name, passed, detail, time.perf_counter() - start)

        run.check_name = name
        return run

    return wrap


@_check("pauli-algebra")
def _pauli_algebra():
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    eye = np.eye(2)
    worst = max(
        np.max(np.abs(sx @ sx - eye)),
        np.max(np.abs(sy @ sy - eye)),
        np.max(np.abs(sx @ sy - sy @ sx - 2j * sz)),
        np.max(np.abs(sy @ sz - sz @ sy - 2j * sx)),
    )
    return worst < 1e-14, f"max algebra defect {worst:.2e}"


@_check("ladder-algebra")
def _ladder_algebra():
    n_levels = 7
    a, adag = annihilation(n_levels), creation(n_levels)
    comm = a @ adag - adag @ a
    # On a truncated ladder [a, a+] = 1 except in the highest level.
    expected = np.eye(n_levels)
    expected[-1, -1] = -(n_levels - 1)
    worst = np.max(np.abs(comm - expected))
    return worst < 1e-12, f"truncated commutator defect {worst:.2e}"


@_check("builder-hermiticity")
def _builder_hermiticity():
    q = QubitSpec(gap=2 * np.pi * 10.1, coupling=2 * np.pi * 0.05)
    circuit = SingleTlrCircuit(
        omega_r=2 * np.pi * 10.0,
        qubits=(q, q),
        omega_d=2 * np.pi * 10.1,
        rabi=2 * np.pi * 2.0,
    )
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    hams = (
        lab_frame_hamiltonian(circuit, 2 * np.pi * 0.1, space),
        rotating_frame_hamiltonian(circuit, space),
    )
    worst = 0.0
    for h in hams:
        for t in (0.0, 0.137, 1.618):
            worst = max(worst, hermiticity_defect(h(t)))
    return worst < 1e-12, f"max hermiticity defect {worst:.2e}"


@_check("displacement-closure")
def _displacement_closure():
    g, delta = 2 * np.pi * 0.05, -2 * np.pi * 0.1
    worst = max(
        abs(mode_displacement_amplitude(decoupling_time(delta, n), g, delta))
        for n in (1, 2, 3)
    )
    return worst < 1e-13, f"max |B(T_n)| {worst:.2e}"


@_check("pair-phase-quadrature")
def _pair_phase_quadrature():
    rng = np.random.default_rng(20260417)
    worst = 0.0
    for _ in range(3):
        g_k, g_j = rng.uniform(0.1, 0.6, size=2)
        delta = rng.uniform(0.3, 1.2) * rng.choice([-1.0, 1.0])
        t_end = rng.uniform(4.0, 12.0)
        # gamma_kj(t) = (g_k g_j / 4 delta) * Int_0^t (1 - e^{i delta s}) ds
        re, _ = quad(lambda s: 1.0 - np.cos(delta * s), 0.0, t_end, limit=200)
        im, _ = quad(lambda s: -np.sin(delta * s), 0.0, t_end, limit=200)
        reference = (g_k * g_j / (4.0 * delta)) * complex(re, im)
        value = accumulated_pair_phase(t_end, g_k, g_j, delta)
        worst = max(worst, abs(value - reference))
    return worst < 1e-9, f"max |closed form - quadrature| {worst:.2e}"


@_check("phase-condition-solvers")
def _phase_condition_solvers():
    g = 2 * np.pi * 0.05
    single = solve_single_phase_condition(n=1, m=0, coupling=g)
    ok_single = (
        abs(abs(single.deltas[0]) - 2 * np.pi * 0.1) < 1e-12
        and abs(single.gate_time - 10.0) < 1e-12
    )
    coupled = solve_coupled_phase_condition(n=1, m=0, l=0, xi=3, coupling=np.sqrt(2) * 2 * np.pi * 0.04)
    ok_coupled = (
        abs(coupled.coupler_rate - 2 * np.pi * 0.04) < 1e-12
        and abs(coupled.gate_time - 25.0) < 1e-12
    )
    return ok_single and ok_coupled, (
        f"single |delta|={abs(single.deltas[0]) / (2 * np.pi):.6f} GHz*2pi, "
        f"coupled J={coupled.coupler_rate / (2 * np.pi):.6f} GHz*2pi"
    )


@_check("squid-coupler")
def _squid_coupler():
    coupler = SquidCoupler(
        loop_inductance_ph=200.0,
        critical_current_ua=1.5,
        mutual_a_ph=60.0,
        mutual_b_ph=60.0,
    )
    beta = coupler.screening_parameter
    if not beta < 1.0:
        return False, f"screening parameter {beta:.4f} not < 1"
    half = effective_mutual_inductance(coupler, 0.5)
    tiny = SquidCoupler(
        loop_inductance_ph=200.0,
        critical_current_ua=1e-9,
        mutual_a_ph=60.0,
        mutual_b_ph=60.0,
    )
    vanishing = abs(effective_mutual_inductance(tiny, 0.0))
    ok = abs(half) < 1e-9 and vanishing < 1e-6
    return ok, (
        f"beta_L={beta:.4f}, M_eff(Phi0/2)={half:.2e} pH, "
        f"M_eff(Ic->0)={vanishing:.2e} pH"
    )


@_check("flux-quantum-consistency")
def _flux_quantum_consistency():
    # Phi_0 = h / 2e; the packaged constants must satisfy it to float precision.
    h_js = 2.0 * np.pi * constants.HBAR_JS
    electron = 1.602176634e-19
    relative = abs(constants.FLUX_QUANTUM_WB - h_js / (2.0 * electron)) / constants.FLUX_QUANTUM_WB
    return relative < 1e-9, f"relative defect {relative:.2e}"


@_check("closure-against-propagator")
def _closure_against_propagator():
    delta = -2 * np.pi * 0.1
    g = 2 * np.pi * 0.05
    q = QubitSpec(gap=2 * np.pi * 10.1, coupling=g)
    circuit = SingleTlrCircuit(
        omega_r=2 * np.pi * 10.0,
        qubits=(q, q),
        omega_d=2 * np.pi * 10.1,
        rabi=2 * np.pi * 2.0,
    )
    t_gate = decoupling_time(delta, 1)
    trajectory = run(circuit, "effective", t_gate, 1.0, (8,))
    ideal = decoupling_unitary(pair_phase_matrix([[g], [g]], (delta,), t_gate)) @ np.array(
        [0.0, 0.0, 0.0, 1.0], dtype=complex
    )
    fidelity = trajectory.fidelity[-1]
    # The trajectory reports fidelity against the GHZ target; compare the
    # ideal propagator's own fidelity to the same target as a cross-check.
    target = ghz_target(2, trajectory.convention)
    ideal_fidelity = abs(np.vdot(target, ideal)) ** 2
    gap = abs(fidelity - ideal_fidelity)
    return gap < 5e-5 and ideal_fidelity > 0.9999, (
        f"|F_sim - F_ideal| = {gap:.2e}, F_ideal = {ideal_fidelity:.6f}"
    )


@_check("integrator-order")
def _integrator_order():
    q = QubitSpec(gap=2 * np.pi * 10.1, coupling=2 * np.pi * 0.05)
    circuit = SingleTlrCircuit(
        omega_r=2 * np.pi * 10.0,
        qubits=(q,),
        omega_d=2 * np.pi * 10.1,
        rabi=2 * np.pi * 2.0,
    )
    space = HilbertSpace(n_qubits=1, mode_levels=(4,))
    h = rotating_frame_hamiltonian(circuit, space)
    psi0 = ground_vacuum_state(space)
    times = [1.0]
    dt = (2 * np.pi / h.fastest_frequency) / 64.0
    truth = evolve_sampled(h, psi0, times, dt / 16)[-1]
    coarse = evolve_sampled(h, psi0, times, dt)[-1]
    fine = evolve_sampled(h, psi0, times, dt / 2)[-1]
    e_coarse = np.linalg.norm(coarse - truth)
    e_fine = np.linalg.norm(fine - truth)
    ratio = e_coarse / e_fine
    return ratio > 12.0, f"error ratio on step halving {ratio:.1f} (4th order -> ~16)"


@_check("truncation-convergence")
def _truncation_convergence():
    delta = -2 * np.pi * 0.1
    g = 2 * np.pi * 0.05
    q = QubitSpec(gap=2 * np.pi * 10.1, coupling=g)
    circuit = SingleTlrCircuit(
        omega_r=2 * np.pi * 10.0,
        qubits=(q, q),
        omega_d=2 * np.pi * 10.1,
        rabi=2 * np.pi * 2.0,
    )
    t_final = decoupling_time(delta, 1)
    runs = {
        n: run(circuit, "effective", t_final, 1.0, (n,))
        for n in (8, 12)
    }
    gap = abs(runs[8].final_fidelity - runs[12].final_fidelity)
    return gap < 1e-5, f"|F(n_max=8) - F(n_max=12)| = {gap:.2e}"


@_check("norm-conservation")
def _norm_conservation():
    q = QubitSpec(gap=2 * np.pi * 10.1, coupling=2 * np.pi * 0.05)
    circuit = SingleTlrCircuit(
        omega_r=2 * np.pi * 10.0,
        qubits=(q, q),
        omega_d=2 * np.pi * 10.1,
        rabi=2 * np.pi * 2.0,
    )
    trajectory = run(circuit, "rotating", 2.0, 0.1, (6,), dt=1e-3)
    drift = float(np.max(np.abs(trajectory.norm - 1.0)))
    return drift < 1e-9, f"max |norm - 1| = {drift:.2e}"


@_check("reduced-state-trace")
def _reduced_state_trace():
    rng = np.random.default_rng(7)
    space = HilbertSpace(n_qubits=2, mode_levels=(3,))
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    rho = partial_trace_modes(psi, space)
    defect = max(
        abs(np.trace(rho) - 1.0), float(np.max(np.abs(rho - rho.conj().T)))
    )
    return defect < 1e-12, f"trace/hermiticity defect {defect:.2e}"


_QUICK_CHECKS = (
    _pauli_algebra,
    _ladder_algebra,
    _builder_hermiticity,
    _displacement_closure,
    _pair_phase_quadrature,
    _phase_condition_solvers,
    _squid_coupler,
    _flux_quantum_consistency,
    _reduced_state_trace,
)

_FULL_CHECKS = _QUICK_CHECKS + (
    _closure_against_propagator,
    _integrator_order,
    _truncation_convergence,
    _norm_conservation,
)


def run_selftest(quick: bool = False) -> list[CheckResult]:
    """Run the invariant suite; quick=True runs the fast algebraic subset."""
    checks = _QUICK_CHECKS if quick else _FULL_CHECKS
    return [check() for check in checks]


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:32s} ({r.seconds:6.2f} s)  {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
