"""End-to-end acceptance gate.

Nine criteria, one test each, so `pytest -v` prints one pass/fail line per
criterion.  The expensive integrations run once through the installed CLI
via module-scoped fixtures and are shared between criteria; everything is
asserted from the files the CLI wrote, so this is also a regression test
of the full input -> output path.

The coupled-pair full-model criterion asserts a 0.998 fidelity floor.  The
converged result for the reference parameters is 0.99529 (it is the
single-resonator run that reaches 0.9955), so that one line is expected to
read FAILED until the floor or the reference parameters are revisited.
"""

import csv
import json

import numpy as np
import pytest
from scipy.integrate import quad
from test_analytic import residual_drive_rotation
from test_dynamics import ghz_overlap, streamed

from ghzforge.analytic import (
    SquidCoupler,
    accumulated_pair_phase,
    decoupling_time,
    decoupling_unitary,
    effective_mutual_inductance,
    ghz_target,
    mode_displacement_amplitude,
    pair_phase_matrix,
    resonator_coupling_rate,
    solve_coupled_phase_condition,
    solve_single_phase_condition,
)
from ghzforge.cli import main
from ghzforge.constants import ghz_from_rad_per_ns
from ghzforge.dynamics import (
    ground_vacuum_state,
    run,
)
from ghzforge.model import (
    CoupledTlrCircuit,
    QubitSpec,
    SingleTlrCircuit,
    effective_hamiltonian,
    rotating_frame_hamiltonian,
)
from ghzforge.operators import HilbertSpace
from ghzforge.scenario import bundled_scenario_path, load_scenario

TWO_PI = 2.0 * np.pi
G_REF = TWO_PI * 0.05
DELTA_REF = -TWO_PI * 0.1


def reference_circuit(n_qubits=2):
    omega_d = TWO_PI * 10.1
    return SingleTlrCircuit(
        omega_r=omega_d + DELTA_REF,
        qubits=tuple(QubitSpec(gap=omega_d, coupling=G_REF) for _ in range(n_qubits)),
        omega_d=omega_d,
        rabi=20.0 * abs(DELTA_REF),
    )


def read_csv_columns(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return header, {
        name: np.array([float(r[i]) for r in body])
        for i, name in enumerate(header)
        if name != "variant"
    }


def cli_run(scenario_name, out_dir):
    path = bundled_scenario_path(scenario_name)
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 0
    summary = json.loads((out_dir / f"{scenario_name}_summary.json").read_text())
    return summary, out_dir / f"{scenario_name}.csv"


@pytest.fixture(scope="module")
def single_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("single")
    full_summary, full_csv = cli_run("single_tlr_ghz", out)
    eff_summary, eff_csv = cli_run("single_tlr_ghz_effective", out)
    return {
        "full": full_summary,
        "full_csv": full_csv,
        "effective": eff_summary,
        "effective_csv": eff_csv,
    }


@pytest.fixture(scope="module")
def coupled_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("coupled")
    summary, csv_path = cli_run("coupled_tlr_ghz", out)
    return {"summary": summary, "csv": csv_path}


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    path = bundled_scenario_path("single_tlr_drive_sweep")
    code = main([
        "sweep", str(path), "--param", "omega_r_multiple",
        "--values", "5,10,20,40,100", "--window", "9.5:10.5",
        "--workers", "5", "--out-dir", str(out),
    ])
    assert code == 0
    summary = json.loads(
        (out / "single_tlr_drive_sweep_sweep_summary.json").read_text()
    )
    return {"summary": summary, "dir": out}


def test_criterion_1_single_resonator_gate(single_outputs):
    """Full model reaches the GHZ state in 10 ns and agrees with the
    effective model to 1e-2, inside a 2-minute budget."""
    full = single_outputs["full"]
    eff = single_outputs["effective"]
    f_full = full["fidelity_at_t_final"]
    f_eff = eff["fidelity_at_t_final"]
    assert f_eff >= 0.999, f"effective-model fidelity {f_eff:.6f} < 0.999"
    assert abs(f_full - f_eff) <= 0.01, (
        f"full/effective disagreement {abs(f_full - f_eff):.4f} > 0.01"
    )
    assert full["wall_time_s"] < 120.0, f"run took {full['wall_time_s']:.0f} s"
    assert f_full >= 0.995, f"full-model fidelity {f_full:.6f} < 0.995"


def test_criterion_2_drive_strength_sweep(sweep_outputs):
    """Peak fidelity is non-monotonic in the drive strength, and the fast
    fidelity ripple oscillates with period pi/Omega_R."""
    points = {p["omega_r_multiple"]: p["peak_fidelity"] for p in sweep_outputs["summary"]["points"]}
    assert sorted(points) == [5.0, 10.0, 20.0, 40.0, 100.0]
    # weak drives lose fidelity to the sigma_y/sigma_z error terms, very
    # strong drives to the counter-rotating terms: interior maximum at x20
    assert points[5.0] < points[10.0] < points[20.0]
    assert points[40.0] < points[20.0]
    assert points[100.0] < points[40.0]

    header, cols = read_csv_columns(
        sweep_outputs["dir"] / "single_tlr_drive_sweep_omega_r_multiple=20.csv"
    )
    t, fid = cols["t_ns"], cols["fidelity"]
    spacing = np.diff(t)
    assert np.allclose(spacing, 0.01, atol=1e-12), "window sampling is not 10 ps"
    assert t[0] == pytest.approx(9.5) and t[-1] == pytest.approx(10.5)
    # dominant ripple period from the detrended spectrum
    resid = fid - np.polyval(np.polyfit(t, fid, 3), t)
    spectrum = np.abs(np.fft.rfft(resid))
    freqs = np.fft.rfftfreq(len(t), d=spacing[0])
    k = int(np.argmax(spectrum[1:])) + 1
    period = 1.0 / freqs[k]
    rabi = 20.0 * abs(DELTA_REF)
    expected = np.pi / rabi  # 0.25 ns
    assert abs(period - expected) <= 0.2 * expected, (
        f"dominant ripple period {period:.4f} ns vs pi/Omega_R = {expected:.4f} ns"
    )


def test_criterion_3_coupled_resonator_gate(coupled_outputs):
    """Coupled-pair gate at the 25 ns closure time, inside a 10-minute
    budget.  The full-model floor of 0.998 is not met by the converged
    reference-parameter result (0.99529); see the module docstring."""
    summary = coupled_outputs["summary"]
    assert summary["wall_time_s"] < 600.0, f"run took {summary['wall_time_s']:.0f} s"
    assert summary["peak_time_ns"] == pytest.approx(25.0, abs=0.05)

    scenario = load_scenario(bundled_scenario_path("coupled_tlr_ghz"))
    eff = run(scenario.circuit, "effective", scenario.t_final_ns, 1.0, (8, 8))
    assert eff.final_fidelity >= 0.999, (
        f"coupled effective-model fidelity {eff.final_fidelity:.6f} < 0.999"
    )
    f_full = summary["fidelity_at_t_final"]
    assert f_full >= 0.998, f"coupled full-model fidelity {f_full:.6f} < 0.998"


def test_criterion_4_pair_phase_closed_form():
    """Closed-form pair phase matches direct quadrature for 50 random
    parameter tuples, and the mode displacement closes at T_n."""
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(50):
        g_k, g_j = rng.uniform(0.05, 0.8, size=2)
        delta = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        t_end = rng.uniform(2.0, 15.0)
        re, _ = quad(lambda s: 1.0 - np.cos(delta * s), 0.0, t_end, limit=300)
        im, _ = quad(lambda s: -np.sin(delta * s), 0.0, t_end, limit=300)
        reference = (g_k * g_j / (4.0 * delta)) * complex(re, im)
        value = accumulated_pair_phase(t_end, g_k, g_j, delta)
        worst = max(worst, abs(value - reference))
    assert worst <= 1e-9, f"worst closed-form vs quadrature gap {worst:.2e}"

    worst_b = max(
        abs(mode_displacement_amplitude(decoupling_time(DELTA_REF, n), G_REF, DELTA_REF))
        for n in range(1, 11)
    )
    assert worst_b <= 1e-13, f"worst |B(T_n)| {worst_b:.2e}"


def test_criterion_5_closure_unitary_and_three_qubits():
    """The effective evolution lands on the closure unitary's output
    (two qubits, state fidelity), and three ground-state qubits reach a
    GHZ state up to the known collective sigma_x rotation."""
    circuit = reference_circuit()
    t_gate = decoupling_time(circuit.detuning, 1)
    space = HilbertSpace(n_qubits=2, mode_levels=(10,))
    psi = streamed(
        effective_hamiltonian(circuit, space), ground_vacuum_state(space), [t_gate]
    )[-1]
    u = decoupling_unitary(
        pair_phase_matrix(circuit.coupling_matrix, circuit.mode_detunings, t_gate)
    )
    ideal = np.kron(u @ np.eye(4, dtype=complex)[3], np.eye(10)[0])
    state_fidelity = abs(np.vdot(ideal, psi)) ** 2
    assert state_fidelity >= 0.9999, (
        f"closure state fidelity {state_fidelity:.6f} < 0.9999"
    )

    solution = solve_single_phase_condition(G_REF, n=1, m=0)
    circuit3 = reference_circuit(n_qubits=3)
    space3 = HilbertSpace(n_qubits=3, mode_levels=(10,))
    psi3 = streamed(
        effective_hamiltonian(circuit3, space3),
        ground_vacuum_state(space3),
        [solution.gate_time],
    )[-1]
    # for an odd register the closure output is one collective quarter-period
    # sigma_x rotation away from the GHZ state; fold it into the target
    target = residual_drive_rotation(-np.pi / 2.0, 1.0, 3) @ ghz_target(3, "plus_i")
    fidelity3 = float(ghz_overlap(psi3, space3, target))
    assert fidelity3 >= 0.99, f"three-qubit GHZ fidelity {fidelity3:.6f} < 0.99"


def test_criterion_6_squid_coupler():
    """dc-SQUID coupler: nonhysteretic screening, effective mutual within
    10% of the 5.32 pH design point, J within 10% of 40 MHz, and a sign
    reversal through zero at half a flux quantum."""
    coupler = SquidCoupler(
        loop_inductance_ph=200.0,
        critical_current_ua=1.5,
        mutual_a_ph=60.0,
        mutual_b_ph=60.0,
    )
    beta = coupler.screening_parameter
    assert beta < 1.0
    assert beta == pytest.approx(0.91, abs=0.01)

    m0 = effective_mutual_inductance(coupler, 0.0)
    assert abs(m0) == pytest.approx(5.32, rel=0.10), f"|M_eff(0)| = {abs(m0):.3f} pH"
    j0 = ghz_from_rad_per_ns(resonator_coupling_rate(coupler, 0.0))
    assert abs(j0) == pytest.approx(0.040, rel=0.10), f"|J(0)| = {abs(j0)*1e3:.2f} MHz"

    assert abs(effective_mutual_inductance(coupler, 0.5)) < 1e-12
    before = effective_mutual_inductance(coupler, 0.4)
    after = effective_mutual_inductance(coupler, 0.6)
    assert before * after < 0, "M_eff does not reverse sign across fluxphi_e = 0.5"


def test_criterion_7_phase_condition_solvers():
    """Both solvers return the textbook reference solutions exactly, and
    the solutions satisfy their phase conditions to 1e-10."""
    single = solve_single_phase_condition(G_REF, n=1, m=0)
    assert abs(single.deltas[0]) == pytest.approx(TWO_PI * 0.1, abs=1e-12)
    assert single.deltas[1] == pytest.approx(-TWO_PI * 0.1, abs=1e-12)
    assert single.gate_time == pytest.approx(10.0, abs=1e-12)
    for delta in single.deltas:
        closure = abs(abs(delta) * single.gate_time - TWO_PI)
        phase = accumulated_pair_phase(single.gate_time, G_REF, G_REF, delta)
        residual = abs(abs(phase) - np.pi / 8.0)
        assert max(closure, residual) <= 1e-10

    g = np.sqrt(2.0) * TWO_PI * 0.04
    coupled = solve_coupled_phase_condition(g, 3, n=1, m=0, l=0)
    assert coupled.coupler_rate == pytest.approx(TWO_PI * 0.04, abs=1e-12)
    assert coupled.delta_prime == pytest.approx(TWO_PI * 0.12, abs=1e-12)
    assert coupled.gate_time == pytest.approx(25.0, abs=1e-10)
    omega = TWO_PI * 10.0
    omega_d = omega - coupled.delta_prime
    pair = CoupledTlrCircuit(
        omega_a=omega,
        omega_b=omega,
        qubits=(
            QubitSpec(gap=omega_d, coupling=g, resonator=0),
            QubitSpec(gap=omega_d, coupling=g, resonator=1),
        ),
        coupler_rate=coupled.coupler_rate,
        omega_d=omega_d,
    )
    matrix = pair_phase_matrix(pair.coupling_matrix, pair.mode_detunings, coupled.gate_time)
    assert abs(matrix[0, 0] - coupled.same_pair_phase) <= 1e-10
    assert abs(matrix[0, 1] - coupled.cross_pair_phase) <= 1e-10
    assert abs(abs(coupled.coupler_rate) * coupled.gate_time - TWO_PI) <= 1e-10


def test_criterion_8_integrator_quality(coupled_outputs):
    """Norm drift below 1e-8 across the 25 ns coupled run, fourth-order
    step-halving behavior, and Fock-truncation convergence at the
    single-resonator reference point."""
    _, cols = read_csv_columns(coupled_outputs["csv"])
    drift = float(np.max(np.abs(cols["norm"] - 1.0)))
    assert drift <= 1e-8, f"norm drift {drift:.2e} > 1e-8"

    circuit = reference_circuit(n_qubits=1)
    space = HilbertSpace(n_qubits=1, mode_levels=(4,))
    h = rotating_frame_hamiltonian(circuit, space)
    psi0 = ground_vacuum_state(space)
    dt = (TWO_PI / h.fastest_frequency) / 64.0
    truth = streamed(h, psi0, [1.0], dt / 16)[-1]
    coarse = streamed(h, psi0, [1.0], dt)[-1]
    fine = streamed(h, psi0, [1.0], dt / 2)[-1]
    ratio = np.linalg.norm(coarse - truth) / np.linalg.norm(fine - truth)
    assert ratio >= 12.0, f"step-halving error ratio {ratio:.1f} < 12"

    full = reference_circuit()
    fidelities = {
        n: run(full, "full", 10.0, 10.0, (n,)).final_fidelity
        for n in (8, 12)
    }
    gap = abs(fidelities[8] - fidelities[12])
    assert gap <= 1e-4, f"truncation gap |F(8) - F(12)| = {gap:.2e} > 1e-4"


def test_criterion_9_residual_ripple_estimate():
    """The fast fidelity ripple of the interaction-picture model matches
    the closed-form worst-case estimate (1/1600 at the reference drive)
    within a factor of two."""
    circuit = reference_circuit()
    rabi = circuit.rabi
    traj = run(circuit, "intermediate", 10.5, 0.005, (10,))
    sel = (traj.times >= 9.5) & (traj.times < 10.5)
    t, fid = traj.times[sel], traj.fidelity[sel]
    resid = fid - np.polyval(np.polyfit(t, fid, 5), t)
    # project onto the two lines the error terms actually drive
    # (Omega_R and 2 Omega_R) to keep envelope leakage out of the estimate
    recon = np.zeros_like(t)
    for w in (rabi, 2.0 * rabi):
        c, s = np.cos(w * t), np.sin(w * t)
        recon += (2.0 * np.dot(resid, c) / len(t)) * c
        recon += (2.0 * np.dot(resid, s) / len(t)) * s
    peak_to_trough = float(recon.max() - recon.min())
    predicted = 1.0 / 1600.0
    ratio = peak_to_trough / predicted
    assert 0.5 <= ratio <= 2.0, (
        f"ripple {peak_to_trough:.2e} vs predicted {predicted:.2e} (ratio {ratio:.2f})"
    )
