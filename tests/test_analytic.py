"""Closed-form gate theory: phases, targets, coupler, and solvers."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm, hadamard
from test_operators import unitarity_defect

from ghzforge import constants
from ghzforge.analytic import (
    GHZ_CONVENTIONS,
    CoupledPhaseSolution,
    SinglePhaseSolution,
    SquidCoupler,
    accumulated_pair_phase,
    decoupling_time,
    decoupling_unitary,
    effective_mutual_inductance,
    estimated_drive_fidelity,
    ghz_target,
    mode_displacement_amplitude,
    pair_phase_matrix,
    resonator_coupling_rate,
    solve_coupled_phase_condition,
    solve_single_phase_condition,
)
from ghzforge.errors import UnsolvableConditionError

TWO_PI = 2.0 * np.pi
G_REF = TWO_PI * 0.05
DELTA_REF = -TWO_PI * 0.1


def one_mode(couplings):
    """Coupling matrix G of qubits on one resonator: a single column."""
    return np.array(couplings, dtype=float)[:, None]


def coupled_modes(g, delta_p, j_rate, assignments=("A", "B")):
    """G and Delta_m of the coupled pair's normal modes P and Q."""
    signs = [1.0 if r == "A" else -1.0 for r in assignments]
    matrix = g / np.sqrt(2.0) * np.array([[1.0, s] for s in signs])
    return matrix, (delta_p + j_rate, delta_p - j_rate)


# ---------------------------------------------------------------------------
# conditional displacement B(t)
# ---------------------------------------------------------------------------


def test_displacement_amplitude_closes_at_decoupling_times():
    for n in range(1, 11):
        t_n = decoupling_time(DELTA_REF, n)
        assert abs(mode_displacement_amplitude(t_n, G_REF, DELTA_REF)) < 1e-13


def test_displacement_amplitude_shape():
    assert mode_displacement_amplitude(0.0, G_REF, DELTA_REF) == 0.0
    # the loop reaches its far point |g/delta| at half the decoupling period
    t_half = 0.5 * decoupling_time(DELTA_REF, 1)
    far = abs(mode_displacement_amplitude(t_half, G_REF, DELTA_REF))
    assert far == pytest.approx(abs(G_REF / DELTA_REF), rel=1e-12)
    with pytest.raises(ValueError):
        mode_displacement_amplitude(1.0, G_REF, 0.0)


def test_decoupling_time_values_and_validation():
    assert decoupling_time(DELTA_REF, 1) == pytest.approx(10.0, rel=1e-12)
    assert decoupling_time(-DELTA_REF, 3) == pytest.approx(30.0, rel=1e-12)
    assert decoupling_time(TWO_PI * 0.04, 1) == pytest.approx(25.0, rel=1e-12)
    with pytest.raises(ValueError):
        decoupling_time(0.0)
    with pytest.raises(ValueError):
        decoupling_time(DELTA_REF, 0)
    with pytest.raises(ValueError):
        decoupling_time(0.0)


# ---------------------------------------------------------------------------
# accumulated pair phase gamma_kj
# ---------------------------------------------------------------------------


def test_pair_phase_matches_quadrature():
    """gamma_kj(t) = (g_k g_j / 4 delta) Int_0^t (1 - e^{i delta s}) ds,
    closed form against adaptive quadrature over random parameter tuples."""
    rng = np.random.default_rng(733)
    worst = 0.0
    for _ in range(12):
        g_k, g_j = rng.uniform(0.05, 0.8, size=2)
        delta = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        t_end = rng.uniform(2.0, 15.0)
        re, _ = quad(lambda s: 1.0 - np.cos(delta * s), 0.0, t_end, limit=200)
        im, _ = quad(lambda s: -np.sin(delta * s), 0.0, t_end, limit=200)
        reference = (g_k * g_j / (4.0 * delta)) * complex(re, im)
        value = accumulated_pair_phase(t_end, g_k, g_j, delta)
        worst = max(worst, abs(value - reference))
    assert worst < 1e-9


def test_pair_phase_at_decoupling_time():
    """gamma_kj(T_n) = sign(delta) n pi g_k g_j / (2 delta^2), purely real."""
    for delta in (DELTA_REF, -DELTA_REF):
        for n in (1, 2, 5):
            t_n = decoupling_time(delta, n)
            value = accumulated_pair_phase(t_n, G_REF, G_REF, delta)
            expected = np.sign(delta) * n * np.pi * G_REF**2 / (2.0 * delta**2)
            assert value.imag == pytest.approx(0.0, abs=1e-12)
            assert value.real == pytest.approx(expected, rel=1e-12)


def test_reference_point_pair_phase_is_pi_eighth():
    # g = delta/2 and n = 1 make the MS phase exactly -pi/8 (delta < 0)
    value = accumulated_pair_phase(decoupling_time(DELTA_REF, 1), G_REF, G_REF, DELTA_REF)
    assert value.real == pytest.approx(-np.pi / 8.0, rel=1e-12)


def test_pair_phase_matrix_structure():
    couplings = (0.1, 0.2, 0.3)
    gamma = pair_phase_matrix(one_mode(couplings), (DELTA_REF,), decoupling_time(DELTA_REF, 2))
    assert gamma.shape == (3, 3)
    assert np.allclose(gamma, gamma.T, atol=1e-15)
    for k, gk in enumerate(couplings):
        for j, gj in enumerate(couplings):
            expected = accumulated_pair_phase(
                decoupling_time(DELTA_REF, 2), gk, gj, DELTA_REF
            ).real
            assert gamma[k, j] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="column"):
        pair_phase_matrix(one_mode(couplings), (DELTA_REF, -DELTA_REF), 1.0)


def test_coupled_pair_phase_matrix_same_vs_cross():
    j_rate = TWO_PI * 0.04
    delta_p = -3.0 * j_rate
    g = np.sqrt(2.0) * j_rate
    t_n = decoupling_time(j_rate, 1)
    gamma = pair_phase_matrix(*coupled_modes(g, delta_p, j_rate), t_n)
    denom = delta_p**2 - j_rate**2
    same = g * g * delta_p * t_n / (4.0 * denom)
    cross = -g * g * j_rate * t_n / (4.0 * denom)
    assert gamma[0, 0] == pytest.approx(same, rel=1e-12)
    assert gamma[1, 1] == pytest.approx(same, rel=1e-12)
    assert gamma[0, 1] == pytest.approx(cross, rel=1e-12)
    assert gamma[1, 0] == pytest.approx(cross, rel=1e-12)
    # with g = sqrt(2) J and |delta'| = 3J the cross phase per ordered pair
    # is -pi/8 whichever sign delta' carries (it enters only squared)
    assert gamma[0, 1] == pytest.approx(-np.pi / 8.0, rel=1e-12)
    gamma_pos = pair_phase_matrix(*coupled_modes(g, -delta_p, j_rate), t_n)
    assert gamma_pos[0, 1] == pytest.approx(-np.pi / 8.0, rel=1e-12)
    assert gamma_pos[0, 0] == pytest.approx(-same, rel=1e-12)
    # |delta'| = |J| puts one normal mode on resonance: Delta_Q = 0
    with pytest.raises(ValueError):
        pair_phase_matrix(*coupled_modes(g, j_rate, j_rate), t_n)


@pytest.mark.parametrize("xi", [-5, -3, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("assignments", [("A", "B"), ("A", "A", "B"), ("A", "B", "B", "A")])
def test_pair_phase_matrix_matches_two_mode_closed_form(xi, n, assignments):
    """At T_n = 2 pi n/|J| with delta' = xi J, same-resonator pairs pick up
    g_k g_j delta' T_n / (4 (delta'^2 - J^2)) and cross pairs
    -g_k g_j J T_n / (4 (delta'^2 - J^2))."""
    j_rate = TWO_PI * 0.04
    delta_p = xi * j_rate
    couplings = np.linspace(0.2, 0.4, len(assignments))
    signs = [1.0 if r == "A" else -1.0 for r in assignments]
    matrix = np.array([[g, g * s] for g, s in zip(couplings, signs)]) / np.sqrt(2.0)
    t_n = decoupling_time(j_rate, n)
    gamma = pair_phase_matrix(matrix, (delta_p + j_rate, delta_p - j_rate), t_n)
    denom = delta_p**2 - j_rate**2
    for k, a in enumerate(assignments):
        for j, b in enumerate(assignments):
            rate = delta_p if a == b else -j_rate
            expected = couplings[k] * couplings[j] * rate * t_n / (4.0 * denom)
            assert gamma[k, j] == pytest.approx(expected, rel=1e-13)


# ---------------------------------------------------------------------------
# the closure unitary and GHZ targets
# ---------------------------------------------------------------------------


def test_decoupling_unitary_is_unitary_and_x_diagonal():
    rng = np.random.default_rng(99)
    gamma = rng.normal(size=(3, 3))
    gamma = 0.5 * (gamma + gamma.T)
    u = decoupling_unitary(gamma)
    assert unitarity_defect(u) < 1e-12
    # diagonal in the product sigma_x basis
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    h3 = np.kron(np.kron(h1, h1), h1)
    diag_form = h3 @ u @ h3
    off = diag_form - np.diag(np.diag(diag_form))
    assert np.max(np.abs(off)) < 1e-12


def _decoupling_unitary_reference(gamma):
    """exp(i sum_kj gamma_kj sigma_x^k sigma_x^j) from Kronecker products and expm."""
    n_qubits = gamma.shape[0]
    dim = 2**n_qubits
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    generator = np.zeros((dim, dim), dtype=complex)
    for k in range(n_qubits):
        for j in range(n_qubits):
            op = np.array([[1.0]])
            for q in range(n_qubits):
                op = np.kron(op, sx if q in (k, j) and k != j else np.eye(2))
            if k == j:
                op = np.eye(dim)
            generator += gamma[k, j] * op
    return expm(1j * generator)


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_decoupling_unitary_matches_generator_exponential(n_qubits):
    rng = np.random.default_rng(n_qubits)
    gamma = rng.normal(size=(n_qubits, n_qubits))
    gamma = gamma + gamma.T
    expected = _decoupling_unitary_reference(gamma)
    assert np.max(np.abs(decoupling_unitary(gamma) - expected)) <= 1e-12


def _basis_bits(n_qubits):
    """Bits of each basis index, qubit 0 most significant: shape (2^N, N)."""
    return (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


@pytest.mark.parametrize("n_qubits", range(0, 9))
def test_popcount_parity_is_the_sylvester_hadamard(n_qubits):
    """decoupling_unitary builds W as (-1)^popcount(i & j) from its bit table;
    that is scipy.linalg.hadamard(2^N), in value and in dtype."""
    bits = _basis_bits(n_qubits)
    w = 1 - 2 * ((bits @ bits.T) & 1)
    expected = hadamard(2**n_qubits)
    assert w.dtype == expected.dtype
    assert np.array_equal(w, expected)


def _decoupling_unitary_with_scipy_hadamard(gamma):
    """W diag(exp(i theta_s)) W / 2^N, W from scipy.linalg.hadamard."""
    dim = 2 ** gamma.shape[0]
    signs = 1 - 2 * _basis_bits(gamma.shape[0])
    theta = np.einsum("sk,kj,sj->s", signs, gamma, signs)
    w = hadamard(dim)
    return (w * np.exp(1j * theta)) @ w / dim


def _phase_matrices():
    """The phase matrices of the closure-unitary tests in this module."""
    symmetric = np.random.default_rng(99).normal(size=(3, 3))
    yield 0.5 * (symmetric + symmetric.T)
    for n_qubits in range(1, 9):
        gamma = np.random.default_rng(n_qubits).normal(size=(n_qubits, n_qubits))
        yield gamma + gamma.T
    for n_q in (2, 3, 5):
        yield pair_phase_matrix(
            one_mode((G_REF,) * n_q), (DELTA_REF,), decoupling_time(DELTA_REF, 1)
        )
    yield np.zeros((0, 0))


def test_decoupling_unitary_is_bit_identical_to_the_scipy_hadamard_form():
    for gamma in _phase_matrices():
        assert np.array_equal(
            decoupling_unitary(gamma), _decoupling_unitary_with_scipy_hadamard(gamma)
        )


def test_decoupling_unitary_produces_ghz_from_all_ground():
    """At the reference point the closure unitary is a maximally entangling
    MS gate: |gg> goes to a GHZ state (i_power phase for delta < 0)."""
    gamma = pair_phase_matrix(
        one_mode((G_REF, G_REF)), (DELTA_REF,), decoupling_time(DELTA_REF, 1)
    )
    u = decoupling_unitary(gamma)
    start = np.zeros(4, dtype=complex)
    start[3] = 1.0  # both qubits in the ground state (index 1 each)
    final = u @ start
    fidelities = {
        c: abs(np.vdot(ghz_target(2, c), final)) ** 2 for c in GHZ_CONVENTIONS
    }
    assert fidelities["i_power"] == pytest.approx(1.0, abs=1e-12)
    # the alternate phase convention is the orthogonal-in-phase GHZ at N = 2
    assert fidelities["plus_i"] == pytest.approx(0.0, abs=1e-12)


def test_odd_qubit_closure_is_ghz_after_collective_rotation():
    """Molmer-Sorensen parity: for an odd register the closure output is a
    collective quarter-period sigma_x rotation away from the GHZ state
    (phi = +i); without the rotation the plain-target fidelity is small."""
    for n_q, theta in ((3, np.pi / 4.0), (5, -np.pi / 4.0)):
        gamma = pair_phase_matrix(
            one_mode((G_REF,) * n_q), (DELTA_REF,), decoupling_time(DELTA_REF, 1)
        )
        u = decoupling_unitary(gamma)
        start = np.zeros(2**n_q, dtype=complex)
        start[-1] = 1.0
        closure = u @ start
        plain = max(
            abs(np.vdot(ghz_target(n_q, c), closure)) ** 2 for c in GHZ_CONVENTIONS
        )
        assert plain < 0.5
        rotation = residual_drive_rotation(2.0 * theta, 1.0, n_qubits=n_q)
        rotated = rotation @ closure
        assert abs(np.vdot(ghz_target(n_q, "plus_i"), rotated)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )


def test_ghz_target_conventions():
    for n_qubits, convention, phi in (
        (2, "i_power", -1j),
        (2, "plus_i", 1j),
        (3, "i_power", 1.0),
        (3, "plus_i", 1j),
        (5, "i_power", -1.0),
    ):
        psi = ghz_target(n_qubits, convention)
        dim = 2**n_qubits
        assert psi.shape == (dim,)
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
        assert psi[dim - 1] == pytest.approx(1.0 / np.sqrt(2.0))
        assert psi[0] == pytest.approx(phi / np.sqrt(2.0))
        assert np.count_nonzero(psi) == 2
    with pytest.raises(ValueError):
        ghz_target(1)
    with pytest.raises(ValueError):
        ghz_target(2, "eq")


# ---------------------------------------------------------------------------
# drive-induced fidelity ripple
# ---------------------------------------------------------------------------


def test_estimated_drive_fidelity_worst_case():
    rabi = TWO_PI * 2.0  # 20 |delta| at the reference point
    # cos(2 Omega t) = -1 gives the deepest dip 1 - N(N-1) g^2/(4 Omega^2)
    t_worst = np.pi / (2.0 * rabi)
    worst = estimated_drive_fidelity(2, G_REF, rabi, t_worst)
    assert worst == pytest.approx(1.0 - 2.0 * G_REF**2 / (4.0 * rabi**2), rel=1e-12)
    assert worst == pytest.approx(0.9996875, abs=1e-10)
    # the ripple closes whenever Omega t is a multiple of pi
    assert estimated_drive_fidelity(2, G_REF, rabi, np.pi / rabi) == pytest.approx(
        1.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        estimated_drive_fidelity(2, G_REF, 0.0, 1.0)


def residual_drive_rotation(rabi, t, n_qubits=1):
    """Leftover local rotation exp(-i (Omega_R t / 2) sigma_x) per qubit,
    as the N-qubit tensor power: the identity (up to global phase) whenever
    Omega_R t is a multiple of 2 pi."""
    theta = 0.5 * rabi * t
    single = np.array(
        [[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]]
    )
    out = np.array([[1.0]], dtype=complex)
    for _ in range(n_qubits):
        out = np.kron(out, single)
    return out


def test_residual_drive_rotation_closes_each_drive_period():
    rabi = TWO_PI * 2.0
    u = residual_drive_rotation(rabi, TWO_PI / rabi, n_qubits=2)
    # Omega t = 2 pi is a full sigma_x rotation: -1 per qubit, global phase
    assert np.allclose(u, np.eye(4), atol=1e-12)
    u1 = residual_drive_rotation(rabi, np.pi / rabi, n_qubits=1)
    assert np.allclose(u1, -1j * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)


# ---------------------------------------------------------------------------
# dc-SQUID coupler
# ---------------------------------------------------------------------------


def reference_coupler(**overrides):
    params = dict(
        loop_inductance_ph=200.0,
        critical_current_ua=1.5,
        mutual_a_ph=60.0,
        mutual_b_ph=60.0,
    )
    params.update(overrides)
    return SquidCoupler(**params)


def flux_quantum_defect():
    """Relative defect of the packaged Phi_0 against 2 pi hbar / 2e, read at
    call time."""
    electron_c = 1.602176634e-19  # exact in the SI since 2019
    h_over_2e = TWO_PI * constants.HBAR_JS / (2.0 * electron_c)
    return abs(constants.FLUX_QUANTUM_WB - h_over_2e) / constants.FLUX_QUANTUM_WB


def test_flux_quantum_is_h_over_2e(monkeypatch):
    assert flux_quantum_defect() < 1e-9
    # a Phi_0 off by 0.1% must fail the same comparison
    monkeypatch.setattr(constants, "FLUX_QUANTUM_WB", constants.FLUX_QUANTUM_WB * 1.001)
    assert flux_quantum_defect() > 1e-9


def test_screening_parameter_value():
    coupler = reference_coupler()
    # beta_L = 2 pi L_c I_c / Phi_0 with L_c = 200 pH, I_c = 1.5 uA
    expected = TWO_PI * 200e-12 * 1.5e-6 / 2.067833848e-15
    assert coupler.screening_parameter == pytest.approx(expected, rel=1e-12)
    assert 0.9 < coupler.screening_parameter < 0.92


def test_hysteretic_coupler_rejected():
    with pytest.raises(ValueError, match="nonhysteretic"):
        reference_coupler(critical_current_ua=1.7)
    with pytest.raises(ValueError):
        reference_coupler(loop_inductance_ph=-5.0)
    with pytest.raises(ValueError):
        reference_coupler(mutual_a_ph=0.0)


def test_coupler_rejects_python_ints_beyond_64_bits_with_value_error():
    """np.isfinite refuses a Python int wider than 64 bits with TypeError;
    the coupler converts every field with float() first."""
    with pytest.raises(ValueError, match="nonhysteretic"):
        SquidCoupler(10**20, 1.5e-12, 60, 60)
    with pytest.raises(ValueError, match="finite"):
        reference_coupler(mutual_b_ph=10**400)
    with pytest.raises(ValueError, match="finite"):
        reference_coupler(zero_point_current_a_na=float("inf"))


def test_effective_mutual_inductance_curve():
    coupler = reference_coupler()
    beta = coupler.screening_parameter
    m0 = effective_mutual_inductance(coupler, 0.0)
    expected0 = -(60.0 * 60.0 / 200.0) * beta / (2.0 + beta)
    assert m0 == pytest.approx(expected0, rel=1e-12)
    assert m0 < 0.0
    # zero crossing exactly at half a flux quantum, sign reversal beyond
    assert abs(effective_mutual_inductance(coupler, 0.5)) < 1e-12
    assert effective_mutual_inductance(coupler, 0.6) > 0.0
    assert effective_mutual_inductance(coupler, 0.4) < 0.0
    # 2 Phi_0 periodic
    assert effective_mutual_inductance(coupler, 2.3) == pytest.approx(
        effective_mutual_inductance(coupler, 0.3), rel=1e-12
    )


def test_effective_mutual_inductance_vanishes_with_the_critical_current():
    """M_eff is proportional to beta_L for small beta_L, so it goes to zero
    linearly with I_c."""
    tiny = effective_mutual_inductance(reference_coupler(critical_current_ua=1e-9), 0.0)
    small = effective_mutual_inductance(reference_coupler(critical_current_ua=1e-6), 0.0)
    assert abs(tiny) < 1e-6
    assert small / tiny == pytest.approx(1e3, rel=1e-6)


def test_branch_parity_flips_the_coupling_sign():
    even = reference_coupler(branch_parity=0)
    odd = reference_coupler(branch_parity=1)
    for flux in (0.0, 0.2, 0.45):
        m_even = effective_mutual_inductance(even, flux)
        m_odd = effective_mutual_inductance(odd, flux)
        # opposite signs but not opposite magnitudes: the screening term in
        # the denominator flips along with the numerator
        assert np.sign(m_odd) == -np.sign(m_even)
    beta = even.screening_parameter
    expected_odd0 = (60.0 * 60.0 / 200.0) * beta / (2.0 - beta)
    assert effective_mutual_inductance(odd, 0.0) == pytest.approx(
        expected_odd0, rel=1e-12
    )


def test_coupling_rate_matches_target_band():
    """The reference coupler must land within 10% of |M_eff| = 5.32 pH and
    |J| = 2 pi x 0.04 rad/ns at zero flux."""
    coupler = reference_coupler()
    m0 = effective_mutual_inductance(coupler, 0.0)
    assert abs(m0) == pytest.approx(5.32, rel=0.10)
    j0 = resonator_coupling_rate(coupler, 0.0)
    assert abs(j0) == pytest.approx(TWO_PI * 0.04, rel=0.10)
    # J inherits M_eff's sign and flips across half flux
    assert j0 < 0.0
    assert resonator_coupling_rate(coupler, 0.6) > 0.0


@pytest.mark.parametrize("parity", [0, 1])
def test_coupler_curves_take_a_flux_array(parity):
    """An array of fluxes is evaluated element by element, bit for bit as
    one scalar call per flux; a scalar flux still gives a number."""
    coupler = reference_coupler(branch_parity=parity)
    flux = np.linspace(-3, 3, 100001)
    for curve in (effective_mutual_inductance, resonator_coupling_rate):
        assert np.array_equal(curve(coupler, flux), [curve(coupler, float(f)) for f in flux])
        scalar = curve(coupler, 0.3)
        assert isinstance(scalar, float) and np.ndim(scalar) == 0


# ---------------------------------------------------------------------------
# phase-condition solvers
# ---------------------------------------------------------------------------


def test_solve_single_phase_condition_reference():
    solution = solve_single_phase_condition(G_REF, n=1, m=0)
    assert isinstance(solution, SinglePhaseSolution)
    assert solution.deltas[0] == pytest.approx(TWO_PI * 0.1, rel=1e-12)
    assert solution.deltas[1] == pytest.approx(-TWO_PI * 0.1, rel=1e-12)
    assert solution.gate_time == pytest.approx(10.0, rel=1e-12)
    assert solution.pair_phase == pytest.approx(np.pi / 8.0, rel=1e-12)


def test_solve_single_phase_condition_branches():
    # higher winding number: |delta| grows as sqrt(n), gate time as sqrt(n)
    s2 = solve_single_phase_condition(G_REF, n=4, m=0)
    assert s2.deltas[0] == pytest.approx(2.0 * TWO_PI * 0.1, rel=1e-12)
    assert s2.gate_time == pytest.approx(20.0, rel=1e-12)
    # higher phase branch shrinks the detuning
    s3 = solve_single_phase_condition(G_REF, n=1, m=1)
    assert s3.deltas[0] == pytest.approx(TWO_PI * 0.05 * np.sqrt(4.0 / 3.0), rel=1e-12)
    for bad in (dict(n=0), dict(m=-1), dict(m=-3)):
        with pytest.raises(UnsolvableConditionError):
            solve_single_phase_condition(G_REF, **bad)
    with pytest.raises(UnsolvableConditionError):
        solve_single_phase_condition(0.0)


def test_solve_coupled_phase_condition_reference():
    g = np.sqrt(2.0) * TWO_PI * 0.04
    solution = solve_coupled_phase_condition(g, xi=3, n=1, m=0, l=0)
    assert isinstance(solution, CoupledPhaseSolution)
    assert solution.coupler_rate == pytest.approx(TWO_PI * 0.04, rel=1e-12)
    assert solution.delta_prime == pytest.approx(3.0 * TWO_PI * 0.04, rel=1e-12)
    assert solution.gate_time == pytest.approx(25.0, rel=1e-12)
    assert solution.same_pair_phase == pytest.approx(3.0 * np.pi / 8.0, rel=1e-12)
    assert solution.cross_pair_phase == pytest.approx(-np.pi / 8.0, rel=1e-12)


def test_solve_coupled_phase_condition_unsolvable_cases():
    g = np.sqrt(2.0) * TWO_PI * 0.04
    with pytest.raises(UnsolvableConditionError, match="odd"):
        solve_coupled_phase_condition(g, xi=4)
    with pytest.raises(UnsolvableConditionError, match="degenerate"):
        solve_coupled_phase_condition(g, xi=1)
    with pytest.raises(UnsolvableConditionError, match="ratio"):
        solve_coupled_phase_condition(g, xi=5)  # 5 != 3 + 4m for integer m
    with pytest.raises(UnsolvableConditionError, match="no real coupler rate"):
        solve_coupled_phase_condition(g, xi=3, m=-3, l=-1)
    with pytest.raises(UnsolvableConditionError):
        solve_coupled_phase_condition(-g, xi=3)
    # a consistent higher branch does solve: xi = 7, l = 1 -> 3 + 4m = 35
    high = solve_coupled_phase_condition(g, xi=7, m=8, l=1)
    assert high.delta_prime == pytest.approx(7.0 * high.coupler_rate, rel=1e-12)


@pytest.mark.parametrize("g_ghz", [1e-300, 1e-160, 1e200, float("nan")])
def test_phase_condition_solvers_reject_couplings_outside_float_range(g_ghz):
    """g^2 that underflows (0 or subnormal), overflows or is NaN is a
    ValueError from both solvers, never a NaN solution or an OverflowError."""
    g = TWO_PI * g_ghz
    with pytest.raises(ValueError, match="g_squared"):
        solve_single_phase_condition(g)
    with pytest.raises(ValueError, match="g_squared"):
        solve_coupled_phase_condition(g, xi=3)


def test_coupled_solver_rejects_a_non_finite_phase():
    """g^2, J^2 and delta'^2 - J^2 are normal floats, but g^2's mantissa
    times delta' T_n / (delta'^2 - J^2) = xi (1 + 4l) pi / (2 g^2) overflows
    on the way to the phases when g^2 is near the smallest normal float."""
    with pytest.raises(ValueError, match="same = inf"):
        solve_coupled_phase_condition(1.5e-154, xi=7, n=64, m=8, l=1)


def test_coupled_solver_solves_a_coupling_whose_g2_delta_overflows():
    """g^2 delta' overflows at g = 2 pi 1e150 rad/ns, but the phases are
    O(1) and grouped so that no intermediate does."""
    solution = solve_coupled_phase_condition(TWO_PI * 1e150, xi=3)
    assert solution.same_pair_phase == pytest.approx(3 * np.pi / 8, rel=1e-14)
    assert solution.cross_pair_phase == pytest.approx(-np.pi / 8, rel=1e-14)
    assert solution.delta_prime == 3 * solution.coupler_rate


def test_solver_output_feeds_pair_phase_matrix():
    """Round trip: solver parameters reproduce the phases they were solved
    for, through the independent phase-matrix path."""
    g = np.sqrt(2.0) * TWO_PI * 0.04
    solution = solve_coupled_phase_condition(g, xi=3, n=1, m=0, l=0)
    t_n = decoupling_time(solution.coupler_rate, 1)
    gamma = pair_phase_matrix(
        *coupled_modes(g, -solution.delta_prime, solution.coupler_rate), t_n
    )
    # mirrored detuning (-3J) flips the same-resonator phase only; the
    # cross phase enters through delta'^2 and keeps its value -pi/8
    assert abs(gamma[0, 1]) == pytest.approx(np.pi / 8.0, rel=1e-12)
    gamma_pos = pair_phase_matrix(
        *coupled_modes(g, solution.delta_prime, solution.coupler_rate), t_n
    )
    assert gamma_pos[0, 1] == pytest.approx(solution.cross_pair_phase, rel=1e-12)
    assert gamma_pos[0, 0] == pytest.approx(solution.same_pair_phase, rel=1e-12)
