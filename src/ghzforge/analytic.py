"""Closed-form evolution results, phase-condition solvers, and coupler model.

The strong-driving effective Hamiltonian drives each mode along a closed
loop in phase space conditioned on the joint sigma_x configuration of the
qubits.  Because its commutator at two times is a c-number (times commuting
sigma_x products), the Magnus series terminates and the propagator is known
in closed form:

    U(t) = exp[ sum_{k,m} sigma_x^k (B_km(t) a_m^dag - B_km(t)* a_m) ]
           * exp[ i sum_{k,j} gamma_kj(t) sigma_x^k sigma_x^j ]

with gamma_kj = sum_m G_km G_jm phi(Delta_m, t) over the modes of the
coupling matrix G.  The displacements B_km vanish at the decoupling times
T_n = 2 pi n / loop_rate (|delta| for one resonator), where the qubits
disentangle from the modes and only the pairwise phases gamma_kj survive.
Choosing parameters so each accumulated pair phase is an odd multiple of
pi/8 (per ordered pair) turns U(T_n) into a GHZ generator on the
all-ground initial state.

Sign conventions are the ones an independent high-order integration of the
effective Hamiltonian actually produces: gamma_kj keeps the sign of delta
(negative detunings accumulate negative phase) and the exponent carries +i.
The two GHZ phase conventions that the gate can produce, (|g..g> +
i^(N+1) |e..e>)/sqrt2 and (|g..g> + i |e..e>)/sqrt2, are both constructible
so dynamics can report which one it hit.

The dc-SQUID section models the flux-tunable mutual inductance between the
two resonators of the coupled layout and the resulting photon-exchange
rate J.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import constants
from .errors import UnsolvableConditionError

__all__ = [
    "GHZ_CONVENTIONS",
    "mode_displacement_amplitude",
    "accumulated_pair_phase",
    "decoupling_time",
    "pair_phase_matrix",
    "decoupling_unitary",
    "ghz_target",
    "estimated_drive_fidelity",
    "SquidCoupler",
    "effective_mutual_inductance",
    "resonator_coupling_rate",
    "SinglePhaseSolution",
    "CoupledPhaseSolution",
    "solve_single_phase_condition",
    "solve_coupled_phase_condition",
]

GHZ_CONVENTIONS = ("i_power", "plus_i")


def mode_displacement_amplitude(t: float, coupling: float, detuning: float) -> complex:
    """Conditional displacement B_k(t) = -(g_k/2 delta)(e^{i delta t} - 1).

    A qubit register in a joint sigma_x eigenstate with total eigenvalue S
    drags the mode to the coherent amplitude <a>(t) = S * B_k(t) (equal
    couplings).  |B_k| is 2 pi / delta - periodic and vanishes at every
    decoupling time T_n.
    """
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    return -(coupling / (2.0 * detuning)) * (np.exp(1j * detuning * t) - 1.0)


def accumulated_pair_phase(t: float, g_k: float, g_j: float, detuning: float) -> complex:
    """Two-qubit phase integral gamma_kj(t) for one ordered qubit pair.

    gamma_kj(t) = (g_k g_j / 4 delta) [ t - (e^{i delta t} - 1)/(i delta) ]

    The real part is the physical phase multiplying sigma_x^k sigma_x^j in
    the propagator; the imaginary part vanishes at the decoupling times,
    where gamma_kj(T_n) = sign(delta) * n pi g_k g_j / (2 delta^2).
    """
    if detuning == 0.0:
        raise ValueError("detuning must be nonzero")
    osc = (np.exp(1j * detuning * t) - 1.0) / (1j * detuning)
    return (g_k * g_j / (4.0 * detuning)) * (t - osc)


def decoupling_time(rate: float, n: int = 1) -> float:
    """n-th time at which every mode is back at its initial state: 2 pi n/|rate|.

    rate is the circuit's loop_rate: the detuning delta for one resonator;
    the coupler rate J for the coupled pair, whose normal modes both close
    their loops then provided delta' is an odd multiple of J, since
    (delta' +- J) T_n is a multiple of 2 pi.
    """
    if rate == 0.0:
        raise ValueError("loop rate must be nonzero")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return 2.0 * np.pi * n / abs(rate)


def pair_phase_matrix(coupling_matrix, mode_detunings, t: float) -> np.ndarray:
    """Accumulated ordered-pair phases gamma_kj(t) of the multi-mode gate.

    gamma_kj(t) = sum_m G_km G_jm Re phi(Delta_m, t), where
    phi(Delta, t) = [t - (e^{i Delta t} - 1)/(i Delta)] / (4 Delta) is
    :func:`accumulated_pair_phase` per unit coupling.  coupling_matrix is
    G (N x M), mode_detunings the M detunings Delta_m, both as a layout
    record exposes them.  At a decoupling time one mode gives
    sign(delta) n pi g_k g_j/(2 delta^2); the coupled pair's symmetric mode
    adds for every pair while the antisymmetric one adds for same-resonator
    pairs and subtracts for cross pairs.  The diagonal entries are the
    single-qubit (global-phase) contributions.
    """
    g = np.asarray(coupling_matrix, dtype=float)
    detunings = np.asarray(mode_detunings, dtype=float)
    if g.ndim != 2 or g.shape[1] != detunings.size:
        raise ValueError("coupling matrix needs one column per mode detuning")
    if np.any(detunings == 0.0):
        raise ValueError("every mode detuning must be nonzero")
    phi = np.array([accumulated_pair_phase(t, 1.0, 1.0, d).real for d in detunings])
    return (g * phi) @ g.T


def decoupling_unitary(phase_matrix: np.ndarray) -> np.ndarray:
    """Qubit-register propagator exp(i sum_{k,j} gamma_kj sigma_x^k sigma_x^j).

    phase_matrix is a full (N, N) matrix of ordered-pair phases (both
    orders counted, diagonal included as a global phase), as returned by
    pair_phase_matrix.  The generator is diagonal in the product sigma_x
    basis, whose eigenvectors are the columns of the Sylvester Hadamard
    matrix W: U = W diag(exp(i theta_s)) W / 2^N with
    theta_s = sum_{k,j} gamma_kj s_k s_j over the sign patterns s in {+-1}^N.
    """
    gamma = np.asarray(phase_matrix, dtype=float)
    n_qubits = gamma.shape[0]
    if gamma.shape != (n_qubits, n_qubits):
        raise ValueError("phase matrix must be square")
    dim = 2**n_qubits
    # qubit 0 is the most significant bit of a basis index; bit 0 is s = +1
    bits = (np.arange(dim)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1
    signs = 1 - 2 * bits
    theta = np.einsum("sk,kj,sj->s", signs, gamma, signs)
    w = 1 - 2 * ((bits @ bits.T) & 1)  # Sylvester Hadamard: (-1)^popcount(i & j)
    return (w * np.exp(1j * theta)) @ w / dim


def ghz_target(n_qubits: int, convention: str = "i_power") -> np.ndarray:
    """N-qubit GHZ state (|g..g> + phi |e..e>)/sqrt2 over the qubit register.

    convention 'i_power' uses phi = i^(N+1); 'plus_i' uses phi = i. The two
    coincide for N = 1 mod 4 and differ by a relative sign or conjugation
    otherwise; which one the gate produces depends on the sign of the
    detuning, so dynamics evaluates both.
    """
    if n_qubits < 2:
        raise ValueError("a GHZ state needs at least two qubits")
    if convention == "i_power":
        phi = 1j ** (n_qubits + 1)
    elif convention == "plus_i":
        phi = 1j
    else:
        raise ValueError(f"unknown GHZ phase convention {convention!r}")
    dim = 2**n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[dim - 1] = 1.0 / np.sqrt(2.0)  # all qubits ground (index 1 each)
    psi[0] = phi / np.sqrt(2.0)        # all qubits excited (index 0 each)
    return psi


def estimated_drive_fidelity(n_qubits: int, coupling: float, rabi: float, t: float) -> float:
    """Leading-order fidelity loss from the terms oscillating at Omega_R.

    F(t) ~ 1 - N(N-1) g^2 / (8 Omega_R^2) * (1 - cos(2 Omega_R t)),
    clipped to [0, 1].  The dip amplitude N(N-1) g^2/(4 Omega_R^2) is the
    quantity to compare against the simulated fast oscillation.
    """
    if rabi <= 0:
        raise ValueError("Rabi amplitude must be positive")
    loss = (
        n_qubits * (n_qubits - 1) * coupling**2 / (8.0 * rabi**2)
        * (1.0 - np.cos(2.0 * rabi * t))
    )
    return float(np.clip(1.0 - loss, 0.0, 1.0))


# ---------------------------------------------------------------------------
# dc-SQUID coupler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquidCoupler:
    """dc-SQUID mediating a flux-tunable mutual inductance between two TLRs.

    loop_inductance_ph: SQUID loop self-inductance L_c (pH);
    critical_current_ua: junction critical current I_c (uA);
    mutual_a_ph / mutual_b_ph: geometric mutuals M_CA, M_CB between the
    SQUID and each resonator (pH); branch_parity: integer branch index l of
    the SQUID phase solution; zero_point_current_a_na / .._b_na: resonator
    zero-point currents at the coupler position (nA).

    The screening parameter beta_L = 2 pi L_c I_c / Phi_0 must stay below 1
    (nonhysteretic regime) or the single-valued inductance model breaks
    down; the constructor rejects beta_L >= 1.
    """

    loop_inductance_ph: float
    critical_current_ua: float
    mutual_a_ph: float
    mutual_b_ph: float
    branch_parity: int = 0
    zero_point_current_a_na: float = 50.0
    zero_point_current_b_na: float = 50.0

    def __post_init__(self):
        if abs(self.branch_parity) > 2**53:  # past this, float(l) may lose l's parity
            raise ValueError(f"branch parity {self.branch_parity} must satisfy |l| <= 2**53")
        try:  # float() first: np.isfinite refuses a Python int wider than 64 bits
            values = [float(getattr(self, f.name)) for f in fields(self)]
        except OverflowError:  # an int beyond the float range
            values = [np.inf]
        if not np.isfinite(values).all():
            raise ValueError("coupler parameters must be finite")
        if self.loop_inductance_ph <= 0 or self.critical_current_ua <= 0:
            raise ValueError("loop inductance and critical current must be positive")
        if self.mutual_a_ph <= 0 or self.mutual_b_ph <= 0:
            raise ValueError("mutual inductances must be positive")
        if self.zero_point_current_a_na < 0 or self.zero_point_current_b_na < 0:
            raise ValueError("zero-point currents must be non-negative")
        if self.screening_parameter >= 1.0:
            raise ValueError(
                f"screening parameter beta_L = {self.screening_parameter:.5f} >= 1: "
                "the coupler must operate in the nonhysteretic regime beta_L < 1"
            )

    @property
    def screening_parameter(self) -> float:
        """beta_L = 2 pi L_c I_c / Phi_0 (dimensionless)."""
        l_si = constants.henry_from_ph(self.loop_inductance_ph)
        i_si = constants.ampere_from_ua(self.critical_current_ua)
        return 2.0 * np.pi * l_si * i_si / constants.FLUX_QUANTUM_WB


def effective_mutual_inductance(coupler: SquidCoupler, flux):
    """Effective resonator-resonator mutual inductance M_eff in pH.

    M_eff(phi_e) = -(M_CA M_CB / L_c) * beta_L cos(l pi - pi phi_e/Phi_0)
                   / (2 + beta_L cos(l pi - pi phi_e/Phi_0))

    flux is the external SQUID flux phi_e in Phi_0, or an array of fluxes
    taken element by element.  M_eff is 2 Phi_0 - periodic, crosses zero at
    phi_e = Phi_0/2 (l even), and flips sign with the branch parity l, which
    is what lets the coupler tune from antiferromagnetic to ferromagnetic coupling.
    """
    beta = coupler.screening_parameter
    c = beta * np.cos(np.pi * coupler.branch_parity - np.pi * flux)
    return -(coupler.mutual_a_ph * coupler.mutual_b_ph / coupler.loop_inductance_ph) * c / (2.0 + c)


def resonator_coupling_rate(coupler: SquidCoupler, flux):
    """Photon-exchange rate J between the two resonators, in rad/ns.

    J = 2 M_eff I_A0 I_B0 / hbar.  The factor 2 comes from the resonator
    current operator at the coupler position: each zero-point current
    enters through (a + a^dag), and the cross term a b^dag + a^dag b picks
    up both orderings.  flux is as for effective_mutual_inductance.
    """
    m_si = constants.henry_from_ph(effective_mutual_inductance(coupler, flux))
    i_a = constants.ampere_from_na(coupler.zero_point_current_a_na)
    i_b = constants.ampere_from_na(coupler.zero_point_current_b_na)
    j_si = 2.0 * m_si * i_a * i_b / constants.HBAR_JS
    return constants.rad_per_ns_from_rad_per_s(j_si)


# ---------------------------------------------------------------------------
# phase-condition solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinglePhaseSolution:
    """Detunings satisfying n pi g^2/(2 delta^2) = (1+2m) pi/8."""

    deltas: tuple[float, float]  # (+|delta|, -|delta|), both valid
    gate_time: float
    pair_phase: float  # |gamma_kj(T_n)| actually imposed


@dataclass(frozen=True)
class CoupledPhaseSolution:
    """(J, delta') satisfying the two simultaneous coupled-gate phase conditions."""

    coupler_rate: float
    delta_prime: float
    gate_time: float
    same_pair_phase: float
    cross_pair_phase: float


def _require_normal(**quantities: float) -> None:
    """ValueError unless each quantity is finite, nonzero and not subnormal."""
    for name, value in quantities.items():
        if not np.finfo(float).tiny <= abs(value) < np.inf:
            raise ValueError(f"{name} = {value} is not a finite normal float")


# A float error gives inf, NaN or an underflow, which _require_normal rejects.
@np.errstate(all="ignore")
def solve_single_phase_condition(coupling: float, n: int = 1, m: int = 0) -> SinglePhaseSolution:
    """Solve n pi g^2 / (2 delta^2) = (1 + 2m) pi / 8 for the detuning.

    Returns both detuning signs (positive first): |delta| =
    g sqrt(4n/(1+2m)), with gate time T_n = 2 pi n/|delta|.  The phase
    branch m must keep 1 + 2m positive, otherwise no real detuning exists.
    ValueError when g^2, delta^2 or a result is not a finite normal float.
    """
    if coupling <= 0:
        raise UnsolvableConditionError("coupling must be positive")
    if n < 1:
        raise UnsolvableConditionError("decoupling index n must be >= 1")
    if 1 + 2 * m <= 0:
        raise UnsolvableConditionError(
            f"phase branch m = {m} gives 1 + 2m = {1 + 2 * m} <= 0: no real detuning"
        )
    g_squared = np.float64(coupling) ** 2  # numpy: inf, not OverflowError
    magnitude = coupling * np.sqrt(4.0 * n / (1 + 2 * m))
    gate_time = 2.0 * np.pi * n / magnitude
    phase = n * np.pi * g_squared / (2.0 * magnitude**2)
    _require_normal(g_squared=g_squared, delta_squared=magnitude**2, T=gate_time, phase=phase)
    residual = abs(phase - (1 + 2 * m) * np.pi / 8.0)
    if not residual <= 1e-10:
        raise RuntimeError(f"phase-condition residual {residual:.3e} exceeds 1e-10")
    return SinglePhaseSolution(
        deltas=(magnitude, -magnitude), gate_time=gate_time, pair_phase=phase
    )


@np.errstate(all="ignore")
def solve_coupled_phase_condition(
    coupling: float, xi: int, n: int = 1, m: int = 0, l: int = 0
) -> CoupledPhaseSolution:
    """Solve the simultaneous phase conditions of the two-resonator gate.

    With delta' = xi J (xi an odd integer, |xi| >= 3) and T_n = 2 pi n / J,
    the same- and cross-resonator conditions

        g^2 delta' T_n / (delta'^2 - J^2) = (3 + 4m) pi / 2
        g^2 J      T_n / (delta'^2 - J^2) = (1 + 4l) pi / 2

    are jointly solvable only when xi (1 + 4l) = 3 + 4m; then
    J = g sqrt(4n / ((xi^2 - 1)(1 + 4l))).  Raises UnsolvableConditionError
    naming the violated constraint otherwise, and ValueError when a square
    or a result is not a finite normal float.  Both conditions are
    re-verified on the returned parameters to 1e-10.
    """
    if coupling <= 0:
        raise UnsolvableConditionError("coupling must be positive")
    if n < 1:
        raise UnsolvableConditionError("decoupling index n must be >= 1")
    if xi % 2 == 0:
        raise UnsolvableConditionError(f"xi = {xi} must be odd")
    if xi * xi == 1:
        raise UnsolvableConditionError(
            "xi = +-1 puts one normal mode on resonance with the drive "
            "(delta' = +-J); the phase conditions degenerate"
        )
    if xi * (1 + 4 * l) != 3 + 4 * m:
        raise UnsolvableConditionError(
            f"ratio constraint violated: xi (1+4l) = {xi * (1 + 4 * l)} but "
            f"3 + 4m = {3 + 4 * m}; the two phase conditions are inconsistent"
        )
    if 1 + 4 * l <= 0:
        raise UnsolvableConditionError(
            f"branch l = {l} gives 1 + 4l = {1 + 4 * l} <= 0: no real coupler rate"
        )
    g_squared = np.float64(coupling) ** 2
    j_rate = coupling * np.sqrt(4.0 * n / ((xi * xi - 1) * (1 + 4 * l)))
    delta_prime = xi * j_rate
    gate_time = 2.0 * np.pi * n / j_rate
    denom = delta_prime**2 - j_rate**2
    # g^2 delta' overflows past g ~ 5e102 although the phases are O(1), so
    # g^2 enters as its mantissa and its power of two is restored last: the
    # scaling is exact, every rounding that of g^2 delta' T / denom
    mantissa, exponent = np.frexp(g_squared)
    same = np.ldexp(mantissa * delta_prime * gate_time / denom, exponent)
    cross = np.ldexp(mantissa * j_rate * gate_time / denom, exponent)
    _require_normal(g_squared=g_squared, j_squared=j_rate**2, denom=denom, same=same, cross=cross)
    res_same = abs(same - (3 + 4 * m) * np.pi / 2.0)
    res_cross = abs(cross - (1 + 4 * l) * np.pi / 2.0)
    if not (res_same <= 1e-10 and res_cross <= 1e-10):
        raise RuntimeError(
            f"phase-condition residuals ({res_same:.3e}, {res_cross:.3e}) exceed 1e-10"
        )
    return CoupledPhaseSolution(
        coupler_rate=j_rate,
        delta_prime=delta_prime,
        gate_time=gate_time,
        same_pair_phase=same / 4.0,
        cross_pair_phase=-cross / 4.0,
    )
