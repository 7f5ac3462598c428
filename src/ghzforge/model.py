"""Circuit parameter records and Hamiltonian builders.

The physical system is N gap-tunable flux qubits coupled through sigma_x to
M detuned bosonic modes.  One record, :class:`ResonatorArray`, describes
every layout: M identical transmission-line resonators (TLRs) that
exchange photons through a symmetric hopping matrix J_rs (one dc-SQUID
coupler per nonzero entry), with each qubit sitting on one of them.  Its
normal modes are the eigenvectors of the hopping matrix.  The paper's two
layouts are two constructors of it: :func:`SingleTlrCircuit` (M = 1) and
:func:`CoupledTlrCircuit` (M = 2, normal modes P = (a + b)/sqrt2 and
Q = (a - b)/sqrt2 split by +-J).  The resonators are driven at the common
qubit gap frequency omega_d; after displacing the modes the tone acts as a
transverse qubit drive of Rabi amplitude Omega_R.

The builders read just what the record exposes:

* ``mode_detunings`` Delta_m = delta + lambda_m, normal-mode frequency minus
  omega_d: (delta,) for one TLR, (delta' + J, delta' - J) for the pair;
* ``coupling_matrix`` G (N x M), G_km = g_k U_{r(k), m}: [[g_k]] for one
  TLR, g_k/sqrt2 [1, +1] on resonator 0 and g_k/sqrt2 [1, -1] on 1;
* ``omega``, the bare resonator frequency: counter-rotating couplings
  oscillate at omega + omega_d;
* ``loop_rate``, |delta| for one TLR and max |J_rs| otherwise: the
  decoupling rate of both paper layouts and the drive-sweep unit.

A builder lists each block of a :class:`TimeDependentHamiltonian` as
weighted tensor products and makes it one
:class:`~ghzforge.operators.SparseOperator` of canonical triplets by one
:func:`~ghzforge.operators.assemble` call: a static part plus (matrix,
frequency) terms, each adding ``exp(i w t) M + exp(-i w t) M^dag``, one
matrix per frequency.  RK4 consumes the CSR block row [static | M |
M^dag], built from the blocks' triplets on first use (the only step that
loads scipy.sparse), with a phase table of the block weights; calling the
handle at a time t gives a dense H(t).
Every builder also declares the fastest angular frequency present so the
step-size precondition can be enforced mechanically.

Identical qubits make a Hamiltonian symmetric under exchanging two of
them while flipping the sign of every mode their couplings give opposite
signs.  :func:`exchange_sector` finds such a pair from the coupling
matrix, checks the frame and every block's triplets against their
exchanged copy, and returns the Hamiltonian restricted to the
exchange-even sector (about half the dimension; the paper's coupled pair
256 -> 128) as an ordinary TimeDependentHamiltonian, frame included,
with the map back to the full space.

Frames, outermost first:

* rotating frame at omega_d in the qubit energy eigenbasis, rotating-wave
  coupling only -- sum_m Delta_m a_m^dag a_m
  + sum_km G_km (a_m^dag sigma_-^k + h.c.) + sum_k (Omega_R/2) sigma_x^k;
* the same frame with the counter-rotating drive and coupling terms
  restored -- the "full" benchmark Hamiltonian;
* interaction picture with respect to the detuned modes and the transverse
  drive -- exposes the error terms oscillating at Omega_R;
* strong-driving effective Hamiltonian -- sigma_x-conditional forces
  sum_km (G_km/2) sigma_x^k (a_m e^{-i Delta_m t} + h.c.), the generator of
  the geometric two-qubit phases.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ApproximationWarning, PreconditionError
from .operators import (
    HilbertSpace,
    SparseOperator,
    annihilation,
    assemble,
    canonical,
    creation,
    csr_from_row_counts,
    number_operator,
    pauli,
    sigma_minus,
    sigma_plus,
)

__all__ = [
    "QubitSpec",
    "ResonatorArray",
    "SingleTlrCircuit",
    "CoupledTlrCircuit",
    "DriveMappingReport",
    "TimeDependentHamiltonian",
    "ExchangeSector",
    "exchange_sector",
    "qubit_drive_from_resonator_drive",
    "rotating_frame_hamiltonian",
    "full_simulation_hamiltonian",
    "interaction_picture_hamiltonian",
    "effective_hamiltonian",
]

_RWA_RATIO = 0.2          # warn when g/omega or Omega_R/omega_d exceeds this
_STRONG_DRIVE_FACTOR = 5  # warn unless Omega_R >= factor * max(|Delta_m|, g)
_RESONANCE_RTOL = 1e-12


def _require_finite_fields(record: str, **values) -> None:
    """Raise ValueError naming the first of values that is not a finite number."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{record} {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class QubitSpec:
    """One gap-tunable flux qubit biased at its optimal point.

    gap (rad/ns) is the tunnel splitting Delta; coupling (rad/ns) the
    qubit-resonator rate g; resonator is the index of the TLR the qubit
    sits on.  There is no energy-bias term epsilon: away from the optimal
    point the sigma-bar_z term re-enters and none of the frames below apply.
    """

    gap: float
    coupling: float
    resonator: int = 0

    def __post_init__(self):
        _require_finite_fields("qubit", gap=self.gap, coupling=self.coupling)
        if not self.gap > 0:
            raise ValueError("qubit gap must be positive")
        if not self.coupling >= 0:
            raise ValueError("qubit-resonator coupling must be non-negative")
        if not isinstance(self.resonator, int) or self.resonator < 0:
            raise ValueError("resonator must be a non-negative resonator index")


def _normal_modes(hopping: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda_m and eigenvectors U[:, m] of the hopping matrix.

    Canonical order: descending overlap |sum_r U_rm| with the uniform
    vector (ties keep eigh's ascending eigenvalues); canonical sign: each
    column's first nonzero entry is positive.
    """
    lam, u = np.linalg.eigh(hopping)
    order = np.argsort(-np.round(np.abs(u.sum(axis=0)), 12), kind="stable")
    lam, u = lam[order], u[:, order]
    first = np.argmax(np.abs(u) > 1e-12, axis=0)
    return lam, u * np.sign(u[first, np.arange(u.shape[1])])


@dataclass(frozen=True)
class ResonatorArray:
    """N qubits on M identical TLRs that exchange photons.

    omega: bare resonator frequency (rad/ns); hopping: the symmetric M x M
    photon-exchange matrix J_rs (rad/ns) with a zero diagonal; each qubit's
    ``resonator`` indexes a row of it; omega_d: drive frequency, equal to
    every qubit gap on resonance; rabi: transverse drive amplitude Omega_R
    (rad/ns, may carry sign).  The working detuning is delta = omega -
    omega_d.  The normal modes are the eigenvectors U of the hopping
    matrix, so Delta_m = delta + lambda_m and G_km = g_k U_{r(k), m}.  The
    mode with the larger overlap with the uniform vector comes first, and
    each column of U has a positive first nonzero entry; for M = 2 that
    gives P = delta' + J and Q = delta' - J whatever the sign of J.  Coupled
    resonators must exchange photons (some J_rs != 0), and no normal mode
    may be resonant with the drive (Delta_m != 0).
    """

    omega: float
    hopping: tuple[tuple[float, ...], ...]
    qubits: tuple[QubitSpec, ...]
    omega_d: float
    rabi: float = 0.0
    mode_detunings: tuple[float, ...] = field(init=False, repr=False, compare=False)
    coupling_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hopping = np.array(self.hopping, dtype=float)
        object.__setattr__(self, "qubits", tuple(self.qubits))
        _require_finite_fields("circuit", omega=self.omega, omega_d=self.omega_d, rabi=self.rabi)
        if not (self.omega > 0 and self.omega_d > 0):
            raise ValueError("frequencies must be positive")
        if not self.qubits:
            raise ValueError("circuit needs at least one qubit")
        if hopping.ndim != 2 or not hopping.size or not np.isfinite(hopping).all():
            raise ValueError("hopping must be a finite M x M matrix with M >= 1")
        if not np.array_equal(hopping, hopping.T) or np.diag(hopping).any():
            raise ValueError("hopping must be symmetric with a zero diagonal")
        object.__setattr__(self, "hopping", tuple(map(tuple, hopping.tolist())))
        if any(q.resonator >= self.n_resonators for q in self.qubits):
            raise ValueError(f"a qubit's resonator index is not below M = {self.n_resonators}")
        if self.n_resonators > 1 and not hopping.any():
            raise ValueError("coupled resonators must exchange photons (J != 0)")
        lam, u = _normal_modes(hopping)
        detunings = tuple(self.detuning + float(x) for x in lam)
        if not all(np.isfinite(detunings)):
            raise ValueError("mode detunings overflow the floating-point range")
        if 0.0 in detunings:
            raise ValueError("drive must be detuned from every normal mode (Delta_m != 0)")
        resonators = [q.resonator for q in self.qubits]
        g = np.array(self.couplings)[:, None] * u[resonators]
        g.setflags(write=False)
        object.__setattr__(self, "mode_detunings", detunings)
        object.__setattr__(self, "coupling_matrix", g)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    @property
    def n_resonators(self) -> int:
        return len(self.hopping)

    @property
    def detuning(self) -> float:
        """delta = omega - omega_d, signed."""
        return self.omega - self.omega_d

    @property
    def couplings(self) -> tuple[float, ...]:
        return tuple(q.coupling for q in self.qubits)

    @property
    def kind(self) -> str:
        """Label prefix: 'single' (M = 1), 'coupled' (M = 2), else 'array'."""
        return {1: "single", 2: "coupled"}.get(self.n_resonators, "array")

    @property
    def loop_rate(self) -> float:
        """|delta| for one TLR, else max |J_rs|: the drive-sweep unit."""
        if self.n_resonators == 1:
            return abs(self.detuning)
        return max(abs(j) for row in self.hopping for j in row)


def SingleTlrCircuit(omega_r, qubits, omega_d, rabi=0.0) -> ResonatorArray:
    """N qubits on one driven TLR of frequency omega_r: hopping [[0]]."""
    return ResonatorArray(omega_r, ((0.0,),), qubits, omega_d, rabi)


def CoupledTlrCircuit(
    omega_a, omega_b, qubits, coupler_rate, omega_d, rabi=0.0
) -> ResonatorArray:
    """N qubits on two degenerate TLRs exchanging photons at rate J.

    The normal modes are P = (a + b)/sqrt2 (detuning delta' + J) and
    Q = (a - b)/sqrt2 (delta' - J); a qubit on resonator 1 couples to Q
    with a minus sign.
    """
    if omega_a != omega_b:
        raise ValueError("the two resonators must be degenerate (omega_a == omega_b)")
    hopping = ((0.0, coupler_rate), (coupler_rate, 0.0))
    return ResonatorArray(omega_a, hopping, qubits, omega_d, rabi)


@dataclass(frozen=True)
class DriveMappingReport:
    """Bookkeeping from the resonator-drive to qubit-drive translation."""

    rabi_per_qubit: tuple[float, ...]
    displacement_magnitude: float  # |nu / delta|, coherent amplitude of the displaced frame


@dataclass
class TimeDependentHamiltonian:
    """H(t) = static + sum_j [exp(i w_j t) M_j + exp(-i w_j t) M_j^dag].

    static (None for none) and every M_j, given as SparseOperators or dense
    arrays, are stored once, as SparseOperators.  fastest_frequency (rad/ns)
    is the largest angular frequency relevant to resolving the dynamics and
    feeds the integrator step-size rule.

    ``frame`` is the diagonal of a real diagonal operator K with
    K[r] - K[c] = w_j on every nonzero entry (r, c) of every M_j and
    K[r] = K[c] on every nonzero entry of static, or None when no such K
    is declared.  With it H(t) = e^{iKt} H_F e^{-iKt}, where
    H_F = K + H(0) is static, so the dynamics need no time stepping.  A
    Hamiltonian without terms gets the zero frame; a declared frame that
    breaks the identity raises ValueError.  ``warned`` holds the messages
    of the ApproximationWarnings its builder raised, in order.

    ``block_row`` is the CSR block row [static | M_1..M_J | M_1^dag..M_J^dag],
    whose blocks oscillate at ``frequencies`` (0, w_j, -w_j):
    -i H(t) y = block_row @ (coefficients(t) (x) y), the outer product
    flattened block-major.  It is built on first use, which loads
    scipy.sparse; only RK4 uses it.
    """

    space: HilbertSpace
    static: SparseOperator | None
    terms: tuple[tuple[SparseOperator, float], ...]
    fastest_frequency: float
    label: str
    frame: np.ndarray | None = field(default=None, repr=False)
    warned: tuple[str, ...] = ()  # the builder's ApproximationWarning messages, in order
    frequencies: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.static = _operator(self.static, self.space, "static part")
        self.terms = tuple(
            (_operator(m, self.space, "a term matrix"), float(w)) for m, w in self.terms
        )
        if self.fastest_frequency <= 0:
            raise ValueError("fastest_frequency must be positive")
        w = np.array([freq for _, freq in self.terms])
        self.frequencies = np.concatenate([[0.0], w, -w])
        if self.frame is None and not self.terms:
            self.frame = np.zeros(self.space.dim)  # no terms: static as it stands
        elif self.frame is not None:
            self._check_frame()

    @functools.cached_property
    def block_row(self):
        dim, parts = self.space.dim, []  # (rows, cols, values) of each block, row-major
        for m in self.blocks:
            keep = m.values != 0  # a zero coupling or drive stores explicit zeros
            parts.append((m.rows[keep], m.cols[keep], m.values[keep]))
        for rows, cols, values in parts[1:]:  # M_j^dag: a stable sort on M_j's columns
            order = np.argsort(cols, kind="stable")
            parts.append((cols[order], rows[order], values[order].conj()))
        rows, cols, values = (
            np.concatenate(x)
            for x in zip(*((r, c + b * dim, v) for b, (r, c, v) in enumerate(parts)))
        )
        # the blocks are concatenated in order, each row-major, so a stable
        # sort on the row keeps a row's entries block by block, in column order
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=dim)
        return csr_from_row_counts(counts, cols[order], values[order], len(parts) * dim)

    @property
    def blocks(self) -> tuple[SparseOperator, ...]:
        """static, M_1..M_J."""
        return (self.static, *(m for m, _ in self.terms))

    @property
    def nnz(self) -> int:
        """Nonzero entries of the block row, counted from the triplets: block_row.nnz."""
        static, *terms = (np.count_nonzero(m.values) for m in self.blocks)
        return int(static + 2 * sum(terms))

    def _check_frame(self) -> None:
        k = self.frame = np.asarray(self.frame, dtype=float)
        if k.shape != (self.space.dim,) or not np.isfinite(k).all():
            raise ValueError("frame must be a finite real diagonal of the space dimension")
        scale = max(1.0, float(np.max(np.abs(k))), *(abs(w) for _, w in self.terms))
        for m, w in ((self.static, 0.0), *self.terms):
            nonzero = m.values != 0
            rows, cols = m.rows[nonzero], m.cols[nonzero]
            if not np.all(np.abs(k[rows] - k[cols] - w) <= 1e-12 * scale):
                raise ValueError(
                    f"frame does not carry the block oscillating at {w:g} rad/ns: "
                    "K[r] - K[c] must equal its frequency on every nonzero entry"
                )

    def __call__(self, t: float) -> np.ndarray:
        """Dense H(t), for the exact path, tests and diagnostics; RK4 reads ``block_row``."""
        h = self.static.toarray()
        for m, w in self.terms:
            term = np.exp(1j * w * t) * m.toarray()
            h += term + term.conj().T
        return h

    def coefficients(self, times) -> np.ndarray:
        """Block weights -i exp(i frequencies t): one row per time in times."""
        t = np.asarray(times, dtype=float)[..., None]
        return -1j * np.exp(1j * (t * self.frequencies))


@dataclass(frozen=True, eq=False)
class ExchangeSector:
    """A Hamiltonian restricted to the +1 sector of a qubit exchange P.

    P swaps two qubits and multiplies a basis state by prod_m s_m^{n_m}
    for mode signs s_m = +-1; it is an involution, so its +1 eigenspace
    has an orthonormal basis V of one column per basis state it fixes
    with sign +1 (entry 1) and per pair {x, Px} (entries 1/sqrt2 at x < Px
    and +-1/sqrt2 at Px).  ``column[x]`` is the column basis state x
    belongs to and ``weight[x]`` its entry (0 for a state P fixes with
    sign -1); ``rows`` is each column's first basis state.
    ``hamiltonian`` is V^dag H(t) V, an ordinary TimeDependentHamiltonian
    on a space of the sector's dimension.
    """

    hamiltonian: TimeDependentHamiltonian
    column: np.ndarray
    weight: np.ndarray
    rows: np.ndarray

    def reduce(self, psi: np.ndarray) -> np.ndarray:
        """V^dag psi for a state psi inside the sector."""
        return psi[self.rows] / self.weight[self.rows]

    def lift(self, states: np.ndarray) -> np.ndarray:
        """V phi for each row phi of a (samples, sector dim) array."""
        full = np.take(states, self.column, axis=1)  # a third of states[:, column]'s time
        full *= self.weight
        full += 0.0  # a negative weight on a zero amplitude leaves -0
        return full


def exchange_sector(
    hamiltonian: TimeDependentHamiltonian, coupling_matrix
) -> ExchangeSector | None:
    """The exchange sector of the first qubit pair (a, b) with |G_a| = |G_b|, if H keeps it.

    P swaps qubits a and b and flips the sign of every mode m with
    G_am G_bm < 0, which maps each coupling sum onto itself.  Returns None
    when no such pair exists, when P changes a declared frame K (K != K[Px]),
    or when some block of the Hamiltonian, its triplets permuted by P and
    made canonical, differs from itself in any entry.  The blocks are then
    projected by the same canonicalisation, with exact +-1 factors between
    pairs: (V^dag M V)_ij = M[x, y] +- M[x, Py] for the first states x, y
    of columns i, j; the sector frame is K at those first states.
    """
    space, g = hamiltonian.space, np.abs(coupling_matrix)
    pairs = ((a, b) for a in range(len(g)) for b in range(a + 1, len(g)))
    a, b = next(((a, b) for a, b in pairs if (g[a] == g[b]).all()), (None, None))
    if a is None:
        return None
    dim = space.dim
    flipped = np.flatnonzero(coupling_matrix[a] * coupling_matrix[b] < 0)
    index = np.indices(space.dims).reshape(len(space.dims), -1)
    sign = 1 - 2 * (index[space.n_qubits + flipped].sum(axis=0) % 2)  # P|x> = sign|Px>
    index[[a, b]] = index[[b, a]]
    partner = np.ravel_multi_index(tuple(index), space.dims)
    frame = hamiltonian.frame
    if frame is not None and not np.array_equal(frame, frame[partner]):
        return None
    for m in hamiltonian.blocks:
        flat = partner[m.rows] * dim + partner[m.cols]
        p = canonical(dim, flat, sign[m.rows] * sign[m.cols] * m.values)
        if not all(map(np.array_equal, (p.rows, p.cols, p.values), (m.rows, m.cols, m.values))):
            return None
    states = np.arange(dim)
    fixed = partner == states
    first = np.where(fixed, sign > 0, states < partner)
    rows = np.flatnonzero(first)
    column = (np.cumsum(first) - 1)[np.minimum(states, partner)]
    weight = np.where(fixed, (sign > 0) * 1.0, np.where(first, 1, sign) / math.sqrt(2.0))
    n = rows.size

    def project(m: SparseOperator) -> SparseOperator:
        # (V^dag M V)_ij = sum_c M[r, c] V[c, j] / V[r, i] over i's first state r
        keep = first[m.rows] & (weight[m.cols] != 0)
        r, c = m.rows[keep], m.cols[keep]
        return canonical(n, column[r] * n + column[c], m.values[keep] * (weight[c] / weight[r]))

    reduced = TimeDependentHamiltonian(
        HilbertSpace(0, (n,)),  # the sector as one flat factor
        project(hamiltonian.static),
        tuple((project(m), w) for m, w in hamiltonian.terms),
        hamiltonian.fastest_frequency,
        hamiltonian.label,
        None if frame is None else frame[rows],
    )
    return ExchangeSector(reduced, column, weight, rows)


def _operator(m, space: HilbertSpace, what: str) -> SparseOperator:
    """m (None, a SparseOperator or a dense matrix) as a SparseOperator on the space."""
    dim = space.dim
    if m is None:
        return assemble(space, [])
    if not isinstance(m, SparseOperator):
        m = np.asarray(m, dtype=complex)
        m = SparseOperator.from_dense(m) if m.shape == (dim, dim) else m
    if m.shape != (dim, dim):
        raise ValueError(f"{what} does not match the space dimension")
    return m


# ---------------------------------------------------------------------------
# the resonator drive
# ---------------------------------------------------------------------------


def _require_one_resonator(circuit) -> None:
    """The resonator tone is modelled for one TLR only."""
    if circuit.n_resonators != 1:
        raise ValueError(
            "the resonator drive is modelled for one resonator (M = 1), "
            f"got M = {circuit.n_resonators}"
        )


def qubit_drive_from_resonator_drive(
    circuit: ResonatorArray, amplitude: float
) -> tuple[ResonatorArray, DriveMappingReport]:
    """Translate a resonator tone into the equivalent transverse qubit drive.

    The tone has amplitude nu (rad/ns) at the circuit's omega_d.
    Displacing the driven mode by beta(t) = -(nu/delta) e^{-i omega_d t}
    cancels the tone and leaves each qubit with the transverse drive
    -(2 g_k nu / delta) cos(omega_d t) sigma_x, i.e. a Rabi amplitude
    Omega_R = -2 g_k nu / delta (positive for a red-detuned drive).
    Returns the circuit with ``rabi`` set and a report with the per-qubit
    values; raises if the couplings are inhomogeneous, since a single
    Omega_R cannot represent that case, and for more than one resonator.
    """
    _require_one_resonator(circuit)
    delta = circuit.detuning
    per_qubit = tuple(-2.0 * q.coupling * amplitude / delta for q in circuit.qubits)
    if not max(per_qubit) - min(per_qubit) <= 1e-12 * max(1.0, abs(per_qubit[0])):
        raise ValueError(
            "qubit couplings are inhomogeneous; the resonator tone maps to "
            f"per-qubit Rabi amplitudes {per_qubit} and no single Omega_R exists"
        )
    report = DriveMappingReport(
        rabi_per_qubit=per_qubit, displacement_magnitude=abs(amplitude / delta)
    )
    return replace(circuit, rabi=per_qubit[0]), report


# ---------------------------------------------------------------------------
# rotating-frame builders, any number of modes
# ---------------------------------------------------------------------------


def _check_rwa(circuit) -> list[str]:
    """Warn for each ratio that strains the rotating-wave approximation; return the messages."""
    worst_g = max(q.coupling for q in circuit.qubits)
    messages = []
    for name, ratio in (
        ("g/omega_r", worst_g / circuit.omega),
        ("Omega_R/omega_d", abs(circuit.rabi) / circuit.omega_d),
    ):
        if ratio > _RWA_RATIO:
            messages.append(f"{name} = {ratio:.3f} strains the rotating-wave approximation")
            warnings.warn(messages[-1], ApproximationWarning, stacklevel=4)
    return messages


def _check_frame(circuit, space: HilbertSpace) -> list[str]:
    """Preconditions shared by every rotating-frame builder; returns the
    messages of the ApproximationWarnings it raised."""
    for i, q in enumerate(circuit.qubits):
        if not abs(q.gap - circuit.omega_d) <= _RESONANCE_RTOL * circuit.omega_d:  # NaN fails
            raise PreconditionError(
                f"qubit {i} gap {q.gap:g} rad/ns is not resonant with the drive "
                f"{circuit.omega_d:g} rad/ns; the rotating-frame builders assume "
                "Delta_k = omega_d"
            )
    warned = _check_rwa(circuit)
    if space.n_qubits != circuit.n_qubits or space.n_modes != len(circuit.mode_detunings):
        raise ValueError("space must carry the circuit's qubits and one Fock cutoff per mode")
    return warned


def _fastest_detuning(circuit) -> float:
    return max(abs(d) for d in circuit.mode_detunings)


def _warn_unless_strong_drive(circuit, consequence: str) -> list[str]:
    scale = max(_fastest_detuning(circuit), max(circuit.couplings))
    if abs(circuit.rabi) >= _STRONG_DRIVE_FACTOR * scale:
        return []
    message = f"Omega_R is not large against |Delta_m| and g; {consequence}"
    warnings.warn(message, ApproximationWarning, stacklevel=3)
    return [message]


def _coupling_sum(circuit, space: HilbertSpace, qubit_op, mode_op, scale=1.0, modes=None):
    """Products of sum_{k,m} scale G_km qubit_op^k mode_op(a_m), qubit-major, over modes."""
    g = circuit.coupling_matrix
    modes = range(space.n_modes) if modes is None else modes
    return [
        (scale * g[k, m], {k: qubit_op, space.mode_factor(m): mode_op(space.mode_levels[m])})
        for k in range(circuit.n_qubits)
        for m in modes
    ]


def _rotating_static(circuit, space: HilbertSpace):
    """Products of the rotating-frame Hamiltonian."""
    levels, factor, detunings = space.mode_levels, space.mode_factor, circuit.mode_detunings
    return [
        *((d, {factor(m): number_operator(levels[m])}) for m, d in enumerate(detunings)),
        *_coupling_sum(circuit, space, sigma_minus(), creation),
        *_coupling_sum(circuit, space, sigma_plus(), annihilation),
        *((0.5 * circuit.rabi, {k: pauli("x")}) for k in range(circuit.n_qubits)),
    ]


def rotating_frame_hamiltonian(circuit, space: HilbertSpace) -> TimeDependentHamiltonian:
    """Static rotating-frame Hamiltonian (rotating-wave coupling only).

    H = sum_m Delta_m a_m^dag a_m
      + sum_{k,m} G_km (a_m^dag sigma_-^k + a_m sigma_+^k)
      + sum_k (Omega_R/2) sigma_x^k

    in the frame rotating at omega_d for the modes and the (resonant)
    qubits.  For coupled resonators this is the normal-mode form of the
    bare-resonator Hamiltonian, with hopping sum_{r != s} J_rs a_r^dag a_s.
    """
    warned = _check_frame(circuit, space)
    static = assemble(space, _rotating_static(circuit, space))
    fastest = abs(circuit.rabi) + _fastest_detuning(circuit)
    label = f"{circuit.kind}:rotating"
    return TimeDependentHamiltonian(space, static, (), fastest, label, warned=tuple(warned))


def full_simulation_hamiltonian(circuit, space: HilbertSpace) -> TimeDependentHamiltonian:
    """Rotating-frame Hamiltonian with the counter-rotating terms restored.

    Adds to the static rotating-frame part the drive term
    sum_k (Omega_R/2) sigma_+^k e^{2 i omega_d t} + h.c. and the coupling
    term sum_{k,m} G_km a_m^dag sigma_+^k e^{i (omega + omega_d) t} + h.c.
    That coupling tag is the coded one, not the frame's: in this frame
    a^dag sigma_+ turns at 2 omega_d, so the declared fastest frequency,
    omega + omega_d, lies below the drive term's 2 omega_d.  Retagging moves
    F by 6.8e-5 (single gate) and 4.6e-5 (coupled) and waits on re-recorded
    benchmark references (ROADMAP.md, item 2).
    """
    warned = _check_frame(circuit, space)
    static = assemble(space, _rotating_static(circuit, space))
    drive_cr = [(0.5 * circuit.rabi, {k: sigma_plus()}) for k in range(circuit.n_qubits)]
    coupling_cr = _coupling_sum(circuit, space, sigma_plus(), creation)
    terms = (
        (assemble(space, drive_cr), 2.0 * circuit.omega_d),
        (assemble(space, coupling_cr), circuit.omega + circuit.omega_d),
    )
    fastest = circuit.omega + circuit.omega_d
    label = f"{circuit.kind}:full"
    return TimeDependentHamiltonian(space, static, terms, fastest, label, warned=tuple(warned))


def interaction_picture_hamiltonian(circuit, space: HilbertSpace) -> TimeDependentHamiltonian:
    """Coupling in the interaction picture of the detuned modes and the drive.

    Transforming the rotating-wave coupling with
    U0(t) = exp[-i t (sum_m Delta_m a_m^dag a_m + sum_k (Omega_R/2) sigma_x^k)]
    leaves

    H(t) = sum_{k,m} (G_km/2) e^{-i Delta_m t} a_m
           [sigma_x^k + i cos(Omega_R t) sigma_y^k - i sin(Omega_R t) sigma_z^k]
           + h.c.

    The sigma_y/sigma_z parts oscillate at Omega_R and average away for
    strong driving; dropping them gives :func:`effective_hamiltonian`.
    """
    warned = _check_frame(circuit, space) + _warn_unless_strong_drive(
        circuit, "the interaction-picture error terms will not average cleanly"
    )
    rabi, y = circuit.rabi, 1j * pauli("y")
    # per mode e^{-i Delta t} (G/2) a sigma_x + h.c. and the i cos / -i sin pieces
    # regrouped by net phase: (G/4) a (i sigma_y -+ sigma_z) e^{i(+-Omega - Delta)t}
    pieces = ((pauli("x"), 0.5, 0.0), (y - pauli("z"), 0.25, rabi), (y + pauli("z"), 0.25, -rabi))
    terms = [
        (assemble(space, _coupling_sum(circuit, space, op, annihilation, scale, [m])), w - delta)
        for m, delta in enumerate(circuit.mode_detunings)
        for op, scale, w in pieces
    ]
    fastest = abs(rabi) + _fastest_detuning(circuit)
    label = f"{circuit.kind}:intermediate"
    return TimeDependentHamiltonian(space, None, terms, fastest, label, warned=tuple(warned))


def effective_hamiltonian(circuit, space: HilbertSpace) -> TimeDependentHamiltonian:
    """Strong-driving effective Hamiltonian: sigma_x-conditional mode forces.

    H(t) = sum_{k,m} (G_km/2) sigma_x^k (a_m e^{-i Delta_m t} + a_m^dag e^{i Delta_m t})

    Commutators at different times are c-numbers times sigma_x^k sigma_x^j,
    so the propagator closes into conditional displacements plus pairwise
    geometric phases sum_m G_km G_jm phi(Delta_m, t).  In the coupled
    layout the P and Q contributions add for same-resonator pairs and
    compete for cross-resonator pairs.
    """
    warned = _check_frame(circuit, space) + _warn_unless_strong_drive(
        circuit, "the effective Hamiltonian is outside its strong-driving regime"
    )
    terms = tuple(
        (assemble(space, _coupling_sum(circuit, space, pauli("x"), annihilation, 0.5, [m])), -d)
        for m, d in enumerate(circuit.mode_detunings)
    )
    # a_m lowers n_m by one, so K = sum_m Delta_m n_m turns at -Delta_m across it
    counts = np.indices(space.dims).reshape(len(space.dims), -1)
    frame = sum(d * counts[space.mode_factor(m)] for m, d in enumerate(circuit.mode_detunings))
    fastest, label = _fastest_detuning(circuit), f"{circuit.kind}:effective"
    return TimeDependentHamiltonian(space, None, terms, fastest, label, frame, tuple(warned))
