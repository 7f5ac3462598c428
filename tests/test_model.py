"""Hamiltonian builders: validation, Hermiticity, and frame identities."""

import functools
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm
from test_operators import embed, embedded_product, hermiticity_defect, kron_embed, tocsr

from ghzforge.errors import ApproximationWarning, PreconditionError
from ghzforge.scenario import bundled_scenario_path, load_scenario
from ghzforge.dynamics import VARIANTS
from ghzforge.model import (
    CoupledTlrCircuit,
    QubitSpec,
    ResonatorArray,
    SingleTlrCircuit,
    TimeDependentHamiltonian,
    effective_hamiltonian,
    full_simulation_hamiltonian,
    interaction_picture_hamiltonian,
    qubit_drive_from_resonator_drive,
    rotating_frame_hamiltonian,
)
from ghzforge.operators import (
    HilbertSpace,
    SparseOperator,
    annihilation,
    assemble,
    creation,
    number_operator,
    pauli,
    sigma_minus,
    sigma_plus,
)

TWO_PI = 2.0 * np.pi


def reference_single(rabi_mult=20.0, n_qubits=2):
    """omega_r = 2pi*10, drive at 2pi*10.1 (delta = -2pi*0.1), g = 2pi*0.05."""
    omega_d = TWO_PI * 10.1
    qubits = tuple(
        QubitSpec(gap=omega_d, coupling=TWO_PI * 0.05) for _ in range(n_qubits)
    )
    return SingleTlrCircuit(
        omega_r=TWO_PI * 10.0,
        qubits=qubits,
        omega_d=omega_d,
        rabi=rabi_mult * TWO_PI * 0.1,
    )


def reference_coupled(rabi_mult=42.0):
    """Two degenerate resonators, J = 2pi*0.04, delta' = -3J, one qubit each."""
    j = TWO_PI * 0.04
    omega = TWO_PI * 10.0
    omega_d = omega + 3.0 * j  # delta' = -3J
    g = np.sqrt(2.0) * j
    return CoupledTlrCircuit(
        omega_a=omega,
        omega_b=omega,
        qubits=(
            QubitSpec(gap=omega_d, coupling=g, resonator=0),
            QubitSpec(gap=omega_d, coupling=g, resonator=1),
        ),
        coupler_rate=j,
        omega_d=omega_d,
        rabi=rabi_mult * j,
    )


@dataclass(frozen=True)
class ThreeModes:
    """A layout record with three modes, which no bundled layout has."""

    qubits: tuple
    omega_d: float
    rabi: float
    kind = "chain"
    omega = TWO_PI * 10.0
    mode_detunings = (-0.3, 0.2, 0.5)
    coupling_matrix = np.array([[0.05, 0.02, 0.0], [0.01, 0.04, -0.03]])

    @property
    def n_qubits(self):
        return len(self.qubits)

    @property
    def couplings(self):
        return tuple(q.coupling for q in self.qubits)


def three_mode_record():
    omega_d = TWO_PI * 10.1
    qubit = QubitSpec(gap=omega_d, coupling=0.05)
    return ThreeModes(qubits=(qubit, qubit), omega_d=omega_d, rabi=4.0)


def bare_mode_hamiltonian(circuit, space):
    """Rotating-frame Hamiltonian of a ResonatorArray in the bare-resonator
    basis, any hopping matrix:

    H = delta sum_r a_r^dag a_r + sum_{r != s} J_rs a_r^dag a_s
      + sum_k g_k (a_{r(k)}^dag sigma_-^k + h.c.) + sum_k (Omega_R/2) sigma_x^k

    The reference the normal-mode builder must match up to a basis change.
    """
    levels, factor = space.mode_levels, space.mode_factor
    static = sum(
        circuit.detuning * tocsr(embed(number_operator(levels[r]), factor(r), space))
        for r in range(circuit.n_resonators)
    )
    for r, row in enumerate(circuit.hopping):
        for s, j in enumerate(row):
            if j != 0.0:
                static = static + j * tocsr(embedded_product(
                    space, {factor(r): creation(levels[r]), factor(s): annihilation(levels[s])}
                ))
    for k, q in enumerate(circuit.qubits):
        r = q.resonator
        for qubit_op, mode_op in ((sigma_minus(), creation), (sigma_plus(), annihilation)):
            static = static + q.coupling * tocsr(embedded_product(
                space, {k: qubit_op, factor(r): mode_op(levels[r])}
            ))
        static = static + 0.5 * circuit.rabi * tocsr(embed(pauli("x"), k, space))
    fastest = abs(circuit.rabi) + max(abs(d) for d in circuit.mode_detunings)
    return TimeDependentHamiltonian(space, static.toarray(), (), fastest, f"{circuit.kind}:bare")


def lab_frame_hamiltonian(circuit, amplitude, space):
    """Laboratory-frame Hamiltonian of qubits on one TLR, in the
    persistent-current basis:

    H(t) = omega_r a^dag a + sum_k (Delta_k/2) sigma-bar_x^k
         + sum_k g_k (a^dag + a) sigma-bar_z^k
         + nu (a^dag e^{-i omega_d t} + a e^{i omega_d t})

    with nu = amplitude (rad/ns).  The sigma-bar are Paulis over the
    persistent-current states, a Hadamard rotation away from the energy
    eigenbasis.  The oracle for the frame of the rotating-frame builders.
    """
    nm, mode = space.mode_levels[0], space.mode_factor(0)
    static = [(circuit.omega, {mode: number_operator(nm)})]
    for k, q in enumerate(circuit.qubits):
        static.append((0.5 * q.gap, {k: pauli("x")}))
        static.append((q.coupling, {k: pauli("z"), mode: annihilation(nm) + creation(nm)}))
    terms = [(assemble(space, [(amplitude, {mode: creation(nm)})]), -circuit.omega_d)]
    fastest = circuit.omega * nm + circuit.omega_d
    return TimeDependentHamiltonian(space, assemble(space, static), terms, fastest, "single:lab")


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_qubit_spec_validation():
    with pytest.raises(ValueError):
        QubitSpec(gap=0.0, coupling=1.0)
    with pytest.raises(ValueError):
        QubitSpec(gap=1.0, coupling=-0.1)
    with pytest.raises(ValueError):
        QubitSpec(gap=1.0, coupling=0.1, resonator="C")
    with pytest.raises(ValueError):
        QubitSpec(gap=1.0, coupling=0.1, resonator=-1)


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, 10**400], ids=["nan", "inf", "-inf", "huge"]
)
def test_circuit_records_reject_non_finite_fields(value):
    """Every frequency, coupling and drive field is a finite number.  NaN
    passes every plain comparison, so a NaN gap used to pass the builders'
    resonance test and a NaN coupling or drive to reach the integrator."""
    q = QubitSpec(gap=1.0, coupling=0.1)
    makers = {
        "gap": lambda: QubitSpec(gap=value, coupling=0.1),
        "coupling": lambda: QubitSpec(gap=1.0, coupling=value),
        "omega": lambda: ResonatorArray(value, [[0.0]], (q,), 1.0),
        "omega_d": lambda: ResonatorArray(1.1, [[0.0]], (q,), value),
        "rabi": lambda: ResonatorArray(1.1, [[0.0]], (q,), 1.0, value),
    }
    for name, make in makers.items():
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make()


def test_nan_gap_is_not_resonant():
    """The builders' resonance test fails for a gap that is NaN, on a
    layout record that skips QubitSpec's own checks."""
    qubit = SimpleNamespace(gap=np.nan, coupling=0.05)
    circuit = replace(three_mode_record(), qubits=(qubit, qubit))
    with pytest.raises(PreconditionError, match="not resonant"):
        rotating_frame_hamiltonian(circuit, HilbertSpace(n_qubits=2, mode_levels=(2, 3, 2)))


def test_single_circuit_validation():
    q = QubitSpec(gap=1.0, coupling=0.1)
    with pytest.raises(ValueError, match="detuned"):
        SingleTlrCircuit(omega_r=1.0, qubits=(q,), omega_d=1.0)
    with pytest.raises(ValueError):
        SingleTlrCircuit(omega_r=1.0, qubits=(), omega_d=0.9)
    with pytest.raises(ValueError):
        SingleTlrCircuit(omega_r=-1.0, qubits=(q,), omega_d=0.9)
    circuit = SingleTlrCircuit(omega_r=1.0, qubits=(q,), omega_d=1.1)
    assert circuit.detuning == pytest.approx(-0.1)
    assert circuit.couplings == (0.1,)


def test_coupled_circuit_validation():
    qa = QubitSpec(gap=1.0, coupling=0.1, resonator=0)
    qb = QubitSpec(gap=1.0, coupling=0.1, resonator=1)
    with pytest.raises(ValueError, match="degenerate"):
        CoupledTlrCircuit(
            omega_a=1.0, omega_b=1.01, qubits=(qa, qb), coupler_rate=0.02, omega_d=0.9
        )
    # |delta'| == |J| leaves one normal mode resonant with the drive
    with pytest.raises(ValueError, match="normal mode"):
        CoupledTlrCircuit(
            omega_a=1.0, omega_b=1.0, qubits=(qa, qb), coupler_rate=0.5, omega_d=1.5
        )
    circuit = CoupledTlrCircuit(
        omega_a=1.0, omega_b=1.0, qubits=(qa, qb, qa), coupler_rate=0.02, omega_d=1.06
    )
    assert [q.resonator for q in circuit.qubits] == [0, 1, 0]
    assert circuit.detuning == pytest.approx(-0.06)


def test_layout_records_expose_modes():
    single = reference_single()
    assert single.mode_detunings == (single.detuning,)
    assert np.array_equal(single.coupling_matrix, [[q.coupling] for q in single.qubits])
    assert single.omega == TWO_PI * 10.0
    assert single.loop_rate == abs(single.detuning)

    coupled = reference_coupled()
    j = coupled.hopping[0][1]
    assert coupled.mode_detunings == (coupled.detuning + j, coupled.detuning - j)
    g = coupled.qubits[0].coupling / np.sqrt(2.0)
    # P couples to both resonators alike, Q with a minus sign on B
    assert np.allclose(coupled.coupling_matrix, [[g, g], [g, -g]], rtol=1e-15, atol=0.0)
    assert coupled.omega == TWO_PI * 10.0
    assert coupled.loop_rate == abs(j)


def test_builders_take_any_number_of_modes():
    """A three-mode record: the rotating-frame builder is the explicit sum
    over modes, and every variant emits one term set per mode."""

    circuit = three_mode_record()
    space = HilbertSpace(n_qubits=2, mode_levels=(2, 3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = rotating_frame_hamiltonian(circuit, space)(0.0)
        effective = effective_hamiltonian(circuit, space)
        intermediate = interaction_picture_hamiltonian(circuit, space)
    expected = sum(0.5 * circuit.rabi * kron_embed(pauli("x"), k, space) for k in range(2))
    for m, delta in enumerate(circuit.mode_detunings):
        levels, factor = space.mode_levels[m], space.mode_factor(m)
        a = kron_embed(annihilation(levels), factor, space)
        expected = expected + delta * a.conj().T @ a
        for k in range(2):
            sm = kron_embed(np.array([[0.0, 0.0], [1.0, 0.0]]), k, space)
            coupling = circuit.coupling_matrix[k, m] * a.conj().T @ sm
            expected = expected + coupling + coupling.conj().T
    assert np.allclose(h, expected, atol=1e-14)
    assert [w for _, w in effective.terms] == [-d for d in circuit.mode_detunings]
    assert len(intermediate.terms) == 9
    assert effective.fastest_frequency == 0.5


def test_time_dependent_hamiltonian_call():
    space = HilbertSpace(n_qubits=1)
    static = pauli("z")
    m = np.array([[0.0, 0.3], [0.0, 0.0]], dtype=complex)
    h = TimeDependentHamiltonian(space, static, ((m, 2.0),), 2.0, "toy")
    t = 0.7
    expected = static + np.exp(2.0j * t) * m + np.exp(-2.0j * t) * m.conj().T
    assert np.allclose(h(t), expected, atol=1e-15)
    assert h.frame is None
    h_static = TimeDependentHamiltonian(space, static, (), 1.0, "toy-static")
    assert np.array_equal(h_static.frame, np.zeros(2))


def test_hamiltonian_stores_each_operator_once_as_triplets():
    """static and every term are SparseOperators; a missing static part is
    an empty block, and the block row is made of exactly those
    matrices."""
    circuit = reference_single()
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    dim = space.dim
    for h in (
        full_simulation_hamiltonian(circuit, space),
        effective_hamiltonian(circuit, space),
    ):
        assert isinstance(h.static, SparseOperator)
        assert all(isinstance(m, SparseOperator) for m, _ in h.terms)
        blocks = [h.static, *(m for m, _ in h.terms), *(tocsr(m).conj().T for m, _ in h.terms)]
        for b, block in enumerate(blocks):
            assert np.array_equal(h.block_row[:, b * dim:(b + 1) * dim].toarray(), block.toarray())
    assert effective_hamiltonian(circuit, space).static.nnz == 0


def test_full_build_stays_below_one_dense_matrix():
    """The dimension-1,728 three-mode full build never holds as much as one
    dense dim x dim complex matrix (45.6 MiB); a Kronecker build peaks near
    229 MiB."""
    space = HilbertSpace(n_qubits=2, mode_levels=(6, 8, 9))
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApproximationWarning)
            h = full_simulation_hamiltonian(three_mode_record(), space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 1728
    assert h.block_row.shape == (space.dim, 5 * space.dim)
    assert peak < space.dim**2 * np.dtype(complex).itemsize


def test_term_shape_mismatch_rejected():
    space = HilbertSpace(n_qubits=1, mode_levels=(2,))
    for wrong in (pauli("x"), np.zeros(4), np.zeros((4, 2))):
        with pytest.raises(ValueError, match="term matrix does not match"):
            TimeDependentHamiltonian(
                space, None, ((np.eye(4), 1.0), (wrong, 2.0)), 2.0, "toy"
            )


# ---------------------------------------------------------------------------
# the block-row right-hand side the integrator consumes
# ---------------------------------------------------------------------------


@functools.cache
def _stage_hamiltonian(case):
    """Every builder x layout pair, the three-mode record, the lab frame and
    the zero Hamiltonian (no static part, no terms)."""
    layout, _, variant = case.partition(":")
    if layout == "zero":
        return TimeDependentHamiltonian(HilbertSpace(n_qubits=2), None, (), 1.0, "zero")
    if layout == "lab":
        circuit = reference_single(rabi_mult=0.0, n_qubits=1)
        return lab_frame_hamiltonian(
            circuit, TWO_PI * 0.05, HilbertSpace(n_qubits=1, mode_levels=(6,))
        )
    circuit, levels = {
        "single": (reference_single(), (5,)),
        "coupled": (reference_coupled(), (4, 4)),
        "chain": (three_mode_record(), (2, 3, 2)),
    }[layout]
    builder = {
        "full": full_simulation_hamiltonian,
        "rotating": rotating_frame_hamiltonian,
        "intermediate": interaction_picture_hamiltonian,
        "effective": effective_hamiltonian,
    }[variant]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        return builder(circuit, HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels))


STAGE_CASES = [
    *(f"{layout}:{v}" for layout in ("single", "coupled", "chain") for v in VARIANTS),
    "lab",
    "zero",
]


@pytest.mark.parametrize("case", STAGE_CASES)
@settings(max_examples=20, deadline=None)
@given(
    t_start=st.floats(0.0, 30.0),
    span=st.floats(1e-3, 2.0),
    n_steps=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
@example(t_start=0.0, span=0.5, n_steps=7, seed=0)
def test_stacked_stage_equals_dense_rhs(case, t_start, span, n_steps, seed):
    """One RK4 stage, block_row @ (coefficients (x) y) over a segment's
    phase table, equals -i H(t) y at the segment's start, a midpoint and its
    end."""
    h = _stage_hamiltonian(case)
    dim = h.space.dim
    blocks = h.block_row.shape[1] // dim
    assert h.block_row.shape == (dim, blocks * dim)
    assert blocks == 1 + 2 * len(h.terms)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    times = t_start + (0.5 * span / n_steps) * np.arange(2 * n_steps + 1)
    table = h.coefficients(times)
    for row in (0, 2 * int(rng.integers(n_steps)) + 1, 2 * n_steps):
        stage = h.block_row @ np.outer(table[row], y).ravel()
        expected = -1j * (h(times[row]) @ y)
        assert np.allclose(table[row], h.coefficients(times[row]), rtol=1e-15, atol=0.0)
        assert np.linalg.norm(stage - expected) <= 1e-13 * np.linalg.norm(expected)


# ---------------------------------------------------------------------------
# reference: every builder as a sum of one-product CSR matrices
# ---------------------------------------------------------------------------


def _reference_coupling(circuit, space, qubit_op, mode_op, scale=1.0, modes=None):
    g = circuit.coupling_matrix
    modes = range(space.n_modes) if modes is None else modes
    return sum(
        scale * g[k, m]
        * tocsr(embedded_product(
            space, {k: qubit_op, space.mode_factor(m): mode_op(space.mode_levels[m])}
        ))
        for k in range(circuit.n_qubits)
        for m in modes
    )


def _reference_rotating_static(circuit, space):
    static = sum(
        d * tocsr(embed(number_operator(levels), space.mode_factor(m), space))
        for m, (d, levels) in enumerate(zip(circuit.mode_detunings, space.mode_levels))
    )
    static = static + _reference_coupling(circuit, space, sigma_minus(), creation)
    static = static + _reference_coupling(circuit, space, sigma_plus(), annihilation)
    for k in range(circuit.n_qubits):
        static = static + 0.5 * circuit.rabi * tocsr(embed(pauli("x"), k, space))
    return static


def reference_blocks(variant, circuit, space, amplitude=0.0):
    """(static, terms, frame) of a builder, each block summed one CSR matrix
    at a time, the way the builders formed them before one-pass assembly."""
    if variant == "lab":
        nm = space.mode_levels[0]
        a = tocsr(embed(annihilation(nm), space.mode_factor(0), space))
        static = circuit.omega * tocsr(embed(number_operator(nm), space.mode_factor(0), space))
        for k, q in enumerate(circuit.qubits):
            static = static + 0.5 * q.gap * tocsr(embed(pauli("x"), k, space))
            static = static + q.coupling * tocsr(embedded_product(
                space, {k: pauli("z"), space.mode_factor(0): annihilation(nm) + creation(nm)}
            ))
        return static, [(amplitude * a.conj().T, -circuit.omega_d)], None
    if variant == "rotating":
        return _reference_rotating_static(circuit, space), [], None
    if variant == "full":
        drive_cr = sum(
            0.5 * circuit.rabi * tocsr(embed(sigma_plus(), k, space))
            for k in range(circuit.n_qubits)
        )
        coupling_cr = _reference_coupling(circuit, space, sigma_plus(), creation)
        terms = [(drive_cr, 2.0 * circuit.omega_d), (coupling_cr, circuit.omega + circuit.omega_d)]
        return _reference_rotating_static(circuit, space), terms, None
    rabi, y = circuit.rabi, 1j * pauli("y")
    y_minus_z, y_plus_z = y - pauli("z"), y + pauli("z")
    terms = []
    for m, delta in enumerate(circuit.mode_detunings):
        force = functools.partial(
            _reference_coupling, circuit, space, mode_op=annihilation, modes=[m]
        )
        terms.append((force(pauli("x"), scale=0.5), -delta))
        if variant == "intermediate":
            terms.append((force(y_minus_z, scale=0.25), rabi - delta))
            terms.append((force(y_plus_z, scale=0.25), -(rabi + delta)))
    if variant == "intermediate":
        return None, terms, None
    frame = sum(
        delta * tocsr(embed(number_operator(levels), space.mode_factor(m), space)).diagonal().real
        for m, (delta, levels) in enumerate(zip(circuit.mode_detunings, space.mode_levels))
    )
    return None, terms, frame


def reference_block_row(space, static, terms):
    """[static | M_j | M_j^dag] side by side, explicit zeros pruned."""
    static = sparse.csr_matrix((space.dim,) * 2 if static is None else static, dtype=complex)
    terms = [sparse.csr_matrix(m, dtype=complex) for m, _ in terms]
    row = sparse.hstack([static, *terms, *(m.conj().T.tocsr() for m in terms)], format="csr")
    row.eliminate_zeros()
    return row


def _bundled_circuit(name):
    scenario = load_scenario(bundled_scenario_path(name))
    return scenario.circuit, scenario.fock


REFERENCE_LAYOUTS = {
    "single_tlr_ghz": lambda: _bundled_circuit("single_tlr_ghz"),
    "coupled_tlr_ghz": lambda: _bundled_circuit("coupled_tlr_ghz"),
    "chain-2-3-2": lambda: (three_mode_record(), (2, 3, 2)),
    "chain-6-8-9": lambda: (three_mode_record(), (6, 8, 9)),
}
REFERENCE_BUILDERS = {
    "full": full_simulation_hamiltonian,
    "rotating": rotating_frame_hamiltonian,
    "intermediate": interaction_picture_hamiltonian,
    "effective": effective_hamiltonian,
    "lab": functools.partial(lab_frame_hamiltonian, amplitude=TWO_PI * 0.05),
}


@pytest.mark.parametrize(
    "layout, variant",
    [
        *((layout, v) for layout in REFERENCE_LAYOUTS for v in VARIANTS),
        ("single_tlr_ghz", "lab"),
    ],
)
def test_one_pass_assembly_matches_the_sum_of_csr_reference(layout, variant):
    """block_row equals the one-product-at-a-time reference: the same
    structure, and the same data bit for bit up to two modes.  With three
    modes three number terms meet on the diagonal, where the summation
    order may move a sum by one ulp."""
    circuit, levels = REFERENCE_LAYOUTS[layout]()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = REFERENCE_BUILDERS[variant](circuit, space=space)
        static, terms, frame = reference_blocks(variant, circuit, space, TWO_PI * 0.05)
    expected = reference_block_row(space, static, terms)
    assert h.block_row.shape == expected.shape
    assert np.array_equal(h.block_row.indptr, expected.indptr)
    assert np.array_equal(h.block_row.indices, expected.indices)
    assert [w for _, w in h.terms] == [w for _, w in terms]
    if space.n_modes <= 2:
        assert h.block_row.data.tobytes() == expected.data.tobytes()
    else:
        for part in ("real", "imag"):
            got, want = getattr(h.block_row.data, part), getattr(expected.data, part)
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    if frame is not None:
        assert h.frame.tobytes() == frame.tobytes()


@pytest.mark.parametrize(
    "layout, variant",
    [
        *((layout, v) for layout in REFERENCE_LAYOUTS for v in VARIANTS),
        ("single_tlr_ghz", "lab"),
    ],
)
def test_triplet_blocks_give_the_csr_column_and_the_dense_h(layout, variant):
    """block_row is, bit for bit, the sparse.hstack reference of the
    blocks' own CSR forms, and H(t) is, bit for bit, the dense formula
    static + sum_j (e^{iwt} M_j + h.c.) on the blocks summed one CSR
    matrix at a time; with three modes, as for block_row above, to one ulp.
    The dense check stops at dimension 512."""
    circuit, levels = REFERENCE_LAYOUTS[layout]()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ApproximationWarning)
        h = REFERENCE_BUILDERS[variant](circuit, space=space)
        static, terms, _ = reference_blocks(variant, circuit, space, TWO_PI * 0.05)
    own = reference_block_row(space, tocsr(h.static), [(tocsr(m), w) for m, w in h.terms])
    for part in ("indptr", "indices", "data"):
        assert getattr(h.block_row, part).tobytes() == getattr(own, part).tobytes()
    static = sparse.csr_matrix((space.dim,) * 2 if static is None else static, dtype=complex)
    for t in SAMPLE_TIMES if space.dim <= 512 else ():  # dense H above that is slow
        expected = static.toarray()
        for m, w in terms:
            term = np.exp(1j * w * t) * sparse.csr_matrix(m, dtype=complex).toarray()
            expected += term + term.conj().T
        got = h(t)
        if space.n_modes <= 2:
            assert got.tobytes() == expected.tobytes()
        else:
            for part in ("real", "imag"):
                want = getattr(expected, part)
                assert np.all(np.abs(getattr(got, part) - want) <= np.spacing(np.abs(want)))


# ---------------------------------------------------------------------------
# Hermiticity across every builder
# ---------------------------------------------------------------------------

SAMPLE_TIMES = (0.0, 0.13, 1.7, 9.99)


@pytest.mark.parametrize(
    "builder",
    [
        rotating_frame_hamiltonian,
        full_simulation_hamiltonian,
        interaction_picture_hamiltonian,
        effective_hamiltonian,
    ],
)
def test_single_builders_hermitian(builder):
    circuit = reference_single()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=(5,))
    h = builder(circuit, space)
    for t in SAMPLE_TIMES:
        assert hermiticity_defect(h(t)) < 1e-12


@pytest.mark.parametrize(
    "builder",
    [
        rotating_frame_hamiltonian,
        bare_mode_hamiltonian,
        full_simulation_hamiltonian,
        effective_hamiltonian,
    ],
    ids=[
        "coupled_rotating_frame_hamiltonian",
        "coupled_bare_mode_hamiltonian",
        "coupled_full_simulation_hamiltonian",
        "coupled_effective_hamiltonian",
    ],
)
def test_coupled_builders_hermitian(builder):
    circuit = reference_coupled()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=(4, 4))
    h = builder(circuit, space)
    for t in SAMPLE_TIMES:
        assert hermiticity_defect(h(t)) < 1e-12


def test_lab_frame_hermitian_and_drive_check():
    circuit = reference_single(rabi_mult=0.0, n_qubits=1)
    space = HilbertSpace(n_qubits=1, mode_levels=(6,))
    h = lab_frame_hamiltonian(circuit, TWO_PI * 0.05, space)
    for t in SAMPLE_TIMES:
        assert hermiticity_defect(h(t)) < 1e-12


# ---------------------------------------------------------------------------
# explicit matrix oracles
# ---------------------------------------------------------------------------


def test_rotating_frame_matrix_oracle():
    """One qubit, three Fock levels: compare against a hand-built matrix."""
    g = TWO_PI * 0.05
    delta = -TWO_PI * 0.1
    rabi = TWO_PI * 2.0
    omega_d = TWO_PI * 10.1
    circuit = SingleTlrCircuit(
        omega_r=omega_d + delta,
        qubits=(QubitSpec(gap=omega_d, coupling=g),),
        omega_d=omega_d,
        rabi=rabi,
    )
    space = HilbertSpace(n_qubits=1, mode_levels=(3,))
    h = rotating_frame_hamiltonian(circuit, space)(0.0)

    a = annihilation(3)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = (
        delta * np.kron(np.eye(2), number_operator(3))
        + g * np.kron(sp.T, a.conj().T)
        + g * np.kron(sp, a)
        + 0.5 * rabi * np.kron(pauli("x"), np.eye(3))
    )
    assert np.allclose(h, expected, atol=1e-13)


def test_full_equals_rotating_plus_counter_terms():
    circuit = reference_single()
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    h_rot = rotating_frame_hamiltonian(circuit, space)
    h_full = full_simulation_hamiltonian(circuit, space)
    for t in (0.0, 0.31):
        diff = h_full(t) - h_rot(t)
        # the counter-rotating remainder is Hermitian and traceless
        assert hermiticity_defect(diff) < 1e-12
        assert abs(np.trace(diff)) < 1e-10
    # at t = 0 the remainder is the sum of both counter-rotating operators
    nm = space.mode_levels[0]
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    drive_cr = sum(
        0.5 * circuit.rabi * kron_embed(sp, k, space) for k in range(2)
    )
    coupling_cr = sum(
        q.coupling
        * kron_embed(sp, k, space)
        @ kron_embed(creation(nm), space.mode_factor(0), space)
        for k, q in enumerate(circuit.qubits)
    )
    remainder = drive_cr + drive_cr.conj().T + coupling_cr + coupling_cr.conj().T
    assert np.allclose(h_full(0.0) - h_rot(0.0), remainder, atol=1e-12)


@pytest.mark.parametrize(
    "record, levels",
    [(reference_single, (4,)), (reference_coupled, (3, 3)), (three_mode_record, (2, 3, 2))],
    ids=["single", "coupled", "chain"],
)
def test_interaction_picture_matches_frame_conjugation(record, levels):
    """H_int(t) must equal U0(t)^dag (H_rot - G) U0(t) with
    G = sum_m Delta_m a_m^dag a_m + sum_k (Omega_R/2) sigma_x^k the frame
    generator, for one, two and three modes."""
    circuit = record()
    space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels)
    h_rot = rotating_frame_hamiltonian(circuit, space)(0.0)
    h_int = interaction_picture_hamiltonian(circuit, space)

    generator = sum(
        d * kron_embed(number_operator(n), space.mode_factor(m), space)
        for m, (d, n) in enumerate(zip(circuit.mode_detunings, levels))
    )
    for k in range(circuit.n_qubits):
        generator = generator + 0.5 * circuit.rabi * kron_embed(pauli("x"), k, space)

    for t in (0.0, 0.27, 1.44):
        u0 = expm(-1j * t * generator)
        expected = u0.conj().T @ (h_rot - generator) @ u0
        assert np.allclose(h_int(t), expected, atol=1e-10)


def test_effective_is_sigma_x_part_of_interaction_picture():
    """The effective H keeps only the sigma_x (drive-commuting) coupling."""
    circuit = reference_single()
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    h_eff = effective_hamiltonian(circuit, space)
    nm = space.mode_levels[0]
    a_full = kron_embed(annihilation(nm), space.mode_factor(0), space)
    delta = circuit.detuning
    for t in (0.0, 0.5, 2.3):
        expected = sum(
            0.5 * q.coupling * np.exp(-1j * delta * t) * kron_embed(pauli("x"), k, space) @ a_full
            for k, q in enumerate(circuit.qubits)
        )
        expected = expected + expected.conj().T
        assert np.allclose(h_eff(t), expected, atol=1e-12)


def _excitation_block_spectrum(h: np.ndarray, space: HilbertSpace, n_exc: int):
    """Eigenvalues of h restricted to the total-excitation-n_exc subspace.

    Valid when h conserves the excitation number (no transverse drive, no
    counter-rotating terms): the subspace is then exactly represented at
    any truncation depth that covers n_exc photons.
    """
    counts = np.zeros(space.dim)
    for k in range(space.n_qubits):
        # excited state is index 0, so the qubit number operator is (1+sz)/2
        counts += np.real(np.diag(kron_embed((np.eye(2) + pauli("z")) / 2.0, k, space)))
    for m in range(space.n_modes):
        counts += np.real(
            np.diag(kron_embed(number_operator(space.mode_levels[m]), space.mode_factor(m), space))
        )
    idx = np.flatnonzero(np.abs(counts - n_exc) < 1e-9)
    block = h[np.ix_(idx, idx)]
    off_block = np.delete(h[idx], idx, axis=1)
    assert np.max(np.abs(off_block)) < 1e-12  # h really conserves the number
    return np.sort(np.linalg.eigvalsh(block))


def three_resonator_ring():
    """Three TLRs in a closed circle, uniform J, one qubit on each."""
    j = TWO_PI * 0.04
    omega = TWO_PI * 10.0
    omega_d = omega + 3.0 * j
    g = np.sqrt(2.0) * j
    hopping = j * (np.ones((3, 3)) - np.eye(3))
    qubits = tuple(QubitSpec(gap=omega_d, coupling=g, resonator=r) for r in range(3))
    return ResonatorArray(omega, hopping, qubits, omega_d)


def test_normal_mode_spectrum_matches_bare_modes():
    """The normal-mode builder is a basis change of the bare-resonator one,
    for the coupled pair and for a three-resonator ring: within any
    excitation-number block (exactly represented despite truncation) the
    two spectra must coincide."""
    for circuit, levels in (
        (reference_coupled(rabi_mult=0.0), (5, 5)),
        (three_resonator_ring(), (4, 4, 4)),
    ):
        space = HilbertSpace(n_qubits=circuit.n_qubits, mode_levels=levels)
        h_pq = rotating_frame_hamiltonian(circuit, space)(0.0)
        h_ab = bare_mode_hamiltonian(circuit, space)(0.0)
        for n_exc in (1, 2, 3):
            ev_pq = _excitation_block_spectrum(h_pq, space, n_exc)
            ev_ab = _excitation_block_spectrum(h_ab, space, n_exc)
            assert ev_pq.shape == ev_ab.shape
            assert np.allclose(ev_pq, ev_ab, atol=1e-10)


def test_ring_normal_modes():
    """Uniform ring of three: Delta = delta' + 2J for the uniform mode,
    then delta' - J twice; the modes are orthonormal."""
    circuit = three_resonator_ring()
    j, delta = circuit.hopping[0][1], circuit.detuning
    assert circuit.kind == "array"
    assert circuit.loop_rate == abs(j)
    assert np.allclose(circuit.mode_detunings, [delta + 2 * j, delta - j, delta - j], atol=1e-13)
    u = circuit.coupling_matrix / circuit.qubits[0].coupling
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-14)
    assert np.allclose(u[:, 0], 1.0 / np.sqrt(3.0), atol=1e-15)


@pytest.mark.parametrize("j_sign", [1.0, -1.0])
@pytest.mark.parametrize("resonators", [(0, 1), (1, 0), (0, 0), (1, 1)])
def test_coupled_mode_order_and_sign_rule(j_sign, resonators):
    """For J of either sign and qubits on either resonator the coupled
    constructor gives Delta = (delta' + J, delta' - J) and
    G_k = g/sqrt2 [1, +1] on resonator 0, [1, -1] on resonator 1, bit for
    bit: the mode closer to the uniform vector comes first, not the larger
    detuning."""
    j = j_sign * TWO_PI * 0.04
    omega, omega_d = TWO_PI * 10.0, TWO_PI * 10.12
    g = TWO_PI * 0.05
    circuit = CoupledTlrCircuit(
        omega_a=omega,
        omega_b=omega,
        qubits=tuple(QubitSpec(gap=omega_d, coupling=g, resonator=r) for r in resonators),
        coupler_rate=j,
        omega_d=omega_d,
    )
    delta = omega - omega_d
    assert circuit.mode_detunings == (delta + j, delta - j)
    h = g * (1.0 / np.sqrt(2.0))
    expected = np.array([[h, h if r == 0 else -h] for r in resonators])
    assert np.array_equal(circuit.coupling_matrix, expected)
    assert circuit.loop_rate == abs(j)


def test_array_validation():
    q = QubitSpec(gap=1.0, coupling=0.1)
    with pytest.raises(ValueError, match="J != 0"):
        CoupledTlrCircuit(omega_a=1.0, omega_b=1.0, qubits=(q,), coupler_rate=0.0, omega_d=1.1)
    with pytest.raises(ValueError, match="symmetric"):
        ResonatorArray(1.0, [[0.0, 0.1], [0.2, 0.0]], (q,), 1.1)
    with pytest.raises(ValueError, match="zero diagonal"):
        ResonatorArray(1.0, [[0.1]], (q,), 1.1)
    with pytest.raises(ValueError, match="M x M"):
        ResonatorArray(1.0, [0.0, 0.1], (q,), 1.1)
    with pytest.raises(ValueError, match="symmetric"):
        ResonatorArray(1.0, [[0.0, 0.1]], (q,), 1.1)
    with pytest.raises(ValueError, match="finite"):
        ResonatorArray(1.0, [[0.0, np.inf], [np.inf, 0.0]], (q,), 1.1)
    with pytest.raises(ValueError, match="resonator index"):
        ResonatorArray(1.0, [[0.0]], (QubitSpec(gap=1.0, coupling=0.1, resonator=1),), 1.1)


def test_single_resonator_entry_points_reject_arrays():
    """The resonator tone exists for one TLR only."""
    circuit = reference_coupled(rabi_mult=0.0)
    with pytest.raises(ValueError, match="one resonator \\(M = 1\\), got M = 2"):
        qubit_drive_from_resonator_drive(circuit, TWO_PI * 0.05)


def test_normal_mode_splitting_without_qubits():
    """Decoupled qubits: the one-photon spectrum is exactly delta' +- J."""
    j = TWO_PI * 0.04
    omega = TWO_PI * 10.0
    omega_d = omega + 3.0 * j
    circuit = CoupledTlrCircuit(
        omega_a=omega,
        omega_b=omega,
        qubits=(
            QubitSpec(gap=omega_d, coupling=0.0, resonator=0),
            QubitSpec(gap=omega_d, coupling=0.0, resonator=1),
        ),
        coupler_rate=j,
        omega_d=omega_d,
    )
    space = HilbertSpace(n_qubits=2, mode_levels=(3, 3))
    h_pq = rotating_frame_hamiltonian(circuit, space)(0.0)
    ev = _excitation_block_spectrum(h_pq, space, 1)
    delta = circuit.detuning
    # four single-excitation states: photon in P, photon in Q, two (zero-
    # energy) qubit flips
    assert np.allclose(ev, sorted([delta + j, delta - j, 0.0, 0.0]), atol=1e-12)


def test_coupled_full_counter_terms_at_t0():
    circuit = reference_coupled()
    space = HilbertSpace(n_qubits=2, mode_levels=(3, 3))
    h_rot = rotating_frame_hamiltonian(circuit, space)
    h_full = full_simulation_hamiltonian(circuit, space)
    diff = h_full(0.0) - h_rot(0.0)
    assert hermiticity_defect(diff) < 1e-12
    # counter-rotating drive contributes Omega_R/2 per qubit on sigma_x
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    drive_cr = sum(0.5 * circuit.rabi * kron_embed(sp, k, space) for k in range(2))
    corner = diff - drive_cr - drive_cr.conj().T
    # whatever remains is the coupling counter-term; it must not touch the
    # qubit-only block (vacuum modes, both qubits flipped together)
    assert hermiticity_defect(corner) < 1e-12
    assert np.linalg.norm(corner) > 0.0


# ---------------------------------------------------------------------------
# resonator-drive translation
# ---------------------------------------------------------------------------


def test_drive_mapping_sign_and_magnitude():
    nu = TWO_PI * 1.0
    circuit = reference_single(rabi_mult=0.0)
    driven, report = qubit_drive_from_resonator_drive(circuit, nu)
    delta = circuit.detuning
    expected = -2.0 * circuit.qubits[0].coupling * nu / delta
    assert expected > 0  # red-detuned drive (delta < 0) gives positive Omega_R
    assert driven.rabi == pytest.approx(expected, rel=1e-12)
    assert report.rabi_per_qubit == pytest.approx((expected, expected))
    assert report.displacement_magnitude == pytest.approx(abs(nu / delta))

    # blue-detuned circuit flips the sign
    blue = SingleTlrCircuit(
        omega_r=circuit.omega_d + abs(delta),
        qubits=circuit.qubits,
        omega_d=circuit.omega_d,
    )
    driven_blue, _ = qubit_drive_from_resonator_drive(blue, nu)
    assert driven_blue.rabi == pytest.approx(-expected, rel=1e-12)


def test_drive_mapping_rejects_inhomogeneous_couplings():
    omega_d = TWO_PI * 10.1
    circuit = SingleTlrCircuit(
        omega_r=TWO_PI * 10.0,
        qubits=(
            QubitSpec(gap=omega_d, coupling=TWO_PI * 0.05),
            QubitSpec(gap=omega_d, coupling=TWO_PI * 0.07),
        ),
        omega_d=omega_d,
    )
    with pytest.raises(ValueError, match="inhomogeneous"):
        qubit_drive_from_resonator_drive(circuit, 1.0)


# ---------------------------------------------------------------------------
# preconditions and approximation warnings
# ---------------------------------------------------------------------------


def test_resonance_precondition():
    omega_d = TWO_PI * 10.1
    circuit = SingleTlrCircuit(
        omega_r=TWO_PI * 10.0,
        qubits=(QubitSpec(gap=TWO_PI * 10.0, coupling=TWO_PI * 0.05),),
        omega_d=omega_d,
        rabi=TWO_PI * 2.0,
    )
    space = HilbertSpace(n_qubits=1, mode_levels=(4,))
    with pytest.raises(PreconditionError, match="not resonant"):
        rotating_frame_hamiltonian(circuit, space)


def test_space_shape_mismatch_rejected():
    circuit = reference_single()
    wrong_qubits = HilbertSpace(n_qubits=3, mode_levels=(4,))
    wrong_modes = HilbertSpace(n_qubits=2, mode_levels=(4, 4))
    for space in (wrong_qubits, wrong_modes):
        with pytest.raises(ValueError):
            rotating_frame_hamiltonian(circuit, space)
    coupled = reference_coupled()
    with pytest.raises(ValueError):
        rotating_frame_hamiltonian(
            coupled, HilbertSpace(n_qubits=2, mode_levels=(4,))
        )


def test_rwa_warning_on_large_coupling():
    omega_d = TWO_PI * 1.0
    circuit = SingleTlrCircuit(
        omega_r=TWO_PI * 0.9,
        qubits=(QubitSpec(gap=omega_d, coupling=TWO_PI * 0.3),),
        omega_d=omega_d,
        rabi=TWO_PI * 10.0,
    )
    space = HilbertSpace(n_qubits=1, mode_levels=(4,))
    with pytest.warns(ApproximationWarning, match="rotating-wave"):
        rotating_frame_hamiltonian(circuit, space)


def test_strong_drive_warning_on_weak_rabi():
    circuit = reference_single(rabi_mult=2.0)  # Omega_R = 2|delta| < 5|delta|
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    with pytest.warns(ApproximationWarning, match="strong-driving"):
        effective_hamiltonian(circuit, space)
    with pytest.warns(ApproximationWarning):
        interaction_picture_hamiltonian(circuit, space)


def test_reference_regime_is_warning_free():
    circuit = reference_single()  # Omega_R = 20|delta|
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ApproximationWarning)
        rotating_frame_hamiltonian(circuit, space)
        full_simulation_hamiltonian(circuit, space)
        interaction_picture_hamiltonian(circuit, space)
        effective_hamiltonian(circuit, space)
