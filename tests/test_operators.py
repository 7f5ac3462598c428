"""Unit tests for the truncated-space operator toolbox."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

from ghzforge.operators import (
    HilbertSpace,
    annihilation,
    assemble,
    creation,
    embed,
    embedded_product,
    number_operator,
    partial_trace_modes,
    pauli,
    sigma_minus,
    sigma_plus,
)


def hermiticity_defect(op) -> float:
    """Max-abs deviation from H = H^dag."""
    op = np.asarray(op)
    return float(np.max(np.abs(op - op.conj().T)))


def unitarity_defect(op) -> float:
    """Max-abs deviation of U^dag U from the identity."""
    op = np.asarray(op)
    return float(np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))))


def test_space_layout():
    space = HilbertSpace(n_qubits=2, mode_levels=(5, 3))
    assert space.dims == (2, 2, 5, 3)
    assert space.dim == 60
    assert space.n_modes == 2
    assert space.mode_factor(0) == 2
    assert space.mode_factor(1) == 3
    with pytest.raises(ValueError):
        space.mode_factor(2)


def test_space_takes_integral_counts_only():
    """A fractional qubit count or Fock cutoff is refused, not truncated;
    NumPy integers are accepted, the cutoffs stored as Python ints."""
    for n_qubits, levels in ((1, (2.9,)), (1, (10.0,)), (1.5, ()), (1, (3, "4"))):
        with pytest.raises(ValueError, match="integers"):
            HilbertSpace(n_qubits, levels)
    space = HilbertSpace(np.int64(2), (np.int32(3), np.uint8(4)))
    assert space.dims == (2, 2, 3, 4)
    assert all(type(n) is int for n in space.mode_levels)


def test_pauli_algebra():
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
    assert np.allclose(sx @ sx, np.eye(2))
    assert np.allclose(sy @ sy, np.eye(2))
    with pytest.raises(ValueError):
        pauli("w")


def test_sigma_ladder_convention():
    # Index 0 is the excited state, index 1 the ground state.
    ground = np.array([0.0, 1.0])
    excited = np.array([1.0, 0.0])
    assert np.allclose(sigma_plus() @ ground, excited)
    assert np.allclose(sigma_plus() @ excited, 0.0)
    assert np.allclose(sigma_minus() @ excited, ground)
    # sigma_z = |e><e| - |g><g| with this ordering
    assert np.allclose(pauli("z") @ excited, excited)
    assert np.allclose(pauli("z") @ ground, -ground)
    assert np.allclose(sigma_plus(), 0.5 * (pauli("x") + 1j * pauli("y")))


def test_ladder_matrix_elements():
    a = annihilation(5)
    for n in range(1, 5):
        vec = np.zeros(5)
        vec[n] = 1.0
        out = a @ vec
        assert out[n - 1] == pytest.approx(np.sqrt(n))
    assert np.allclose(creation(5), a.conj().T)
    assert np.allclose(number_operator(5), np.diag(np.arange(5.0)))
    # [a, a^dag] = 1 except on the top level, which lacks its upper neighbour
    for n_levels in (2, 7, 12):
        a, adag = annihilation(n_levels), creation(n_levels)
        expected = np.eye(n_levels)
        expected[-1, -1] = -(n_levels - 1)
        assert np.max(np.abs(a @ adag - adag @ a - expected)) < 1e-12


def kron_embedded_product(space, factor_ops):
    """Dense reference for embedded_product: the Kronecker product of every
    factor, identity where none is given."""
    pieces = [
        np.asarray(factor_ops[i], dtype=complex) if i in factor_ops else np.eye(d, dtype=complex)
        for i, d in enumerate(space.dims)
    ]
    return reduce(np.kron, pieces)


def kron_embed(op, factor, space):
    """Dense reference for embed."""
    return kron_embedded_product(space, {factor: op})


def test_embed_matches_explicit_kron():
    space = HilbertSpace(n_qubits=2, mode_levels=(3,))
    sx = pauli("x")
    a = annihilation(3)
    eye2, eye3 = np.eye(2), np.eye(3)
    assert isinstance(embed(sx, 0, space), sparse.csr_matrix)
    assert np.allclose(embed(sx, 0, space).toarray(), np.kron(np.kron(sx, eye2), eye3))
    assert np.allclose(embed(sx, 1, space).toarray(), np.kron(np.kron(eye2, sx), eye3))
    assert np.allclose(embed(a, 2, space).toarray(), np.kron(np.kron(eye2, eye2), a))


def test_embedded_product_equals_product_of_embeds():
    rng = np.random.default_rng(11)
    space = HilbertSpace(n_qubits=2, mode_levels=(4,))
    op_q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op_m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    combined = embedded_product(space, {0: op_q, 2: op_m})
    product = embed(op_q, 0, space) @ embed(op_m, 2, space)
    assert np.allclose(combined.toarray(), product.toarray())


_ENTRIES = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def spaces_with_factor_ops(draw):
    """0-3 qubits and 0-3 modes of 2-5 levels, complex operators (explicit
    zeros included) on a random subset of the factors, possibly none."""
    n_qubits = draw(st.integers(0, 3))
    levels = draw(st.lists(st.integers(2, 5), min_size=0 if n_qubits else 1, max_size=3))
    space = HilbertSpace(n_qubits, tuple(levels))
    factors = draw(st.lists(st.sampled_from(range(len(space.dims))), unique=True))
    ops = {i: draw(hnp.arrays(complex, (space.dims[i],) * 2, elements=_ENTRIES)) for i in factors}
    return space, ops


@settings(max_examples=200, deadline=None)
@given(spaces_with_factor_ops())
def test_embedded_product_equals_the_kronecker_reference(case):
    space, ops = case
    product = embedded_product(space, ops)
    assert isinstance(product, sparse.csr_matrix)
    assert product.shape == (space.dim, space.dim)
    assert np.array_equal(product.toarray(), kron_embedded_product(space, ops))


@st.composite
def spaces_with_products(draw):
    """A space and 0-4 weighted products on it, weights zero included."""
    space, _ = draw(spaces_with_factor_ops())
    weights = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_subnormal=False))
    products = []
    for _ in range(draw(st.integers(0, 4))):
        factors = draw(st.lists(st.sampled_from(range(len(space.dims))), unique=True))
        ops = {
            i: draw(hnp.arrays(complex, (space.dims[i],) * 2, elements=_ENTRIES)) for i in factors
        }
        products.append((draw(weights), ops))
    return space, products


@settings(max_examples=200, deadline=None)
@given(spaces_with_products())
def test_assemble_equals_the_sum_of_one_product_embeddings(case):
    """One-pass assembly of several products is the sum of each product
    embedded on its own, to the rounding of summing them in another order."""
    space, products = case
    assembled = assemble(space, products)
    assert isinstance(assembled, sparse.csr_matrix)
    assert assembled.shape == (space.dim, space.dim)
    expected = np.zeros((space.dim, space.dim), dtype=complex)
    scale = np.zeros((space.dim, space.dim))
    for weight, ops in products:
        term = (weight * embedded_product(space, ops)).toarray()
        expected += term
        scale += np.abs(term)
    assert np.all(np.abs(assembled.toarray() - expected) <= 8 * np.finfo(float).eps * scale)


def test_embedded_product_rejects_bad_factors():
    space = HilbertSpace(n_qubits=1, mode_levels=(3,))
    with pytest.raises(ValueError, match="factor 1 has shape \\(2, 2\\), expected \\(3, 3\\)"):
        embedded_product(space, {0: pauli("x"), 1: pauli("z")})
    with pytest.raises(ValueError, match="factor index out of range: \\[2, 5\\]"):
        embedded_product(space, {0: pauli("x"), 2: pauli("z"), 5: pauli("z")})
    with pytest.raises(ValueError, match="factor index out of range: \\[-1\\]"):
        embed(pauli("x"), -1, space)


def test_partial_trace_of_product_state():
    space = HilbertSpace(n_qubits=2, mode_levels=(3,))
    qubit_part = np.array([0.6, 0.0, 0.8j, 0.0])
    mode_part = np.array([1.0, 0.0, 0.0])
    psi = np.kron(qubit_part, mode_part)
    rho = partial_trace_modes(psi, space)
    assert np.allclose(rho, np.outer(qubit_part, qubit_part.conj()))


def test_partial_trace_random_state_properties():
    rng = np.random.default_rng(23)
    space = HilbertSpace(n_qubits=2, mode_levels=(3, 2))
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi /= np.linalg.norm(psi)
    rho = partial_trace_modes(psi, space)
    assert rho.shape == (4, 4)
    assert np.trace(rho) == pytest.approx(1.0)
    assert hermiticity_defect(rho) < 1e-13
    evals = np.linalg.eigvalsh(rho)
    assert np.all(evals > -1e-13)
    # density-matrix input gives the same answer
    rho2 = partial_trace_modes(np.outer(psi, psi.conj()), space)
    assert np.allclose(rho, rho2)
