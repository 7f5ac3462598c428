"""Operator toolbox for few-qubit, few-mode Hilbert spaces.

States are 1-D complex ndarrays, single-factor operators small 2-D ones,
and full-space operators CSR matrices from :func:`assemble`.  A
:class:`HilbertSpace` records how the flat index factors into qubits and
bosonic modes.  Tensor factors are ordered qubits first (qubit 0 is the
slowest-varying index), then modes in declaration order.

Qubit basis convention used throughout the package: basis index 0 is the
*excited* energy eigenstate and index 1 the *ground* eigenstate, so the
standard Pauli matrices apply unchanged -- ``pauli('z')`` has eigenvalue +1
on the excited state and ``sigma_plus()`` raises ground to excited.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ApproximationWarning

__all__ = [
    "HilbertSpace",
    "pauli",
    "sigma_plus",
    "sigma_minus",
    "annihilation",
    "creation",
    "number_operator",
    "assemble",
    "embed",
    "embedded_product",
    "partial_trace_modes",
    "matrix_exponential",
    "displacement",
]

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class HilbertSpace:
    """Tensor-product space of ``n_qubits`` two-level systems and bosonic modes.

    Parameters
    ----------
    n_qubits : int
        Number of qubit factors.
    mode_levels : tuple of int
        Fock-space truncation of each bosonic mode, every entry >= 2.
    """

    n_qubits: int
    mode_levels: tuple[int, ...] = ()

    def __post_init__(self):
        try:  # operator.index refuses a fractional count that int() would truncate
            n_qubits, *levels = map(operator.index, (self.n_qubits, *self.mode_levels))
        except TypeError:
            raise ValueError("n_qubits and every Fock cutoff must be integers") from None
        object.__setattr__(self, "mode_levels", tuple(levels))
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        if any(n < 2 for n in levels):
            raise ValueError("every mode needs at least 2 Fock levels")
        if n_qubits == 0 and not levels:
            raise ValueError("space must contain at least one factor")

    @property
    def n_modes(self) -> int:
        return len(self.mode_levels)

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-factor dimensions, qubits first."""
        return (2,) * self.n_qubits + self.mode_levels

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def mode_factor(self, mode: int) -> int:
        """Flat factor index of the given mode."""
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode index {mode} out of range")
        return self.n_qubits + mode


def pauli(axis: str) -> np.ndarray:
    """Single-qubit Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


def sigma_plus() -> np.ndarray:
    """Qubit raising operator |excited><ground|."""
    return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def sigma_minus() -> np.ndarray:
    """Qubit lowering operator |ground><excited|."""
    return np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def annihilation(n_levels: int) -> np.ndarray:
    """Truncated bosonic annihilation operator, a|n> = sqrt(n)|n-1>."""
    if n_levels < 2:
        raise ValueError("annihilation needs at least 2 levels")
    return np.diag(np.sqrt(np.arange(1, n_levels, dtype=float)), k=1).astype(complex)


def creation(n_levels: int) -> np.ndarray:
    return annihilation(n_levels).conj().T


def number_operator(n_levels: int) -> np.ndarray:
    return np.diag(np.arange(n_levels, dtype=float)).astype(complex)


def embed(op: np.ndarray, factor: int, space: HilbertSpace) -> sparse.csr_matrix:
    """Lift a single-factor operator to the full space by tensoring identities."""
    return embedded_product(space, {factor: op})


def embedded_product(space: HilbertSpace, factor_ops: dict[int, np.ndarray]) -> sparse.csr_matrix:
    """Tensor product with the given operators on selected factors, identity elsewhere."""
    return assemble(space, [(1.0, factor_ops)])


def assemble(space: HilbertSpace, products) -> sparse.csr_matrix:
    """sum_p w_p (x)_i op_{p,i} from (w_p, {i: op_{p,i}}) pairs, identity elsewhere.

    A product's factors contribute their nonzero (row, col, value) triplets,
    an identity its diagonal, and the full indices are their mixed-radix
    combinations; all weighted triplets then make one CSR matrix, duplicates
    summed once, with no dense or per-product sparse intermediate.
    """
    triplets = [(np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=complex))]
    for weight, factor_ops in products:
        unknown = set(factor_ops) - set(range(len(space.dims)))
        if unknown:
            raise ValueError(f"factor index out of range: {sorted(unknown)}")
        index, values = np.zeros((2, 1), dtype=np.int64), np.ones(1, dtype=complex)
        for i, d in enumerate(space.dims):
            if i not in factor_ops:
                rc, values = np.arange(d), np.repeat(values, d)
            else:
                op = np.asarray(factor_ops[i], dtype=complex)
                if op.shape != (d, d):
                    raise ValueError(
                        f"operator for factor {i} has shape {op.shape}, expected {(d, d)}"
                    )
                rc = np.array(np.nonzero(op))
                values = np.outer(values, op[rc[0], rc[1]]).ravel()
            index = (index[:, :, None] * d + rc[..., None, :]).reshape(2, -1)  # rows, cols
        triplets.append((index, values * weight))
    index, values = (np.concatenate(x, axis=-1) for x in zip(*triplets))
    matrix = sparse.csr_matrix((values, (index[0], index[1])), shape=(space.dim, space.dim))
    matrix.data += 0  # +0 clears negative zeros, as a sum of sparse matrices does
    return matrix


def partial_trace_modes(state: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Reduced qubit density matrix after tracing out every bosonic mode.

    Accepts either a state vector or a density matrix on the full space.
    """
    q = 2 ** space.n_qubits
    m = space.dim // q
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if state.size != space.dim:
            raise ValueError("state vector does not match the space dimension")
        a = state.reshape(q, m)
        return a @ a.conj().T
    if state.shape != (space.dim, space.dim):
        raise ValueError("density matrix does not match the space dimension")
    return np.einsum("imjm->ij", state.reshape(q, m, q, m))


def matrix_exponential(op: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """expm(scale * op) via scaling-and-squaring."""
    from scipy.linalg import expm  # off the start-up path: frame diagnostic and tests only
    return expm(np.asarray(op, dtype=complex) * scale)


def displacement(beta: complex, n_levels: int) -> np.ndarray:
    """Truncated displacement operator exp(beta a^dag - beta* a).

    Warns when the displaced state would press against the truncation,
    |beta|^2 > n_levels / 4.
    """
    if abs(beta) ** 2 > n_levels / 4.0:
        warnings.warn(
            f"displacement |beta|^2 = {abs(beta) ** 2:.3g} is large for "
            f"{n_levels} Fock levels; expect truncation error",
            ApproximationWarning,
            stacklevel=2,
        )
    a = annihilation(n_levels)
    return matrix_exponential(beta * a.conj().T - np.conj(beta) * a)
