"""Operator toolbox for few-qubit, few-mode Hilbert spaces.

States are 1-D complex ndarrays, single-factor operators small 2-D ones,
and full-space operators :class:`SparseOperator` triplets from
:func:`assemble`.  A :class:`HilbertSpace` records how the flat index
factors into qubits and bosonic modes.  Tensor factors are ordered qubits
first (qubit 0 is the slowest-varying index), then modes in declaration
order.  The module needs numpy alone; the one CSR matrix, RK4's block row,
is built by ``model.TimeDependentHamiltonian.block_row``.

Qubit basis convention used throughout the package: basis index 0 is the
*excited* energy eigenstate and index 1 the *ground* eigenstate, so the
standard Pauli matrices apply unchanged -- ``pauli('z')`` has eigenvalue +1
on the excited state and ``sigma_plus()`` raises ground to excited.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "pauli",
    "sigma_plus",
    "sigma_minus",
    "annihilation",
    "creation",
    "number_operator",
    "SparseOperator",
    "assemble",
    "canonical",
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
        return math.prod(self.dims)  # exact: np.prod wraps past int64

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


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A dim x dim operator as canonical triplets: values[i] at (rows[i], cols[i]).

    The entries are row-major and each (row, col) pair occurs once; a zero
    value may be stored.  The dense form is made on request.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> SparseOperator:
        """The nonzero entries of a square matrix."""
        rows, cols = np.nonzero(matrix)
        return cls(len(matrix), rows, cols, np.asarray(matrix[rows, cols], dtype=complex))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def nnz(self) -> int:
        return self.values.size

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=complex)
        dense[self.rows, self.cols] += self.values  # 0 + v, as a sparse toarray: no -0 is kept
        return dense


def assemble(space: HilbertSpace, products) -> SparseOperator:
    """sum_p w_p (x)_i op_{p,i} from (w_p, {i: op_{p,i}}) pairs, identity elsewhere.

    A product's factors contribute their nonzero (row, col, value) triplets,
    an identity its diagonal, and the flat index row * dim + col of a full
    entry is the mixed-radix combination of the factors' row * dim + col.
    All weighted triplets then go through :func:`canonical` once, with no
    dense or per-product sparse intermediate.
    """
    dim = space.dim
    flats, values_list = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for weight, factor_ops in products:
        unknown = set(factor_ops) - set(range(len(space.dims)))
        if unknown:
            raise ValueError(f"factor index out of range: {sorted(unknown)}")
        flat, values = np.zeros(1, dtype=np.int64), np.ones(1, dtype=complex)
        for i, d in enumerate(space.dims):
            if i not in factor_ops:
                digits, values = np.arange(d) * (dim + 1), np.repeat(values, d)
            else:
                op = np.asarray(factor_ops[i], dtype=complex)
                if op.shape != (d, d):
                    raise ValueError(
                        f"operator for factor {i} has shape {op.shape}, expected {(d, d)}"
                    )
                r, c = np.nonzero(op)
                digits, values = r * dim + c, np.outer(values, op[r, c]).ravel()
            flat = (flat[:, None] * d + digits).ravel()
        flats.append(flat)
        values_list.append(values * weight)
    return canonical(dim, np.concatenate(flats), np.concatenate(values_list))


def canonical(dim: int, flat: np.ndarray, values: np.ndarray) -> SparseOperator:
    """The dim x dim operator summing values[i] at flat index flat[i] = row * dim + col.

    The entries are sorted stably by flat index once and duplicates summed
    in their input order, so equal inputs give bit-identical triplets.
    """
    order = np.argsort(flat, kind="stable")
    flat, values = flat[order], values[order]
    first = np.diff(flat, prepend=-1) != 0  # opens a (row, col) run
    summed = np.zeros(np.count_nonzero(first), dtype=complex)
    # left to right from +0, which clears negative zeros as a sum of sparse
    # matrices does; reduceat would add a0 + (a1 + a2) on three duplicates
    np.add.at(summed, np.cumsum(first) - 1, values)
    rows, cols = np.divmod(flat[first], dim)
    return SparseOperator(dim, rows, cols, summed)
