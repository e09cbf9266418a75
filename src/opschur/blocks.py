"""Operator blocks on a fixed finite-dimensional Hilbert space.

The coefficient space is C^d with the inner product ``<u, v> = sum_i
u_i * conj(v_i)``, linear in the first argument.  An
:class:`OperatorBlock` is a bounded operator on C^d stored as a d x d
complex matrix; a :class:`BlockVector` is an element of the N-fold
direct sum of C^d.  Both are immutable: the backing arrays are copies
with the writeable flag cleared, and every operation returns a new
object.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatchError, NonConvergenceError, StructureError

__all__ = [
    "OperatorBlock",
    "BlockVector",
    "inner",
    "singular_values",
    "singular_triples",
]


def _frozen_complex(values, shape_hint: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.flags.writeable = False
    if arr.size == 0:
        raise ValueError(f"{shape_hint} must be non-empty")
    return arr


def _integer(value, what: str, least: int | None = None) -> int:
    """An offset, index or size ``what`` as an int, of at least ``least``
    when given; a non-integer is refused, never truncated onto a
    neighbouring value.  A bool is refused too, although
    ``operator.index(True)`` is 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise StructureError(f"{what} {value!r} is not an integer") from None
    if least is not None and value < least:
        raise StructureError(f"{what} must be at least {least}, got {value}")
    return value


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product on C^d, linear in the first argument."""
    return complex(np.vdot(v, u))


class OperatorBlock:
    """A linear operator on C^d held as a d x d complex matrix."""

    __slots__ = ("_m",)

    def __init__(self, matrix):
        m = _frozen_complex(matrix, "operator block")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(m.shape, m.shape, "operator block (square)")
        self._m = m

    @classmethod
    def identity(cls, d: int) -> "OperatorBlock":
        return cls(np.eye(_integer(d, "dim", 1)))

    @classmethod
    def zero(cls, d: int) -> "OperatorBlock":
        return cls(np.zeros((_integer(d, "dim", 1),) * 2))

    @classmethod
    def outer(cls, x: np.ndarray, y: np.ndarray) -> "OperatorBlock":
        """Rank-one operator z -> <z, x> y.

        Its operator norm is ``|x| * |y|`` and its adjoint is
        ``outer(y, x)``.
        """
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        if x.shape != y.shape or x.ndim != 1:
            raise DimensionMismatchError(x.shape, y.shape, "rank-one block")
        return cls(np.outer(y, x.conj()))

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise DimensionMismatchError(self._m.shape, v.shape, "block apply")
        return self._m @ v

    def compose(self, other: "OperatorBlock") -> "OperatorBlock":
        """Operator composition ``self after other``."""
        if self.dim != other.dim:
            raise DimensionMismatchError(self._m.shape, other._m.shape, "compose")
        return OperatorBlock(self._m @ other._m)

    def adjoint(self) -> "OperatorBlock":
        return OperatorBlock(self._m.conj().T)

    def norm(self) -> float:
        """Operator norm, the top singular value."""
        return float(np.linalg.norm(self._m, ord=2))

    def __add__(self, other: "OperatorBlock") -> "OperatorBlock":
        return OperatorBlock(self._m + other._m)

    def __sub__(self, other: "OperatorBlock") -> "OperatorBlock":
        return OperatorBlock(self._m - other._m)

    def __mul__(self, scalar: complex) -> "OperatorBlock":
        return OperatorBlock(self._m * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"OperatorBlock(d={self.dim})"


class BlockVector:
    """Element of the direct sum of N copies of C^d, stored as (N, d)."""

    __slots__ = ("_v",)

    def __init__(self, parts):
        v = _frozen_complex(parts, "block vector")
        if v.ndim != 2:
            raise DimensionMismatchError(v.shape, (0, 0), "block vector (N, d)")
        self._v = v

    @classmethod
    def from_flat(cls, flat: np.ndarray, d: int) -> "BlockVector":
        flat, d = np.asarray(flat, dtype=complex), _integer(d, "dim", 1)
        if flat.ndim != 1 or flat.size % d:
            raise DimensionMismatchError(flat.shape, (d,), "unflatten")
        return cls(flat.reshape(-1, d))

    @classmethod
    def basis(cls, size: int, d: int, slot: int, part: np.ndarray) -> "BlockVector":
        """Vector with ``part`` in position ``slot`` and zeros elsewhere."""
        size, d = _integer(size, "size", 1), _integer(d, "dim", 1)
        slot = _integer(slot, "slot")
        if not 0 <= slot < size:
            raise IndexError(f"slot {slot} outside [0, {size})")
        out = np.zeros((size, d), dtype=complex)
        out[slot] = np.asarray(part, dtype=complex)
        return cls(out)

    @property
    def parts(self) -> np.ndarray:
        return self._v

    @property
    def size(self) -> int:
        return self._v.shape[0]

    @property
    def dim(self) -> int:
        return self._v.shape[1]

    def block(self, k: int) -> np.ndarray:
        k = _integer(k, "slot")
        if not 0 <= k < self.size:
            raise IndexError(f"slot {k} outside [0, {self.size})")
        return self._v[k]

    def flatten(self) -> np.ndarray:
        return self._v.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self._v))

    def inner(self, other: "BlockVector") -> complex:
        """Sum of the slot-wise C^d inner products, linear in ``self``."""
        if self._v.shape != other._v.shape:
            raise DimensionMismatchError(self._v.shape, other._v.shape, "inner")
        return complex(np.vdot(other._v, self._v))

    def _check_shape(self, other: "BlockVector", context: str) -> None:
        if self._v.shape != other._v.shape:
            raise DimensionMismatchError(self._v.shape, other._v.shape, context)

    def __add__(self, other: "BlockVector") -> "BlockVector":
        self._check_shape(other, "vector sum")
        return BlockVector(self._v + other._v)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        self._check_shape(other, "vector difference")
        return BlockVector(self._v - other._v)

    def __mul__(self, scalar: complex) -> "BlockVector":
        return BlockVector(self._v * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"BlockVector(size={self.size}, d={self.dim})"


def _svd(m: np.ndarray, compute_uv: bool, what: str):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(30 * max(m.shape), what) from exc


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a complex matrix, descending.

    Backed by LAPACK through :func:`numpy.linalg.svd`.  The result has
    length ``min(m.shape)``; the decomposition residual for the top
    triple stays below ``1e-10 * |m|`` (see :func:`singular_triples`).

    Raises
    ------
    NonConvergenceError
        If the underlying iteration fails to converge.
    """
    return _svd(m, False, "singular values")


def singular_triples(m: np.ndarray):
    """Full decomposition ``m = u @ diag(s) @ vh`` with ``s`` descending.

    Returns ``(u, s, vh)``.  Column ``u[:, i]`` and row ``vh[i]`` are the
    left and (conjugated) right singular vectors for ``s[i]``.
    """
    return _svd(m, True, "singular triples")
