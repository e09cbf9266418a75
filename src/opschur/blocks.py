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

import numbers
import operator
from collections.abc import Mapping
from contextlib import suppress

import numpy as np

from .errors import DimensionMismatchError, NonConvergenceError, StructureError

__all__ = [
    "OperatorBlock",
    "BlockVector",
    "inner",
    "singular_values",
    "singular_triples",
]


def _numeric(values, what: str) -> np.ndarray:
    """``values`` as an array of integers, reals or complex numbers, not
    copied when it already is one; bool, string and object entries, and
    ragged nesting, are refused rather than cast."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise StructureError(f"{what} entries are not a regular array") from None
    if arr.dtype.kind not in "iufc":
        raise StructureError(f"{what} entries must be numbers, not {arr.dtype}")
    return arr


def _array(values, what: str, shape: tuple, named: dict | None = None) -> np.ndarray:
    """The entry array ``values`` as a complex array, not copied when it
    already is one.  In ``shape`` an int is a fixed length and a name a
    length that must be equal wherever it recurs, in this array and in
    every array checked with the same ``named`` lengths; a mismatch is a
    :class:`DimensionMismatchError`, and an empty array or a NaN or
    infinite entry a :class:`StructureError`."""
    arr = np.asarray(_numeric(values, what), dtype=complex)
    named = {} if named is None else named
    if arr.ndim != len(shape) or any(
        length != (named.setdefault(want, length) if isinstance(want, str) else want)
        for want, length in zip(shape, arr.shape)
    ):
        raise DimensionMismatchError(arr.shape, (named.get(w, w) for w in shape), what)
    if arr.size == 0:
        raise StructureError(f"{what} must be non-empty")
    if not np.isfinite(arr).all():
        raise StructureError(f"{what} entries must be finite")
    return arr


def _entries(mapping, what: str, offset, shape) -> dict:
    """The offset-keyed map ``mapping`` as a dict ``offset(key) -> entry``,
    each entry checked by :func:`_array` against ``shape(offset)``, a name
    such as ``"d"`` being one length across the whole map; anything but a
    non-empty mapping is a :class:`StructureError`."""
    if not isinstance(mapping, Mapping):
        raise StructureError(f"{what} map must be a mapping, not {type(mapping).__name__}")
    if not mapping:
        raise StructureError(f"{what} map must be non-empty")
    named = {}
    return {(l := offset(key)): _array(value, f"{what} {l}", shape(l), named)
            for key, value in mapping.items()}


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``, the storage of an immutable value."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _integer(value, what: str, least: int | None = None) -> int:
    """An offset, index, size, order, seed or count ``what`` as an int, of
    at least ``least`` when given; a non-integer is refused, never
    truncated onto a neighbouring value.  A bool is refused too, although
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


def _complex(value, what: str) -> complex:
    """A finite complex number ``what``; like :func:`_integer`, a bool, a
    string, None or any other non-number is refused, never cast."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        with suppress(OverflowError):
            if np.isfinite(number := complex(value)):
                return number
    raise StructureError(f"{what} {value!r} is not a finite number")


def _real(value, what: str) -> float:
    """A finite real number ``what`` as a float, refused as by :func:`_complex`."""
    if not isinstance(value, numbers.Real):
        raise StructureError(f"{what} {value!r} is not a real number")
    return _complex(value, what).real


def _angles(t) -> np.ndarray:
    """Angles as a 1-d float array, one angle being one point; complex or
    non-finite angles are refused as by :func:`_real`, and so are arrays
    of more than one dimension."""
    t = _numeric(t, "angle")
    if t.dtype.kind == "c" or t.ndim > 1 or not np.isfinite(t).all():
        raise StructureError(f"angles must be finite reals, at most 1-d, got {t.dtype} {t.shape}")
    return np.asarray(t, dtype=float).reshape(-1)


def _each(values, what: str, check, *args) -> tuple:
    """``check(item, what, *args)`` of every item of ``values``, such as
    a floor or a size; a non-iterable or an empty sequence is refused."""
    try:
        items = iter(values)
    except TypeError:
        raise StructureError(f"{what} sequence {values!r} is not iterable") from None
    if not (items := tuple(check(item, what, *args) for item in items)):
        raise StructureError(f"{what} sequence must be non-empty")
    return items


def _result(what: str, op, *operands):
    """``op(*operands)`` under numpy's overflow and invalid-operation
    flags: a result that leaves the float range is refused as the
    operation ``what`` overflowing, not as malformed entries."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return op(*operands)
    except FloatingPointError:
        raise StructureError(f"{what} overflows: its result is not finite") from None


def _finite(what: str, value):
    """``value``, the result of the operation ``what`` by a routine that
    sets no floating-point flags, such as einsum or vdot; refused as by
    :func:`_result` when not finite."""
    if not np.isfinite(value).all():
        raise StructureError(f"{what} overflows: its result is not finite")
    return value


def _scaled_norm(v: np.ndarray):
    """Euclidean norm of a nonzero complex ``v``, computed on its real and
    imaginary parts divided by the largest of them, so that no square
    over- or underflows and no division is complex."""
    parts = v.view(float)
    top = np.abs(parts).max()
    return top * np.linalg.norm(parts / top)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product on C^d, linear in the first argument."""
    u, v = _numeric(u, "vector"), _numeric(v, "vector")
    if u.shape != v.shape:
        raise StructureError(f"inner product of vectors of shapes {u.shape} and {v.shape}")
    return complex(_finite("inner product", np.vdot(v, u)))


class _Value:
    """Immutable complex array of a ``_what`` shaped as ``_shape``, with
    the entrywise sum, difference and scalar multiple, named ``<_noun>
    sum`` and so on when one overflows."""

    __slots__ = ("_a",)

    def __init__(self, entries):
        self._a = _frozen_copy(_array(entries, self._what, self._shape))

    @property
    def dim(self) -> int:
        """Side ``d`` of the coefficient space."""
        return self._a.shape[-1]

    def _check_shape(self, other, context: str) -> None:
        if self._a.shape != other._a.shape:
            raise DimensionMismatchError(self._a.shape, other._a.shape, context)

    def _combine(self, other, op, what: str):
        if type(other) is not type(self):
            return NotImplemented
        self._check_shape(other, what)
        return type(self)(_result(what, op, self._a, other._a))

    def __add__(self, other):
        return self._combine(other, np.add, f"{self._noun} sum")

    def __sub__(self, other):
        return self._combine(other, np.subtract, f"{self._noun} difference")

    def __mul__(self, scalar: complex):
        _complex(scalar, "scalar")  # checked only: a real scalar keeps its signed zeros
        return type(self)(_result(f"{self._noun} multiple", np.multiply, self._a, scalar))

    __rmul__ = __mul__


class OperatorBlock(_Value):
    """A linear operator on C^d held as a d x d complex matrix."""

    __slots__ = ()
    _what = "operator block"
    _shape = ("d", "d")
    _noun = "block"

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
        x = _array(x, "rank-one factor", ("d",))
        return cls(np.outer(_array(y, "rank-one factor", x.shape), x.conj()))

    @property
    def matrix(self) -> np.ndarray:
        return self._a

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._a @ _array(v, "vector", (self.dim,))

    def compose(self, other: "OperatorBlock") -> "OperatorBlock":
        """Operator composition ``self after other``."""
        self._check_shape(other, "compose")
        return OperatorBlock(_result("block composition", np.matmul, self._a, other._a))

    def adjoint(self) -> "OperatorBlock":
        return OperatorBlock(self._a.conj().T)

    def norm(self) -> float:
        """Operator norm, the top singular value."""
        return float(np.linalg.norm(self._a, ord=2))

    def __repr__(self) -> str:
        return f"OperatorBlock(d={self.dim})"


class BlockVector(_Value):
    """Element of the direct sum of N copies of C^d, stored as (N, d)."""

    __slots__ = ()
    _what = "block vector"
    _shape = ("N", "d")
    _noun = "vector"

    @classmethod
    def from_flat(cls, flat: np.ndarray, d: int) -> "BlockVector":
        """The vector whose flattening is ``flat``, ``d`` entries a slot;
        the 1-d ``flat`` is checked here, and not again as ``(N, d)``."""
        d = _integer(d, "dim", 1)
        flat = _array(flat, "flat vector", ("N d",))
        if len(flat) % d:
            raise DimensionMismatchError(flat.shape, (d,), "unflatten")
        vector = object.__new__(cls)
        vector._a = _frozen_copy(flat.reshape(-1, d))
        return vector

    @classmethod
    def basis(cls, size: int, d: int, slot: int, part: np.ndarray) -> "BlockVector":
        """Vector with ``part`` in position ``slot`` and zeros elsewhere."""
        size, d = _integer(size, "size", 1), _integer(d, "dim", 1)
        slot = _integer(slot, "slot")
        if not 0 <= slot < size:
            raise IndexError(f"slot {slot} outside [0, {size})")
        out = np.zeros((size, d), dtype=complex)
        out[slot] = _array(part, "basis part", (d,))
        return cls(out)

    @property
    def parts(self) -> np.ndarray:
        return self._a

    @property
    def size(self) -> int:
        return self._a.shape[0]

    def block(self, k: int) -> np.ndarray:
        k = _integer(k, "slot")
        if not 0 <= k < self.size:
            raise IndexError(f"slot {k} outside [0, {self.size})")
        return self._a[k]

    def flatten(self) -> np.ndarray:
        return self._a.reshape(-1)

    def norm(self) -> float:
        """Euclidean norm.  Where the plain sum of squares overflows, or
        underflows below ``2**-500`` for a nonzero vector, it is computed
        again on the vector divided by its largest modulus; a norm beyond
        the float range is refused as ``vector norm`` overflowing."""
        with np.errstate(over="ignore"):
            value = float(np.linalg.norm(self._a))
        if value == np.inf or value < 2.0**-500 and self._a.any():
            value = float(_result("vector norm", _scaled_norm, self._a))
        return value

    def inner(self, other: "BlockVector") -> complex:
        """Sum of the slot-wise C^d inner products, linear in ``self``."""
        self._check_shape(other, "inner")
        return inner(self._a, other._a)

    def __repr__(self) -> str:
        return f"BlockVector(size={self.size}, d={self.dim})"


def _svd(m: np.ndarray, compute_uv: bool, what: str):
    m = np.atleast_2d(np.asarray(_numeric(m, "matrix"), dtype=complex))
    if not np.isfinite(m).all():
        raise StructureError("matrix entries must be finite")
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
