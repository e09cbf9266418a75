"""Truncated matrices with operator entries and their Schur calculus.

A :class:`BlockMatrix` is an N x N array of operators on C^d.  Entry
``(k, j)`` acts on the j-th slot of a :class:`BlockVector` and
contributes to the k-th slot, so diagonal offset ``l = j - k`` indexes
the upper-right diagonals for ``l > 0``.  Indices are 0-based
throughout.

Every matrix has one dense form: the read-only (N d) x (N d)
flattening, the scalar matrix acting on flattened vectors, which
:meth:`BlockMatrix.flatten` returns and :meth:`BlockMatrix.blocks`
views as (N, N, d, d).  ``dense`` storage is that array alone;
``toeplitz`` and ``banded`` keep a run of blocks per stored offset,
(N - |l|, d, d), or (1, d, d) when the block is constant along its
diagonal, which every toeplitz diagonal is and a banded one may be,
and build the dense form once, on demand.  Every reader
broadcasts a run of one block, so every diagonal-wise operation serves
both storages with one code path.  Only the symbol bridge and
serialization read the toeplitz tag as more than a storage choice.
Structure tags are advisory, for storage and speed only: semantic
equality is entry-wise and is tested with :func:`allclose`, which
erases structure before comparing.  Whether a matrix is upper
triangular is derived from its content, never trusted from a flag.

All values are immutable and all operations are pure, so instances can
be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .blocks import BlockVector, OperatorBlock, _integer
from .errors import (
    CoefficientSupportError,
    DiagonalRangeError,
    DimensionMismatchError,
    StructureError,
)

__all__ = [
    "DENSE",
    "TOEPLITZ",
    "BANDED",
    "BlockMatrix",
    "schur_product",
    "apply",
    "adjoint",
    "diagonal",
    "rank_one",
    "tensor_scalar",
    "truncate",
    "scale_diagonals",
    "allclose",
    "random_dense",
    "random_toeplitz",
    "random_banded",
    "random_vector",
]

DENSE = "dense"
TOEPLITZ = "toeplitz"
BANDED = "banded"


def _compose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Block products ``x[k] @ y[k]`` of two (K, d, d) stacks, as a fresh
    array; a stack of one block broadcasts against the other.

    The einsum runs on copies with the block axes first and the batch
    axis last, so numpy's inner loop runs over the K blocks rather than
    over the d entries of one block.  Every entry is still the sum over
    the contracted index in ascending order, starting from zero, so the
    result equals ``einsum("kab,kbc->kac", x, y)`` bit for bit.
    """
    count = max(len(x), len(y))
    out = np.empty((count,) + x.shape[1:], dtype=complex)
    np.einsum(
        "abk,bck->ack",
        np.ascontiguousarray(x.transpose(1, 2, 0)),
        np.ascontiguousarray(y.transpose(1, 2, 0)),
        out=out.transpose(1, 2, 0),
    )
    return out


class BlockMatrix:
    """Immutable N x N matrix of d x d operator blocks."""

    __slots__ = ("_size", "_dim", "_structure", "_diagonals", "_cache")

    def __init__(self, *args, **kwargs):
        raise StructureError("BlockMatrix is not built directly: use BlockMatrix.dense, "
                             ".toeplitz, .banded or .identity, or the random_* builders")

    @classmethod
    def _new(cls, structure: str, size: int, dim: int, diagonals=None,
             dense=None) -> "BlockMatrix":
        """The one constructor behind every builder; the integer size and
        dim and the storage, runs or a read-only flattening cached as the
        dense form, are checked by the caller and owned by the new matrix."""
        if size < 1 or dim < 1:
            raise StructureError(f"size and dim must be at least 1, got {size} and {dim}")
        self = object.__new__(cls)
        self._size = size
        self._dim = dim
        self._structure = structure
        self._diagonals = diagonals
        self._cache = {} if dense is None else {"dense": dense}
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def dense(cls, blocks) -> "BlockMatrix":
        """Build from a full (N, N, d, d) complex array, copied once into
        the flattened storage; later writes to ``blocks`` do not reach it."""
        arr = np.asarray(blocks, dtype=complex)
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise DimensionMismatchError(arr.shape, ("N", "N", "d", "d"), "dense blocks")
        n, d = arr.shape[0], arr.shape[2]
        flat = np.array(arr.transpose(0, 2, 1, 3), order="C").reshape(n * d, n * d)
        return cls._from_dense(flat, n, d)

    @classmethod
    def toeplitz(cls, coefficients: Mapping[int, np.ndarray], size: int) -> "BlockMatrix":
        """Build from a map ``offset -> d x d block``.

        Entry ``(k, j)`` is the block stored for offset ``j - k``;
        offsets that are not stored read as zero.  Offsets outside
        ``[-(N-1), N-1]`` are rejected rather than silently dropped.
        """
        if not coefficients:
            raise ValueError("toeplitz matrix needs at least one stored offset")
        size = _integer(size, "size")
        stored = {}
        dim = None
        for offset, block in coefficients.items():
            offset = _integer(offset, "toeplitz offset")
            if abs(offset) > size - 1:
                raise CoefficientSupportError(
                    offset, (-(size - 1), size - 1), "toeplitz coefficients"
                )
            arr = np.array(block, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise DimensionMismatchError(arr.shape, ("d", "d"), "toeplitz block")
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise DimensionMismatchError(arr.shape, (dim, dim), "toeplitz block")
            stored[offset] = arr[None]
        return cls._from_runs(TOEPLITZ, size, dim, stored)

    @classmethod
    def banded(cls, diagonals: Mapping[int, np.ndarray], size: int) -> "BlockMatrix":
        """Build from a map ``offset -> (N - |offset|, d, d) run of blocks``."""
        if not diagonals:
            raise ValueError("banded matrix needs at least one stored diagonal")
        size = _integer(size, "size")
        stored = {}
        dim = None
        for offset, run in diagonals.items():
            offset = _integer(offset, "banded offset")
            if abs(offset) > size - 1:
                raise DiagonalRangeError(offset, size)
            arr = np.array(run, dtype=complex)
            want = size - abs(offset)
            if arr.ndim != 3 or arr.shape[0] != want or arr.shape[1] != arr.shape[2]:
                raise DimensionMismatchError(
                    arr.shape, (want, "d", "d"), f"banded diagonal {offset}"
                )
            if dim is None:
                dim = arr.shape[1]
            elif arr.shape[1] != dim:
                raise DimensionMismatchError(arr.shape, (want, dim, dim), "banded block")
            stored[offset] = arr
        return cls._from_runs(BANDED, size, dim, stored)

    @classmethod
    def identity(cls, size: int, dim: int) -> "BlockMatrix":
        return cls.toeplitz({0: np.eye(_integer(dim, "dim"))}, size)

    @classmethod
    def _from_dense(cls, flat: np.ndarray, size: int, dim: int) -> "BlockMatrix":
        """Dense matrix owning the fresh (N d) x (N d) complex array ``flat``."""
        flat.flags.writeable = False
        return cls._new(DENSE, size, dim, dense=flat)

    @classmethod
    def _from_runs(cls, structure: str, size: int, dim: int, runs: dict) -> "BlockMatrix":
        """Structured matrix owning the fresh ``offset -> run`` arrays ``runs``.

        A run of one block, in either storage, is constant along its
        diagonal; with no runs the zero main diagonal is stored.
        """
        if not runs:
            runs = {0: np.zeros((1, dim, dim), dtype=complex)}
        for run in runs.values():
            run.flags.writeable = False
        return cls._new(structure, size, dim, diagonals=runs)

    # -- basic queries ------------------------------------------------

    @property
    def size(self) -> int:
        """Truncation size N."""
        return self._size

    @property
    def dim(self) -> int:
        """Dimension d of the coefficient space."""
        return self._dim

    @property
    def structure(self) -> str:
        return self._structure

    @property
    def flat_size(self) -> int:
        return self._size * self._dim

    def diagonal_support(self) -> tuple[int, ...]:
        """Offsets that may hold nonzero blocks, ascending."""
        if self._structure == DENSE:
            return tuple(range(-(self._size - 1), self._size))
        return tuple(sorted(self._diagonals))

    def band_bounds(self) -> tuple[int, int]:
        support = self.diagonal_support()
        return support[0], support[-1]

    @property
    def upper_triangular(self) -> bool:
        """True when every block strictly below the main diagonal is zero.

        Derived from content, so the answer cannot disagree with the
        stored entries.
        """
        cached = self._cache.get("upper")
        if cached is None:
            cached = not any(
                np.any(self._run(offset))
                for offset in self.diagonal_support()
                if offset < 0
            )
            self._cache["upper"] = cached
        return cached

    def entry(self, k: int, j: int) -> OperatorBlock:
        """Block at row ``k``, column ``j`` (0-based)."""
        k, j = _integer(k, "row index"), _integer(j, "column index")
        if not (0 <= k < self._size and 0 <= j < self._size):
            raise IndexError(f"entry ({k}, {j}) outside {self._size} x {self._size}")
        run = self._run(j - k)
        return OperatorBlock(run[min(k, j, len(run) - 1)])

    def diagonal_run(self, offset: int) -> np.ndarray:
        """All blocks on a diagonal as an (N - |offset|, d, d) array."""
        offset = _integer(offset, "diagonal offset")
        if abs(offset) > self._size - 1:
            raise DiagonalRangeError(offset, self._size)
        count = self._size - abs(offset)
        run = self._run(offset)
        if len(run) < count:
            return np.broadcast_to(run, (count, self._dim, self._dim))
        return run

    def _run(self, offset: int) -> np.ndarray:
        """Stored run of a diagonal: length 1 when constant along it, a
        (1, d, d) zero when the diagonal is not stored, the full diagonal
        for dense."""
        if self._structure == DENSE:
            return self.blocks().diagonal(offset).transpose(2, 0, 1)
        run = self._diagonals.get(offset)
        if run is None:
            return np.zeros((1, self._dim, self._dim), dtype=complex)
        return run

    def blocks(self) -> np.ndarray:
        """Dense (N, N, d, d) form: a read-only view of :meth:`flatten`.

        Structured storage writes its runs straight into a fresh
        flattening on the first call, and caches it.
        """
        n, d = self._size, self._dim
        flat = self._cache.get("dense")
        if flat is None:
            flat = np.zeros((n * d, n * d), dtype=complex)
            view = flat.reshape(n, d, n, d).transpose(0, 2, 1, 3)
            for offset, run in self._diagonals.items():
                rows = np.arange(max(0, -offset), n - max(0, offset))
                view[rows, rows + offset] = run
            flat.flags.writeable = False
            self._cache["dense"] = flat
        return flat.reshape(n, d, n, d).transpose(0, 2, 1, 3)

    def flatten(self) -> np.ndarray:
        """The (N d) x (N d) scalar matrix acting on flattened vectors.

        This undoes the view of :meth:`blocks`, so for every storage it is
        the stored read-only array itself, never a copy.
        """
        return self.blocks().transpose(0, 2, 1, 3).reshape((self.flat_size,) * 2)

    def diagonal_norms(self) -> list[float]:
        """Largest block operator norm on each diagonal of the support, in
        support order; a toeplitz diagonal costs one block norm."""
        return [
            float(np.max(np.linalg.norm(self._run(offset), ord=2, axis=(1, 2))))
            for offset in self.diagonal_support()
        ]

    def max_block_norm(self) -> float:
        """Largest operator norm over all entries."""
        return max(self.diagonal_norms())

    # -- arithmetic sugar --------------------------------------------

    def _check_same_shape(self, other: "BlockMatrix", context: str) -> None:
        if self._size != other._size or self._dim != other._dim:
            raise DimensionMismatchError(
                (self._size, self._dim), (other._size, other._dim), context
            )

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        return _combine(self, other, np.add)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return _combine(self, other, np.subtract)

    def __mul__(self, scalar: complex) -> "BlockMatrix":
        return scale_diagonals(
            self, lambda offsets: np.full(offsets.shape, scalar, dtype=complex)
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (
            f"BlockMatrix(size={self._size}, dim={self._dim}, "
            f"structure={self._structure!r})"
        )


def _joint_structure(a: BlockMatrix, b: BlockMatrix) -> str:
    """Tag of a diagonal-wise result: toeplitz only from two toeplitz operands."""
    return TOEPLITZ if a.structure == b.structure == TOEPLITZ else BANDED


def _combine(a: BlockMatrix, b: BlockMatrix, op) -> BlockMatrix:
    """Entrywise binary combination with the usual structure promotion."""
    a._check_same_shape(b, "entrywise combination")
    if DENSE in (a.structure, b.structure):
        return BlockMatrix._from_dense(op(a.flatten(), b.flatten()), a.size, a.dim)
    support = sorted(set(a.diagonal_support()) | set(b.diagonal_support()))
    runs = {l: op(a._run(l), b._run(l)) for l in support}
    return BlockMatrix._from_runs(_joint_structure(a, b), a.size, a.dim, runs)


def schur_product(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Entrywise composition: entry ``(k, j)`` is ``a(k,j) after b(k,j)``.

    Operator composition does not commute, so neither does this
    product.  The result carries the tightest structure tag implied by
    the operands: two toeplitz matrices give a toeplitz result, and any
    operand with a limited diagonal support forces the result onto the
    intersected support.
    """
    a._check_same_shape(b, "schur product")
    structure = _joint_structure(a, b)
    support = sorted(set(a.diagonal_support()) & set(b.diagonal_support()))
    if structure == BANDED and len(support) == 2 * a.size - 1:
        n, d = a.size, a.dim
        # each operand's blocks copied once, batch axis last, as _compose reads them
        out = _compose(*(np.ascontiguousarray(m.blocks().transpose(2, 3, 0, 1))
                         .reshape(d, d, n * n).transpose(2, 0, 1) for m in (a, b)))
        return BlockMatrix.dense(out.reshape(n, n, d, d))
    runs = {l: _compose(a._run(l), b._run(l)) for l in support}
    return BlockMatrix._from_runs(structure, a.size, a.dim, runs)


def apply(a: BlockMatrix, x: BlockVector) -> BlockVector:
    """Matrix action ``y_k = sum_j a(k, j) x_j``.

    Structured storage is applied diagonal by diagonal, so banded and
    toeplitz matrices never materialize their dense form here: a
    constant diagonal (a run of one block) is one BLAS product with it,
    any other run one einsum.  A dense matrix is one product with its
    stored flattening, which is never copied.
    """
    if x.size != a.size or x.dim != a.dim:
        raise DimensionMismatchError((a.size, a.dim), (x.size, x.dim), "apply")
    if a.structure == DENSE:
        return BlockVector.from_flat(a.flatten() @ x.flatten(), a.dim)
    out = np.zeros((a.size, a.dim), dtype=complex)
    for offset, run in a._diagonals.items():
        lo, hi = max(0, -offset), a.size - max(0, offset)
        part = x.parts[lo + offset:hi + offset]
        if len(run) == 1:
            out[lo:hi] += part @ run[0].T
        else:
            out[lo:hi] += np.einsum("kab,kb->ka", run, part)
    return BlockVector(out)


def adjoint(a: BlockMatrix) -> BlockMatrix:
    """Entrywise adjoint with transposed indices: entry ``(k, j)`` of the
    result is ``a(j, k)*``.  Preserves the operator norm and maps the
    diagonal at offset ``l`` to the adjoints of the one at ``-l``.
    """
    if a.structure == DENSE:
        return BlockMatrix._from_dense(np.conj(a.flatten().T, order="C"), a.size, a.dim)
    flipped = {-l: run.conj().transpose(0, 2, 1) for l, run in a._diagonals.items()}
    return BlockMatrix._from_runs(a.structure, a.size, a.dim, flipped)


def diagonal(a: BlockMatrix, offset: int) -> list[OperatorBlock]:
    """Blocks on diagonal ``offset`` as a list, row index ascending.

    Raises :class:`DiagonalRangeError` when the diagonal is empty at
    this truncation size.
    """
    return [OperatorBlock(m) for m in a.diagonal_run(offset)]


def rank_one(x: BlockVector, y: BlockVector) -> BlockMatrix:
    """Matrix with entry ``(k, j)`` the rank-one operator ``z -> <z, x_j> y_k``.

    Its operator norm factors exactly as ``|x| * |y|``.
    """
    if x.dim != y.dim or x.size != y.size:
        raise DimensionMismatchError((x.size, x.dim), (y.size, y.dim), "rank one")
    return BlockMatrix.dense(np.einsum("ka,jb->kjab", y.parts, x.parts.conj()))


def tensor_scalar(scalar_matrix: np.ndarray, t) -> BlockMatrix:
    """Matrix with entries ``a_kj * t`` for a scalar matrix ``a``.

    The flattening is the Kronecker product of ``a`` with ``t``, so the
    operator norm factors exactly as ``|a| * |t|``.  ``t`` may be an
    OperatorBlock or a plain square array.
    """
    arr = np.asarray(scalar_matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(arr.shape, ("N", "N"), "tensor scalar")
    block = t.matrix if isinstance(t, OperatorBlock) else np.asarray(t, complex)
    return BlockMatrix.dense(np.einsum("kj,ab->kjab", arr, block))


def truncate(a: BlockMatrix, size: int) -> BlockMatrix:
    """Leading principal ``size`` x ``size`` submatrix, structure kept."""
    size = _integer(size, "truncation size")
    if not 1 <= size <= a.size:
        raise ValueError(f"truncation size {size} outside [1, {a.size}]")
    if size == a.size:
        return a
    if a.structure == DENSE:
        return BlockMatrix.dense(a.blocks()[:size, :size])
    kept = {
        l: run[: size - abs(l)] for l, run in a._diagonals.items() if abs(l) < size
    }
    return BlockMatrix._from_runs(a.structure, size, a.dim, kept)


def scale_diagonals(a: BlockMatrix, weight, support=None) -> BlockMatrix:
    """Rescale diagonal ``l`` by ``weight(l)``, keeping only ``l in support``.

    This is the Schur product with the toeplitz mask whose diagonal
    ``l`` is ``weight(l) Id``.  ``weight`` maps an integer array of
    offsets to an array of scalars of the same shape.  ``support``
    (``None`` keeps every stored diagonal) should answer ``in`` in
    O(1), like a ``range`` or a ``frozenset``.  A dense input stays
    dense only when it keeps all ``2N - 1`` diagonals; otherwise the
    result is banded, or toeplitz for a toeplitz input.
    """
    kept = [l for l in a.diagonal_support() if support is None or l in support]
    if a.structure == DENSE and len(kept) == 2 * a.size - 1:
        # entry (k, j) takes the weight of offset j - k, at position j - k + N - 1
        index = np.arange(a.size)
        weights = weight(np.arange(1 - a.size, a.size))
        gathered = weights[index[None, :] - index[:, None] + a.size - 1]
        flat = a.flatten()
        scaled = flat.reshape(a.size, a.dim, a.size, a.dim) * gathered[:, None, :, None]
        return BlockMatrix._from_dense(scaled.reshape(flat.shape), a.size, a.dim)
    weights = weight(np.array(kept, dtype=int))
    runs = {l: w * a._run(l) for l, w in zip(kept, weights)}
    return BlockMatrix._from_runs(_joint_structure(a, a), a.size, a.dim, runs)


def allclose(a: BlockMatrix, b: BlockMatrix, tol: float = 1e-12) -> bool:
    """Entrywise comparison that ignores storage structure."""
    if a.size != b.size or a.dim != b.dim:
        return False
    return bool(np.max(np.abs(a.blocks() - b.blocks())) <= tol)


# -- seeded random instances -----------------------------------------


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(_integer(rng, "seed", 0))


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_dense(size: int, dim: int, rng) -> BlockMatrix:
    """Dense matrix with independent complex Gaussian entries."""
    size, dim = _integer(size, "size"), _integer(dim, "dim")
    return BlockMatrix.dense(_gaussian(_as_rng(rng), (size, size, dim, dim)))


def random_toeplitz(
    size: int, dim: int, rng, offsets: Iterable[int], decay: float = 1.0
) -> BlockMatrix:
    """Toeplitz matrix with Gaussian coefficient blocks on ``offsets``.

    Each stored block is scaled by ``decay ** |offset|``.
    """
    rng, dim = _as_rng(rng), _integer(dim, "dim")
    offsets = [_integer(l, "toeplitz offset") for l in offsets]
    coeffs = {l: decay ** abs(l) * _gaussian(rng, (dim, dim)) for l in offsets}
    return BlockMatrix.toeplitz(coeffs, size)


def random_banded(
    size: int, dim: int, rng, bounds: tuple[int, int], decay: float = 1.0
) -> BlockMatrix:
    """Banded matrix with Gaussian blocks on offsets ``bounds[0]..bounds[1]``.

    Each diagonal is scaled by ``decay ** |offset|``; ``decay < 1``
    concentrates mass near the main diagonal.
    """
    rng, size, dim = _as_rng(rng), _integer(size, "size"), _integer(dim, "dim")
    lo, hi = (_integer(bound, "band bound") for bound in bounds)
    if lo > hi:
        raise ValueError(f"empty band {bounds}")
    diags = {
        l: decay ** abs(l) * _gaussian(rng, (size - abs(l), dim, dim))
        for l in range(lo, hi + 1)
    }
    return BlockMatrix.banded(diags, size)


def random_vector(size: int, dim: int, rng) -> BlockVector:
    size, dim = _integer(size, "size"), _integer(dim, "dim")
    return BlockVector(_gaussian(_as_rng(rng), (size, dim)))
