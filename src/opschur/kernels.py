"""Scalar symbols on the torus, summability kernels, and smoothing.

A :class:`ScalarSymbol` is a trigonometric polynomial (explicit, Fejer
or Dirichlet) stored like the vector and operator polynomials of
:mod:`opschur.analysis`, or the Poisson kernel in closed form.
Masks turn a symbol into a toeplitz :class:`BlockMatrix` whose blocks
are multiples of the identity; Schur-multiplying by a mask rescales
each diagonal by the matching coefficient, which is what
:func:`smooth` does directly.

Quadrature uses the composite trapezoid rule on a uniform grid of the
torus, which for periodic integrands is plain averaging and integrates
trigonometric polynomials of degree below half the grid size exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .blocks import _angles, _each, _entries, _integer, _real
from .errors import StructureError
from .matrices import BlockMatrix, scale_diagonals

__all__ = [
    "TORUS_GRID_POINTS",
    "ScalarSymbol",
    "convolve",
    "torus_grid",
    "quadrature_mean",
    "mask",
    "modulation_mask",
    "smooth",
    "SummabilityKernel",
    "fejer_family",
    "poisson_family",
    "dirichlet_family",
    "KernelAxiomReport",
    "kernel_axiom_check",
]

TORUS_GRID_POINTS = 4096

MEAN_TOLERANCE = 1e-8
L1_TOLERANCE = 1e-6
L1_FLATNESS = 1e-3


def _spawned_rngs(seed, trials) -> list[np.random.Generator]:
    """One generator per trial, each from its own child of ``seed``, so
    a trial's draws do not depend on the trials before it."""
    seeds = np.random.SeedSequence(_integer(seed, "seed", 0)).spawn(_integer(trials, "trials", 1))
    return [np.random.default_rng(s) for s in seeds]


def _offset_array(offsets) -> np.ndarray:
    """Coefficient offsets as an array, not copied when it already is one;
    a non-empty array of any but an integer dtype, bool included, is refused."""
    offsets = np.asarray(offsets)
    if offsets.size and offsets.dtype.kind not in "iu":
        raise StructureError(f"coefficient offsets must be integers, not {offsets.dtype}")
    return offsets


class _TrigPolynomial:
    """Trig polynomial ``t -> sum_l c_l e^{i l t}``, ``c_l`` of rank ``_rank``.

    The coefficients are scalars (rank 0), vectors in ``C^d`` (rank 1)
    or operators on ``C^d`` (rank 2), stacked once in ascending order of
    offset.  Lookups and values return new arrays, never the storage.
    """

    __slots__ = ("_offsets", "_coeffs")

    def __init__(self, coefficients: Mapping[int, object]):
        parts = _entries(coefficients, self._part, lambda l: _integer(l, f"{self._noun} offset"),
                         lambda l: ("d",) * self._rank)
        offsets = sorted(parts)
        self._offsets = np.array(offsets, dtype=int)
        self._coeffs = np.stack([parts[l] for l in offsets])

    @classmethod
    def _from_arrays(cls, offsets: np.ndarray, coeffs: np.ndarray):
        """Wrap ascending ``offsets`` and their stacked coefficients."""
        self = cls.__new__(cls)
        self._offsets, self._coeffs = offsets, coeffs
        return self

    @property
    def dim(self) -> int:
        """Side ``d`` of the coefficient space; 1 for scalar coefficients."""
        return self._coeffs.shape[-1] if self._rank else 1

    @property
    def degree(self) -> int:
        """Largest |offset| with a nonzero coefficient, 0 if there is none."""
        nonzero = np.any(self._coeffs.reshape(len(self._offsets), -1) != 0, axis=1)
        return int(np.max(np.abs(self._offsets[nonzero]), initial=0))

    def support(self) -> tuple[int, ...]:
        """Stored offsets, ascending."""
        return tuple(self._offsets.tolist())

    def _lookup(self, offsets) -> tuple[np.ndarray, np.ndarray]:
        """Storage positions of an integer array of offsets, and which of
        them are stored; one binary search, whatever the degree."""
        offsets = _offset_array(offsets)
        index = np.minimum(np.searchsorted(self._offsets, offsets), len(self._offsets) - 1)
        return index, self._offsets[index] == offsets

    def _stores(self, offsets) -> np.ndarray:
        """Which of an integer array of offsets are in the support."""
        return self._lookup(offsets)[1]

    def coeff_array(self, offsets) -> np.ndarray:
        """Coefficients at an integer array of offsets, zero off the support."""
        index, hit = self._lookup(offsets)
        return np.where(hit.reshape(hit.shape + (1,) * self._rank), self._coeffs[index], 0)

    def coeff(self, offset: int):
        """The coefficient at the integer ``offset``: a complex number or an array."""
        return self.coeff_array(_integer(offset, "coefficient offset"))[()]

    def values(self, t: np.ndarray) -> np.ndarray:
        """Pointwise values, shape ``(len(t),)`` plus the coefficient shape.

        ``t`` is one angle or a 1-d array of them.  The phases
        ``e^{i l t}`` are built in one complex ``offsets x angles``
        buffer: ``l t`` is written into its imaginary part and
        exponentiated in place.
        """
        # offsets x angles: the summation order the recorded experiment bytes use
        t = _angles(t)
        phases = np.zeros((len(self._offsets), len(t)), dtype=complex)
        np.multiply.outer(self._offsets, t, out=phases.imag)
        flat = self._coeffs.reshape(len(self._offsets), -1).T @ np.exp(phases, out=phases)
        return flat.T.reshape(-1, *self._coeffs.shape[1:])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree}, dim={self.dim})"


class ScalarSymbol(_TrigPolynomial):
    """Scalar torus function described by its Fourier coefficients."""

    __slots__ = ()
    _rank = 0
    _noun = "scalar symbol"
    _part = "symbol coefficient"

    @classmethod
    def trig_polynomial(cls, coeffs: Mapping[int, complex]) -> "ScalarSymbol":
        """Finitely supported symbol ``t -> sum_l c_l e^{i l t}``; ``{}`` is zero."""
        return cls({0: 0j} if isinstance(coeffs, Mapping) and not coeffs else coeffs)

    @classmethod
    def fejer(cls, n: int) -> "ScalarSymbol":
        """Fejer kernel of order ``n``: coefficients ``1 - |l| / (n + 1)``."""
        n = _integer(n, "fejer order n", 0)
        offsets = np.arange(-n, n + 1)
        return cls._from_arrays(offsets, (1.0 - np.abs(offsets) / (n + 1)).astype(complex))

    @classmethod
    def dirichlet(cls, n: int) -> "ScalarSymbol":
        """Dirichlet kernel of order ``n``: coefficient 1 for ``|l| <= n``.

        The classical non-example: its mean is 1 but its L1 norms grow
        without bound, so it fails the uniform-bound axiom.
        """
        n = _integer(n, "dirichlet order n", 0)
        return cls._from_arrays(np.arange(-n, n + 1), np.ones(2 * n + 1, dtype=complex))

    @staticmethod
    def poisson(r: float) -> "ScalarSymbol":
        """Poisson kernel at radius ``r``: coefficients ``r ** |l|``."""
        return PoissonSymbol(r)

    def l1_fourier_norm(self) -> float:
        """Sum of coefficient magnitudes (the Wiener-algebra norm)."""
        return float(np.sum(np.abs(self._coeffs)))


class PoissonSymbol(ScalarSymbol):
    """Poisson kernel ``(1 - r^2) / (1 - 2 r cos t + r^2)``, kept in closed form.

    Its support is all of Z, so ``support()`` and ``degree`` are None.
    """

    __slots__ = ("_r",)
    degree = None

    def __init__(self, r: float):
        r = _real(r, "poisson radius")
        if not 0.0 <= r < 1.0:
            raise ValueError(f"poisson radius must lie in [0, 1), got {r}")
        self._r = r

    def support(self) -> None:
        return None

    def _stores(self, offsets) -> np.ndarray:
        return np.ones(np.shape(offsets), dtype=bool)

    def coeff_array(self, offsets) -> np.ndarray:
        return (self._r ** np.abs(_offset_array(offsets))).astype(complex)

    def values(self, t: np.ndarray) -> np.ndarray:
        r = self._r
        t = _angles(t)
        return ((1 - r * r) / (1 - 2 * r * np.cos(t) + r * r)).astype(complex)

    def l1_fourier_norm(self) -> float:
        return (1 + self._r) / (1 - self._r)

    def __repr__(self) -> str:
        return f"PoissonSymbol({self._r})"


def convolve(a: ScalarSymbol, b: ScalarSymbol) -> ScalarSymbol:
    """Convolution on the torus: coefficients multiply offset-wise.

    At least one operand must have finite support; the result is an
    explicit trigonometric polynomial on the intersected support.
    """
    support = a.support() if a.support() is not None else b.support()
    if support is None:
        raise StructureError("convolve needs at least one finitely supported symbol")
    offsets = np.array(support, dtype=int)
    return ScalarSymbol._from_arrays(offsets, a.coeff_array(offsets) * b.coeff_array(offsets))


def torus_grid(points: int = TORUS_GRID_POINTS) -> np.ndarray:
    """Uniform grid ``-pi + 2 pi q / points`` for ``q = 0 .. points - 1``."""
    points = _integer(points, "grid points", 2)
    return -np.pi + 2 * np.pi * np.arange(points) / points


def quadrature_mean(values: np.ndarray) -> complex:
    """Integral against normalized arc length, by the trapezoid rule.

    On a uniform periodic grid the trapezoid rule is the plain average;
    it is exact for trigonometric polynomials of degree below half the
    grid size.
    """
    return complex(np.mean(values))


def _all_ones(size: int, dim: int) -> BlockMatrix:
    """Toeplitz matrix with ``Id`` on every diagonal of the window."""
    size, dim = _integer(size, "size", 1), _integer(dim, "dim", 1)
    eye = np.eye(dim)
    return BlockMatrix.toeplitz({l: eye for l in range(-(size - 1), size)}, size)


def mask(symbol: ScalarSymbol, size: int, dim: int) -> BlockMatrix:
    """Toeplitz matrix with block ``coeff(l) * Id`` on diagonal ``l``.

    Stores the symbol support clipped to the truncation window; for
    unbounded symbols every offset ``|l| <= size - 1`` is stored.
    """
    return smooth(_all_ones(size, dim), symbol)


def modulation_mask(angle: float, size: int, dim: int) -> BlockMatrix:
    """Mask with unimodular coefficients ``e^{i l angle}`` on diagonal ``l``."""
    angle = _real(angle, "angle")
    return scale_diagonals(_all_ones(size, dim), lambda l: np.exp(1j * angle * l))


def smooth(a: BlockMatrix, symbol: ScalarSymbol) -> BlockMatrix:
    """Schur product with ``mask(symbol, ...)``, computed diagonal-wise.

    Each diagonal at offset ``l`` is scaled by ``symbol.coeff(l)``.
    Equal, entry for entry, to ``schur_product(mask(symbol, N, d), a)``;
    the direct form skips building the mask.  A finitely supported
    symbol forces a banded (or toeplitz) result on the intersected
    support.  The stored diagonals are looked up in the symbol, so the
    cost follows the matrix, not the symbol's degree.
    """
    stored = np.array(a.diagonal_support())
    kept = frozenset(stored[symbol._stores(stored)].tolist())
    return scale_diagonals(a, symbol.coeff_array, kept)


@dataclass(frozen=True)
class SummabilityKernel:
    """An indexed family of symbols meant to approximate the identity.

    ``family(n)`` returns the symbol at index ``n >= 1``.  ``l1_bound``
    is the claimed uniform bound on the L1 norms, or None when no such
    bound is claimed (the Dirichlet family).
    """

    name: str
    family: Callable[[int], ScalarSymbol]
    l1_bound: float | None

    def __call__(self, n: int) -> ScalarSymbol:
        return self.family(n)


def fejer_family() -> SummabilityKernel:
    return SummabilityKernel("fejer", ScalarSymbol.fejer, 1.0)


def _poisson_at(n: int) -> ScalarSymbol:
    return PoissonSymbol(1.0 - 1.0 / _integer(n, "poisson family index n", 1))


def poisson_family() -> SummabilityKernel:
    """Poisson kernels indexed through ``r_n = 1 - 1/n``."""
    return SummabilityKernel("poisson", _poisson_at, 1.0)


def dirichlet_family() -> SummabilityKernel:
    return SummabilityKernel("dirichlet", ScalarSymbol.dirichlet, None)


@dataclass(frozen=True)
class KernelAxiomRow:
    order: int
    mean: complex
    l1_norm: float
    tails: tuple[float, ...]


@dataclass(frozen=True)
class KernelAxiomReport:
    """Per-order quadrature data and the three axiom verdicts.

    Axiom 1 (mean one): every mean within ``MEAN_TOLERANCE`` of 1.
    Axiom 2 (uniform L1 bound): every L1 norm at most ``l1_bound`` plus
    ``L1_TOLERANCE``; families that claim no bound pass only if the
    observed L1 norms stay flat to within ``L1_FLATNESS`` of the first,
    so a growing family is flagged as failing.
    Axiom 3 (vanishing tails): for each delta, the tail mass at the
    largest order is at most the tail mass at the smallest.
    """

    kernel_name: str
    deltas: tuple[float, ...]
    rows: tuple[KernelAxiomRow, ...]
    mean_one: bool
    uniform_l1: bool
    vanishing_tails: bool

    @property
    def all_axioms(self) -> bool:
        return self.mean_one and self.uniform_l1 and self.vanishing_tails


def kernel_axiom_check(
    kernel: SummabilityKernel,
    orders: Sequence[int],
    deltas: Sequence[float] = (0.1, 0.5, 1.0),
) -> KernelAxiomReport:
    """Check the three summability axioms on a grid of orders.

    Means, L1 norms and tail masses come from trapezoid quadrature with
    ``TORUS_GRID_POINTS`` points; the tail at ``delta`` is the integral of
    the kernel over ``delta <= |t| <= pi`` against normalized arc
    length.
    """
    orders = sorted(_each(orders, "kernel order", _integer, 0))
    deltas = _each(deltas, "tail delta", _real)
    t = torus_grid()
    tail_masks = [np.abs(t) >= delta for delta in deltas]
    rows = []
    for n in orders:
        vals = kernel(n).values(t)
        mean = quadrature_mean(vals)
        l1 = float(np.mean(np.abs(vals)))
        tails = tuple(float(np.sum(vals[m].real) / len(t)) for m in tail_masks)
        rows.append(KernelAxiomRow(order=n, mean=mean, l1_norm=l1, tails=tails))
    mean_one = all(abs(row.mean - 1.0) <= MEAN_TOLERANCE for row in rows)
    if kernel.l1_bound is not None:
        uniform_l1 = all(row.l1_norm <= kernel.l1_bound + L1_TOLERANCE for row in rows)
    else:
        uniform_l1 = max(r.l1_norm for r in rows) <= rows[0].l1_norm + L1_FLATNESS
    vanishing = all(
        rows[-1].tails[i] <= rows[0].tails[i] + 1e-12 for i in range(len(deltas))
    )
    return KernelAxiomReport(
        kernel_name=kernel.name,
        deltas=deltas,
        rows=tuple(rows),
        mean_one=mean_one,
        uniform_l1=uniform_l1,
        vanishing_tails=vanishing,
    )
