"""Scalar symbols on the torus, summability kernels, and smoothing.

A :class:`ScalarSymbol` is a scalar function on the torus known through
its Fourier coefficients: an explicit trigonometric polynomial, or one
of the classical closed-form families (Fejer, Dirichlet, Poisson).
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


class ScalarSymbol:
    """Scalar torus function described by its Fourier coefficients."""

    __slots__ = ("_kind", "_coeffs", "_param")

    def __init__(self, kind: str, coeffs=None, param=None):
        self._kind = kind
        self._coeffs = coeffs
        self._param = param

    @classmethod
    def trig_polynomial(cls, coeffs: Mapping[int, complex]) -> "ScalarSymbol":
        """Finitely supported symbol ``t -> sum_l c_l e^{i l t}``."""
        cleaned = {int(l): complex(c) for l, c in coeffs.items()}
        if not cleaned:
            cleaned = {0: 0j}
        return cls("trigpoly", coeffs=cleaned)

    @classmethod
    def fejer(cls, n: int) -> "ScalarSymbol":
        """Fejer kernel of order ``n``: coefficients ``1 - |l| / (n + 1)``."""
        if n < 0:
            raise ValueError(f"fejer order must be >= 0, got {n}")
        return cls("fejer", param=int(n))

    @classmethod
    def dirichlet(cls, n: int) -> "ScalarSymbol":
        """Dirichlet kernel of order ``n``: coefficient 1 for ``|l| <= n``.

        The classical non-example: its mean is 1 but its L1 norms grow
        without bound, so it fails the uniform-bound axiom.
        """
        if n < 0:
            raise ValueError(f"dirichlet order must be >= 0, got {n}")
        return cls("dirichlet", param=int(n))

    @classmethod
    def poisson(cls, r: float) -> "ScalarSymbol":
        """Poisson kernel at radius ``r``: coefficients ``r ** |l|``."""
        r = float(r)
        if not 0.0 <= r < 1.0:
            raise ValueError(f"poisson radius must lie in [0, 1), got {r}")
        return cls("poisson", param=r)

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def param(self):
        return self._param

    @property
    def degree(self) -> int | None:
        """Largest |offset| with a nonzero coefficient, None if unbounded."""
        if self._kind == "trigpoly":
            nonzero = [abs(l) for l, c in self._coeffs.items() if c != 0]
            return max(nonzero) if nonzero else 0
        if self._kind in ("fejer", "dirichlet"):
            return self._param
        return None

    def support(self) -> tuple[int, ...] | None:
        """Stored offsets, ascending; None when all of Z may contribute."""
        if self._kind == "trigpoly":
            return tuple(sorted(self._coeffs))
        if self._kind in ("fejer", "dirichlet"):
            n = self._param
            return tuple(range(-n, n + 1))
        return None

    def coeff(self, offset: int) -> complex:
        return complex(self.coeff_array(np.array([offset]))[0])

    def coeff_array(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorized coefficient lookup."""
        offsets = np.asarray(offsets, dtype=int)
        if self._kind == "trigpoly":
            out = np.zeros(offsets.shape, dtype=complex)
            for i, l in np.ndenumerate(offsets):
                out[i] = self._coeffs.get(int(l), 0j)
            return out
        if self._kind == "fejer":
            return np.maximum(0.0, 1.0 - np.abs(offsets) / (self._param + 1)).astype(
                complex
            )
        if self._kind == "dirichlet":
            return (np.abs(offsets) <= self._param).astype(complex)
        return (self._param ** np.abs(offsets)).astype(complex)

    def values(self, t: np.ndarray) -> np.ndarray:
        """Pointwise values on a grid of angles.

        Finite-support symbols are summed from their coefficients, so
        there is no removable singularity to treat; the Poisson kernel
        uses its closed form.
        """
        t = np.asarray(t, dtype=float)
        if self._kind == "poisson":
            r = self._param
            return ((1 - r * r) / (1 - 2 * r * np.cos(t) + r * r)).astype(complex)
        offsets = np.array(self.support())
        coeffs = self.coeff_array(offsets)
        return coeffs @ np.exp(1j * np.outer(offsets, t))

    def l1_fourier_norm(self) -> float:
        """Sum of coefficient magnitudes (the Wiener-algebra norm)."""
        if self._kind == "poisson":
            r = self._param
            return (1 + r) / (1 - r)
        return float(np.sum(np.abs(self.coeff_array(np.array(self.support())))))

    def __repr__(self) -> str:
        if self._kind == "trigpoly":
            return f"ScalarSymbol(trigpoly, degree={self.degree})"
        return f"ScalarSymbol({self._kind}, {self._param})"


def convolve(a: ScalarSymbol, b: ScalarSymbol) -> ScalarSymbol:
    """Convolution on the torus: coefficients multiply offset-wise.

    At least one operand must have finite support; the result is an
    explicit trigonometric polynomial on the intersected support.
    """
    support = a.support() if a.support() is not None else b.support()
    if support is None:
        raise StructureError("convolve needs at least one finitely supported symbol")
    offsets = np.array(support)
    products = a.coeff_array(offsets) * b.coeff_array(offsets)
    return ScalarSymbol.trig_polynomial(
        {int(l): c for l, c in zip(offsets, products)}
    )


def torus_grid(points: int = TORUS_GRID_POINTS) -> np.ndarray:
    """Uniform grid ``-pi + 2 pi q / points`` for ``q = 0 .. points - 1``."""
    if points < 2:
        raise ValueError(f"grid needs at least 2 points, got {points}")
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
    return scale_diagonals(_all_ones(size, dim), lambda l: np.exp(1j * angle * l))


def smooth(a: BlockMatrix, symbol: ScalarSymbol) -> BlockMatrix:
    """Schur product with ``mask(symbol, ...)``, computed diagonal-wise.

    Each diagonal at offset ``l`` is scaled by ``symbol.coeff(l)``.
    Equal, entry for entry, to ``schur_product(mask(symbol, N, d), a)``;
    the direct form skips building the mask.  A finitely supported
    symbol forces a banded (or toeplitz) result on the intersected
    support.
    """
    support = symbol.support()
    if support is not None:
        support = frozenset(support)
    return scale_diagonals(a, symbol.coeff_array, support)


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


def poisson_family() -> SummabilityKernel:
    """Poisson kernels indexed through ``r_n = 1 - 1/n``."""
    return SummabilityKernel(
        "poisson", lambda n: ScalarSymbol.poisson(1.0 - 1.0 / n), 1.0
    )


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
    orders = sorted(int(n) for n in orders)
    if not orders:
        raise ValueError("kernel_axiom_check needs at least one order")
    t = torus_grid()
    tail_masks = [np.abs(t) >= float(delta) for delta in deltas]
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
        deltas=tuple(float(d) for d in deltas),
        rows=tuple(rows),
        mean_one=mean_one,
        uniform_l1=uniform_l1,
        vanishing_tails=vanishing,
    )
