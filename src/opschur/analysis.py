"""Symbols, modulation, smoothing profiles, and disc diagnostics.

This module ties the matrix calculus to function theory on the torus.
Modulating a matrix rescales entry ``(k, j)`` by ``e^{i (j - k) t}``,
which is a unitary similarity of the truncation, so the whole singular
spectrum is invariant in ``t``.  Smoothing profiles record how fast
kernel-smoothed truncations return to the original matrix; their
verdict separates matrices that behave like continuous functions from
those that do not, with the index-dilation matrix as the standard
failing case.  For upper-triangular matrices the same machinery
evaluates the analytic extension on the open unit disc and profiles
its boundary behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Mapping, Sequence

import numpy as np

from .blocks import OperatorBlock, singular_triples
from .errors import (
    CoefficientSupportError,
    DimensionMismatchError,
    DiscDomainError,
    StructureError,
)
from .kernels import ScalarSymbol, SummabilityKernel, smooth
from .matrices import TOEPLITZ, BlockMatrix, scale_diagonals
from .norms import NormEstimate, op_norm, symbol_sup_norm

__all__ = [
    "OperatorSymbol",
    "VectorPolynomial",
    "ConvergenceProfile",
    "BoundaryProfile",
    "modulate",
    "smoothing_profile",
    "dilation_matrix",
    "toeplitz_from_symbol",
    "symbol_from_toeplitz",
    "coefficient_action",
    "coefficient_action_bound",
    "analytic_eval",
    "symbol_analytic_eval",
    "boundary_profile",
]

RELATIVE_PROFILE_TOLERANCE = 1e-3
BOUNDARY_ANGLES = 8


class _TrigPolynomial:
    """Trig polynomial ``t -> sum_l c_l e^{i l t}``, ``c_l`` of rank ``_rank``."""

    __slots__ = ("_coeffs", "_dim")

    def __init__(self, coefficients: Mapping[int, np.ndarray]):
        if not coefficients:
            raise ValueError(f"{self._noun} needs at least one coefficient")
        coeffs = {}
        dim = None
        for offset, part in coefficients.items():
            arr = np.array(part, dtype=complex)
            arr.flags.writeable = False
            if arr.ndim != self._rank or len(set(arr.shape)) != 1:
                raise DimensionMismatchError(arr.shape, ("d",) * self._rank, self._part)
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise DimensionMismatchError(arr.shape, (dim,) * self._rank, self._part)
            coeffs[int(offset)] = arr
        self._coeffs = coeffs
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def degree(self) -> int:
        return max(abs(l) for l in self._coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def coeff(self, offset: int) -> np.ndarray:
        part = self._coeffs.get(int(offset))
        if part is None:
            return np.zeros((self._dim,) * self._rank, dtype=complex)
        return part

    def values(self, t: np.ndarray) -> np.ndarray:
        """Pointwise values, shape ``(len(t),)`` plus the coefficient shape."""
        t = np.asarray(t, dtype=float)
        offsets = np.array(self.support())
        parts = np.stack([self._coeffs[int(l)] for l in offsets])
        phases = np.exp(1j * np.outer(t, offsets))
        flat = phases @ parts.reshape(len(offsets), -1)
        return flat.reshape(-1, *parts.shape[1:])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree}, dim={self._dim})"


class OperatorSymbol(_TrigPolynomial):
    """Operator-valued trigonometric polynomial ``t -> sum_l T_l e^{i l t}``."""

    __slots__ = ()
    _rank = 2
    _noun = "operator symbol"
    _part = "symbol block"

    def eval(self, t: float) -> OperatorBlock:
        return OperatorBlock(self.values(np.array([float(t)]))[0])


class VectorPolynomial(_TrigPolynomial):
    """Vector-valued trigonometric polynomial ``t -> sum_l x_l e^{i l t}``."""

    __slots__ = ()
    _rank = 1
    _noun = "vector polynomial"
    _part = "polynomial part"

    def sup_norm(self) -> float:
        """Grid supremum of the pointwise Euclidean norm."""
        return symbol_sup_norm(self).value


@dataclass(frozen=True)
class ConvergenceProfile:
    """Recorded distances along an index family, with a verdict.

    The verdict rule: the profile converges when the last third of the
    recorded distances all sit at or below the tolerance;
    ``threshold_index`` is then the first recorded index from which
    every later distance stays below.  Otherwise it stalls and
    ``floor`` (the smallest recorded distance) describes the plateau.
    """

    indices: tuple[float, ...]
    distances: tuple[float, ...]
    tolerance: float
    reference_norm: float
    converged: bool
    threshold_index: float | None
    floor: float


def _profile_verdict(
    indices: Sequence[float],
    distances: Sequence[float],
    tolerance: float,
    reference_norm: float,
) -> ConvergenceProfile:
    n = len(distances)
    threshold_pos = None
    for i in range(n - 1, -1, -1):
        if distances[i] <= tolerance:
            threshold_pos = i
        else:
            break
    last_third_start = n - ceil(n / 3)
    converged = threshold_pos is not None and threshold_pos <= last_third_start
    return ConvergenceProfile(
        indices=tuple(float(i) for i in indices),
        distances=tuple(float(d) for d in distances),
        tolerance=float(tolerance),
        reference_norm=float(reference_norm),
        converged=converged,
        threshold_index=None if threshold_pos is None else float(indices[threshold_pos]),
        floor=float(min(distances)),
    )


def modulate(a: BlockMatrix, angle: float) -> BlockMatrix:
    """Rescale entry ``(k, j)`` by ``e^{i (j - k) angle}``.

    Equals conjugation by the diagonal unitary with blocks
    ``e^{i j angle} Id``, so every singular value of the truncation is
    left unchanged.  The storage structure is preserved.
    """
    angle = float(angle)
    return scale_diagonals(a, lambda offsets: np.exp(1j * angle * offsets))


def smoothing_profile(
    a: BlockMatrix,
    kernel: SummabilityKernel,
    orders: Sequence[int],
    tolerance: float | None = None,
) -> ConvergenceProfile:
    """Distances ``|smooth(a, kernel(n)) - a|`` along a family of orders.

    The default tolerance is ``RELATIVE_PROFILE_TOLERANCE`` times the
    operator norm of ``a``.
    """
    orders = [int(n) for n in orders]
    if not orders:
        raise ValueError("smoothing profile needs at least one order")
    reference = op_norm(a).value
    if tolerance is None:
        tolerance = RELATIVE_PROFILE_TOLERANCE * reference
    distances = [op_norm(smooth(a, kernel(n)) - a).value for n in orders]
    return _profile_verdict(orders, distances, tolerance, reference)


def dilation_matrix(size: int, dim: int) -> BlockMatrix:
    """Identity blocks at positions ``(k, 2k + 1)``, zeros elsewhere.

    The truncation keeps the rows whose doubled index stays inside the
    window; the unbounded version of this matrix is the standard
    example whose modulation path moves by at least ``sqrt(2)`` between
    any two distinct angles, so its smoothing profiles stall.  Row and
    column patterns are disjoint, hence the operator norm is 1.
    """
    if size < 2:
        raise ValueError(f"dilation matrix needs size >= 2, got {size}")
    blocks = np.zeros((size, size, dim, dim), dtype=complex)
    eye = np.eye(dim)
    for row in range(size // 2):
        blocks[row, 2 * row + 1] = eye
    return BlockMatrix.dense(blocks)


def toeplitz_from_symbol(symbol: OperatorSymbol, size: int) -> BlockMatrix:
    """Toeplitz truncation with the symbol's coefficient on each diagonal.

    Coefficients beyond the truncation window are not representable and
    raise :class:`CoefficientSupportError`.
    """
    coeffs = {}
    for offset in symbol.support():
        if abs(offset) > size - 1:
            raise CoefficientSupportError(
                offset, (-(size - 1), size - 1), "toeplitz truncation"
            )
        coeffs[offset] = symbol.coeff(offset)
    return BlockMatrix.toeplitz(coeffs, size)


def _require_toeplitz(a: BlockMatrix, what: str) -> None:
    if a.structure != TOEPLITZ:
        raise StructureError(f"{what} needs toeplitz storage, got {a.structure!r}")


def symbol_from_toeplitz(a: BlockMatrix) -> OperatorSymbol:
    """Read the stored diagonals of a toeplitz matrix back as a symbol."""
    _require_toeplitz(a, "symbol extraction")
    return OperatorSymbol({l: a.diagonal_run(l)[0] for l in a.diagonal_support()})


def coefficient_action(a: BlockMatrix, p: VectorPolynomial) -> np.ndarray:
    """Pair the diagonal coefficients of ``a`` with those of ``p``.

    For a toeplitz matrix with coefficient ``T_l`` on diagonal ``l``
    this returns ``sum_l T_l(x_l)``, the action of the induced operator
    on the polynomial with coefficients ``x_l``.  Offsets the
    truncation cannot see (``|l| >= N``) raise
    :class:`CoefficientSupportError` instead of being dropped.  The
    closely related functional that pairs against scalar coefficient
    masks is this same map restricted to masks, so it has no separate
    entry point.
    """
    _require_toeplitz(a, "coefficient action")
    if p.dim != a.dim:
        raise DimensionMismatchError((a.dim,), (p.dim,), "coefficient action")
    out = np.zeros(a.dim, dtype=complex)
    for offset in p.support():
        part = p.coeff(offset)
        if not np.any(part):
            continue
        if abs(offset) > a.size - 1:
            raise CoefficientSupportError(
                offset, (-(a.size - 1), a.size - 1), "coefficient action"
            )
        out += a.diagonal_run(offset)[0] @ part
    return out


def coefficient_action_bound(
    a: BlockMatrix,
    trials: int = 200,
    max_degree: int = 8,
    seed: int = 0,
) -> NormEstimate:
    """Sampled lower bound for the coefficient-action operator norm.

    Maximizes ``|action(a, p)| / sup_t |p(t)|`` over four search
    families: deterministic single-frequency polynomials aligned with
    the top singular vector of each stored coefficient, random
    polynomials of bounded degree, Fejer-weighted polynomials with a
    random shift, and the rank-one reduction that feeds a random frame
    vector through rank-one operator coefficients.  Sampling only ever
    certifies a lower bound.
    """
    _require_toeplitz(a, "coefficient action")
    dim = a.dim
    window = min(max_degree, a.size - 1)
    best = -1.0
    best_witness = None
    total = 0

    def consider(p: VectorPolynomial, family: str, index: int) -> None:
        nonlocal best, best_witness, total
        total += 1
        denominator = p.sup_norm()
        if denominator < 1e-14:
            return
        ratio = float(np.linalg.norm(coefficient_action(a, p))) / denominator
        if ratio > best:
            best = ratio
            best_witness = {"family": family, "trial": index, "ratio": ratio}

    for index, offset in enumerate(a.diagonal_support()):
        block = a.diagonal_run(offset)[0]
        if not np.any(block):
            continue
        _, _, vh = singular_triples(block)
        consider(
            VectorPolynomial({offset: vh[0].conj()}), "single_frequency", index
        )

    seeds = np.random.SeedSequence(seed).spawn(trials)
    for index in range(trials):
        rng = np.random.default_rng(seeds[index])
        style = index % 3
        degree = int(rng.integers(0, window + 1))
        offsets = range(-degree, degree + 1)
        gauss = {
            l: (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            / np.sqrt(2)
            for l in offsets
        }
        if style == 0:
            p = VectorPolynomial(gauss)
        elif style == 1:
            shift = float(rng.uniform(-np.pi, np.pi))
            x = gauss[0]
            weights = ScalarSymbol.fejer(degree).coeff_array(np.array(list(offsets)))
            p = VectorPolynomial(
                {
                    l: w * np.exp(-1j * l * shift) * x
                    for l, w in zip(offsets, weights)
                }
            )
        else:
            frame = gauss[0] / np.linalg.norm(gauss[0])
            p = VectorPolynomial(
                {
                    l: OperatorBlock.outer(frame, part).apply(frame)
                    for l, part in gauss.items()
                }
            )
        consider(p, ("random", "fejer_shift", "rank_one")[style], index)

    return NormEstimate(
        value=best, kind="sampled_lower_bound", certificate=best_witness,
        samples=total,
    )


def _analytic_weights(a: BlockMatrix, z: complex):
    z = complex(z)
    if abs(z) >= 1.0:
        raise DiscDomainError(z)
    if not a.upper_triangular:
        raise StructureError("analytic evaluation needs an upper-triangular matrix")
    return z


def analytic_eval(a: BlockMatrix, z: complex) -> BlockMatrix:
    """Evaluate the analytic extension of ``a`` at ``z`` in the open disc.

    Entry ``(k, j)`` is scaled by ``z^{j - k}``; on the circle of
    radius ``r`` this equals Poisson smoothing at ``r`` followed by
    modulation at the angle of ``z``, and both routes agree entry for
    entry.  Only offsets ``0..N-1`` are kept, so a dense input gives
    banded storage.
    """
    z = _analytic_weights(a, z)
    return scale_diagonals(a, lambda offsets: np.power(z, offsets), range(a.size))


def symbol_analytic_eval(a: BlockMatrix, z: complex) -> OperatorBlock:
    """Power series ``sum_l T_l z^l`` of an upper toeplitz matrix at ``z``."""
    _require_toeplitz(a, "symbol series")
    z = _analytic_weights(a, z)
    out = np.zeros((a.dim, a.dim), dtype=complex)
    for offset in a.diagonal_support():
        if offset >= 0:
            out += (z**offset) * a.diagonal_run(offset)[0]
    return OperatorBlock(out)


@dataclass(frozen=True)
class BoundaryProfile:
    """Disc diagnostics for an upper-triangular matrix.

    ``sup_values[i]`` is the largest operator norm of the analytic
    extension on the circle of radius ``radii[i]``; a uniform bound in
    ``r`` is the bounded-extension diagnostic.  ``poisson`` profiles
    the distances ``|smooth(a, poisson(r)) - a|``, whose convergence as
    ``r`` approaches 1 is the continuous-boundary diagnostic.
    """

    radii: tuple[float, ...]
    sup_values: tuple[float, ...]
    poisson: ConvergenceProfile


def boundary_profile(
    a: BlockMatrix,
    radii: Sequence[float],
    tolerance: float | None = None,
) -> BoundaryProfile:
    """Profile the analytic extension along circles of growing radius.

    The supremum over each circle is taken on a uniform grid of
    ``BOUNDARY_ANGLES`` angles; modulation invariance makes the norm
    constant in the angle, so a small grid suffices.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("boundary profile needs at least one radius")
    reference = op_norm(a).value
    if tolerance is None:
        tolerance = RELATIVE_PROFILE_TOLERANCE * reference
    angles = 2 * np.pi * np.arange(BOUNDARY_ANGLES) / BOUNDARY_ANGLES
    sups = []
    distances = []
    for r in radii:
        sups.append(
            max(
                op_norm(analytic_eval(a, r * np.exp(1j * t))).value
                for t in angles
            )
        )
        distances.append(op_norm(smooth(a, ScalarSymbol.poisson(r)) - a).value)
    profile = _profile_verdict(radii, distances, tolerance, reference)
    return BoundaryProfile(
        radii=tuple(radii), sup_values=tuple(sups), poisson=profile
    )
