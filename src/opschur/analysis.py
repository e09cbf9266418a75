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
from typing import Callable, Sequence

import numpy as np

from .blocks import OperatorBlock, _complex, _each, _integer, _real, singular_triples
from .errors import (
    CoefficientSupportError,
    DimensionMismatchError,
    DiscDomainError,
    StructureError,
)
from .kernels import ScalarSymbol, SummabilityKernel, _TrigPolynomial, _spawned_rngs, smooth
from .matrices import TOEPLITZ, BlockMatrix, _gaussian, scale_diagonals
from .norms import NormEstimate, _sampled_lower_bound, op_norm, symbol_sup_norm

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
POLYNOMIAL_DEGREE = 8  # largest degree of the random search polynomials


class OperatorSymbol(_TrigPolynomial):
    """Operator-valued trigonometric polynomial ``t -> sum_l T_l e^{i l t}``."""

    __slots__ = ()
    _rank = 2
    _noun = "operator symbol"
    _part = "symbol block"

    def eval(self, t: float) -> OperatorBlock:
        return OperatorBlock(self.values(_real(t, "angle"))[0])


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
    a: BlockMatrix,
    family: Callable[[float], ScalarSymbol],
    indices: Sequence[float],
    tolerance: float | None,
) -> ConvergenceProfile:
    """Distances ``|smooth(a, family(i)) - a|`` along ``indices``, with the
    default tolerance of :func:`smoothing_profile` and the verdict of
    :class:`ConvergenceProfile`."""
    tolerance = None if tolerance is None else _real(tolerance, "tolerance")
    reference = op_norm(a).value
    if tolerance is None:
        tolerance = RELATIVE_PROFILE_TOLERANCE * reference
    distances = [op_norm(smooth(a, family(i)) - a).value for i in indices]
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
        tolerance=tolerance,
        reference_norm=float(reference),
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
    angle = _real(angle, "angle")
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
    return _profile_verdict(a, kernel, _each(orders, "profile order", _integer, 0), tolerance)


def dilation_matrix(size: int, dim: int) -> BlockMatrix:
    """Identity blocks at positions ``(k, 2k + 1)``, zeros elsewhere.

    The truncation keeps the rows whose doubled index stays inside the
    window; the unbounded version of this matrix is the standard
    example whose modulation path moves by at least ``sqrt(2)`` between
    any two distinct angles, so its smoothing profiles stall.  Row and
    column patterns are disjoint, hence the operator norm is 1.
    """
    size, dim = _integer(size, "size", 2), _integer(dim, "dim", 1)
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
    support = symbol.support()
    return BlockMatrix.toeplitz(dict(zip(support, symbol.coeff_array(support))), size)


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
    support = p.support()
    for offset, part in zip(support, p.coeff_array(support)):
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
    seed: int = 0,
) -> NormEstimate:
    """Sampled lower bound for the coefficient-action operator norm.

    Maximizes ``|action(a, p)| / sup_t |p(t)|`` over four search
    families: deterministic single-frequency polynomials aligned with
    the top singular vector of each stored coefficient, random
    polynomials of degree at most ``POLYNOMIAL_DEGREE`` (and below N),
    Fejer-weighted polynomials with a random shift, and the rank-one
    reduction that feeds a random frame vector through rank-one operator
    coefficients.  Sampling only ever certifies a lower bound.
    ``trials`` must be an integer of at least 1.
    """
    _require_toeplitz(a, "coefficient action")
    rngs = _spawned_rngs(seed, trials)
    window = min(POLYNOMIAL_DEGREE, a.size - 1)

    def polynomials():
        for index, offset in enumerate(a.diagonal_support()):
            block = a.diagonal_run(offset)[0]
            if np.any(block):
                _, _, vh = singular_triples(block)
                p = VectorPolynomial({offset: vh[0].conj()})
                yield "single_frequency", index, p
        for index, rng in enumerate(rngs):
            gauss = _random_parts(rng, a.dim, window)
            style = index % 3
            if style == 0:
                p = VectorPolynomial(gauss)
            elif style == 1:
                shift = float(rng.uniform(-np.pi, np.pi))
                offsets = list(gauss)
                weights = ScalarSymbol.fejer(offsets[-1]).coeff_array(np.array(offsets))
                p = VectorPolynomial({l: w * np.exp(-1j * l * shift) * gauss[0]
                                      for l, w in zip(offsets, weights)})
            else:
                frame = gauss[0] / np.linalg.norm(gauss[0])
                p = VectorPolynomial(
                    {l: OperatorBlock.outer(frame, part).apply(frame)
                     for l, part in gauss.items()}
                )
            yield ("random", "fejer_shift", "rank_one")[style], index, p

    return _sampled_lower_bound(
        (family, index, p.sup_norm(),
         lambda: float(np.linalg.norm(coefficient_action(a, p))))
        for family, index, p in polynomials()
    )


def _random_parts(rng: np.random.Generator, dim: int, max_degree: int) -> dict:
    """Complex Gaussian parts in ``C^dim`` on offsets ``-n .. n``, for a
    degree ``n`` drawn uniformly from ``0 .. max_degree``."""
    degree = int(rng.integers(0, max_degree + 1))
    return {l: _gaussian(rng, dim) for l in range(-degree, degree + 1)}


def _analytic_weights(a: BlockMatrix, z: complex):
    z = _complex(z, "point")
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
    constant in the angle, so a small grid suffices.  The Poisson
    distances default to the tolerance of :func:`smoothing_profile`.
    """
    radii = _each(radii, "radius", _real)
    profile = _profile_verdict(a, ScalarSymbol.poisson, radii, tolerance)
    angles = 2 * np.pi * np.arange(BOUNDARY_ANGLES) / BOUNDARY_ANGLES
    sups = tuple(
        max(op_norm(analytic_eval(a, r * np.exp(1j * t))).value for t in angles)
        for r in radii
    )
    return BoundaryProfile(radii=radii, sup_values=sups, poisson=profile)
