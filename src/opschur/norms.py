"""Operator norms, certified estimates, and multiplier lower bounds.

Every estimator states what it computed.  A :class:`NormEstimate`
carries the value, the kind (``exact_svd`` or ``lanczos`` from
:func:`op_norm`, ``sampled_lower_bound`` from the multiplier and
coefficient-action bounds) and, where available, a certificate that
witnesses the value.  Multiplier norms are never reported as exact.
:func:`power_iteration` stays public only because the benchmark traces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .blocks import BlockVector, singular_triples
from .errors import NonConvergenceError
from .kernels import modulation_mask, torus_grid
from .matrices import (
    DENSE,
    BlockMatrix,
    adjoint,
    apply,
    random_dense,
    random_vector,
    rank_one,
    schur_product,
)

__all__ = [
    "EXACT_SVD_LIMIT",
    "POWER_TOLERANCE",
    "POWER_ITERATION_CAP",
    "NormEstimate",
    "SupNorm",
    "op_norm",
    "power_iteration",
    "wiener_norm",
    "symbol_sup_norm",
    "multiplier_lower_bound",
]

EXACT_SVD_LIMIT = 512
POWER_TOLERANCE = 1e-8
POWER_ITERATION_CAP = 10**4

SUP_REFINEMENT_TOLERANCE = 1e-6
SUP_GRID_CAP = 2**16


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with how it was obtained.

    ``kind`` is ``exact_svd`` or ``lanczos`` (from :func:`op_norm`) or
    ``sampled_lower_bound``; ``iterations`` counts the Lanczos products
    with ``A* A``.  The certificate, when present, is a unit
    :class:`BlockVector` (or a descriptor of a witness matrix) that
    achieves the value within the tolerance of the kind.
    """

    value: float
    kind: str
    certificate: object | None = field(default=None, compare=False)
    iterations: int = 0
    samples: int = 0

    def __float__(self) -> float:
        return self.value


class SupNorm(NamedTuple):
    """Grid supremum of a symbol, reported with its grid resolution."""

    value: float
    grid_points: int

    def __float__(self) -> float:
        return self.value


def power_iteration(
    m: np.ndarray,
    seed: int = 0,
    tol: float = POWER_TOLERANCE,
    max_iter: int = POWER_ITERATION_CAP,
) -> tuple[float, np.ndarray, int]:
    """Top singular value of ``m`` by power iteration on ``m* m``.

    Starts from a seeded random unit vector and stops once the Rayleigh
    residual ``|m* m v - mu v|`` drops below ``0.1 * tol * mu``, which
    pins the relative error of the returned value well below ``tol``.
    Returns ``(value, right_vector, iterations)``.

    Raises
    ------
    NonConvergenceError
        When the cap is reached first; the error carries the cap.
    """
    m = np.asarray(m, dtype=complex)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    residual_tol = 0.1 * tol
    for iteration in range(1, max_iter + 1):
        w = m.conj().T @ (m @ v)
        mu = float(np.real(np.vdot(v, w)))
        if mu <= 0:
            return 0.0, v, iteration
        if np.linalg.norm(w - mu * v) <= residual_tol * mu:
            return float(np.linalg.norm(m @ v)), v, iteration
        v = w / np.linalg.norm(w)
    raise NonConvergenceError(max_iter, "power iteration")


def op_norm(a: BlockMatrix) -> NormEstimate:
    """Operator norm of the truncation, with a maximizing certificate.

    Uses the exact decomposition of the flattened matrix when its side
    is at most ``EXACT_SVD_LIMIT``.  Beyond that, Lanczos on ``A* A``
    from a seed-0 start vector (kind ``lanczos``): banded and toeplitz
    matrices are driven by :func:`apply` on the matrix and its adjoint
    and never densified, dense ones by products with their flattening.
    The value is ``|A v|`` for the unit certificate ``v``, at relative
    tolerance ``POWER_TOLERANCE``.  If ``min(flat_size,
    EXACT_SVD_LIMIT)`` Krylov steps do not converge, the exact path is
    taken up to side ``8 * EXACT_SVD_LIMIT``.

    Raises
    ------
    NonConvergenceError
        When Lanczos stalls on a larger matrix.
    """
    if a.flat_size <= EXACT_SVD_LIMIT:
        return _exact_estimate(a, a.flatten())
    if a.structure == DENSE:
        flat = a.flatten()

        def forward(x):
            return flat @ x

        def backward(y):
            return (y.conj() @ flat).conj()
    else:
        a_star = adjoint(a)

        def forward(x):
            return apply(a, BlockVector.from_flat(x, a.dim)).flatten()

        def backward(y):
            return apply(a_star, BlockVector.from_flat(y, a.dim)).flatten()

    steps = min(a.flat_size, EXACT_SVD_LIMIT)
    try:
        value, vector, iterations = _lanczos(forward, backward, a.flat_size, steps)
    except NonConvergenceError:
        if a.flat_size <= 8 * EXACT_SVD_LIMIT:
            return _exact_estimate(a, a.flatten())
        raise
    certificate = BlockVector.from_flat(vector, a.dim)
    return NormEstimate(
        value=value, kind="lanczos", certificate=certificate, iterations=iterations,
    )


def _lanczos(forward, backward, n: int, steps: int) -> tuple[float, np.ndarray, int]:
    """Top singular value of ``A`` by Lanczos on ``A* A``.

    ``forward`` and ``backward`` apply ``A`` and ``A*`` to flat vectors
    of length ``n``.  Every new Krylov vector is orthogonalized twice
    against the whole basis; in exact arithmetic the Ritz values are the
    squares of those of Golub-Kahan bidiagonalization from the same
    seeded start vector.  Stops on the residual
    ``|A* A v - theta v| = beta_k |e_k^T y|`` of the top Ritz pair,
    with power iteration's rule ``<= 0.1 * POWER_TOLERANCE * theta``,
    or on breakdown (``beta = 0``: the Krylov space is invariant).
    Returns ``(|A v|, v, steps taken)`` for the unit Ritz vector ``v``.

    Raises
    ------
    NonConvergenceError
        When ``steps`` Krylov steps do not converge; carries ``steps``.
    """
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((min(steps, 16), n), dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    residual_tol = 0.1 * POWER_TOLERANCE
    for k in range(steps):
        if k == len(basis):
            grown = np.empty((min(2 * k, steps), n), dtype=complex)
            grown[:k] = basis
            basis = grown
        basis[k] = q
        span = basis[: k + 1]
        w = backward(forward(q))
        alphas.append(float(np.real(np.vdot(q, w))))
        for _ in range(2):
            w = w - (span @ w.conj()).conj() @ span
        beta = float(np.linalg.norm(w))
        # The Ritz pair costs O(k^3); past the first steps, testing every
        # eighth step keeps it from outgrowing the products with A* A.
        if beta == 0.0 or k < 32 or k % 8 == 7 or k == steps - 1:
            ritz_values, ritz_vectors = np.linalg.eigh(
                np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            )
            theta, y = ritz_values[-1], ritz_vectors[:, -1]
            if beta == 0.0 or beta * abs(y[-1]) <= residual_tol * theta:
                v = y @ span
                v /= np.linalg.norm(v)
                return float(np.linalg.norm(forward(v))), v, k + 1
        betas.append(beta)
        q = w / beta
    raise NonConvergenceError(steps, "lanczos")


def _exact_estimate(a: BlockMatrix, flat: np.ndarray) -> NormEstimate:
    _, s, vh = singular_triples(flat)
    certificate = BlockVector.from_flat(vh[0].conj(), a.dim)
    return NormEstimate(value=float(s[0]), kind="exact_svd", certificate=certificate)


def wiener_norm(a: BlockMatrix) -> float:
    """Sum over diagonals of the largest block norm on each diagonal.

    Dominates the operator norm of every truncation.
    """
    total = 0.0
    for offset in a.diagonal_support():
        run = a.diagonal_run(offset)
        total += float(np.max(np.linalg.norm(run, ord=2, axis=(1, 2))))
    return total


def _refined_sup(point_sups: Callable[[np.ndarray], np.ndarray], start: int) -> SupNorm:
    """Double the torus grid until the running supremum stabilizes."""
    points = max(64, int(start))
    previous = None
    while True:
        value = float(np.max(point_sups(torus_grid(points))))
        if previous is not None and abs(value - previous) <= SUP_REFINEMENT_TOLERANCE:
            return SupNorm(value=value, grid_points=points)
        if points >= SUP_GRID_CAP:
            return SupNorm(value=value, grid_points=points)
        previous = value
        points *= 2


def symbol_sup_norm(symbol) -> SupNorm:
    """Supremum of ``|symbol(t)|`` over the torus, on a finite grid.

    ``symbol`` needs a ``values(t)`` method returning per-point d x d
    matrices (operator symbols) or vectors; the pointwise norm is the
    spectral norm or the Euclidean norm accordingly.  The grid starts
    at ``4 * (degree + 1)`` points (at least 64) and is doubled until
    the supremum moves by at most ``SUP_REFINEMENT_TOLERANCE``.
    """

    def point_sups(t: np.ndarray) -> np.ndarray:
        vals = symbol.values(t)
        if vals.ndim == 3:
            return np.linalg.norm(vals, ord=2, axis=(1, 2))
        if vals.ndim == 2:
            return np.linalg.norm(vals, axis=-1)
        return np.abs(vals)

    degree = getattr(symbol, "degree", None) or 0
    return _refined_sup(point_sups, 4 * (degree + 1))


_TRIAL_FAMILIES = ("identity", "dense", "rank_one", "modulation", "diagonal")


def multiplier_lower_bound(
    a: BlockMatrix,
    side: str = "left",
    trials: int = 100,
    seed: int = 0,
) -> NormEstimate:
    """Certified lower bound for the Schur multiplier norm of ``a``.

    Samples trial matrices b and maximizes ``|a * b| / |b|`` (side
    ``left``) or ``|b * a| / |b|`` (side ``right``), where ``*`` is the
    Schur product.  Trials cycle through structured families: the
    identity, dense Gaussian matrices, rank-one matrices, modulation
    masks at random angles, and random block-diagonal matrices.  Each
    trial draws from its own spawned seed, so the result does not
    depend on evaluation order.  The certificate records the family
    and trial index of the best witness; the true multiplier norm is
    at least the returned value and is never claimed exactly.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    seeds = np.random.SeedSequence(seed).spawn(trials)
    best = -1.0
    best_witness = None
    for index in range(trials):
        family = _TRIAL_FAMILIES[index % len(_TRIAL_FAMILIES)]
        rng = np.random.default_rng(seeds[index])
        b = _trial_matrix(family, a.size, a.dim, rng)
        denominator = op_norm(b).value
        if denominator < 1e-14:
            continue
        product = schur_product(a, b) if side == "left" else schur_product(b, a)
        ratio = op_norm(product).value / denominator
        if ratio > best:
            best = ratio
            best_witness = {"family": family, "trial": index, "ratio": ratio}
    return NormEstimate(
        value=best, kind="sampled_lower_bound", certificate=best_witness,
        samples=trials,
    )


def _trial_matrix(family: str, size: int, dim: int, rng) -> BlockMatrix:
    if family == "identity":
        return BlockMatrix.identity(size, dim)
    if family == "dense":
        return random_dense(size, dim, rng)
    if family == "rank_one":
        return rank_one(
            random_vector(size, dim, rng), random_vector(size, dim, rng)
        )
    if family == "modulation":
        angle = float(rng.uniform(-np.pi, np.pi))
        return modulation_mask(angle, size, dim)
    runs = (rng.standard_normal((size, dim, dim))
            + 1j * rng.standard_normal((size, dim, dim))) / np.sqrt(2)
    return BlockMatrix.banded({0: runs}, size)
