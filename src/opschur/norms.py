"""Operator norms, certified estimates, and multiplier lower bounds.

Every estimator returns a :class:`NormEstimate`: the value, the kind
(``exact_svd``, ``lanczos`` or ``shift_invert`` from :func:`op_norm`,
``grid_max`` from :func:`symbol_sup_norm`, ``sampled_lower_bound`` from
the multiplier and coefficient-action bounds) and, where available, a
certificate that witnesses the value.  The finish of a large toeplitz
norm starts at a windowed wave at its symbol's peak, with no Krylov
step.  Multiplier norms are never reported as exact.
:func:`power_iteration` stays public only because the benchmark traces it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .blocks import BlockVector, _integer, _numeric, _result, singular_triples
from .errors import NonConvergenceError, StructureError
from .kernels import _spawned_rngs, modulation_mask, torus_grid
from .matrices import (
    DENSE,
    TOEPLITZ,
    BlockMatrix,
    _gaussian,
    adjoint,
    apply,
    dense_excess,
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
    "op_norm",
    "power_iteration",
    "wiener_norm",
    "symbol_sup_norm",
    "multiplier_lower_bound",
]

EXACT_SVD_LIMIT = 512
POWER_TOLERANCE = 1e-8
POWER_ITERATION_CAP = 10**4

# Lanczos tests its first _HANDOFF_STEPS steps one by one, and an admitted
# banded matrix gets no more before the shift-and-invert finish; an
# admitted toeplitz one skips Lanczos and starts the finish at its
# symbol's peak.  The super-block and solve counts below were measured on
# smooth-symbol toeplitz matrices when they still took the Lanczos hand-off
# (N = 4096, d = 2, half-widths b = 8..21; 2 vCPUs, 1 BLAS thread, best
# of 5): super-blocks of b block rows took 0.22-0.49 s against 0.40-0.90 s
# for 2b rows; 2b was faster only for b <= 4 (0.23 against 0.35 s at
# b = 4), where the 4-row floor applies.  Two, three and four solves per
# factorization were within noise; three are kept.  The finish holds about
# _FINISH_ARRAYS arrays of super-blocks at once: the band of A* A, its
# upper neighbours and the Cholesky factors.
_HANDOFF_STEPS = 32
_SOLVES_PER_FACTORIZATION = 3
_FACTORIZATION_CAP = 32
_FINISH_ARRAYS = 6

# Power iteration, Lanczos and the finish stop once
# |A* A v - theta v| <= this * theta.
_RESIDUAL_TOLERANCE = 0.1 * POWER_TOLERANCE

SUP_REFINEMENT_TOLERANCE = 1e-6
SUP_GRID_CAP = 2**16

# A toeplitz symbol's peak: a coarse grid of _PEAK_POINTS (n + 1) angles,
# then _PEAK_ROUNDS local grids of 2 _PEAK_SPLIT + 1 angles over +-step,
# each round dividing the step by _PEAK_SPLIT.
_PEAK_POINTS = 64
_PEAK_ROUNDS = 4
_PEAK_SPLIT = 32


@dataclass(frozen=True)
class NormEstimate:
    """A norm value together with how it was obtained.

    ``kind`` is ``exact_svd``, ``lanczos`` or ``shift_invert`` (from
    :func:`op_norm`), ``grid_max`` (from :func:`symbol_sup_norm`) or
    ``sampled_lower_bound``.  ``iterations`` counts the Lanczos products
    with ``A* A`` and, for ``shift_invert``, the inverse-iteration
    solves after them (a toeplitz finish started at its symbol's peak
    has no Lanczos products); ``samples`` counts the sampled trials, and
    ``grid_points`` the final torus grid of a ``grid_max``.  A
    ``shift_invert`` estimate went through factorizations of ``s I -
    A* A`` whose completion proved ``|A|^2 < s``; ``value`` is still
    ``|A v|``, a lower bound, and no upper bound is reported.  The
    certificate, when present, is a unit :class:`BlockVector` (or a
    descriptor of a witness matrix) that achieves the value within the
    tolerance of the kind.
    """

    value: float
    kind: str
    certificate: object | None = field(default=None, compare=False)
    iterations: int = 0
    samples: int = 0
    grid_points: int = 0

    def __float__(self) -> float:
        return self.value


def power_iteration(
    m: np.ndarray,
    seed: int = 0,
    max_iter: int = POWER_ITERATION_CAP,
) -> tuple[float, np.ndarray, int]:
    """Top singular value of ``m`` by power iteration on ``m* m``.

    Starts from a seeded random unit vector and stops on the rule that
    Lanczos uses: the Rayleigh residual ``|m* m v - mu v|`` at most
    ``0.1 * POWER_TOLERANCE * mu``, which pins the relative error of the
    returned value well below ``POWER_TOLERANCE``.  ``m`` must be a
    non-empty 2-d array, and ``seed`` and ``max_iter`` integers of at
    least 0 and 1.
    Returns ``(value, right_vector, iterations)``.

    Raises
    ------
    NonConvergenceError
        When the cap is reached first; the error carries the cap.
    """
    m = _numeric(m, "matrix")
    if m.ndim != 2 or m.size == 0:
        raise StructureError(f"power iteration needs a non-empty 2-d matrix, got shape {m.shape}")
    m = np.asarray(m, dtype=complex)
    max_iter = _integer(max_iter, "max_iter", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    v = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    for iteration in range(1, max_iter + 1):
        w = m.conj().T @ (m @ v)
        mu = float(np.real(np.vdot(v, w)))
        if mu <= 0:
            return 0.0, v, iteration
        if np.linalg.norm(w - mu * v) <= _RESIDUAL_TOLERANCE * mu:
            return float(np.linalg.norm(m @ v)), v, iteration
        v = w / np.linalg.norm(w)
    raise NonConvergenceError(max_iter, "power iteration")


def op_norm(a: BlockMatrix) -> NormEstimate:
    """Operator norm of the truncation, with a maximizing certificate.

    Uses the exact decomposition of the flattened matrix when its side
    is at most ``EXACT_SVD_LIMIT``.  Beyond that, Lanczos on ``A* A``
    from a seed-0 start vector (kind ``lanczos``).  A banded or toeplitz
    matrix whose band :func:`_superblock_rows` admits is never
    densified: the band of ``A* A`` is built once, as block-tridiagonal
    super-blocks, and every product with ``A* A`` is three batched
    products with them.  Dense matrices use their flattening, and wider
    bands :func:`apply` on the matrix and its adjoint.  Once the
    residual ``|A* A v - theta v|`` is at most ``0.1 * POWER_TOLERANCE
    * theta`` for ``theta = v* A* A v``, the value is ``|apply(a, v)|``
    for the unit certificate ``v``, whatever the storage: the one
    product with ``A`` itself.

    An admitted banded matrix gets 32 Krylov steps.  If the rule has not
    held by then, the top Ritz vector is finished by inverse iteration on
    ``s I - A* A`` (kind ``shift_invert``), factored as a block-tridiagonal
    Cholesky of the same super-blocks.  A factorization that completes
    proves ``|A|^2 < s``, so the iteration converges to the top singular
    vector; the value and certificate keep the same meaning and rule.
    Dense matrices and wider bands get ``EXACT_SVD_LIMIT`` steps.

    An admitted toeplitz band takes no Krylov step: the finish starts
    from a windowed wave at the peak of its symbol ``a(t) = sum_l T_l
    e^{i l t}`` (see :func:`_peak_witness`), a near-maximizing vector
    since ``|A| <= sup_t |a(t)|``.  A wider toeplitz band takes the
    Lanczos path above.

    Whatever does not converge takes the exact path while its dense
    form fits ``matrices.DENSE_BYTES_LIMIT``.  When ``A* A`` would over-
    or underflow, as its first product shows (or :func:`apply` refuses
    it as an overflow), the estimate is that of
    ``a * 2**-k`` for the power of two nearest the largest block norm,
    an exact scaling, with the value ``|apply(a, v)|`` on ``a`` itself.

    Raises
    ------
    NonConvergenceError
        Before any dense form, when nothing converges and it would not fit.
    """
    if a.flat_size <= EXACT_SVD_LIMIT:
        return _exact_estimate(a)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(a.flat_size) + 1j * rng.standard_normal(a.flat_size)
    start /= np.linalg.norm(start)
    with np.errstate(over="ignore", invalid="ignore"):
        gram, band = _gram_operator(a)
        try:
            reach = np.linalg.norm(first := gram(start))
        except StructureError:  # apply refuses an overflowing product outright
            reach = np.inf
    # A* A over- or underflows: norm a * 2^-k instead, exactly scaled to unit size
    if not 2.0**-900 <= reach <= 2.0**900 and (top := a.max_block_norm()) and (
            k := int(np.clip(np.rint(np.log2(top)), -1022, 1023))):
        estimate = op_norm(a * 2.0**-k)
        return replace(estimate, value=_result("vector norm", lambda: apply(
            a, estimate.certificate).norm()))
    if a.structure == TOEPLITZ and band is not None:  # the finish starts at the symbol's peak
        vector, iterations, converged = _peak_witness(a), 0, False
        cap, method = _FACTORIZATION_CAP, "shift-and-invert"
    else:
        cap, method = EXACT_SVD_LIMIT if band is None else _HANDOFF_STEPS, "lanczos"
        vector, iterations, converged = _lanczos(gram, start, first, cap)
    kind = "lanczos"
    if not converged and band is not None:
        with suppress(NonConvergenceError):  # a failed finish falls back like Lanczos
            vector, iterations = _shift_invert(band, vector, iterations)
            kind, converged = "shift_invert", True
    if not converged:
        if needed := dense_excess(a.size, a.dim):
            raise NonConvergenceError(cap, f"{method}; the exact path needs {needed} bytes")
        return _exact_estimate(a)
    certificate = BlockVector.from_flat(vector, a.dim)
    return NormEstimate(value=apply(a, certificate).norm(), kind=kind,
                        certificate=certificate, iterations=iterations)


def _gram_operator(a: BlockMatrix) -> tuple[Callable, tuple | None]:
    """``x -> A* A x`` on flat vectors, and the band of ``A* A`` when it
    is admitted.

    A dense ``a`` multiplies by its flattening.  A banded or toeplitz
    one goes through the super-blocks of :func:`_gram_superblocks` when
    :func:`_superblock_rows` admits the band (returned as the second
    item), else through :func:`apply` on ``a`` and its adjoint (None).
    """
    if a.structure == DENSE:
        flat = a.flatten()
        return (lambda x: ((flat @ x).conj() @ flat).conj()), None
    rows = _superblock_rows(a)
    if rows is not None:
        band = _gram_superblocks(a, rows)
        return partial(_gram_product, band), band
    a_star = adjoint(a)
    return (lambda x: apply(a_star, apply(a, BlockVector.from_flat(x, a.dim))).flatten()), None


def _lanczos(gram, q: np.ndarray, w: np.ndarray, steps: int) -> tuple[np.ndarray, int, bool]:
    """Top Ritz vector of ``A* A`` by Lanczos.

    ``gram`` applies ``A* A`` to flat vectors, from the unit start vector
    ``q`` and its first product ``w = gram(q)``.  Every
    new Krylov vector is orthogonalized twice against the whole basis;
    in exact arithmetic the Ritz values are the squares of those of
    Golub-Kahan bidiagonalization from the same seeded start vector.
    Stops on the residual ``|A* A v - theta v| = beta_k |e_k^T y|`` of
    the top Ritz pair, with power iteration's rule ``<= 0.1 *
    POWER_TOLERANCE * theta``, or on breakdown (``beta = 0``: the Krylov
    space is invariant).  Returns ``(v, steps taken, whether the rule
    held)`` for the unit top Ritz vector ``v``; after ``steps`` steps
    without convergence, the last one.
    """
    n = len(q)
    # Grown by doubling: numpy advises huge pages for arrays of 4 MiB or
    # more, so a full-size basis costs 2 MiB resident from its first row.
    basis = np.empty((min(steps, 16), n), dtype=complex)
    alphas: list[float] = []
    betas: list[float] = []
    for k in range(steps):
        if k == len(basis):
            grown = np.empty((min(2 * k, steps), n), dtype=complex)
            grown[:k] = basis
            basis = grown
        basis[k] = q
        span = basis[: k + 1]
        alphas.append(float(np.real(np.vdot(q, w))))
        for _ in range(2):
            w = w - (span @ w.conj()).conj() @ span
        beta = float(np.linalg.norm(w))
        # The Ritz pair costs O(k^3); past the first steps, testing every
        # eighth step keeps it from outgrowing the products with A* A.
        last = k == steps - 1
        if beta == 0.0 or k < _HANDOFF_STEPS or k % 8 == 7 or last:
            ritz_values, ritz_vectors = np.linalg.eigh(
                np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            )
            theta, y = ritz_values[-1], ritz_vectors[:, -1]
            converged = beta == 0.0 or beta * abs(y[-1]) <= _RESIDUAL_TOLERANCE * theta
            if converged or last:
                break
        betas.append(beta)
        q = w / beta
        w = gram(q)
    v = y @ span
    return v / np.linalg.norm(v), k + 1, converged


def _superblock_rows(a: BlockMatrix) -> int | None:
    """Block rows per super-block of the band of ``A* A``.

    ``b`` for the half-width ``b = hi - lo`` of ``A* A``, which is what
    makes the band block tridiagonal, at least 4 and at most N.  None
    when the finish's ``_FINISH_ARRAYS`` arrays of super-blocks would
    hold more numbers than the ``min(flat_size, EXACT_SVD_LIMIT)``
    Lanczos vectors it stands in for: such a band is left to Lanczos
    through :func:`apply`.  Each array holds at least ``N * rows * d^2``
    numbers, so an admitted super-block side ``rows * d`` stays below
    ``EXACT_SVD_LIMIT / _FINISH_ARRAYS``.  Decided from the band bounds
    alone; nothing is allocated.
    """
    lo, hi = a.band_bounds()
    rows = min(max(hi - lo, 4), a.size)
    count = -(-a.size // rows)
    held = _FINISH_ARRAYS * count * (rows * a.dim) ** 2
    if held > min(a.flat_size, EXACT_SVD_LIMIT) * a.flat_size:
        return None
    return rows


def _gram_product(band: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """``A* A x`` for a flat ``x`` from the super-blocks ``band = (D, E)``
    of :func:`_gram_superblocks`.

    With ``x`` split into super-block slices ``x_j`` (zero-padded past
    its end), ``y_j = D_j x_j + E_j x_j+1 + E_j-1* x_j-1``: three batched
    products.  The last one is formed as ``(x_j-1* E_j-1)*``, so no
    adjoint of ``E`` is stored.
    """
    diag, upper = band
    count, side = diag.shape[:2]
    padded = np.zeros((count, side), dtype=complex)
    padded.reshape(-1)[: len(x)] = x
    y = (diag @ padded[..., None])[..., 0]
    y[:-1] += (upper @ padded[1:, :, None])[..., 0]
    y[1:] += (padded[:-1, None, :].conj() @ upper)[:, 0].conj()
    return y.reshape(-1)[: len(x)]


def _shift_invert(band: tuple[np.ndarray, np.ndarray], v: np.ndarray,
                  iterations: int) -> tuple[np.ndarray, int]:
    """Finish a Lanczos or symbol-peak start vector by inverse iteration.

    ``band`` holds the super-blocks of ``A* A`` (see
    :func:`_gram_superblocks`).  Each round factors ``s I - A* A`` at
    ``s = theta + max(2 r, 0.1 * POWER_TOLERANCE * theta)``, from the
    Rayleigh quotient ``theta = v* A* A v`` and the residual ``r = |A* A
    v - theta v|``: one :func:`_gram_product` with ``band``.  A
    factorization that fails proves nothing and is retried with four
    times the increment.  A completed one proves ``|A|^2 < s``, so
    solving with it pulls ``v`` toward the top singular vector; up to
    ``_SOLVES_PER_FACTORIZATION`` solves follow, until ``r`` meets the
    Lanczos rule.  At least one factorization completes, even for a
    start ``v`` that already meets the rule, so the returned vector is
    proved to be the top one.  Returns the unit vector and
    ``iterations`` plus the solves.

    Raises
    ------
    NonConvergenceError
        After ``_FACTORIZATION_CAP`` factorizations.
    """

    def measure(v):
        w = _gram_product(band, v)
        theta = float(np.real(np.vdot(v, w)))
        return theta, float(np.linalg.norm(w - theta * v))

    theta, residual = measure(v)
    factorizations = 0
    while not factorizations or residual > _RESIDUAL_TOLERANCE * theta:
        increment = max(2 * residual, _RESIDUAL_TOLERANCE * theta)
        factors = None
        while factors is None:
            if factorizations == _FACTORIZATION_CAP:
                raise NonConvergenceError(_FACTORIZATION_CAP, "shift-and-invert")
            factorizations += 1
            try:
                factors = _block_cholesky(*band, theta + increment)
            except np.linalg.LinAlgError:
                increment *= 4
        for _ in range(_SOLVES_PER_FACTORIZATION):
            v = _block_solve(*factors, v)
            v /= np.linalg.norm(v)
            iterations += 1
            theta, residual = measure(v)
            if residual <= _RESIDUAL_TOLERANCE * theta:
                break
    return v, iterations


def _gram_superblocks(a: BlockMatrix, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Band of ``A* A`` for a banded or toeplitz ``A``, in super-blocks.

    With stored offsets in ``[lo, hi]``, ``A* A`` is block banded with
    half-width ``b = hi - lo``, so ``rows >= b`` block rows per
    super-block make it block tridiagonal.  Returns the Hermitian
    diagonal super-blocks ``D_j`` and the upper neighbours ``E_j``
    (coupling ``j`` to ``j + 1``), each ``rows * d`` square, the rows
    past N padded by zeros.  Slab ``S_j`` holds block columns ``j *
    rows`` to ``(j + 1) * rows - 1`` of ``A`` on the ``rows + b`` block
    rows they touch: ``D_j = S_j* S_j``, and ``E_j`` is the product of
    ``S_j*`` and ``S_j+1`` over the ``b`` block rows the two share.
    """
    lo, hi = a.band_bounds()
    width, n, d = hi - lo, a.size, a.dim
    count = -(-n // rows)
    slabs = np.zeros((count, (rows + width) * rows, d, d), dtype=complex)
    columns = np.zeros((count, rows, d, d), dtype=complex)
    for offset in a.diagonal_support():
        # block (r, c) of a slab lies on diagonal c - r + hi of A
        columns[:] = 0
        columns.reshape(-1, d, d)[max(0, offset):n - max(0, -offset)] = (
            a.diagonal_run(offset))
        start = (hi - offset) * rows
        slabs[:, start:start + rows * (rows + 1):rows + 1] = columns
    slabs = slabs.reshape(count, rows + width, rows, d, d).transpose(0, 1, 3, 2, 4)
    slabs = slabs.reshape(count, (rows + width) * d, rows * d)
    adjoints = slabs.conj().transpose(0, 2, 1)
    return adjoints @ slabs, adjoints[:-1, :, rows * d:] @ slabs[1:, : width * d]


def _block_cholesky(diag: np.ndarray, upper: np.ndarray,
                    shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block Cholesky ``L L*`` of ``shift I - A* A`` from its super-blocks.

    The pivots are ``L_j L_j* = shift I - D_j - X_j-1* X_j-1`` with the
    couplings ``X_j = L_j^-1 E_j``; the subdiagonal factor is ``-X_j*``.
    Returns what :func:`_block_solve` needs: the inverses ``L_j^-1``,
    the forward maps ``L_j+1^-1 X_j*`` and the backward maps
    ``L_j^-* X_j``.  Raises ``np.linalg.LinAlgError`` when a pivot is
    not positive definite; completing proves ``shift I - A* A``
    positive definite up to Cholesky's backward error (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10).
    """
    eye = shift * np.eye(diag.shape[1])
    inverses = np.empty_like(diag)
    couplings = np.empty_like(upper)
    pivot = eye - diag[0]
    for j, coupling in enumerate(upper):
        inverses[j] = np.linalg.inv(np.linalg.cholesky(pivot))
        couplings[j] = inverses[j] @ coupling
        pivot = eye - diag[j + 1] - couplings[j].conj().T @ couplings[j]
    inverses[-1] = np.linalg.inv(np.linalg.cholesky(pivot))
    forward_maps = inverses[1:] @ couplings.conj().transpose(0, 2, 1)
    backward_maps = inverses[:-1].conj().transpose(0, 2, 1) @ couplings
    return inverses, forward_maps, backward_maps


def _block_solve(inverses: np.ndarray, forward_maps: np.ndarray,
                 backward_maps: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L* x = rhs`` with the factors of :func:`_block_cholesky`.

    Forward, ``y_j+1 = L_j+1^-1 rhs_j+1 + L_j+1^-1 X_j* y_j``; backward,
    ``x_j = L_j^-* y_j + L_j^-* X_j x_j+1``: one small matvec per step.
    The rows past ``len(rhs)`` are the zero padding of the super-blocks.
    """
    count, side = inverses.shape[:2]
    padded = np.zeros(count * side, dtype=complex)
    padded[: len(rhs)] = rhs
    y = (inverses @ padded.reshape(count, side, 1))[..., 0]
    for j, step in enumerate(forward_maps):
        y[j + 1] += step @ y[j]
    # x_j = L_j^-* y_j = (y_j* L_j^-1)*, without conjugating the inverses
    x = (y.conj()[:, None, :] @ inverses)[:, 0].conj()
    for j in range(len(backward_maps) - 1, -1, -1):
        x[j] += backward_maps[j] @ x[j + 1]
    return x.reshape(-1)[: len(rhs)]


def _exact_estimate(a: BlockMatrix) -> NormEstimate:
    _, s, vh = singular_triples(a.flatten())
    certificate = BlockVector.from_flat(vh[0].conj(), a.dim)
    return NormEstimate(value=float(s[0]), kind="exact_svd", certificate=certificate)


def _peak_witness(a: BlockMatrix) -> np.ndarray:
    """Unit flat start vector for the finish of a toeplitz ``A``.

    ``A`` holds ``T_l`` on diagonal ``l``, so for ``x_j = w_j e^{i j t} u``
    with a slowly varying window ``w`` it gives ``(A x)_k ~ e^{i k t}
    a(t) u w_k``.  The window is ``w_j = sin(pi (j + 1) / (N + 1))``,
    ``t`` the peak of ``|a(t)|`` and ``u`` the top right singular vector
    of ``a(t)``.  The peak is the best of ``_PEAK_POINTS (n + 1)``
    uniform angles, for ``n`` half the stored band width, refined by
    ``_PEAK_ROUNDS`` local grids.  Only an admitted band comes here, and
    admission keeps ``d (hi - lo)`` below ``EXACT_SVD_LIMIT /
    _FINISH_ARRAYS``, so every grid is small.
    """
    offsets = np.array(a.diagonal_support())
    coeffs = np.stack([a.diagonal_run(l)[0] for l in offsets])
    points = _PEAK_POINTS * ((offsets[-1] - offsets[0] + 1) // 2 + 1)
    step = 2 * np.pi / points
    angles = step * np.arange(points)
    for _ in range(_PEAK_ROUNDS + 1):
        values = np.tensordot(np.exp(np.multiply.outer(1j * angles, offsets)), coeffs, axes=1)
        q = int(np.argmax(np.linalg.norm(values, ord=2, axis=(1, 2))))
        angle, peak = angles[q], values[q]
        angles = angle + step * np.linspace(-1, 1, 2 * _PEAK_SPLIT + 1)
        step /= _PEAK_SPLIT
    top = np.linalg.svd(peak)[2][0].conj()
    rows = np.arange(a.size)
    parts = np.outer(np.sin(np.pi * (rows + 1) / (a.size + 1)) * np.exp(1j * angle * rows), top)
    return parts.reshape(-1) / np.linalg.norm(parts)


def wiener_norm(a: BlockMatrix) -> float:
    """Sum over diagonals of the largest block norm on each diagonal.

    Dominates the operator norm of every truncation.
    """
    total = 0.0
    for norm in a.diagonal_norms():  # not sum(): from Python 3.12 it compensates
        total += norm
    return total


def symbol_sup_norm(symbol) -> NormEstimate:
    """Supremum of ``|symbol(t)|`` over the torus, on a finite grid.

    ``symbol`` is a scalar symbol, vector polynomial or operator symbol;
    the pointwise norm is the modulus, the Euclidean norm or the
    spectral norm accordingly.  The grid starts at ``4 * (degree + 1)``
    points (at least 64; degree None, unbounded support, counts as 0)
    and is doubled until the supremum moves by at most
    ``SUP_REFINEMENT_TOLERANCE`` or the grid reaches ``SUP_GRID_CAP``.
    The even points of a doubled grid are the old grid, bit for bit, so
    each doubling evaluates only the new midpoints and keeps the larger
    maximum: every grid point is evaluated once, and the value is the
    maximum over the whole final grid.  The result has kind ``grid_max``
    and the final ``grid_points``.
    """

    def point_sups(t: np.ndarray) -> np.ndarray:
        vals = symbol.values(t)
        if vals.ndim == 3:
            return np.linalg.norm(vals, ord=2, axis=(1, 2))
        if vals.ndim == 2:
            return np.linalg.norm(vals, axis=-1)
        return np.abs(vals)

    points = max(64, 4 * ((symbol.degree or 0) + 1))
    value, previous = float(np.max(point_sups(torus_grid(points)))), np.inf
    while True:
        if abs(value - previous) <= SUP_REFINEMENT_TOLERANCE or points >= SUP_GRID_CAP:
            return NormEstimate(value=value, kind="grid_max", grid_points=points)
        previous = value
        points *= 2
        value = float(np.maximum(value, np.max(point_sups(torus_grid(points)[1::2]))))


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
    ``trials`` must be an integer of at least 1.
    """
    if side not in ("left", "right"):
        raise StructureError(f"side must be 'left' or 'right', got {side!r}")
    rngs = _spawned_rngs(seed, trials)

    def ratios():
        for index, rng in enumerate(rngs):
            family = _TRIAL_FAMILIES[index % len(_TRIAL_FAMILIES)]
            b = _trial_matrix(family, a.size, a.dim, rng)
            pair = (a, b) if side == "left" else (b, a)
            yield (family, index, op_norm(b).value,
                   lambda: op_norm(schur_product(*pair)).value)

    return _sampled_lower_bound(ratios())


def _sampled_lower_bound(ratios) -> NormEstimate:
    """Largest ``numerator() / denominator`` over the sampled trials.

    ``ratios`` yields ``(family, trial, denominator, numerator)`` with
    ``numerator`` a callable, called only for a denominator of at least
    ``1e-14`` and before the next trial is drawn (so it may close over
    the generator's loop variables); smaller ones are skipped, and the
    value is ``-1.0`` when every trial is.  Every yielded trial counts as a sample.  The
    certificate is the ``{family, trial, ratio}`` of the first trial
    that reaches the maximum.
    """
    best, witness, samples = -1.0, None, 0
    for family, trial, denominator, numerator in ratios:
        samples += 1
        if denominator < 1e-14:
            continue
        ratio = numerator() / denominator
        if ratio > best:
            best, witness = ratio, {"family": family, "trial": trial, "ratio": ratio}
    return NormEstimate(value=best, kind="sampled_lower_bound", certificate=witness,
                        samples=samples)


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
    return BlockMatrix.banded({0: _gaussian(rng, (size, dim, dim))}, size)
