import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur import matrices, norms
from opschur.analysis import OperatorSymbol, VectorPolynomial
from opschur.blocks import BlockVector, singular_values
from opschur.errors import NonConvergenceError, StructureError
from opschur.kernels import ScalarSymbol, mask, torus_grid
from opschur.matrices import (
    BlockMatrix,
    apply,
    random_dense,
    random_toeplitz,
    schur_product,
    truncate,
)
from opschur.norms import (
    EXACT_SVD_LIMIT,
    POWER_TOLERANCE,
    NormEstimate,
    multiplier_lower_bound,
    op_norm,
    power_iteration,
    symbol_sup_norm,
    wiener_norm,
)

from oracles import flatten_reference, gaussian, spectral_norm

seeds = st.integers(min_value=0, max_value=10**6)


class TestOpNorm:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dense(7, 2, rng)
        estimate = op_norm(a)
        assert estimate.kind == "exact_svd"
        assert float(estimate) == pytest.approx(spectral_norm(a.flatten()),
                                                abs=1e-12)

    def test_certificate_attains_value(self):
        rng = np.random.default_rng(0)
        a = random_dense(8, 2, rng)
        estimate = op_norm(a)
        witness = estimate.certificate
        assert isinstance(witness, BlockVector)
        assert witness.norm() == pytest.approx(1.0, abs=1e-12)
        assert apply(a, witness).norm() == pytest.approx(estimate.value,
                                                         abs=1e-10)

    def test_large_instance_uses_lanczos(self):
        rng = np.random.default_rng(1)
        a = random_dense(280, 2, rng)
        assert a.flat_size > EXACT_SVD_LIMIT
        estimate = op_norm(a)
        assert estimate.kind == "lanczos"
        oracle = spectral_norm(a.flatten())
        assert abs(estimate.value - oracle) <= 1e-8 * oracle
        witnessed = apply(a, estimate.certificate).norm()
        assert witnessed == estimate.value

    def test_float_conversion(self):
        estimate = op_norm(BlockMatrix.identity(3, 2))
        assert float(estimate) == pytest.approx(1.0, abs=1e-12)

    def test_certificate_ignored_in_equality(self):
        x = NormEstimate(1.0, "exact_svd", certificate="a")
        y = NormEstimate(1.0, "exact_svd", certificate="b")
        assert x == y


def _unitary(rng, d):
    q, r = np.linalg.qr(gaussian(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLanczos:
    def test_structured_matrices_are_never_densified(self, monkeypatch):
        size = 2**14
        rng = np.random.default_rng(12)
        run = gaussian(rng, (size, 2, 2))
        block_diagonal = BlockMatrix.banded({0: run}, size)
        exact = float(np.max(np.linalg.norm(run, ord=2, axis=(1, 2))))
        # one component scaled by 3, the other shifted: the norm is 3
        toeplitz = BlockMatrix.toeplitz(
            {0: np.diag([3.0, 0.0]), 1: np.diag([0.0, 1.0])}, size
        )

        def refuse(self):
            raise AssertionError("structured matrix densified")

        monkeypatch.setattr(BlockMatrix, "blocks", refuse)
        monkeypatch.setattr(BlockMatrix, "flatten", refuse)
        estimate = op_norm(block_diagonal)
        assert estimate.kind == "lanczos"
        assert abs(estimate.value - exact) <= 1e-8 * exact
        assert apply(block_diagonal, estimate.certificate).norm() == estimate.value
        # the symbol diag(3, e^{it}) peaks at every angle: the wave at its
        # peak is a top singular vector, proved by one factorization
        estimate = op_norm(toeplitz)
        assert estimate.kind == "shift_invert"
        assert estimate.iterations == 1
        assert estimate.value == pytest.approx(3.0, rel=1e-8)
        assert apply(toeplitz, estimate.certificate).norm() == estimate.value

    def test_clustered_top_pair(self, monkeypatch):
        # a smooth toeplitz symbol: the top singular values of its
        # truncation crowd together, where power iteration stalls
        rng = np.random.default_rng(13)
        block = _unitary(rng, 2) @ np.diag([1.0, 0.7]) @ _unitary(rng, 2)
        angle = float(rng.uniform(-np.pi, np.pi))
        a = BlockMatrix.toeplitz(
            {l: 0.3 ** abs(l) * np.exp(1j * l * angle) * block for l in range(-2, 3)},
            260,
        )
        singular = np.linalg.svd(flatten_reference(a.blocks()), compute_uv=False)
        assert 1e-4 < (singular[0] - singular[1]) / singular[0] < 1e-3
        monkeypatch.setattr(norms, "_lanczos", _refuse("Lanczos run"))
        # the finish starts at the symbol's peak, not from Lanczos
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        assert abs(estimate.value - singular[0]) <= 1e-8 * singular[0]
        _prove_upper_side(a, estimate.value)

    def test_breakdown_on_identity(self):
        # toeplitz storage starts the finish at its symbol's peak
        estimate = op_norm(BlockMatrix.identity(300, 2))
        assert estimate.kind == "shift_invert"
        assert estimate.value == pytest.approx(1.0, rel=1e-12)
        assert estimate.iterations == 1
        # banded storage takes Lanczos, which breaks down at once
        a = BlockMatrix.banded({0: np.broadcast_to(np.eye(2), (300, 2, 2))}, 300)
        estimate = op_norm(a)
        assert estimate.kind == "lanczos"
        assert estimate.value == pytest.approx(1.0, rel=1e-12)
        assert estimate.iterations == 1

    def test_zero_matrix(self):
        estimate = op_norm(BlockMatrix.banded({0: np.zeros((300, 2, 2))}, 300))
        assert estimate.kind == "lanczos"
        assert estimate.value == 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200])
    @pytest.mark.parametrize("structure", ["banded", "dense", "toeplitz"])
    def test_entries_out_of_square_range(self, structure, scale):
        # A* A over- or underflows: the norm comes from a * 2^-k
        if structure == "banded":
            a = BlockMatrix.banded({0: np.full((600, 1, 1), scale),
                                    1: np.full((599, 1, 1), scale)}, 600)
        elif structure == "toeplitz":
            a = BlockMatrix.toeplitz({0: np.full((1, 1), scale),
                                      1: np.full((1, 1), scale)}, 600)
        else:
            a = BlockMatrix.dense(np.full((300, 300, 2, 2), scale))
        estimate = op_norm(a)
        assert estimate.value == apply(a, estimate.certificate).norm()
        exact = singular_values(a.flatten())[0]
        assert estimate.value == pytest.approx(exact, rel=POWER_TOLERANCE)

    def test_wide_band_out_of_square_range(self):
        # too wide for the super-blocks: the first Gram product is apply, which
        # refuses the overflow, and the norm comes from a * 2^-k as above
        a = BlockMatrix.banded(
            {l: np.full((600 - abs(l), 1, 1), 1e200) for l in range(-100, 101)}, 600)
        estimate = op_norm(a)
        assert estimate.value == apply(a, estimate.certificate).norm()
        exact = 1e200 * singular_values((a * 1e-200).flatten())[0]
        assert estimate.value == pytest.approx(exact, rel=POWER_TOLERANCE)

    def test_cap_falls_back_to_exact_on_feasible_sizes(self, monkeypatch):
        monkeypatch.setattr(norms, "EXACT_SVD_LIMIT", 4)
        a = random_dense(10, 2, np.random.default_rng(14))
        estimate = op_norm(a)
        assert estimate.kind == "exact_svd"
        assert float(estimate) == pytest.approx(spectral_norm(a.flatten()), rel=1e-12)

    def test_cap_raises_above_the_dense_limit(self, monkeypatch):
        monkeypatch.setattr(norms, "EXACT_SVD_LIMIT", 4)
        # the 40 x 40 dense form holds 16 * 40**2 bytes, one over the limit
        monkeypatch.setattr(matrices, "DENSE_BYTES_LIMIT", 16 * 40**2 - 1)
        a = random_dense(20, 2, np.random.default_rng(15))
        with pytest.raises(NonConvergenceError) as err:
            op_norm(a)
        assert err.value.iteration_cap == 4
        assert "needs 25600 bytes" in str(err.value)


def _smooth_toeplitz(size):
    # smooth symbol: past N ~ 500 plain Lanczos needed hundreds of steps
    return random_toeplitz(size, 2, np.random.default_rng(1), range(-2, 3), decay=0.5)


def _refuse(what):
    def refuse(*args):
        raise AssertionError(what)

    return refuse


def _prove_upper_side(a, value):
    # completing the factorization of c I - A* A proves |A|^2 < c
    band = norms._gram_superblocks(a, norms._superblock_rows(a))
    norms._block_cholesky(*band, (value * (1 + POWER_TOLERANCE)) ** 2)


class TestShiftInvert:
    def test_factorization_certifies_the_norm(self):
        # the clustered toeplitz of test_clustered_top_pair; offsets -2..2
        # give A* A half-width 4, so super-blocks of 8 block rows
        rng = np.random.default_rng(13)
        block = _unitary(rng, 2) @ np.diag([1.0, 0.7]) @ _unitary(rng, 2)
        angle = float(rng.uniform(-np.pi, np.pi))
        a = BlockMatrix.toeplitz(
            {l: 0.3 ** abs(l) * np.exp(1j * l * angle) * block for l in range(-2, 3)},
            260,
        )
        flat = flatten_reference(a.blocks())
        sigma = np.linalg.svd(flat, compute_uv=False)[0]
        diag, upper = norms._gram_superblocks(a, 8)
        norms._block_cholesky(diag, upper, (sigma * (1 + 1e-8)) ** 2)
        with pytest.raises(np.linalg.LinAlgError):
            norms._block_cholesky(diag, upper, (sigma * (1 - 1e-8)) ** 2)
        shift = (1.1 * sigma) ** 2
        rhs = gaussian(np.random.default_rng(16), (flat.shape[0],))
        x = norms._block_solve(*norms._block_cholesky(diag, upper, shift), rhs)
        residual = shift * x - flat.conj().T @ (flat @ x) - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    def test_smooth_symbol_is_certified(self):
        a = _smooth_toeplitz(500)
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        assert estimate.iterations < 100
        witnessed = apply(a, estimate.certificate).norm()
        assert witnessed == estimate.value
        # |A| <= value (1 + 1e-8) holds iff this matrix is positive definite
        flat = a.flatten()
        bound = (estimate.value * (1 + 1e-8)) ** 2
        np.linalg.cholesky(bound * np.eye(len(flat)) - flat.conj().T @ flat)

    def test_band_of_thirty_is_certified(self):
        # offsets -15..15 (b = 30): Lanczos alone needs 376 steps here
        a = random_toeplitz(600, 2, np.random.default_rng(1), range(-15, 16), decay=0.5)
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        witnessed = apply(a, estimate.certificate).norm()
        assert witnessed == estimate.value
        flat = a.flatten()
        bound = (estimate.value * (1 + 1e-8)) ** 2
        np.linalg.cholesky(bound * np.eye(len(flat)) - flat.conj().T @ flat)

    def test_lanczos_and_finish_never_call_apply(self, monkeypatch):
        # banded storage of the smooth symbol: apply runs once, for |A v|
        smooth = _smooth_toeplitz(500)
        a = BlockMatrix.banded(
            {l: smooth.diagonal_run(l) for l in smooth.diagonal_support()}, 500)
        calls = []

        def counted(*args):
            calls.append(args)
            return apply(*args)

        monkeypatch.setattr(norms, "apply", counted)
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        assert estimate.iterations > norms._HANDOFF_STEPS
        assert len(calls) == 1

    @pytest.mark.parametrize("width, rows", [(42, 42), (43, None)])
    def test_band_limit_at_4096(self, width, rows):
        # offsets 0 and width: two stored blocks span a band of that width
        a = BlockMatrix.toeplitz({0: np.eye(2), width: np.eye(2)}, 4096)
        tracemalloc.start()
        try:
            got = norms._superblock_rows(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == rows
        assert peak < 10_000

    def test_finish_never_densifies(self, monkeypatch):
        a = _smooth_toeplitz(2**12)

        def refuse(self):
            raise AssertionError("structured matrix densified")

        monkeypatch.setattr(BlockMatrix, "blocks", refuse)
        monkeypatch.setattr(BlockMatrix, "flatten", refuse)
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        witnessed = apply(a, estimate.certificate).norm()
        assert witnessed == estimate.value
        assert estimate.value <= wiener_norm(a)

    def test_band_of_forty_two_at_4096(self, monkeypatch):
        # offsets 0..42, the widest band admitted at N = 4096: the finish
        # starts at the symbol's peak and needs no Lanczos
        a = random_toeplitz(4096, 2, np.random.default_rng(1), range(0, 43), decay=0.5)
        monkeypatch.setattr(norms, "_lanczos", _refuse("Lanczos run"))
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        assert estimate.iterations <= 8
        assert apply(a, estimate.certificate).norm() == estimate.value
        _prove_upper_side(a, estimate.value)

    def test_large_smooth_symbol_needs_no_lanczos(self, monkeypatch):
        # offsets -2..2 at N = 2^16: clustered top singular values, yet the
        # wave at the symbol's peak is close enough for one solve
        a = _smooth_toeplitz(2**16)
        monkeypatch.setattr(norms, "_lanczos", _refuse("Lanczos run"))
        estimate = op_norm(a)
        assert estimate.kind == "shift_invert"
        assert estimate.iterations <= 8
        assert apply(a, estimate.certificate).norm() == estimate.value
        _prove_upper_side(a, estimate.value)

    def test_peak_witness_is_near_the_norm(self):
        a = _smooth_toeplitz(400)
        witness = BlockVector.from_flat(norms._peak_witness(a), 2)
        assert witness.norm() == pytest.approx(1.0, abs=1e-12)
        oracle = spectral_norm(a.flatten())
        assert oracle * (1 - 1e-4) <= apply(a, witness).norm() <= oracle * (1 + 1e-12)

    def test_converged_start_is_still_proved(self, monkeypatch):
        # a start that already meets the residual rule is factored once
        a = BlockMatrix.banded({0: np.broadcast_to(np.diag([2.0, 1.0]), (300, 2, 2))}, 300)
        factor = norms._block_cholesky
        shifts = []

        def counted(diag, upper, shift):
            shifts.append(shift)
            return factor(diag, upper, shift)

        monkeypatch.setattr(norms, "_block_cholesky", counted)
        start = np.zeros(a.flat_size, dtype=complex)
        start[0] = 1.0
        band = norms._gram_superblocks(a, norms._superblock_rows(a))
        vector, iterations = norms._shift_invert(band, start, 0)
        assert len(shifts) == 1
        assert shifts[0] > 4.0
        assert iterations == 1
        value = apply(a, BlockVector.from_flat(vector, 2)).norm()
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_failed_factorization_retries_a_larger_shift(self, monkeypatch):
        # a random start lies far below the top: the first shift fails
        a = _smooth_toeplitz(150)
        factor = norms._block_cholesky
        failures = []

        def watched(diag, upper, shift):
            try:
                return factor(diag, upper, shift)
            except np.linalg.LinAlgError:
                failures.append(shift)
                raise

        monkeypatch.setattr(norms, "_block_cholesky", watched)
        start = gaussian(np.random.default_rng(5), (a.flat_size,))
        start /= np.linalg.norm(start)
        band = norms._gram_superblocks(a, norms._superblock_rows(a))
        vector, _ = norms._shift_invert(band, start, 0)
        assert failures
        value = apply(a, BlockVector.from_flat(vector, 2)).norm()
        oracle = spectral_norm(a.flatten())
        assert abs(value - oracle) <= 1e-8 * oracle
        # a cap that the failed shifts use up ends the finish
        cap = len(failures)
        monkeypatch.setattr(norms, "_FACTORIZATION_CAP", cap)
        with pytest.raises(NonConvergenceError) as err:
            norms._shift_invert(band, start, 0)
        assert err.value.iteration_cap == cap

    def test_band_wider_than_the_matrix(self):
        # offsets -299..199 on N = 300: A* A is full, one super-block
        a = random_toeplitz(
            300, 2, np.random.default_rng(1), range(-299, 200), decay=0.99
        )
        flat = a.flatten()
        gram = flat.conj().T @ flat
        diag, upper = norms._gram_superblocks(a, 300)
        assert upper.shape == (0, 600, 600)
        assert np.linalg.norm(diag[0] - gram) <= 1e-12 * np.linalg.norm(gram)

    def test_wide_band_is_left_to_lanczos(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("super-blocks allocated")

        monkeypatch.setattr(norms, "_gram_superblocks", refuse)
        # offsets -60..60: super-blocks of 240 block rows would hold more
        # than the Lanczos basis; Lanczos needs more than the 32 handoff steps
        a = random_toeplitz(300, 2, np.random.default_rng(1), range(-60, 61), decay=0.9)
        assert norms._superblock_rows(a) is None
        estimate = op_norm(a)
        assert estimate.kind == "lanczos"
        assert estimate.iterations > norms._HANDOFF_STEPS
        assert apply(a, estimate.certificate).norm() == estimate.value
        oracle = spectral_norm(a.flatten())
        assert abs(estimate.value - oracle) <= 1e-8 * oracle

    def test_band_too_wide_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(norms, "EXACT_SVD_LIMIT", 4)
        # the 400-side dense form is over the limit: no exact fallback either
        monkeypatch.setattr(matrices, "DENSE_BYTES_LIMIT", 16 * 400**2 - 1)

        def refuse(*args):
            raise AssertionError("super-blocks allocated")

        monkeypatch.setattr(norms, "_gram_superblocks", refuse)
        # offsets -10..10: super-blocks of 40 block rows outweigh 4 Lanczos vectors
        a = random_toeplitz(200, 2, np.random.default_rng(1), range(-10, 11), decay=0.7)
        with pytest.raises(NonConvergenceError):
            op_norm(a)

    def test_failed_finish_falls_back_to_exact(self, monkeypatch):
        monkeypatch.setattr(norms, "_FACTORIZATION_CAP", 0)
        a = _smooth_toeplitz(300)
        estimate = op_norm(a)
        assert estimate.kind == "exact_svd"
        oracle = spectral_norm(a.flatten())
        assert abs(estimate.value - oracle) <= 1e-12 * oracle
        # a dense form over matrices.DENSE_BYTES_LIMIT leaves nothing to fall back on
        with pytest.raises(NonConvergenceError):
            op_norm(_smooth_toeplitz(2100))

    def test_failed_finish_over_the_dense_limit_raises(self, monkeypatch):
        # the 600 x 600 dense form holds 5,760,000 bytes, one over the limit
        monkeypatch.setattr(matrices, "DENSE_BYTES_LIMIT", 16 * 600**2 - 1)
        monkeypatch.setattr(norms, "_FACTORIZATION_CAP", 0)

        def refuse(a):
            raise AssertionError("exact path taken")

        monkeypatch.setattr(norms, "_exact_estimate", refuse)
        monkeypatch.setattr(BlockMatrix, "blocks", refuse)
        with pytest.raises(NonConvergenceError) as err:
            op_norm(_smooth_toeplitz(300))
        assert "needs 5760000 bytes" in str(err.value)


class TestPowerIteration:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_relative_accuracy(self, seed):
        rng = np.random.default_rng(seed)
        m = gaussian(rng, (24, 24))
        value, vector, iterations = power_iteration(m, seed=seed + 1)
        oracle = spectral_norm(m)
        assert abs(value - oracle) <= 1e-8 * oracle
        assert iterations >= 1

    def test_near_degenerate_top_pair(self):
        # gap-free spectra are the hard case for naive stopping rules
        m = np.diag([1.0, 1.0 - 1e-9, 0.5]).astype(complex)
        value, _, _ = power_iteration(m, seed=2)
        assert abs(value - 1.0) <= 1e-8

    def test_returned_vector_achieves_value(self):
        rng = np.random.default_rng(3)
        m = gaussian(rng, (16, 16))
        value, vector, _ = power_iteration(m, seed=4)
        assert np.linalg.norm(m @ vector) == pytest.approx(value, rel=1e-10)
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap(self):
        rng = np.random.default_rng(5)
        m = gaussian(rng, (30, 30))
        with pytest.raises(NonConvergenceError) as err:
            power_iteration(m, seed=6, max_iter=1)
        assert err.value.iteration_cap == 1

    def test_zero_matrix(self):
        value, _, _ = power_iteration(np.zeros((4, 4), dtype=complex))
        assert value == 0.0

    @pytest.mark.parametrize(
        "option, message",
        [({"max_iter": 2.5}, "max_iter 2.5 is not an integer"),
         ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
         ({"seed": -1}, "seed must be at least 0, got -1")],
        ids=["float-cap", "zero-cap", "negative-seed"],
    )
    def test_bad_counts_are_refused(self, option, message):
        with pytest.raises(StructureError, match=f"^{message}$"):
            power_iteration(np.eye(3, dtype=complex), **option)


class TestWienerNorm:
    def test_scalar_mask_sums_coefficients(self):
        assert wiener_norm(mask(ScalarSymbol.fejer(2), 8, 2)) == pytest.approx(3.0)

    def test_single_diagonal(self):
        a = BlockMatrix.toeplitz({1: np.diag([2.0, 5.0])}, 4)
        assert wiener_norm(a) == pytest.approx(5.0)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_dominates_operator_norm(self, seed):
        rng = np.random.default_rng(seed)
        a = random_toeplitz(8, 2, rng, range(-2, 3), decay=0.7)
        assert wiener_norm(a) >= float(op_norm(a)) - 1e-9

    def test_toeplitz_norms_one_block_per_diagonal(self):
        # the stored block, not its N - |l| broadcast copies
        a = random_toeplitz(2**20, 2, np.random.default_rng(3), range(-2, 3))
        tracemalloc.start()
        try:
            value = wiener_norm(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert value == wiener_norm(truncate(a, 3))


class TestSymbolSupNorm:
    def test_scalar_trig_polynomial(self):
        s = ScalarSymbol.trig_polynomial({0: 1.0, 1: 1.0})
        # |1 + e^{it}| peaks at 2 when t = 0
        result = symbol_sup_norm(s)
        assert float(result) == pytest.approx(2.0, abs=1e-9)

    def test_poisson_peak(self):
        s = ScalarSymbol.poisson(0.5)
        assert float(symbol_sup_norm(s)) == pytest.approx(3.0, abs=1e-6)

    def test_reports_a_grid_max_estimate(self):
        result = symbol_sup_norm(ScalarSymbol.fejer(3))
        assert isinstance(result, NormEstimate)
        assert result.kind == "grid_max"
        assert result.grid_points >= 64
        assert result.value == pytest.approx(1.0 + 2 * (0.75 + 0.5 + 0.25))


def _shifted_dirichlet(part):
    """``D_4(t - 1/3)`` times ``part``: its peak lies off every torus grid,
    so the sup search doubles its 64-point grid twice, to 256 points."""
    return {l: np.exp(-1j * l / 3) * part for l in range(-4, 5)}


SUP_SYMBOLS = {
    "scalar": lambda: ScalarSymbol.trig_polynomial(_shifted_dirichlet(1.0)),
    "vector": lambda: VectorPolynomial(_shifted_dirichlet(np.array([1.0, 2j]))),
    "operator": lambda: OperatorSymbol(_shifted_dirichlet(np.array([[1.0, 2j], [0, 0.5]]))),
    "poisson": lambda: ScalarSymbol.poisson(0.9),
}


class _CountingSymbol:
    """A symbol that counts the angles passed to its ``values``."""

    def __init__(self, symbol):
        self.symbol, self.degree, self.angles = symbol, symbol.degree, 0

    def values(self, t):
        self.angles += len(t)
        return self.symbol.values(t)


class TestSymbolSupNormGrid:
    @pytest.mark.parametrize("kind", SUP_SYMBOLS)
    def test_evaluates_each_grid_point_once(self, kind):
        symbol = _CountingSymbol(SUP_SYMBOLS[kind]())
        result = symbol_sup_norm(symbol)
        assert result.grid_points > 64
        assert symbol.angles == result.grid_points

    @pytest.mark.parametrize("kind", SUP_SYMBOLS)
    def test_value_is_the_max_over_the_final_grid(self, kind):
        symbol = SUP_SYMBOLS[kind]()
        result = symbol_sup_norm(symbol)
        vals = symbol.values(torus_grid(result.grid_points))
        pointwise = (np.linalg.norm(vals, ord=2, axis=(1, 2)) if vals.ndim == 3
                     else np.linalg.norm(vals, axis=-1) if vals.ndim == 2
                     else np.abs(vals))
        assert result.value == np.max(pointwise)

    def test_nan_among_new_midpoints_propagates(self):
        # no grid below 256 points has an angle past 3.1, so the NaN first
        # appears among a doubling's midpoints, where Python's max would drop it
        symbol = ScalarSymbol.trig_polynomial(_shifted_dirichlet(1.0))
        counting = _CountingSymbol(symbol)
        counting.values = lambda t: np.where(t > 3.1, np.nan, symbol.values(t))
        assert np.isnan(symbol_sup_norm(counting).value)


class TestMultiplierLowerBound:
    def _smoothed_block(self, rng, size=16):
        block = gaussian(rng, (2, 2))
        weights = ScalarSymbol.fejer(2)
        coeffs = {l: weights.coeff(l) * block for l in weights.support()}
        return BlockMatrix.toeplitz(coeffs, size), np.linalg.norm(block, 2)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_needs_at_least_one_trial(self, trials):
        with pytest.raises(StructureError, match=f"trials must be at least 1, got {trials}"):
            multiplier_lower_bound(BlockMatrix.identity(4, 2), trials=trials)

    def test_attains_block_norm_for_smoothed_block(self):
        rng = np.random.default_rng(9)
        a, block_norm = self._smoothed_block(rng)
        for side in ("left", "right"):
            estimate = multiplier_lower_bound(a, side=side, trials=30, seed=0)
            assert estimate.kind == "sampled_lower_bound"
            assert float(estimate) == pytest.approx(block_norm, abs=1e-9)

    def test_is_a_lower_bound_on_observed_ratios(self):
        rng = np.random.default_rng(10)
        a, _ = self._smoothed_block(rng)
        estimate = multiplier_lower_bound(a, side="left", trials=20, seed=1)
        b = random_dense(a.size, a.dim, rng)
        ratio = float(op_norm(schur_product(a, b))) / float(op_norm(b))
        assert ratio <= float(estimate) + 1e-9

    def test_certificate_names_trial(self):
        rng = np.random.default_rng(11)
        a, _ = self._smoothed_block(rng, size=8)
        estimate = multiplier_lower_bound(a, side="left", trials=10, seed=2)
        assert set(estimate.certificate) == {"family", "trial", "ratio"}
        assert estimate.certificate["ratio"] == pytest.approx(estimate.value)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            multiplier_lower_bound(BlockMatrix.identity(4, 2), side="middle")

    def test_negative_seed_is_refused(self):
        with pytest.raises(StructureError, match="^seed must be at least 0, got -1$"):
            multiplier_lower_bound(BlockMatrix.identity(4, 2), seed=-1)


class TestSampledLowerBound:
    def _never(self):
        raise AssertionError("numerator of a skipped trial")

    def test_first_trial_at_the_maximum_is_the_witness(self):
        estimate = norms._sampled_lower_bound([
            ("a", 0, 2.0, lambda: 1.0),
            ("b", 1, 1e-15, self._never),
            ("c", 2, 1.0, lambda: 3.0),
            ("d", 3, 2.0, lambda: 6.0),
        ])
        assert (estimate.value, estimate.kind, estimate.samples) == (
            3.0, "sampled_lower_bound", 4)
        assert estimate.certificate == {"family": "c", "trial": 2, "ratio": 3.0}

    def test_no_counted_trial_reports_minus_one(self):
        estimate = norms._sampled_lower_bound([("a", 0, 0.0, self._never)])
        assert (estimate.value, estimate.certificate, estimate.samples) == (-1.0, None, 1)
