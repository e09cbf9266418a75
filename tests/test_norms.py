import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur import norms
from opschur.blocks import BlockVector
from opschur.errors import NonConvergenceError
from opschur.kernels import ScalarSymbol, mask
from opschur.matrices import (
    BlockMatrix,
    apply,
    random_dense,
    random_toeplitz,
    schur_product,
)
from opschur.norms import (
    EXACT_SVD_LIMIT,
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
        assert abs(witnessed - estimate.value) <= 1e-10 * estimate.value

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
        estimate = op_norm(toeplitz)
        assert estimate.kind == "lanczos"
        assert estimate.value == pytest.approx(3.0, rel=1e-8)

    def test_clustered_top_pair(self):
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
        estimate = op_norm(a)
        assert estimate.kind == "lanczos"
        assert abs(estimate.value - singular[0]) <= 1e-8 * singular[0]

    def test_breakdown_on_identity(self):
        estimate = op_norm(BlockMatrix.identity(300, 2))
        assert estimate.kind == "lanczos"
        assert estimate.value == pytest.approx(1.0, rel=1e-12)
        assert estimate.iterations == 1

    def test_zero_matrix(self):
        estimate = op_norm(BlockMatrix.banded({0: np.zeros((300, 2, 2))}, 300))
        assert estimate.kind == "lanczos"
        assert estimate.value == 0.0

    def test_cap_falls_back_to_exact_on_feasible_sizes(self, monkeypatch):
        monkeypatch.setattr(norms, "EXACT_SVD_LIMIT", 4)
        a = random_dense(10, 2, np.random.default_rng(14))
        estimate = op_norm(a)
        assert estimate.kind == "exact_svd"
        assert float(estimate) == pytest.approx(spectral_norm(a.flatten()), rel=1e-12)

    def test_cap_raises_above_eight_times_the_limit(self, monkeypatch):
        monkeypatch.setattr(norms, "EXACT_SVD_LIMIT", 4)
        a = random_dense(20, 2, np.random.default_rng(15))
        assert a.flat_size > 8 * 4
        with pytest.raises(NonConvergenceError) as err:
            op_norm(a)
        assert err.value.iteration_cap == 4


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


class TestSymbolSupNorm:
    def test_scalar_trig_polynomial(self):
        s = ScalarSymbol.trig_polynomial({0: 1.0, 1: 1.0})
        # |1 + e^{it}| peaks at 2 when t = 0
        result = symbol_sup_norm(s)
        assert float(result) == pytest.approx(2.0, abs=1e-9)

    def test_poisson_peak(self):
        s = ScalarSymbol.poisson(0.5)
        assert float(symbol_sup_norm(s)) == pytest.approx(3.0, abs=1e-6)


class TestMultiplierLowerBound:
    def _smoothed_block(self, rng, size=16):
        block = gaussian(rng, (2, 2))
        weights = ScalarSymbol.fejer(2)
        coeffs = {l: weights.coeff(l) * block for l in weights.support()}
        return BlockMatrix.toeplitz(coeffs, size), np.linalg.norm(block, 2)

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
