import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur import analysis
from opschur.analysis import (
    ConvergenceProfile,
    OperatorSymbol,
    VectorPolynomial,
    analytic_eval,
    boundary_profile,
    coefficient_action,
    coefficient_action_bound,
    dilation_matrix,
    modulate,
    smoothing_profile,
    symbol_analytic_eval,
    symbol_from_toeplitz,
    toeplitz_from_symbol,
)
from opschur.blocks import OperatorBlock, singular_values
from opschur.errors import (
    CoefficientSupportError,
    DimensionMismatchError,
    DiscDomainError,
    StructureError,
)
from opschur.experiments import HINF_RADII
from opschur.kernels import ScalarSymbol, fejer_family, smooth, torus_grid
from opschur.matrices import (
    BlockMatrix,
    allclose,
    random_banded,
    random_dense,
    random_toeplitz,
    truncate,
)
from opschur.norms import op_norm, symbol_sup_norm

from oracles import gaussian, spectral_norm

seeds = st.integers(min_value=0, max_value=10**6)
angles = st.floats(min_value=-np.pi, max_value=np.pi,
                   allow_nan=False, allow_infinity=False)


def _jordan_symbol() -> OperatorSymbol:
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return OperatorSymbol({0: np.eye(2, dtype=complex), 1: nil,
                           2: nil.conj().T})


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _continuous_symbol() -> OperatorSymbol:
    return OperatorSymbol(
        {l: (0.35 ** l) * _rotation(0.7 * l) for l in range(21)}
    )


# Truncation norms frozen from an independent flat-matrix SVD.
JORDAN_NORMS = {
    4: 1.801937735805,
    16: 1.981371892073,
    64: 1.998696190779,
    256: 1.999916110333,
}
CONTINUOUS_NORMS = {
    16: 1.518446322251,
    32: 1.532903771188,
    64: 1.536999659157,
}


class TestOperatorSymbol:
    def test_eval_matches_series(self):
        symbol = _jordan_symbol()
        t = 0.9
        expected = sum(
            np.exp(1j * l * t) * symbol.coeff(l) for l in symbol.support()
        )
        np.testing.assert_allclose(symbol.eval(t).matrix, expected, atol=1e-13)

    def test_values_shape(self):
        t = torus_grid(32)
        assert _jordan_symbol().values(t).shape == (32, 2, 2)

    def test_support_and_coeff(self):
        symbol = _jordan_symbol()
        assert symbol.support() == (0, 1, 2)
        np.testing.assert_array_equal(symbol.coeff(5), np.zeros((2, 2)))

    def test_jordan_sup_norm_is_two(self):
        assert float(symbol_sup_norm(_jordan_symbol())) == pytest.approx(
            2.0, abs=1e-12
        )


class TestToeplitzSymbolBridge:
    def test_round_trip(self):
        symbol = _jordan_symbol()
        a = toeplitz_from_symbol(symbol, 8)
        back = symbol_from_toeplitz(a)
        assert back.support() == symbol.support()
        for l in symbol.support():
            np.testing.assert_array_equal(back.coeff(l), symbol.coeff(l))

    def test_support_wider_than_window_rejected(self):
        with pytest.raises(CoefficientSupportError):
            toeplitz_from_symbol(_continuous_symbol(), 4)

    def test_dense_matrix_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(StructureError):
            symbol_from_toeplitz(random_dense(4, 2, rng))

    @pytest.mark.parametrize("size, expected", sorted(JORDAN_NORMS.items()))
    def test_jordan_truncation_norms_frozen(self, size, expected):
        a = toeplitz_from_symbol(_jordan_symbol(), size)
        assert float(op_norm(a)) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("size, expected", sorted(CONTINUOUS_NORMS.items()))
    def test_continuous_truncation_norms_frozen(self, size, expected):
        # sizes below the symbol degree are principal submatrices
        full = toeplitz_from_symbol(_continuous_symbol(), 64)
        assert float(op_norm(truncate(full, size))) == pytest.approx(
            expected, abs=1e-9
        )


class TestModulate:
    @given(seeds, angles)
    @settings(max_examples=25, deadline=None)
    def test_spectrum_invariant(self, seed, angle):
        rng = np.random.default_rng(seed)
        a = random_dense(6, 2, rng)
        before = singular_values(a.flatten())
        after = singular_values(modulate(a, angle).flatten())
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_entry_phases(self):
        rng = np.random.default_rng(1)
        a = random_dense(5, 2, rng)
        out = modulate(a, 0.3)
        np.testing.assert_allclose(
            out.entry(1, 4).matrix,
            np.exp(1j * 0.9) * a.entry(1, 4).matrix,
            atol=1e-13,
        )

    def test_additive_in_angle(self):
        rng = np.random.default_rng(2)
        a = random_toeplitz(6, 2, rng, range(-2, 3))
        assert allclose(
            modulate(modulate(a, 0.4), 0.5), modulate(a, 0.9), tol=1e-12
        )

    def test_structure_preserved(self):
        rng = np.random.default_rng(3)
        t = random_toeplitz(6, 2, rng, range(-1, 2))
        assert modulate(t, 1.0).structure == "toeplitz"

    def test_commutes_with_smoothing(self):
        rng = np.random.default_rng(4)
        a = random_dense(7, 2, rng)
        s = ScalarSymbol.fejer(3)
        assert allclose(
            modulate(smooth(a, s), 0.8), smooth(modulate(a, 0.8), s),
            tol=1e-12,
        )

    def test_smoothing_is_weighted_modulation_average(self):
        # quadrature over a full period reproduces the diagonal weights
        rng = np.random.default_rng(5)
        a = random_dense(32, 2, rng)
        n, points = 4, 128
        t = torus_grid(points)
        weights = ScalarSymbol.fejer(n).values(t)
        acc = np.zeros_like(a.blocks())
        for w, angle in zip(weights, t):
            acc = acc + w * modulate(a, -angle).blocks()
        averaged = BlockMatrix.dense(acc / points)
        assert allclose(averaged, smooth(a, ScalarSymbol.fejer(n)), tol=1e-12)


class TestSmoothingProfile:
    def test_banded_distances_follow_reciprocal_law(self):
        rng = np.random.default_rng(6)
        a = random_banded(24, 2, rng, (0, 2), decay=0.6)
        weighted = BlockMatrix.banded(
            {1: a.diagonal_run(1), 2: 2.0 * a.diagonal_run(2)}, 24
        )
        scale = float(op_norm(weighted))
        orders = (2, 5, 10, 100, 1000)
        profile = smoothing_profile(a, fejer_family(), orders)
        for order, distance in zip(profile.indices, profile.distances):
            assert distance == pytest.approx(scale / (order + 1), abs=1e-12)

    def test_default_tolerance_is_relative(self):
        rng = np.random.default_rng(7)
        a = random_banded(16, 2, rng, (0, 1))
        profile = smoothing_profile(a, fejer_family(), (1, 2))
        assert profile.tolerance == pytest.approx(1e-3 * float(op_norm(a)))
        assert profile.reference_norm == pytest.approx(float(op_norm(a)))

    def test_explicit_tolerance_respected(self):
        rng = np.random.default_rng(8)
        a = random_banded(16, 2, rng, (0, 1))
        profile = smoothing_profile(a, fejer_family(), (1, 2), tolerance=5.0)
        assert profile.tolerance == 5.0
        assert profile.converged and profile.threshold_index == 1.0

    def test_converged_requires_stable_last_third(self):
        rng = np.random.default_rng(9)
        a = random_banded(24, 2, rng, (0, 1), decay=0.5)
        orders = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                  1024, 1536, 2048, 3072, 4096)
        profile = smoothing_profile(a, fejer_family(), orders)
        assert profile.converged
        assert profile.threshold_index <= 1024
        assert profile.floor == min(profile.distances)

    @pytest.mark.parametrize("order", [2.5, True])
    def test_non_integer_orders_are_refused(self, order):
        a = random_banded(16, 2, np.random.default_rng(7), (0, 1))
        with pytest.raises(StructureError, match=f"^profile order {order!r} is not an integer$"):
            smoothing_profile(a, fejer_family(), (1, order))

    def test_dilation_stalls(self):
        profile = smoothing_profile(
            dilation_matrix(64, 2), fejer_family(), range(1, 33)
        )
        assert not profile.converged
        assert profile.threshold_index is None
        assert profile.floor == pytest.approx(32 / 33, abs=1e-12)


class TestDilationMatrix:
    def test_entries(self):
        a = dilation_matrix(8, 2)
        for row in range(4):
            np.testing.assert_array_equal(
                a.entry(row, 2 * row + 1).matrix, np.eye(2)
            )
        assert a.entry(1, 2).norm() == 0.0

    def test_norm_is_one(self):
        assert float(op_norm(dilation_matrix(64, 2))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_non_integer_size_is_refused(self):
        with pytest.raises(StructureError, match="^size 4.5 is not an integer$"):
            dilation_matrix(4.5, 2)

    @given(angles)
    @settings(max_examples=25, deadline=None)
    def test_modulation_distance_formula(self, angle):
        a = dilation_matrix(16, 2)
        got = spectral_norm((modulate(a, angle) - a).flatten())
        expected = max(
            abs(np.exp(1j * (row + 1) * angle) - 1.0) for row in range(8)
        )
        assert got == pytest.approx(expected, abs=1e-10)

    def test_peak_distance_two_within_small_angle(self):
        a = dilation_matrix(64, 2)
        d = spectral_norm((modulate(a, np.pi / 32) - a).flatten())
        assert d == pytest.approx(2.0, abs=1e-12)


class TestVectorPolynomial:
    def test_values(self):
        p = VectorPolynomial({0: np.array([1.0, 0.0]),
                              2: np.array([0.0, 1.0j])})
        t = np.array([0.0, np.pi / 2])
        vals = p.values(t)
        np.testing.assert_allclose(vals[0], [1.0, 1.0j], atol=1e-13)
        np.testing.assert_allclose(vals[1], [1.0, -1.0j], atol=1e-13)

    def test_sup_norm_single_coefficient(self):
        part = np.array([3.0, 4.0])
        p = VectorPolynomial({5: part})
        assert float(p.sup_norm()) == pytest.approx(5.0, abs=1e-9)

    def test_coefficients_recovered_by_quadrature(self):
        rng = np.random.default_rng(10)
        parts = {l: gaussian(rng, 2) for l in (-2, 0, 3)}
        p = VectorPolynomial(parts)
        t = torus_grid(64)
        vals = p.values(t)
        for l, part in parts.items():
            mean = (vals * np.exp(-1j * l * t)[:, None]).mean(axis=0)
            np.testing.assert_allclose(mean, part, atol=1e-12)


class TestCoefficientAction:
    def _instance(self, rng, size=16):
        block = gaussian(rng, (2, 2))
        weights = ScalarSymbol.fejer(8)
        coeffs = {l: weights.coeff(l) * block for l in weights.support()}
        return BlockMatrix.toeplitz(coeffs, size), block

    def test_matches_manual_sum(self):
        rng = np.random.default_rng(11)
        a, _ = self._instance(rng)
        parts = {l: gaussian(rng, 2) for l in (-3, 0, 2)}
        p = VectorPolynomial(parts)
        expected = sum(a.diagonal_run(l)[0] @ x for l, x in parts.items())
        np.testing.assert_allclose(coefficient_action(a, p), expected,
                                   atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(12)
        a, _ = self._instance(rng)
        p = VectorPolynomial({0: gaussian(rng, 2), 1: gaussian(rng, 2)})
        q = VectorPolynomial({0: gaussian(rng, 2), -2: gaussian(rng, 2)})
        merged = {
            l: p.coeff(l) + q.coeff(l) for l in set(p.support()) | set(q.support())
        }
        lhs = coefficient_action(a, VectorPolynomial(merged))
        rhs = coefficient_action(a, p) + coefficient_action(a, q)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_requires_toeplitz(self):
        rng = np.random.default_rng(13)
        with pytest.raises(StructureError):
            coefficient_action(
                random_dense(4, 2, rng), VectorPolynomial({0: np.ones(2)})
            )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        a, _ = self._instance(rng)
        with pytest.raises(DimensionMismatchError):
            coefficient_action(a, VectorPolynomial({0: np.ones(3)}))

    def test_unseen_offset_rejected(self):
        rng = np.random.default_rng(15)
        a, _ = self._instance(rng)
        with pytest.raises(CoefficientSupportError):
            coefficient_action(a, VectorPolynomial({20: np.ones(2)}))

    def test_bound_estimate_attains_block_norm(self):
        rng = np.random.default_rng(16)
        a, block = self._instance(rng)
        estimate = coefficient_action_bound(a, trials=60, seed=0)
        assert estimate.kind == "sampled_lower_bound"
        assert float(estimate) == pytest.approx(
            np.linalg.norm(block, 2), abs=1e-9
        )

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bound_needs_at_least_one_trial(self, trials):
        zero = BlockMatrix.toeplitz({0: np.zeros((2, 2))}, 4)
        with pytest.raises(StructureError, match=f"trials must be at least 1, got {trials}"):
            coefficient_action_bound(zero, trials=trials)

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "seed must be at least 0, got -1"), (2.5, "seed 2.5 is not an integer")],
        ids=["negative", "float"],
    )
    def test_bad_seed_is_refused(self, seed, message):
        # numpy's bare ValueError and TypeError before
        zero = BlockMatrix.toeplitz({0: np.zeros((2, 2))}, 4)
        with pytest.raises(StructureError, match=f"^{message}$"):
            coefficient_action_bound(zero, seed=seed)


class TestAnalyticEval:
    def test_shift_norm_is_radius(self):
        shift = BlockMatrix.toeplitz({1: np.eye(2)}, 16)
        for radius in (0.2, 0.5, 0.9):
            value = spectral_norm(analytic_eval(shift, radius).flatten())
            assert value == pytest.approx(radius, abs=1e-12)

    def test_agrees_with_smooth_then_modulate(self):
        rng = np.random.default_rng(17)
        a = random_banded(12, 2, rng, (0, 3), decay=0.6)
        z = 0.4 * np.exp(0.9j)
        direct = analytic_eval(a, z)
        routed = modulate(smooth(a, ScalarSymbol.poisson(abs(z))),
                          float(np.angle(z)))
        assert allclose(direct, routed, tol=1e-12)

    def test_center_keeps_main_diagonal(self):
        rng = np.random.default_rng(18)
        a = random_banded(8, 2, rng, (0, 2))
        at_zero = analytic_eval(a, 0.0)
        assert allclose(
            at_zero, BlockMatrix.banded({0: a.diagonal_run(0)}, 8), tol=0
        )

    def test_outside_disc_rejected(self):
        a = BlockMatrix.toeplitz({1: np.eye(2)}, 4)
        for z in (1.0, 1.0 + 0.0j, 1.2j):
            with pytest.raises(DiscDomainError):
                analytic_eval(a, z)

    def test_lower_support_rejected(self):
        rng = np.random.default_rng(19)
        a = random_banded(6, 2, rng, (-1, 1))
        with pytest.raises(StructureError):
            analytic_eval(a, 0.5)

    def test_dense_and_structured_storage_agree(self):
        rng = np.random.default_rng(20)
        a = random_banded(10, 2, rng, (0, 2), decay=0.7)
        z = 0.3 * np.exp(-1.2j)
        assert allclose(
            analytic_eval(a, z),
            analytic_eval(BlockMatrix.dense(a.blocks()), z),
            tol=1e-13,
        )


class TestSymbolAnalyticEval:
    def test_matches_power_series(self):
        rng = np.random.default_rng(21)
        coeffs = {l: gaussian(rng, (2, 2)) for l in range(4)}
        a = BlockMatrix.toeplitz(coeffs, 8)
        z = 0.6 * np.exp(0.4j)
        expected = sum((z ** l) * block for l, block in coeffs.items())
        got = symbol_analytic_eval(a, z)
        assert isinstance(got, OperatorBlock)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-13)

    def test_geometric_closed_form(self):
        a = BlockMatrix.toeplitz(
            {l: (0.5 ** l) * np.eye(2, dtype=complex) for l in range(64)}, 64
        )
        for z in (0.45 * np.exp(1.1j), 0.95 + 0.0j):
            got = symbol_analytic_eval(a, z).matrix
            np.testing.assert_allclose(
                got, np.eye(2) / (1.0 - z / 2.0), atol=1e-10
            )


class TestProfileNormCounts:
    """Every profile norm is counted; an added or dropped one fails here."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counted(a):
            made.append(a)
            return op_norm(a)

        monkeypatch.setattr(analysis, "op_norm", counted)
        return made

    def test_boundary_profile_of_the_hinf_geometric(self, calls):
        # hinf-profile's matrix: one reference norm, then per radius
        # BOUNDARY_ANGLES sups and one Poisson distance
        geometric = BlockMatrix.toeplitz(
            {l: (0.5 ** l) * np.eye(2, dtype=complex) for l in range(64)}, 64
        )
        boundary_profile(geometric, HINF_RADII)
        assert len(calls) == 55 == 1 + len(HINF_RADII) * (1 + analysis.BOUNDARY_ANGLES)

    def test_smoothing_profile(self, calls):
        orders = (1, 2, 4, 8)
        smoothing_profile(random_banded(16, 2, np.random.default_rng(7), (0, 1)),
                          fejer_family(), orders)
        assert len(calls) == 1 + len(orders)


class TestBoundaryProfile:
    def test_geometric_profile(self):
        a = BlockMatrix.toeplitz(
            {l: (0.5 ** l) * np.eye(2, dtype=complex) for l in range(32)}, 32
        )
        radii = (0.9, 0.99, 0.999, 0.9995, 0.9999, 0.99995)
        profile = boundary_profile(a, radii)
        assert profile.radii == tuple(radii)
        assert len(profile.sup_values) == len(radii)
        reference = float(op_norm(a))
        assert max(profile.sup_values) <= reference + 1e-9
        assert profile.poisson.converged
        assert isinstance(profile.poisson, ConvergenceProfile)

    def test_sup_constant_over_angles(self):
        # modulation invariance: the sup over t is attained everywhere
        shift = BlockMatrix.toeplitz({1: np.eye(2)}, 8)
        profile = boundary_profile(shift, (0.5,))
        assert profile.sup_values[0] == pytest.approx(0.5, abs=1e-12)
