import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur.analysis import OperatorSymbol, VectorPolynomial
from opschur.errors import StructureError
from opschur.kernels import (
    ScalarSymbol,
    SummabilityKernel,
    convolve,
    dirichlet_family,
    fejer_family,
    kernel_axiom_check,
    mask,
    modulation_mask,
    poisson_family,
    quadrature_mean,
    smooth,
    torus_grid,
)
from opschur.matrices import (
    BlockMatrix,
    allclose,
    random_banded,
    random_dense,
    random_toeplitz,
    schur_product,
)
from opschur.norms import op_norm

from oracles import (
    dirichlet_values,
    fejer_values,
    gaussian,
    poisson_values,
    spectral_norm,
)

seeds = st.integers(min_value=0, max_value=10**6)

# Torus quadrature values frozen from an independent closed-form
# computation on the default 4096-point grid.
DIRICHLET_L1 = {1: 1.4359911962, 2: 1.6421885583, 50: 2.8599520486}
FEJER_TAIL_HALF = {2: 0.54864291, 50: 0.02473082}
POISSON_TAIL_HALF = {0.5: 0.58429700, 0.98: 0.02520694}


class TestScalarSymbol:
    def test_fejer_coefficients(self):
        s = ScalarSymbol.fejer(2)
        expected = {-2: 1 / 3, -1: 2 / 3, 0: 1.0, 1: 2 / 3, 2: 1 / 3}
        assert s.support() == (-2, -1, 0, 1, 2)
        for l, value in expected.items():
            assert s.coeff(l) == pytest.approx(value, abs=1e-15)
        assert s.coeff(3) == 0.0
        assert s.degree == 2

    def test_dirichlet_coefficients_are_indicator(self):
        s = ScalarSymbol.dirichlet(3)
        assert all(s.coeff(l) == 1.0 for l in range(-3, 4))
        assert s.coeff(4) == 0.0

    def test_poisson_coefficients(self):
        s = ScalarSymbol.poisson(0.5)
        assert s.coeff(3) == pytest.approx(0.125)
        assert s.coeff(-3) == pytest.approx(0.125)
        assert s.support() is None

    @pytest.mark.parametrize("name", ["fejer", "dirichlet"])
    @pytest.mark.parametrize("n", [3.5, 2.0, "3", True])
    def test_non_integer_order_is_refused(self, name, n):
        with pytest.raises(StructureError, match=f"^{name} order n {n!r} is not an integer$"):
            getattr(ScalarSymbol, name)(n)

    @pytest.mark.parametrize("name", ["fejer", "dirichlet"])
    def test_negative_order_is_refused(self, name):
        with pytest.raises(StructureError, match=f"^{name} order n must be at least 0, got -1$"):
            getattr(ScalarSymbol, name)(-1)

    def test_poisson_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ScalarSymbol.poisson(1.0)

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_fejer_values_match_closed_form(self, n):
        t = torus_grid(512)
        np.testing.assert_allclose(
            ScalarSymbol.fejer(n).values(t).real, fejer_values(n, t),
            atol=1e-10,
        )

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_dirichlet_values_match_closed_form(self, n):
        t = torus_grid(512)
        np.testing.assert_allclose(
            ScalarSymbol.dirichlet(n).values(t).real, dirichlet_values(n, t),
            atol=1e-9,
        )

    @pytest.mark.parametrize("r", [0.3, 0.9])
    def test_poisson_values_match_closed_form(self, r):
        t = torus_grid(512)
        np.testing.assert_allclose(
            ScalarSymbol.poisson(r).values(t), poisson_values(r, t),
            atol=1e-12,
        )

    def test_values_build_one_phase_buffer(self):
        # the one (101 x 4096) complex phase buffer is 6.3 MiB
        t = torus_grid()
        tracemalloc.start()
        try:
            ScalarSymbol.dirichlet(50).values(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("symbol", [ScalarSymbol.fejer(2), ScalarSymbol.poisson(0.5)],
                             ids=["fejer", "poisson"])
    def test_one_angle_is_one_point(self, symbol):
        assert symbol.values(0.5).shape == (1,)
        assert symbol.values(0.5)[0] == symbol.values(np.array([0.5]))[0]

    def test_trig_polynomial_round_trip(self):
        coeffs = {-1: 2.0j, 0: 1.0, 3: -0.5}
        s = ScalarSymbol.trig_polynomial(coeffs)
        t = torus_grid(64)
        expected = sum(c * np.exp(1j * l * t) for l, c in coeffs.items())
        np.testing.assert_allclose(s.values(t), expected, atol=1e-12)

    def test_l1_fourier_norm(self):
        assert ScalarSymbol.fejer(2).l1_fourier_norm() == pytest.approx(3.0)
        assert ScalarSymbol.poisson(0.5).l1_fourier_norm() == pytest.approx(3.0)
        assert ScalarSymbol.dirichlet(2).l1_fourier_norm() == pytest.approx(5.0)


# scalar, vector and operator coefficients share one storage
RANKS = {0: ScalarSymbol.trig_polynomial, 1: VectorPolynomial, 2: OperatorSymbol}


class TestTrigPolynomial:
    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_coeff_array_matches_dict_lookup(self, rank):
        rng = np.random.default_rng(40 + rank)
        shape = (3,) * rank
        zero = np.zeros(shape, dtype=complex)
        for _ in range(20):
            support = rng.choice(np.arange(-12, 13), size=int(rng.integers(1, 8)),
                                 replace=False)
            reference = {int(l): gaussian(rng, shape) for l in support}
            symbol = RANKS[rank](reference)
            assert symbol.support() == tuple(sorted(reference))
            offsets = rng.integers(-16, 17, size=(4, 5))
            expected = np.array([reference.get(int(l), zero) for l in offsets.flat])
            got = symbol.coeff_array(offsets)
            assert got.shape == offsets.shape + shape
            np.testing.assert_array_equal(got.reshape(expected.shape), expected)
            for l in (int(support[0]), 13, -13):
                np.testing.assert_array_equal(symbol.coeff(l), reference.get(l, zero))

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_non_integer_offsets_are_refused(self, rank):
        one = np.ones((2,) * rank)
        with pytest.raises(StructureError, match="offset 0.5 is not an integer"):
            RANKS[rank]({0: one, 0.5: 2 * one})
        with pytest.raises(StructureError, match="offset False is not an integer"):
            RANKS[rank]({False: one})
        assert RANKS[rank]({np.int64(-2): one}).support() == (-2,)

    @pytest.mark.parametrize("rank", sorted(RANKS))
    def test_degree_ignores_zero_coefficients(self, rank):
        shape = (2,) * rank
        zero = np.zeros(shape)
        one = np.ones(shape)
        symbol = RANKS[rank]({-5: zero, 0: one, 2: -one, 7: zero})
        assert symbol.degree == 2
        assert symbol.support() == (-5, 0, 2, 7)
        assert RANKS[rank]({-3: zero, 4: zero}).degree == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1000, 4095, 4096])
    def test_fejer_and_dirichlet_equal_closed_forms(self, n):
        offsets = np.arange(-n - 3, n + 4)
        fejer = ScalarSymbol.fejer(n)
        dirichlet = ScalarSymbol.dirichlet(n)
        assert fejer.support() == dirichlet.support() == tuple(range(-n, n + 1))
        assert fejer.degree == dirichlet.degree == n
        np.testing.assert_array_equal(
            fejer.coeff_array(offsets),
            np.maximum(0.0, 1.0 - np.abs(offsets) / (n + 1)).astype(complex),
        )
        np.testing.assert_array_equal(
            dirichlet.coeff_array(offsets), (np.abs(offsets) <= n).astype(complex)
        )


class TestQuadrature:
    @pytest.mark.parametrize(
        "points, message",
        [(64.5, "64.5 is not an integer"), (True, "True is not an integer"),
         ("64", "'64' is not an integer"), (1, "must be at least 2, got 1")],
        ids=["float", "bool", "string", "below-floor"],
    )
    def test_torus_grid_refuses_bad_point_counts(self, points, message):
        with pytest.raises(StructureError, match=f"^grid points {message}$"):
            torus_grid(points)

    def test_mean_of_trig_polynomial_is_zero_coefficient(self):
        s = ScalarSymbol.trig_polynomial({-2: 5.0, 0: 1.5j, 1: -2.0})
        t = torus_grid(64)
        assert quadrature_mean(s.values(t)) == pytest.approx(1.5j, abs=1e-13)

    @pytest.mark.parametrize("n, expected", sorted(DIRICHLET_L1.items()))
    def test_dirichlet_l1_frozen_values(self, n, expected):
        t = torus_grid(4096)
        l1 = float(np.mean(np.abs(ScalarSymbol.dirichlet(n).values(t))))
        assert l1 == pytest.approx(expected, abs=1e-9)


class TestConvolve:
    def test_coefficients_multiply(self):
        f = ScalarSymbol.trig_polynomial({0: 2.0, 1: 3.0})
        g = ScalarSymbol.trig_polynomial({1: 5.0, 2: 7.0})
        h = convolve(f, g)
        assert h.coeff(1) == pytest.approx(15.0)
        assert h.coeff(0) == 0.0 and h.coeff(2) == 0.0

    def test_with_poisson_keeps_finite_support(self):
        f = ScalarSymbol.trig_polynomial({0: 1.0, 2: 4.0})
        h = convolve(f, ScalarSymbol.poisson(0.5))
        assert h.support() == (0, 2)
        assert h.coeff(2) == pytest.approx(1.0)

    def test_two_unbounded_rejected(self):
        with pytest.raises(StructureError):
            convolve(ScalarSymbol.poisson(0.5), ScalarSymbol.poisson(0.4))


class TestAxiomChecks:
    def test_fejer_and_poisson_pass_all(self):
        for family in (fejer_family(), poisson_family()):
            report = kernel_axiom_check(family, (1, 2, 5, 10, 20, 50))
            assert report.all_axioms, family.name

    def test_dirichlet_fails_uniform_l1_only_l1(self):
        report = kernel_axiom_check(dirichlet_family(), (1, 2, 5, 10, 20, 50))
        assert report.mean_one
        assert not report.uniform_l1
        assert not report.all_axioms

    def test_fejer_tail_frozen_values(self):
        report = kernel_axiom_check(fejer_family(), (2, 50), deltas=(0.5,))
        assert report.rows[0].tails[0] == pytest.approx(
            FEJER_TAIL_HALF[2], abs=1e-7
        )
        assert report.rows[1].tails[0] == pytest.approx(
            FEJER_TAIL_HALF[50], abs=1e-7
        )

    def test_poisson_tail_frozen_values(self):
        # family orders 2 and 50 give radii 1 - 1/n = 0.5 and 0.98
        report = kernel_axiom_check(poisson_family(), (2, 50), deltas=(0.5,))
        assert report.rows[0].tails[0] == pytest.approx(
            POISSON_TAIL_HALF[0.5], abs=1e-7
        )
        assert report.rows[1].tails[0] == pytest.approx(
            POISSON_TAIL_HALF[0.98], abs=1e-7
        )

    @pytest.mark.parametrize("n", [0, -1])
    def test_poisson_family_needs_index_at_least_one(self, n):
        with pytest.raises(StructureError, match=f"index n must be at least 1, got {n}$"):
            poisson_family()(n)

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_poisson_family_refuses_non_integer_index(self, n):
        with pytest.raises(StructureError, match=f"^poisson family index n {n!r} is not an integer$"):
            poisson_family()(n)

    @pytest.mark.parametrize("order", [2.7, True])
    def test_non_integer_orders_are_refused(self, order):
        with pytest.raises(StructureError, match=f"^kernel order {order!r} is not an integer$"):
            kernel_axiom_check(fejer_family(), (1, order))

    def test_family_calls_produce_symbols(self):
        assert fejer_family()(3).degree == 3
        assert poisson_family()(2).coeff(1) == pytest.approx(0.5)
        assert isinstance(dirichlet_family(), SummabilityKernel)


class TestMasks:
    def test_mask_entries(self):
        m = mask(ScalarSymbol.fejer(2), 6, 2)
        assert m.structure == "toeplitz"
        np.testing.assert_allclose(m.entry(0, 1).matrix, (2 / 3) * np.eye(2))
        np.testing.assert_allclose(m.entry(4, 2).matrix, (1 / 3) * np.eye(2))

    def test_unbounded_symbol_fills_window(self):
        m = mask(ScalarSymbol.poisson(0.5), 4, 2)
        assert m.diagonal_support() == (-3, -2, -1, 0, 1, 2, 3)

    def test_modulation_mask_coefficients(self):
        m = modulation_mask(0.3, 5, 2)
        np.testing.assert_allclose(
            m.entry(1, 3).matrix, np.exp(0.6j) * np.eye(2), atol=1e-14
        )

    @pytest.mark.parametrize(
        "build, what",
        [(lambda: mask(ScalarSymbol.fejer(2), 4.5, 2), "size 4.5"),
         (lambda: modulation_mask(0.1, 4, 2.5), "dim 2.5")],
        ids=["mask-size", "modulation-dim"],
    )
    def test_non_integer_size_and_dim_are_refused(self, build, what):
        with pytest.raises(StructureError, match=f"^{what} is not an integer$"):
            build()


class TestSmooth:
    @pytest.mark.parametrize("kind", ["dense", "toeplitz", "banded"])
    @pytest.mark.parametrize("name", ["fejer", "poisson"])
    def test_agrees_with_schur_mask_route(self, kind, name):
        rng = np.random.default_rng(24)
        if kind == "dense":
            a = random_dense(7, 2, rng)
        elif kind == "toeplitz":
            a = random_toeplitz(7, 2, rng, range(-2, 4), decay=0.8)
        else:
            a = random_banded(7, 2, rng, (-1, 3), decay=0.8)
        symbol = (ScalarSymbol.fejer(3) if name == "fejer"
                  else ScalarSymbol.poisson(0.6))
        via_mask = schur_product(mask(symbol, a.size, a.dim), a)
        assert allclose(smooth(a, symbol), via_mask, tol=1e-13)

    @pytest.mark.parametrize("kind", ["dense", "toeplitz", "banded"])
    def test_keeps_stored_diagonals_in_a_gapped_support(self, kind):
        rng = np.random.default_rng(28)
        if kind == "dense":
            a = random_dense(6, 2, rng)
        elif kind == "toeplitz":
            a = random_toeplitz(6, 2, rng, range(-3, 5), decay=0.8)
        else:
            a = random_banded(6, 2, rng, (-3, 4), decay=0.8)
        symbol = ScalarSymbol.trig_polynomial(
            {-40: 1.0, -3: 0.5, -1: 2.0, 0: 0.0, 2: -1.0j, 4: 0.25, 9: 3.0})
        out = smooth(a, symbol)
        assert out.diagonal_support() == (-3, -1, 0, 2, 4)
        for l in out.diagonal_support():
            np.testing.assert_array_equal(
                out.diagonal_run(l), symbol.coeff(l) * a.diagonal_run(l))
        assert allclose(out, schur_product(mask(symbol, a.size, a.dim), a), tol=1e-13)

    def test_high_order_recovers_matrix(self):
        rng = np.random.default_rng(25)
        a = random_dense(8, 2, rng)
        out = smooth(a, ScalarSymbol.fejer(10**6))
        diff = spectral_norm((out - a).flatten())
        assert diff <= 1e-4 * spectral_norm(a.flatten())

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_fejer_poisson_are_contractions(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dense(6, 2, rng)
        reference = spectral_norm(a.flatten())
        for symbol in (ScalarSymbol.fejer(4), ScalarSymbol.poisson(0.7)):
            assert (spectral_norm(smooth(a, symbol).flatten())
                    <= reference + 1e-9)

    def test_dirichlet_bounded_by_function_l1(self):
        rng = np.random.default_rng(26)
        t = torus_grid(4096)
        for n in (2, 10):
            l1 = float(np.mean(np.abs(ScalarSymbol.dirichlet(n).values(t))))
            for _ in range(5):
                a = random_dense(8, 2, rng)
                assert (
                    float(op_norm(smooth(a, ScalarSymbol.dirichlet(n))))
                    <= l1 * float(op_norm(a)) + 1e-9
                )

    def test_entrywise_deviation_bound_inside_band(self):
        # weights on |l| <= 10 differ from one by at most 10/(n+1)
        rng = np.random.default_rng(27)
        a = random_dense(11, 2, rng)
        out = smooth(a, ScalarSymbol.fejer(10**4))
        worst = max(
            (out.entry(k, j) - a.entry(k, j)).norm()
            for k in range(11) for j in range(11)
        )
        top = max(a.entry(k, j).norm() for k in range(11) for j in range(11))
        assert worst <= 1e-3 * top
