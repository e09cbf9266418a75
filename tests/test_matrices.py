import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur.analysis import analytic_eval, modulate
from opschur.blocks import BlockVector, inner
from opschur.errors import (
    CoefficientSupportError,
    DiagonalRangeError,
    DimensionMismatchError,
    StructureError,
)
from opschur.kernels import ScalarSymbol, smooth
from opschur.norms import op_norm
from opschur.matrices import (
    BANDED,
    DENSE,
    TOEPLITZ,
    BlockMatrix,
    adjoint,
    allclose,
    apply,
    diagonal,
    random_banded,
    random_dense,
    random_toeplitz,
    random_vector,
    rank_one,
    scale_diagonals,
    schur_product,
    tensor_scalar,
    truncate,
)
from opschur.serialize import dumps_canonical, matrix_from_payload, matrix_to_payload

from oracles import (
    apply_reference,
    flatten_reference,
    gaussian,
    schur_reference,
    spectral_norm,
)

seeds = st.integers(min_value=0, max_value=10**6)


def _sample(kind: str, rng, size=6, dim=2) -> BlockMatrix:
    if kind == DENSE:
        return random_dense(size, dim, rng)
    if kind == TOEPLITZ:
        return random_toeplitz(size, dim, rng, range(-2, 3), decay=0.8)
    return random_banded(size, dim, rng, (-1, 2), decay=0.8)


class TestConstruction:
    def test_dense_entries(self):
        rng = np.random.default_rng(0)
        blocks = gaussian(rng, (4, 4, 2, 2))
        a = BlockMatrix.dense(blocks)
        assert a.structure == DENSE
        assert (a.size, a.dim, a.flat_size) == (4, 2, 8)
        np.testing.assert_array_equal(a.entry(1, 3).matrix, blocks[1, 3])

    def test_toeplitz_entries_depend_on_offset_only(self):
        rng = np.random.default_rng(1)
        coeffs = {l: gaussian(rng, (2, 2)) for l in (-1, 0, 2)}
        a = BlockMatrix.toeplitz(coeffs, 5)
        assert a.structure == TOEPLITZ
        assert a.diagonal_support() == (-1, 0, 2)
        for k in range(5):
            for j in range(5):
                expected = coeffs.get(j - k, np.zeros((2, 2)))
                np.testing.assert_array_equal(a.entry(k, j).matrix, expected)

    def test_toeplitz_rejects_out_of_window_offsets(self):
        with pytest.raises(CoefficientSupportError) as err:
            BlockMatrix.toeplitz({5: np.eye(2)}, 4)
        assert err.value.offset == 5

    @pytest.mark.parametrize(
        "build",
        [lambda: BlockMatrix.toeplitz({0.7: np.eye(2)}, 4),
         lambda: BlockMatrix.banded({-0.9: np.zeros((4, 2, 2))}, 4),
         lambda: BlockMatrix.toeplitz({"1": np.eye(2)}, 4),
         lambda: BlockMatrix.toeplitz({True: np.eye(2)}, 4),
         lambda: random_toeplitz(4, 2, 0, [0.5, 0.7]),
         # read as offset 1, and numpy's TypeError
         lambda: BlockMatrix.identity(4, 2).diagonal_run(True),
         lambda: diagonal(BlockMatrix.identity(4, 2), 0.5),
         # a bare TypeError from abs(), before any block was drawn
         lambda: random_toeplitz(4, 2, 0, ["2"]),
         lambda: random_toeplitz(4, 2, 0, [None])],
        ids=["toeplitz", "banded", "string", "True", "random_toeplitz",
             "diagonal_run-True", "diagonal-float", "random_toeplitz-string",
             "random_toeplitz-None"],
    )
    def test_non_integer_offsets_are_refused(self, build):
        with pytest.raises(StructureError, match="offset .* is not an integer"):
            build()

    def test_numpy_integer_offsets_are_accepted(self):
        a = BlockMatrix.toeplitz({np.int64(-1): np.eye(2), np.int32(2): np.eye(2)}, 4)
        assert a.diagonal_support() == (-1, 2)

    def test_banded_runs(self):
        rng = np.random.default_rng(2)
        runs = {0: gaussian(rng, (4, 2, 2)), 1: gaussian(rng, (3, 2, 2))}
        a = BlockMatrix.banded(runs, 4)
        assert a.structure == BANDED
        assert a.band_bounds() == (0, 1)
        np.testing.assert_array_equal(a.entry(1, 2).matrix, runs[1][1])
        assert a.entry(2, 0).norm() == 0.0

    def test_identity(self):
        a = BlockMatrix.identity(3, 2)
        np.testing.assert_array_equal(a.flatten(), np.eye(6))

    def test_entry_bounds(self):
        a = BlockMatrix.identity(3, 2)
        with pytest.raises(IndexError):
            a.entry(3, 0)
        # a float index read a zero block
        with pytest.raises(StructureError, match="^row index 0.5 is not an integer$"):
            a.entry(0.5, 1)

    def test_diagonal_run_errors(self):
        a = BlockMatrix.identity(3, 2)
        with pytest.raises(DiagonalRangeError):
            a.diagonal_run(3)

    def test_diagonal_run_unstored_is_zero(self):
        a = BlockMatrix.toeplitz({0: np.eye(2)}, 4)
        np.testing.assert_array_equal(a.diagonal_run(2), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize(
        "storage",
        [
            {"structure": DENSE},
            {"structure": DENSE, "diagonals": {0: np.zeros((1, 2, 2))}},
            {"structure": TOEPLITZ, "dense": np.zeros((3, 3, 2, 2))},
            {"structure": BANDED, "diagonals": {}},
            {"structure": BANDED, "size": 0, "diagonals": {0: np.zeros((1, 2, 2))}},
            {"structure": TOEPLITZ, "dim": 0, "diagonals": {0: np.zeros((1, 0, 0))}},
            {"structure": "sparse", "diagonals": {0: np.zeros((1, 2, 2))}},
            {"structure": BANDED, "size": 4, "diagonals": {7: np.zeros((1, 2, 2))}},
            {"structure": BANDED, "diagonals": {0: "x"}},
            {"structure": BANDED, "diagonals": {0.5: np.zeros((3, 2, 2))}},
        ],
        ids=["dense-without-array", "dense-with-diagonals", "toeplitz-with-array",
             "banded-empty-map", "zero-size", "zero-dim", "unknown-tag",
             "offset-outside-window", "string-run", "fractional-offset"],
    )
    def test_raw_constructor_rejects_inconsistent_storage(self, storage):
        with pytest.raises(StructureError, match="use BlockMatrix.dense"):
            BlockMatrix(**{"size": 3, "dim": 2, **storage})

    @pytest.mark.parametrize("size", [4.5, 4.0, True, "4", None])
    @pytest.mark.parametrize(
        "build",
        [lambda size: BlockMatrix.toeplitz({0: np.eye(2)}, size),
         lambda size: BlockMatrix.banded({0: np.zeros((4, 2, 2))}, size)],
        ids=["toeplitz", "banded"],
    )
    def test_non_integer_size_is_refused(self, build, size):
        with pytest.raises(StructureError, match="size .* is not an integer"):
            build(size)

    @pytest.mark.parametrize(
        "build, what",
        [(lambda: BlockMatrix.identity(4, 2.5), "dim 2.5"),
         (lambda: BlockMatrix.identity(4, "2"), "dim '2'"),
         (lambda: truncate(BlockMatrix.identity(4, 2), True), "truncation size True"),
         (lambda: truncate(BlockMatrix.identity(4, 2), 2.5), "truncation size 2.5"),
         (lambda: random_banded(4, 2, 0, (0.5, 1)), "band bound 0.5")],
        ids=["identity-float-dim", "identity-string-dim", "truncate-True",
             "truncate-float", "banded-float-bound"],
    )
    def test_non_integer_dim_truncation_and_bounds_are_refused(self, build, what):
        with pytest.raises(StructureError, match=f"^{what} is not an integer$"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: random_dense(4, 2.5, 0), "dim 2.5 is not an integer"),
         (lambda: random_dense(4.5, 2, 0), "size 4.5 is not an integer"),
         (lambda: random_banded(4.5, 2, 0, (0, 1)), "size 4.5 is not an integer"),
         (lambda: random_banded(4, 2.5, 0, (0, 1)), "dim 2.5 is not an integer"),
         (lambda: random_vector(4, 2.5, 0), "dim 2.5 is not an integer"),
         (lambda: random_vector(True, 2, 0), "size True is not an integer"),
         (lambda: random_toeplitz(4, 2.5, 0, [0]), "dim 2.5 is not an integer"),
         (lambda: random_toeplitz(4.5, 2, 0, [0]), "size 4.5 is not an integer"),
         # a seed that is not a Generator: numpy's TypeError, its bare
         # ValueError, and True silently seeding 1
         (lambda: random_dense(4, 2, 2.5), "seed 2.5 is not an integer"),
         (lambda: random_dense(4, 2, "2"), "seed '2' is not an integer"),
         (lambda: random_dense(4, 2, -1), "seed must be at least 0, got -1"),
         (lambda: random_dense(4, 2, True), "seed True is not an integer")],
        ids=["dense-dim", "dense-size", "banded-size", "banded-dim", "vector-dim",
             "vector-bool-size", "toeplitz-dim", "toeplitz-size", "dense-float-seed",
             "dense-string-seed", "dense-negative-seed", "dense-bool-seed"],
    )
    def test_random_builders_refuse_non_integer_size_and_dim(self, build, message):
        # checked before the Gaussian draw, which raised numpy's errors
        with pytest.raises(StructureError, match=f"^{message}$"):
            build()


class TestFlatten:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_layout(self, seed):
        rng = np.random.default_rng(seed)
        a = _sample((DENSE, TOEPLITZ, BANDED)[seed % 3], rng)
        np.testing.assert_allclose(
            a.flatten(), flatten_reference(a.blocks()), atol=0
        )

    def test_flatten_of_diagonal(self):
        a = BlockMatrix.toeplitz({0: np.diag([2.0, 3.0])}, 2)
        np.testing.assert_array_equal(a.flatten(), np.diag([2.0, 3.0, 2.0, 3.0]))


class TestDenseStorage:
    """Every matrix keeps one read-only flattening and reads it in place."""

    def test_flatten_is_the_stored_array(self):
        a = random_dense(5, 2, np.random.default_rng(40))
        flat = a.flatten()
        assert not flat.flags.writeable
        assert np.shares_memory(flat, a.flatten())
        assert np.shares_memory(flat, a.blocks()) and not a.blocks().flags.writeable

    @pytest.mark.parametrize("size, dim", [(5, 2), (5, 1), (1, 3)])
    def test_dense_copies_its_input(self, size, dim):
        # with d = 1 or N = 1 the block transposition is a no-op, so a
        # reshape of the input would alias it
        blocks = gaussian(np.random.default_rng(41), (size, size, dim, dim))
        a = BlockMatrix.dense(blocks)
        want = blocks.copy()
        blocks[...] = 0
        assert np.array_equal(a.blocks(), want)

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dense_copies_a_complex_input_once(self):
        blocks = gaussian(np.random.default_rng(46), (256, 256, 2, 2))  # 4 MiB
        assert self._peak(lambda: BlockMatrix.dense(blocks)) < 5 * 2**20

    def test_apply_does_not_copy_the_matrix(self):
        rng = np.random.default_rng(42)
        a = random_dense(256, 2, rng)  # 4 MiB flattening
        x = random_vector(256, 2, rng)
        assert self._peak(lambda: apply(a, x)) < 16 * 512**2 // 4

    def test_op_norm_does_not_copy_the_matrix(self):
        a = random_dense(300, 2, np.random.default_rng(0))
        assert self._peak(lambda: op_norm(a)) < 16 * 600**2 // 2

    @pytest.mark.parametrize("kind", [TOEPLITZ, BANDED])
    def test_structured_flatten_is_the_cached_array(self, kind):
        a = _sample(kind, np.random.default_rng(43))
        flat = a.flatten()
        assert not flat.flags.writeable
        assert np.shares_memory(flat, a.flatten())
        assert np.shares_memory(a.flatten(), a.blocks())

    def test_combine_reads_both_flattenings_in_place(self):
        rng = np.random.default_rng(44)
        a = random_dense(256, 2, rng)  # 4 MiB flattening
        t = random_toeplitz(256, 2, rng, range(-2, 3))
        # the toeplitz flattening and the sum, with no transposing copy
        assert self._peak(lambda: a + t) < 10 * 2**20

    def test_structured_blocks_build_one_array(self):
        b = random_banded(256, 2, np.random.default_rng(45), (-2, 2))
        assert self._peak(b.blocks) < 6 * 2**20


class TestSchurProduct:
    @pytest.mark.parametrize("kind_a", [DENSE, TOEPLITZ, BANDED])
    @pytest.mark.parametrize("kind_b", [DENSE, TOEPLITZ, BANDED])
    def test_matches_reference(self, kind_a, kind_b):
        rng = np.random.default_rng(3)
        a, b = _sample(kind_a, rng), _sample(kind_b, rng)
        got = schur_product(a, b)
        np.testing.assert_allclose(
            got.blocks(), schur_reference(a.blocks(), b.blocks()), atol=1e-13
        )

    def test_result_structure(self):
        rng = np.random.default_rng(4)
        t = _sample(TOEPLITZ, rng)
        b = _sample(BANDED, rng)
        d = _sample(DENSE, rng)
        assert schur_product(t, t).structure == TOEPLITZ
        assert schur_product(t, b).structure == BANDED
        assert schur_product(b, d).structure == BANDED
        assert schur_product(d, d).structure == DENSE

    def test_support_intersects(self):
        x = BlockMatrix.toeplitz({0: np.eye(2), 1: np.eye(2)}, 5)
        y = BlockMatrix.toeplitz({1: np.eye(2), 2: np.eye(2)}, 5)
        assert schur_product(x, y).diagonal_support() == (1,)

    def test_not_commutative(self):
        p = np.array([[0, 1], [0, 0]], dtype=complex)
        q = np.array([[0, 0], [1, 0]], dtype=complex)
        x = BlockMatrix.toeplitz({0: p}, 3)
        y = BlockMatrix.toeplitz({0: q}, 3)
        xy = schur_product(x, y)
        yx = schur_product(y, x)
        assert not allclose(xy, yx)
        np.testing.assert_array_equal(xy.entry(0, 0).matrix, p @ q)

    def test_all_ones_matrix_is_schur_unit(self):
        rng = np.random.default_rng(5)
        a = _sample(DENSE, rng)
        unit = tensor_scalar(np.ones((a.size, a.size)), np.eye(a.dim))
        assert allclose(schur_product(unit, a), a, tol=1e-13)
        assert allclose(schur_product(a, unit), a, tol=1e-13)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DimensionMismatchError):
            schur_product(random_dense(4, 2, rng), random_dense(5, 2, rng))


class TestArithmetic:
    def test_add_matches_blocks(self):
        rng = np.random.default_rng(7)
        a, b = _sample(TOEPLITZ, rng), _sample(BANDED, rng)
        np.testing.assert_allclose((a + b).blocks(), a.blocks() + b.blocks(),
                                   atol=1e-14)
        np.testing.assert_allclose((a - b).blocks(), a.blocks() - b.blocks(),
                                   atol=1e-14)

    def test_structure_union_rules(self):
        rng = np.random.default_rng(8)
        t, b, d = (_sample(k, rng) for k in (TOEPLITZ, BANDED, DENSE))
        assert (t + t).structure == TOEPLITZ
        assert (t + b).structure == BANDED
        assert (t + d).structure == DENSE

    def test_scalar_multiple(self):
        rng = np.random.default_rng(9)
        a = _sample(TOEPLITZ, rng)
        np.testing.assert_allclose((2j * a).blocks(), 2j * a.blocks())
        assert (2j * a).structure == TOEPLITZ


class TestAdjoint:
    @pytest.mark.parametrize("kind", [DENSE, TOEPLITZ, BANDED])
    def test_flat_conjugate_transpose(self, kind):
        rng = np.random.default_rng(10)
        a = _sample(kind, rng)
        np.testing.assert_allclose(
            adjoint(a).flatten(), a.flatten().conj().T, atol=0
        )
        assert adjoint(a).structure == kind

    def test_involution(self):
        rng = np.random.default_rng(11)
        a = _sample(BANDED, rng)
        assert allclose(adjoint(adjoint(a)), a, tol=0)


class TestApply:
    @pytest.mark.parametrize("kind", [DENSE, TOEPLITZ, BANDED])
    def test_matches_reference(self, kind):
        rng = np.random.default_rng(12)
        a = _sample(kind, rng)
        x = random_vector(a.size, a.dim, rng)
        np.testing.assert_allclose(
            apply(a, x).parts, apply_reference(a.blocks(), x.parts), atol=1e-12
        )

    def test_matches_flat_action(self):
        rng = np.random.default_rng(13)
        a = _sample(TOEPLITZ, rng)
        x = random_vector(a.size, a.dim, rng)
        np.testing.assert_allclose(
            apply(a, x).flatten(), a.flatten() @ x.flatten(), atol=1e-12
        )

    def test_size_mismatch(self):
        rng = np.random.default_rng(14)
        a = _sample(DENSE, rng)
        with pytest.raises(DimensionMismatchError):
            apply(a, random_vector(a.size + 1, a.dim, rng))

    @pytest.mark.parametrize("kind", [TOEPLITZ, BANDED])
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_bitwise_on_outermost_diagonals(self, kind, size):
        """Integer-valued entries make every sum exact, so apply must agree
        with the reference bit for bit; offsets +-(N-1) hold one block."""
        rng = np.random.default_rng(15)

        def ints(*shape):
            return rng.integers(-9, 10, shape) + 1j * rng.integers(-9, 10, shape)

        offsets = sorted({-(size - 1), 0, size - 1})
        if kind == TOEPLITZ:
            a = BlockMatrix.toeplitz({l: ints(3, 3) for l in offsets}, size)
        else:
            a = BlockMatrix.banded({l: ints(size - abs(l), 3, 3) for l in offsets}, size)
        x = BlockVector(ints(size, 3))
        want = apply_reference(a.blocks(), x.parts)
        assert np.array_equal(apply(a, x).parts.view(float), want.view(float))


class TestRankOneAndTensor:
    def test_rank_one_entries(self):
        rng = np.random.default_rng(15)
        x = random_vector(4, 2, rng)
        y = random_vector(4, 2, rng)
        z = gaussian(rng, 2)
        a = rank_one(x, y)
        for k in range(4):
            for j in range(4):
                np.testing.assert_allclose(
                    a.entry(k, j).apply(z),
                    inner(z, x.block(j)) * y.block(k),
                    atol=1e-13,
                )

    def test_rank_one_applies_as_projection(self):
        rng = np.random.default_rng(16)
        x = random_vector(5, 2, rng)
        y = random_vector(5, 2, rng)
        z = random_vector(5, 2, rng)
        got = apply(rank_one(x, y), z)
        np.testing.assert_allclose(got.parts, z.inner(x) * y.parts, atol=1e-12)

    def test_rank_one_flat_norm(self):
        rng = np.random.default_rng(17)
        x = random_vector(6, 3, rng)
        y = random_vector(6, 3, rng)
        got = spectral_norm(rank_one(x, y).flatten())
        assert got == pytest.approx(x.norm() * y.norm(), abs=1e-10)

    def test_tensor_scalar_entries(self):
        rng = np.random.default_rng(18)
        scalar = gaussian(rng, (3, 3))
        block = gaussian(rng, (2, 2))
        a = tensor_scalar(scalar, block)
        np.testing.assert_allclose(a.entry(1, 2).matrix, scalar[1, 2] * block)

    def test_tensor_scalar_is_kronecker(self):
        rng = np.random.default_rng(19)
        scalar = gaussian(rng, (3, 3))
        block = gaussian(rng, (2, 2))
        np.testing.assert_allclose(
            tensor_scalar(scalar, block).flatten(), np.kron(scalar, block),
            atol=0,
        )


class TestShortBandedRuns:
    """A banded sum keeps a run of one block on each diagonal that only
    its toeplitz operand stores, and every reader broadcasts it."""

    def _sum(self):
        rng = np.random.default_rng(31)
        t = random_toeplitz(6, 2, rng, range(-3, 3))
        b = random_banded(6, 2, rng, (0, 1))
        return t + b, t.blocks() + b.blocks()

    def test_stores_runs_of_one_block(self):
        s, dense = self._sum()
        assert s.structure == BANDED
        assert [len(s._run(l)) for l in s.diagonal_support()] == [1, 1, 1, 6, 5, 1]
        np.testing.assert_array_equal(s.blocks(), dense)

    def test_readers_match_the_dense_reference(self):
        s, dense = self._sum()
        x = random_vector(6, 2, np.random.default_rng(32))
        np.testing.assert_allclose(apply(s, x).parts, apply_reference(dense, x.parts),
                                   atol=1e-13)
        np.testing.assert_array_equal(adjoint(s).blocks(),
                                      dense.conj().transpose(1, 0, 3, 2))
        np.testing.assert_array_equal(truncate(s, 4).blocks(), dense[:4, :4])
        index = np.arange(6)
        want = [max(spectral_norm(dense[k, k + l]) for k in index if 0 <= k + l < 6)
                for l in s.diagonal_support()]
        np.testing.assert_allclose(s.diagonal_norms(), want, rtol=1e-14)

    def test_payload_round_trip_keeps_the_bytes(self):
        s, dense = self._sum()
        text = dumps_canonical(matrix_to_payload(s))
        back = matrix_from_payload(json.loads(text))
        np.testing.assert_array_equal(back.blocks(), dense)
        assert dumps_canonical(matrix_to_payload(back)) == text


class TestTruncate:
    def test_preserves_structure_and_entries(self):
        rng = np.random.default_rng(20)
        for kind in (DENSE, TOEPLITZ, BANDED):
            a = _sample(kind, rng, size=8)
            cut = truncate(a, 5)
            assert cut.structure == kind and cut.size == 5
            np.testing.assert_allclose(cut.blocks(), a.blocks()[:5, :5],
                                       atol=0)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_norm_never_grows(self, seed):
        rng = np.random.default_rng(seed)
        a = random_dense(8, 2, rng)
        for size in (7, 4, 2, 1):
            assert (spectral_norm(truncate(a, size).flatten())
                    <= spectral_norm(a.flatten()) + 1e-12)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            truncate(BlockMatrix.identity(4, 2), 0)


def _weight(offsets):
    return (0.5 + 0.25j) ** np.abs(offsets) * np.exp(0.3j * offsets)


class TestScaleDiagonals:
    @pytest.mark.parametrize("kind", [DENSE, TOEPLITZ, BANDED])
    @pytest.mark.parametrize(
        "support",
        [None, frozenset({-1, 0, 3}), frozenset({-9, 7})],
        ids=["all", "partial", "disjoint"],
    )
    def test_matches_entrywise_reference(self, kind, support):
        a = _sample(kind, np.random.default_rng(24))
        got = scale_diagonals(a, _weight, support)
        index = np.arange(a.size)
        gaps = index[None, :] - index[:, None]
        weights = _weight(gaps)
        if support is not None:
            weights = weights * np.isin(gaps, sorted(support))
        np.testing.assert_allclose(
            got.blocks(), a.blocks() * weights[:, :, None, None], atol=1e-14
        )
        dense_tag = DENSE if support is None else BANDED
        assert got.structure == (dense_tag if kind == DENSE else kind)


class TestToeplitzMemory:
    """Diagonal-wise operations on toeplitz storage never allocate O(N)."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: adjoint(a),
            lambda a, b: truncate(a, a.size // 2),
            lambda a, b: schur_product(a, b),
            lambda a, b: a - b,
            lambda a, b: 2j * a,
            lambda a, b: smooth(a, ScalarSymbol.fejer(3)),
            lambda a, b: smooth(a, ScalarSymbol.poisson(0.5)),
            lambda a, b: modulate(a, 0.7),
            lambda a, b: analytic_eval(a, 0.5j),
        ],
        ids=["adjoint", "truncate", "schur_product", "difference", "scalar",
             "smooth_fejer", "smooth_poisson", "modulate", "analytic_eval"],
    )
    def test_peak_below_one_megabyte(self, op):
        rng = np.random.default_rng(25)
        a = random_toeplitz(2**20, 2, rng, (0, 1, 2))
        b = random_toeplitz(2**20, 2, rng, (-1, 0, 1))
        tracemalloc.start()
        try:
            result = op(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.structure == TOEPLITZ
        assert peak < 1_000_000


class TestStructureFlags:
    def test_upper_triangular_from_content(self):
        rng = np.random.default_rng(21)
        upper = random_banded(6, 2, rng, (0, 2))
        assert upper.upper_triangular
        two_sided = random_banded(6, 2, rng, (-1, 2))
        assert not two_sided.upper_triangular

    def test_upper_triangular_sees_through_zero_runs(self):
        runs = {-1: np.zeros((5, 2, 2)), 0: np.ones((6, 2, 2))}
        assert BlockMatrix.banded(runs, 6).upper_triangular

    def test_dense_upper_triangular(self):
        blocks = np.zeros((4, 4, 2, 2), dtype=complex)
        blocks[0, 2] = np.eye(2)
        assert BlockMatrix.dense(blocks).upper_triangular
        blocks[3, 1] = np.eye(2)
        assert not BlockMatrix.dense(blocks).upper_triangular

    def test_diagonal_extraction(self):
        rng = np.random.default_rng(22)
        a = _sample(DENSE, rng)
        blocks = diagonal(a, 1)
        assert len(blocks) == a.size - 1
        np.testing.assert_array_equal(blocks[2].matrix, a.entry(2, 3).matrix)

    def test_max_block_norm(self):
        a = BlockMatrix.toeplitz({0: np.diag([1.0, 4.0]), 1: np.eye(2)}, 3)
        assert a.max_block_norm() == pytest.approx(4.0)

    def test_allclose_ignores_storage(self):
        rng = np.random.default_rng(23)
        t = _sample(TOEPLITZ, rng)
        assert allclose(t, BlockMatrix.dense(t.blocks()), tol=0)
