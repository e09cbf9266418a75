import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur.blocks import (
    BlockVector,
    OperatorBlock,
    inner,
    singular_triples,
    singular_values,
)
from opschur.errors import DimensionMismatchError, StructureError

from oracles import gaussian, matmul_reference

seeds = st.integers(min_value=0, max_value=10**6)


class TestOperatorBlock:
    def test_compose_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = gaussian(rng, (3, 3))
            y = gaussian(rng, (3, 3))
            got = OperatorBlock(x).compose(OperatorBlock(y)).matrix
            np.testing.assert_allclose(got, matmul_reference(x, y), atol=1e-13)

    def test_compose_is_self_after_other(self):
        # x then y differs from y then x for non-commuting blocks
        x = OperatorBlock(np.array([[0, 1], [0, 0]], dtype=complex))
        y = OperatorBlock(np.array([[0, 0], [1, 0]], dtype=complex))
        np.testing.assert_allclose(x.compose(y).matrix, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(y.compose(x).matrix, np.diag([0.0, 1.0]))

    def test_identity_and_zero(self):
        rng = np.random.default_rng(1)
        b = OperatorBlock(gaussian(rng, (2, 2)))
        assert (OperatorBlock.identity(2).compose(b) - b).norm() == 0.0
        assert OperatorBlock.zero(2).compose(b).norm() == 0.0
        assert OperatorBlock.identity(3).norm() == 1.0

    def test_outer_action(self):
        rng = np.random.default_rng(2)
        x, y, z = (gaussian(rng, 4) for _ in range(3))
        block = OperatorBlock.outer(x, y)
        np.testing.assert_allclose(block.apply(z), inner(z, x) * y, atol=1e-13)

    def test_outer_norm_is_product_of_norms(self):
        rng = np.random.default_rng(3)
        x, y = gaussian(rng, 5), gaussian(rng, 5)
        expected = np.linalg.norm(x) * np.linalg.norm(y)
        assert OperatorBlock.outer(x, y).norm() == pytest.approx(expected, abs=1e-12)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_adjoint_moves_across_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        b = OperatorBlock(gaussian(rng, (3, 3)))
        v, w = gaussian(rng, 3), gaussian(rng, 3)
        lhs = inner(b.apply(v), w)
        rhs = inner(v, b.adjoint().apply(w))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjoint_reverses_composition(self):
        rng = np.random.default_rng(4)
        x = OperatorBlock(gaussian(rng, (3, 3)))
        y = OperatorBlock(gaussian(rng, (3, 3)))
        diff = x.compose(y).adjoint() - y.adjoint().compose(x.adjoint())
        assert diff.norm() <= 1e-13

    def test_adjoint_preserves_norm(self):
        rng = np.random.default_rng(5)
        b = OperatorBlock(gaussian(rng, (4, 4)))
        assert b.adjoint().norm() == pytest.approx(b.norm(), abs=1e-12)

    def test_norm_is_spectral(self):
        b = OperatorBlock(np.diag([3.0, 1.0, 2.0]))
        assert b.norm() == 3.0

    def test_arithmetic(self):
        rng = np.random.default_rng(6)
        x = OperatorBlock(gaussian(rng, (2, 2)))
        y = OperatorBlock(gaussian(rng, (2, 2)))
        np.testing.assert_allclose((x + y).matrix, x.matrix + y.matrix)
        np.testing.assert_allclose((x - y).matrix, x.matrix - y.matrix)
        np.testing.assert_allclose((2.5j * x).matrix, 2.5j * x.matrix)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            OperatorBlock(np.zeros((2, 3)))

    def test_matrix_is_read_only(self):
        b = OperatorBlock.identity(2)
        with pytest.raises(ValueError):
            b.matrix[0, 0] = 5.0


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: OperatorBlock.identity(2.5), StructureError, "^dim 2.5 is not an integer$"),
        (lambda: OperatorBlock.identity(True), StructureError, "^dim True is not an integer$"),
        (lambda: OperatorBlock.identity(0), StructureError, "^dim must be at least 1, got 0$"),
        (lambda: OperatorBlock.zero(2.5), StructureError, "^dim 2.5 is not an integer$"),
        (lambda: BlockVector.basis(2.5, 2, 0, [1, 2]), StructureError,
         "^size 2.5 is not an integer$"),
        (lambda: BlockVector.basis(4, 2, 1.5, [1, 2]), StructureError,
         "^slot 1.5 is not an integer$"),
        (lambda: BlockVector.basis(4, 2, True, [1, 2]), StructureError,
         "^slot True is not an integer$"),
        (lambda: BlockVector.basis(4, 2, 7, [1, 2]), IndexError, r"^slot 7 outside \[0, 4\)$"),
        (lambda: BlockVector.basis(4, 2, -1, [1, 2]), IndexError, r"^slot -1 outside \[0, 4\)$"),
        (lambda: BlockVector.from_flat(np.ones(4), 0), StructureError,
         "^dim must be at least 1, got 0$"),
        # numpy's IndexError, and a (1, N, d) array for True
        (lambda: BlockVector(np.ones((4, 2))).block(2.5), StructureError,
         "^slot 2.5 is not an integer$"),
        (lambda: BlockVector(np.ones((4, 2))).block(True), StructureError,
         "^slot True is not an integer$"),
        (lambda: BlockVector(np.ones((4, 2))).block(4), IndexError,
         r"^slot 4 outside \[0, 4\)$"),
        (lambda: BlockVector(np.ones((4, 2))).block(-1), IndexError,
         r"^slot -1 outside \[0, 4\)$"),
    ],
    ids=["identity-float", "identity-bool", "identity-zero", "zero-float",
         "basis-float-size", "basis-float-slot", "basis-bool-slot", "basis-slot-past-end",
         "basis-negative-slot", "from-flat-zero-dim", "block-float-slot", "block-bool-slot",
         "block-slot-past-end", "block-negative-slot"],
)
def test_sizes_and_slots_are_checked(build, error, message):
    # like BlockMatrix.entry: a non-integer is refused, never truncated
    # or wrapped, and an integer slot outside [0, size) is an IndexError
    with pytest.raises(error, match=message):
        build()


class TestBlockVector:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(7)
        v = BlockVector(gaussian(rng, (5, 3)))
        back = BlockVector.from_flat(v.flatten(), 3)
        np.testing.assert_array_equal(back.parts, v.parts)
        assert (back.size, back.dim) == (5, 3)

    def test_flatten_layout(self):
        # slot k occupies flat positions k*d .. (k+1)*d
        v = BlockVector(np.arange(6, dtype=complex).reshape(3, 2))
        np.testing.assert_array_equal(v.flatten(), np.arange(6, dtype=complex))

    def test_basis(self):
        part = np.array([1.0, 2.0j])
        v = BlockVector.basis(4, 2, 2, part)
        np.testing.assert_array_equal(v.block(2), part)
        assert v.norm() == pytest.approx(np.linalg.norm(part))
        np.testing.assert_array_equal(v.block(0), np.zeros(2))

    def test_inner_linear_in_first_argument(self):
        rng = np.random.default_rng(8)
        u = BlockVector(gaussian(rng, (4, 2)))
        v = BlockVector(gaussian(rng, (4, 2)))
        assert (2j * u).inner(v) == pytest.approx(2j * u.inner(v), abs=1e-12)
        assert u.inner(2j * v) == pytest.approx(-2j * u.inner(v), abs=1e-12)

    def test_norm_squared_is_self_inner(self):
        rng = np.random.default_rng(9)
        v = BlockVector(gaussian(rng, (6, 2)))
        assert v.inner(v).real == pytest.approx(v.norm() ** 2, abs=1e-12)

    def test_arithmetic(self):
        rng = np.random.default_rng(10)
        u = BlockVector(gaussian(rng, (3, 2)))
        v = BlockVector(gaussian(rng, (3, 2)))
        np.testing.assert_allclose((u + v).parts, u.parts + v.parts)
        np.testing.assert_allclose((u - v).parts, u.parts - v.parts)
        np.testing.assert_allclose((1.5j * u).parts, 1.5j * u.parts)

    def test_size_mismatch(self):
        u = BlockVector(np.zeros((3, 2)))
        v = BlockVector(np.zeros((4, 2)))
        with pytest.raises(DimensionMismatchError):
            u + v


class TestSingularValues:
    def test_known_diagonal(self):
        np.testing.assert_allclose(
            singular_values(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0]
        )

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_descending_and_top_is_norm(self, seed):
        rng = np.random.default_rng(seed)
        m = gaussian(rng, (6, 6))
        s = singular_values(m)
        assert np.all(np.diff(s) <= 1e-12)
        assert s[0] == pytest.approx(np.linalg.norm(m, 2), abs=1e-10)

    def test_triples_reconstruct(self):
        rng = np.random.default_rng(11)
        m = gaussian(rng, (8, 8))
        u, s, vh = singular_triples(m)
        residual = np.linalg.norm(u @ np.diag(s) @ vh - m, 2)
        assert residual <= 1e-10 * np.linalg.norm(m, 2)

    def test_triples_top_pair_maximizes(self):
        rng = np.random.default_rng(12)
        m = gaussian(rng, (7, 7))
        u, s, vh = singular_triples(m)
        np.testing.assert_allclose(m @ vh[0].conj(), s[0] * u[:, 0], atol=1e-10)
