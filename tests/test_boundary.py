"""Public entries refuse a malformed parameter with the package's own
error, before they draw or allocate anything.

One row per call: a size or dim below its floor, a real or complex
scalar that is a string, None, a bool or not finite, a sequence that is
not iterable, not one pair or empty (tail deltas included), a map that
is not a mapping or is empty, a coefficient offset that is not an
integer, a weight that is not callable, angles that are complex or not
finite, an entry array of strings, bools or objects, ragged, empty or
with a NaN or infinite entry, given to a constructor or to a function
that reads arrays, a diagonal weight that returns anything but finite
numbers of the offsets' shape, or block, vector or matrix arithmetic, a
Schur product, an inner product, a vector norm, a matrix action, a
rank-one or a tensor-scalar matrix whose result overflows.  Each
refusal is a :class:`StructureError`; none is numpy's or Python's bare
error or warning, and none is a silent cast or default.  Offsets
outside the truncation window and entry arrays of the wrong shape, such
as blocks of different dims within one map, keep their own types, in
``TYPED_ROWS``."""

import tracemalloc

import numpy as np
import pytest

from opschur.analysis import (
    OperatorSymbol,
    VectorPolynomial,
    analytic_eval,
    boundary_profile,
    dilation_matrix,
    modulate,
    smoothing_profile,
    symbol_analytic_eval,
)
from opschur.blocks import BlockVector, OperatorBlock, inner, singular_values
from opschur.errors import (
    CoefficientSupportError,
    DiagonalRangeError,
    DimensionMismatchError,
    DiscDomainError,
    StructureError,
)
from opschur.kernels import (
    ScalarSymbol,
    fejer_family,
    kernel_axiom_check,
    mask,
    modulation_mask,
)
from opschur.matrices import (
    BlockMatrix,
    allclose,
    apply,
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
from opschur.norms import multiplier_lower_bound, power_iteration

# upper triangular and toeplitz, so every row below reaches its check
A = BlockMatrix.identity(4, 2)
EYE = np.eye(2)
BLOCK = OperatorBlock(EYE)
VECTOR = BlockVector([[1.0, 0.0]])
SYMBOL = OperatorSymbol({0: EYE})
POLYNOMIAL = VectorPolynomial({0: np.ones(2)})
SCALAR = ScalarSymbol.trig_polynomial({0: 1.0})
POISSON = ScalarSymbol.poisson(0.5)
HUGE = np.full((1, 1), 1e308)
HUGE_MATRIX = BlockMatrix.toeplitz({0: HUGE}, 2)
# stores offsets 0 and 1, so a weight must give two numbers
BAND = BlockMatrix.toeplitz({0: EYE, 1: EYE}, 4)

ROWS = {
    # sizes and dims below their floor
    "random-dense-negative-size": lambda: random_dense(-1, 2, 0),
    "random-dense-negative-dim": lambda: random_dense(4, -2, 0),
    "random-toeplitz-negative-dim": lambda: random_toeplitz(4, -2, 0, [0]),
    "random-toeplitz-size-zero": lambda: random_toeplitz(0, 2, 0, [0]),
    "random-banded-negative-size": lambda: random_banded(-4, 2, 0, (0, 0)),
    "random-banded-negative-dim": lambda: random_banded(4, -2, 0, (0, 0)),
    "random-vector-negative-size": lambda: random_vector(-1, 2, 0),
    "toeplitz-size-zero": lambda: BlockMatrix.toeplitz({0: EYE}, 0),
    "toeplitz-negative-size": lambda: BlockMatrix.toeplitz({0: EYE}, -1),
    "banded-size-zero": lambda: BlockMatrix.banded({0: np.zeros((1, 2, 2))}, 0),
    "toeplitz-dim-zero": lambda: BlockMatrix.toeplitz({0: np.zeros((0, 0))}, 4),
    "banded-dim-zero": lambda: BlockMatrix.banded({0: np.zeros((4, 0, 0))}, 4),
    "identity-negative-size": lambda: BlockMatrix.identity(-1, 2),
    "identity-negative-dim": lambda: BlockMatrix.identity(4, -2),
    "mask-negative-size": lambda: mask(SCALAR, -1, 2),
    "mask-negative-dim": lambda: mask(SCALAR, 4, -2),
    "modulation-mask-negative-dim": lambda: modulation_mask(0.5, 4, -2),
    "dilation-size-one": lambda: dilation_matrix(1, 2),
    "dilation-negative-dim": lambda: dilation_matrix(4, -2),
    "truncate-size-zero": lambda: truncate(A, 0),
    # real scalars
    "poisson-string": lambda: ScalarSymbol.poisson("x"),
    "poisson-none": lambda: ScalarSymbol.poisson(None),
    "modulate-string": lambda: modulate(A, "x"),
    "modulate-bool": lambda: modulate(A, True),
    "modulate-nan": lambda: modulate(A, float("nan")),
    "modulation-mask-string": lambda: modulation_mask("x", 4, 2),
    "boundary-radius-string": lambda: boundary_profile(A, ["x"]),
    "toeplitz-decay-string": lambda: random_toeplitz(4, 2, 0, [0], decay="x"),
    "banded-decay-string": lambda: random_banded(4, 2, 0, (0, 1), decay="x"),
    "allclose-tol-string": lambda: allclose(A, A, tol="x"),
    "allclose-tol-none": lambda: allclose(A, A, tol=None),
    "axiom-delta-string": lambda: kernel_axiom_check(fejer_family(), [1], deltas=["x"]),
    # complex scalars
    "analytic-eval-none": lambda: analytic_eval(A, None),
    "analytic-eval-string": lambda: analytic_eval(A, "x"),
    "symbol-analytic-eval-string": lambda: symbol_analytic_eval(A, "x"),
    "scalar-multiple-string": lambda: A * "x",
    "operator-block-scalar-string": lambda: BLOCK * "x",
    "block-vector-scalar-string": lambda: VECTOR * "x",
    "operator-symbol-eval-string": lambda: SYMBOL.eval("x"),
    # sequences
    "banded-bounds-none": lambda: random_banded(4, 2, 0, None),
    "banded-bounds-triple": lambda: random_banded(4, 2, 0, (0, 1, 2)),
    "toeplitz-offsets-none": lambda: random_toeplitz(4, 2, 0, None),
    "boundary-radii-none": lambda: boundary_profile(A, None),
    "profile-orders-none": lambda: smoothing_profile(A, fejer_family(), None),
    "axiom-orders-none": lambda: kernel_axiom_check(fejer_family(), None),
    "banded-bounds-reversed": lambda: random_banded(4, 2, 0, (1, 0)),
    "boundary-radii-empty": lambda: boundary_profile(A, []),
    "profile-orders-empty": lambda: smoothing_profile(A, fejer_family(), []),
    "axiom-orders-empty": lambda: kernel_axiom_check(fejer_family(), []),
    "axiom-deltas-empty": lambda: kernel_axiom_check(fejer_family(), [1], deltas=()),
    # maps and choices
    "toeplitz-map-empty": lambda: BlockMatrix.toeplitz({}, 4),
    "banded-map-empty": lambda: BlockMatrix.banded({}, 4),
    "operator-symbol-map-empty": lambda: OperatorSymbol({}),
    "vector-polynomial-map-empty": lambda: VectorPolynomial({}),
    "toeplitz-map-list": lambda: BlockMatrix.toeplitz([EYE], 4),
    "banded-map-list": lambda: BlockMatrix.banded([np.zeros((4, 2, 2))], 4),
    "operator-symbol-map-list": lambda: OperatorSymbol([EYE]),
    "vector-polynomial-map-list": lambda: VectorPolynomial([np.ones(2)]),
    "trig-polynomial-map-list": lambda: ScalarSymbol.trig_polynomial([1.0]),
    "trig-polynomial-map-none": lambda: ScalarSymbol.trig_polynomial(None),
    "trig-polynomial-map-empty-list": lambda: ScalarSymbol.trig_polynomial([]),
    "trig-polynomial-map-zero": lambda: ScalarSymbol.trig_polynomial(0),
    "multiplier-side-unknown": lambda: multiplier_lower_bound(A, side="up"),
    # coefficient offsets
    "coeff-half": lambda: SCALAR.coeff(0.5),
    "coeff-bool": lambda: SCALAR.coeff(True),
    "coeff-string": lambda: SCALAR.coeff("x"),
    "coeff-none": lambda: SCALAR.coeff(None),
    "coeff-array-half": lambda: SCALAR.coeff_array([0.5]),
    "coeff-array-bool": lambda: SCALAR.coeff_array([True]),
    "poisson-coeff-half": lambda: POISSON.coeff(1.5),
    # callables
    "scale-diagonals-weight-string": lambda: scale_diagonals(A, "x"),
    # what a weight returns
    "scale-diagonals-weight-scalar": lambda: scale_diagonals(BAND, lambda l: 2.0),
    "scale-diagonals-weight-strings": lambda: scale_diagonals(BAND, lambda l: ["x", "y"]),
    "scale-diagonals-weight-nan": lambda: scale_diagonals(BAND, lambda l: np.full(2, np.nan)),
    "scale-diagonals-weight-short": lambda: scale_diagonals(BAND, lambda l: np.ones(1)),
    # entry arrays
    "dense-string": lambda: BlockMatrix.dense("x"),
    "toeplitz-block-string": lambda: BlockMatrix.toeplitz({0: "x"}, 4),
    "banded-run-string": lambda: BlockMatrix.banded({0: [[["x"]]]}, 1),
    "operator-block-string": lambda: OperatorBlock("x"),
    "block-vector-string": lambda: BlockVector("x"),
    "operator-symbol-string": lambda: OperatorSymbol({0: "x"}),
    "trig-polynomial-string": lambda: ScalarSymbol.trig_polynomial({0: "x"}),
    "tensor-scalar-string": lambda: tensor_scalar("x", EYE),
    "trig-polynomial-numeric-string": lambda: ScalarSymbol.trig_polynomial({0: "1.5"}),
    "operator-block-numeric-strings": lambda: OperatorBlock([["1", "2"], ["3", "4"]]),
    "block-vector-bools": lambda: BlockVector([[True, False]]),
    "operator-block-ragged": lambda: OperatorBlock([[1, 2], [3]]),
    "rank-one-factor-string": lambda: OperatorBlock.outer("x", "y"),
    "flat-vector-string": lambda: BlockVector.from_flat("x", 2),
    "basis-part-string": lambda: BlockVector.basis(4, 2, 0, "x"),
    "power-iteration-string": lambda: power_iteration("x"),
    "singular-values-string": lambda: singular_values("x"),
    "singular-values-infinite": lambda: singular_values(np.full((2, 2), np.inf)),
    "singular-values-nan": lambda: singular_values(np.full((2, 2), np.nan)),
    "inner-strings": lambda: inner("x", "y"),
    "scalar-symbol-values-string": lambda: SCALAR.values("x"),
    "poisson-values-string": lambda: POISSON.values("x"),
    "scalar-symbol-values-matrix": lambda: SCALAR.values(np.zeros((2, 2))),
    "poisson-values-matrix": lambda: POISSON.values(np.zeros((2, 2))),
    "operator-symbol-values-matrix": lambda: SYMBOL.values(np.zeros((2, 2))),
    "vector-polynomial-values-matrix": lambda: POLYNOMIAL.values(np.zeros((2, 2))),
    "power-iteration-vector": lambda: power_iteration(np.ones(3)),
    "inner-shapes": lambda: inner(np.ones(2), np.ones(3)),
    "operator-block-apply-string": lambda: BLOCK.apply("x"),
    "operator-block-empty": lambda: OperatorBlock(np.zeros((0, 0))),
    "block-vector-empty": lambda: BlockVector(np.zeros((2, 0))),
    "dense-nan": lambda: BlockMatrix.dense(np.full((1, 1, 1, 1), np.nan)),
    "toeplitz-block-infinite": lambda: BlockMatrix.toeplitz({0: [[np.inf]]}, 2),
    "banded-run-nan": lambda: BlockMatrix.banded({0: [[[np.nan]]]}, 1),
    "trig-polynomial-nan": lambda: ScalarSymbol.trig_polynomial({0: np.nan}),
    "operator-symbol-infinite": lambda: OperatorSymbol({0: [[-np.inf]]}),
    "operator-block-apply-nan": lambda: BLOCK.apply([np.nan, 0.0]),
    "tensor-scalar-nan": lambda: tensor_scalar([[np.nan]], EYE),
    "basis-part-infinite": lambda: BlockVector.basis(4, 2, 0, [np.inf, 0.0]),
    # angles
    "scalar-symbol-values-complex": lambda: SCALAR.values(np.array([1 + 1j])),
    "scalar-symbol-values-nan": lambda: SCALAR.values(np.array([0.0, np.nan])),
    "poisson-values-complex": lambda: POISSON.values(1j),
    "operator-symbol-values-infinite": lambda: SYMBOL.values(np.inf),
    # arithmetic that overflows
    "operator-block-sum-overflow": lambda: OperatorBlock(HUGE) + OperatorBlock(HUGE),
    "operator-block-multiple-overflow": lambda: OperatorBlock(HUGE) * 10.0,
    "operator-block-compose-overflow": lambda: OperatorBlock(HUGE).compose(OperatorBlock(HUGE)),
    "block-vector-multiple-overflow": lambda: BlockVector(HUGE) * 10.0,
    "matrix-sum-overflow": lambda: HUGE_MATRIX + HUGE_MATRIX,
    "matrix-difference-overflow": lambda: HUGE_MATRIX - BlockMatrix.toeplitz({0: -HUGE}, 2),
    "diagonal-scaling-overflow": lambda: HUGE_MATRIX * 10.0,
    "schur-product-overflow": lambda: schur_product(HUGE_MATRIX, HUGE_MATRIX),
    "inner-overflow": lambda: inner(HUGE[0], HUGE[0]),
    "block-vector-inner-overflow": lambda: BlockVector(HUGE).inner(BlockVector(HUGE)),
    "block-vector-norm-overflow": lambda: BlockVector(np.full((1, 2), 1.7e308)).norm(),
}

TYPED_ROWS = {
    "banded-bounds-below-window":
        (lambda: random_banded(4, 2, 0, (-5, 0)), DiagonalRangeError),
    "banded-bounds-far-above-window":
        (lambda: random_banded(4, 2, 0, (0, 10**12)), DiagonalRangeError),
    # a draw of 64 x 64 blocks would show in the peak
    "toeplitz-offset-outside-window":
        (lambda: random_toeplitz(4, 64, 0, [0, 5]), CoefficientSupportError),
    "operator-block-sum-dims":
        (lambda: OperatorBlock(np.eye(1)) + OperatorBlock(np.eye(3)), DimensionMismatchError),
    "operator-block-difference-dims":
        (lambda: OperatorBlock(np.eye(2)) - OperatorBlock(np.eye(3)), DimensionMismatchError),
    "basis-part-shape":
        (lambda: BlockVector.basis(4, 2, 0, [1.0, 2.0, 3.0]), DimensionMismatchError),
    # one block side across the whole map
    "toeplitz-map-dims":
        (lambda: BlockMatrix.toeplitz({0: EYE, 1: np.eye(3)}, 4), DimensionMismatchError),
    "banded-map-dims":
        (lambda: BlockMatrix.banded({0: np.zeros((4, 2, 2)), 1: np.zeros((3, 3, 3))}, 4),
         DimensionMismatchError),
    "operator-symbol-map-dims":
        (lambda: OperatorSymbol({0: EYE, 1: np.eye(3)}), DimensionMismatchError),
    "vector-polynomial-map-dims":
        (lambda: VectorPolynomial({0: np.ones(2), 1: np.ones(3)}), DimensionMismatchError),
}


def _refusal_peak(call, error) -> int:
    """Traced peak of a call that must raise exactly ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as err:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert type(err.value) is error
    return peak


@pytest.mark.parametrize("call", ROWS.values(), ids=ROWS.keys())
def test_refused_before_allocating(call):
    # the exception and its message; no array of the call's size
    assert _refusal_peak(call, StructureError) < 10_000


@pytest.mark.parametrize("call, error", TYPED_ROWS.values(), ids=TYPED_ROWS.keys())
def test_refused_with_own_type_before_drawing(call, error):
    assert _refusal_peak(call, error) < 10_000


def test_range_errors_keep_their_types():
    with pytest.raises(ValueError) as err:
        ScalarSymbol.poisson(1.0)
    assert type(err.value) is ValueError
    with pytest.raises(ValueError) as err:
        analytic_eval(A, 1.5)
    assert type(err.value) is DiscDomainError


@pytest.mark.parametrize(
    "call, operation",
    [(lambda: OperatorBlock(HUGE) + OperatorBlock(HUGE), "block sum"),
     (lambda: OperatorBlock(HUGE) - OperatorBlock(-HUGE), "block difference"),
     (lambda: OperatorBlock(HUGE) * 10.0, "block multiple"),
     (lambda: OperatorBlock(HUGE).compose(OperatorBlock(HUGE)), "block composition"),
     (lambda: BlockVector(HUGE) + BlockVector(HUGE), "vector sum"),
     (lambda: BlockVector(HUGE) - BlockVector(-HUGE), "vector difference"),
     (lambda: 10.0 * BlockVector(HUGE), "vector multiple"),
     (lambda: HUGE_MATRIX + HUGE_MATRIX, "matrix sum"),
     (lambda: HUGE_MATRIX - (-1.0 * HUGE_MATRIX), "matrix difference"),
     (lambda: 10.0 * BlockMatrix.dense(np.full((2, 2, 1, 1), 1e308)), "diagonal scaling"),
     (lambda: schur_product(HUGE_MATRIX, HUGE_MATRIX), "schur product"),
     (lambda: BlockVector(np.full((1, 2), 1.7e308)).norm(), "vector norm"),
     (lambda: BlockVector(HUGE).inner(BlockVector(HUGE)), "inner product"),
     (lambda: apply(BlockMatrix.toeplitz({0: HUGE, 1: HUGE}, 2), BlockVector([[1.0], [1.0]])),
      "matrix action"),
     # a run of two blocks, so the product is an einsum, which sets no flags
     (lambda: apply(BlockMatrix.banded({0: [HUGE, HUGE]}, 2), BlockVector([[10.0], [1.0]])),
      "matrix action"),
     (lambda: apply(BlockMatrix.dense(np.full((2, 2, 1, 1), 1e308)),
                    BlockVector([[1.0], [1.0]])), "matrix action"),
     (lambda: rank_one(BlockVector(HUGE), BlockVector(HUGE)), "rank one"),
     (lambda: tensor_scalar(HUGE, HUGE), "tensor scalar")],
    ids=["block-sum", "block-difference", "block-multiple", "block-composition",
         "vector-sum", "vector-difference", "vector-multiple", "matrix-sum",
         "matrix-difference", "diagonal-scaling", "schur-product", "vector-norm",
         "inner-product", "toeplitz-action", "banded-action", "dense-action", "rank-one",
         "tensor-scalar"],
)
def test_overflow_names_the_operation(call, operation):
    with pytest.raises(StructureError, match=f"^{operation} overflows"):
        call()
