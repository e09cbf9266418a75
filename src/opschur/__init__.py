"""Calculus of matrices with operator entries on a truncated basis.

Matrices here have small complex blocks as entries.  The package
provides entrywise (Schur) products where multiplying entries means
composing operators, smoothing by summability kernels acting on block
diagonals, Toeplitz matrices tied to operator-valued symbols, and disc
evaluations of upper-triangular matrices, together with norm machinery
and a command line experiment runner.
"""

from .analysis import (
    BoundaryProfile,
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
from .blocks import BlockVector, OperatorBlock, singular_triples, singular_values
from .errors import (
    CoefficientSupportError,
    DiagonalRangeError,
    DimensionMismatchError,
    DiscDomainError,
    NonConvergenceError,
    SerializationError,
    StructureError,
)
from .kernels import (
    KernelAxiomReport,
    ScalarSymbol,
    SummabilityKernel,
    dirichlet_family,
    fejer_family,
    kernel_axiom_check,
    mask,
    modulation_mask,
    poisson_family,
    smooth,
)
from .matrices import (
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
from .norms import (
    NormEstimate,
    multiplier_lower_bound,
    op_norm,
    op_norm_sampled,
    power_iteration,
    symbol_sup_norm,
    wiener_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "BlockVector",
    "BoundaryProfile",
    "CoefficientSupportError",
    "ConvergenceProfile",
    "DiagonalRangeError",
    "DimensionMismatchError",
    "DiscDomainError",
    "KernelAxiomReport",
    "NonConvergenceError",
    "NormEstimate",
    "OperatorBlock",
    "OperatorSymbol",
    "ScalarSymbol",
    "SerializationError",
    "StructureError",
    "SummabilityKernel",
    "VectorPolynomial",
    "adjoint",
    "allclose",
    "analytic_eval",
    "apply",
    "boundary_profile",
    "coefficient_action",
    "coefficient_action_bound",
    "diagonal",
    "dilation_matrix",
    "dirichlet_family",
    "fejer_family",
    "kernel_axiom_check",
    "mask",
    "modulate",
    "modulation_mask",
    "multiplier_lower_bound",
    "op_norm",
    "op_norm_sampled",
    "poisson_family",
    "power_iteration",
    "random_banded",
    "random_dense",
    "random_toeplitz",
    "random_vector",
    "rank_one",
    "scale_diagonals",
    "schur_product",
    "singular_triples",
    "singular_values",
    "smooth",
    "smoothing_profile",
    "symbol_analytic_eval",
    "symbol_from_toeplitz",
    "symbol_sup_norm",
    "tensor_scalar",
    "toeplitz_from_symbol",
    "truncate",
    "wiener_norm",
]
