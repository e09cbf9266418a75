"""Reproducible numerical experiments over the block-matrix calculus.

Every experiment is a pure function of its configuration: instances are
drawn from seeded generators, results come back as named tables plus a
list of assertions, and running the same configuration twice produces
identical output files.  Assertions encode invariants that are expected
to hold (or expected failures, such as the growing Dirichlet norms), so
a run in check mode is a self-test of the library on live instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import analysis, kernels, matrices, norms
from .analysis import VectorPolynomial, dilation_matrix
from .blocks import OperatorBlock
from .kernels import ScalarSymbol
from .matrices import BlockMatrix

__all__ = [
    "ExperimentConfig",
    "Assertion",
    "Table",
    "ExperimentResult",
    "REGISTRY",
    "TOLERANCE_KEYS",
    "experiment_names",
    "run_experiment",
]

IDENTITY_TOLERANCE = 1e-9
BOUND_SLACK = 1e-8

TOLERANCE_KEYS = ("profile",)  # the keys ExperimentConfig.tolerances may set


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments; unused knobs are ignored."""

    dim: int = 2
    size: int = 16
    seed: int = 0
    tolerances: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Table:
    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    config: ExperimentConfig
    tables: tuple[Table, ...]
    assertions: tuple[Assertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def _rngs(config: ExperimentConfig, count: int) -> list[np.random.Generator]:
    seeds = np.random.SeedSequence(config.seed).spawn(count)
    return [np.random.default_rng(s) for s in seeds]


def _assert_cap(name: str, worst: float, cap: float) -> Assertion:
    return Assertion(name, worst <= cap, f"worst {worst:.6e}, cap {cap:.6e}")


def norm_identities(config: ExperimentConfig) -> ExperimentResult:
    """Exact norm identities checked on random instances.

    Rank-one matrices multiply vector norms, tensoring with a fixed
    block multiplies by its norm, the adjoint is isometric, and a block
    diagonal realizes the maximum of its entry norms.
    """
    trials = 20
    rows = []
    worst: dict[str, float] = {}

    def record(check: str, trial: int, lhs: float, rhs: float) -> None:
        err = abs(lhs - rhs)
        rows.append((check, trial, lhs, rhs, err))
        worst[check] = max(worst.get(check, 0.0), err)

    for trial, rng in enumerate(_rngs(config, trials)):
        x = matrices.random_vector(config.size, config.dim, rng)
        y = matrices.random_vector(config.size, config.dim, rng)
        record(
            "rank_one", trial,
            float(norms.op_norm(matrices.rank_one(x, y))),
            x.norm() * y.norm(),
        )

        scalar = rng.standard_normal((config.size, config.size)) + 1j * (
            rng.standard_normal((config.size, config.size))
        )
        block = rng.standard_normal((config.dim, config.dim)) + 1j * (
            rng.standard_normal((config.dim, config.dim))
        )
        record(
            "tensor_scalar", trial,
            float(norms.op_norm(matrices.tensor_scalar(scalar, block))),
            float(np.linalg.norm(scalar, 2)) * float(np.linalg.norm(block, 2)),
        )

        a = matrices.random_dense(config.size, config.dim, rng)
        record("adjoint", trial, float(norms.op_norm(matrices.adjoint(a))),
               float(norms.op_norm(a)))

        diag = matrices.random_banded(config.size, config.dim, rng, (0, 0))
        record("block_diagonal", trial, float(norms.op_norm(diag)),
               diag.max_block_norm())

    wiener_margin = 0.0
    for trial, rng in enumerate(_rngs(config, trials)):
        t = matrices.random_toeplitz(config.size, config.dim, rng,
                                     range(-3, 4), decay=0.6)
        gap = float(norms.op_norm(t)) - norms.wiener_norm(t)
        rows.append(("wiener_dominates", trial, float(norms.op_norm(t)),
                     norms.wiener_norm(t), max(gap, 0.0)))
        wiener_margin = max(wiener_margin, gap)

    assertions = [
        _assert_cap(f"{check}_identity", worst[check], IDENTITY_TOLERANCE)
        for check in ("rank_one", "tensor_scalar", "adjoint", "block_diagonal")
    ]
    assertions.append(
        _assert_cap("wiener_dominates", wiener_margin, IDENTITY_TOLERANCE)
    )
    return ExperimentResult(
        "norm-identities", config,
        (Table("identities", ("check", "trial", "lhs", "rhs", "error"),
               tuple(rows)),),
        tuple(assertions),
    )


def schur_submultiplicativity(config: ExperimentConfig) -> ExperimentResult:
    """Entrywise products never exceed the product of the factor norms."""
    trials = 200
    pairs = (
        ("dense", "dense"), ("toeplitz", "toeplitz"),
        ("banded", "banded"), ("toeplitz", "dense"), ("banded", "dense"),
    )
    rows = []
    worst = -math.inf
    for trial, rng in enumerate(_rngs(config, trials)):
        kind_a, kind_b = pairs[trial % len(pairs)]
        a = _random_by_kind(kind_a, config, rng)
        b = _random_by_kind(kind_b, config, rng)
        product = float(norms.op_norm(matrices.schur_product(a, b)))
        bound = float(norms.op_norm(a)) * float(norms.op_norm(b))
        margin = product - bound
        worst = max(worst, margin)
        rows.append((trial, kind_a, kind_b, product, bound, margin))
    return ExperimentResult(
        "schur-submultiplicativity", config,
        (Table("products",
               ("trial", "structure_a", "structure_b", "product_norm",
                "norm_bound", "margin"), tuple(rows)),),
        (_assert_cap("submultiplicative", worst, IDENTITY_TOLERANCE),),
    )


def _random_by_kind(kind: str, config: ExperimentConfig,
                    rng: np.random.Generator) -> BlockMatrix:
    if kind == "dense":
        return matrices.random_dense(config.size, config.dim, rng)
    if kind == "toeplitz":
        return matrices.random_toeplitz(config.size, config.dim, rng,
                                        range(-2, 3), decay=0.7)
    return matrices.random_banded(config.size, config.dim, rng, (-2, 2),
                                  decay=0.7)


def kernel_axioms(config: ExperimentConfig) -> ExperimentResult:
    """Axiom scorecard for the three classical kernel families.

    Fejer and Poisson satisfy all three axioms.  The Dirichlet family
    has mean one and is expected to fail the uniform-integrability
    axiom: its norms grow without bound, which is exactly why plain
    partial sums are not a smoothing method.
    """
    orders = (1, 2, 5, 10, 20, 50)
    deltas = (0.1, 0.5, 1.0)
    rows = []
    reports = {}
    for family in (kernels.fejer_family(), kernels.poisson_family(),
                   kernels.dirichlet_family()):
        report = kernels.kernel_axiom_check(family, orders, deltas=deltas)
        reports[family.name] = report
        for row in report.rows:
            rows.append((family.name, row.order, float(complex(row.mean).real),
                         row.l1_norm, *row.tails))
    assertions = [
        Assertion("fejer_all_axioms", reports["fejer"].all_axioms,
                  "mean one, uniformly integrable, vanishing tails"),
        Assertion("poisson_all_axioms", reports["poisson"].all_axioms,
                  "mean one, uniformly integrable, vanishing tails"),
        Assertion("dirichlet_mean_one", reports["dirichlet"].mean_one,
                  "zeroth coefficient is one"),
        Assertion("dirichlet_l1_grows", not reports["dirichlet"].uniform_l1,
                  "uniform integrability must fail for partial sums"),
    ]
    header = ("kernel", "order", "mean", "l1_norm",
              *(f"tail_{delta}" for delta in deltas))
    return ExperimentResult(
        "kernel-axioms", config,
        (Table("axioms", header, tuple(rows)),),
        tuple(assertions),
    )


SIGMA_ORDERS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                1024, 1536, 2048, 3072, 4096)
DILATION_ORDERS = tuple(range(1, 33))


def sigma_profiles(config: ExperimentConfig) -> ExperimentResult:
    """Smoothing distances for a banded matrix and for the dilation matrix.

    A banded matrix is recovered once the order dominates the bandwidth
    by a factor on the order of the required accuracy.  The dilation
    matrix, whose single entry per row drifts away from the main
    diagonal, keeps its distance bounded below no matter the order.
    """
    fejer = kernels.fejer_family()
    rng = _rngs(config, 1)[0]
    banded = matrices.random_banded(32, config.dim, rng, (0, 1), decay=0.5)
    banded_profile = analysis.smoothing_profile(
        banded, fejer, SIGMA_ORDERS,
        tolerance=config.tolerances.get("profile"),
    )
    dilation = dilation_matrix(64, config.dim)
    dilation_profile = analysis.smoothing_profile(
        dilation, fejer, DILATION_ORDERS,
        tolerance=config.tolerances.get("profile"),
    )
    rows = []
    for name, profile in (("banded", banded_profile),
                          ("dilation", dilation_profile)):
        for order, distance in zip(profile.indices, profile.distances):
            rows.append((name, order, distance, profile.tolerance))
    floor_cut = 0.5 * float(norms.op_norm(dilation))
    assertions = (
        Assertion("banded_converges", banded_profile.converged,
                  f"threshold {banded_profile.threshold_index}"),
        Assertion("dilation_stalls", not dilation_profile.converged,
                  f"floor {dilation_profile.floor:.6e}"),
        Assertion("dilation_floor", dilation_profile.floor >= floor_cut,
                  f"floor {dilation_profile.floor:.6e} vs {floor_cut:.6e}"),
    )
    return ExperimentResult(
        "sigma-profiles", config,
        (Table("distances", ("instance", "order", "distance", "tolerance"),
               tuple(rows)),),
        assertions,
    )


def _two_band_symbol() -> analysis.OperatorSymbol:
    """Norm-two symbol: identity plus opposing one-sided shifts."""
    e01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    e10 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return analysis.OperatorSymbol({0: np.eye(2, dtype=complex),
                                    1: e01, 2: e10})


def toeplitz_symbol_convergence(config: ExperimentConfig) -> ExperimentResult:
    """Truncation norms of a Toeplitz matrix approach its symbol norm."""
    symbol = _two_band_symbol()
    sup = float(norms.symbol_sup_norm(symbol))
    sizes = (4, 8, 16, 32, 64, 128, 256)
    rows = []
    values = []
    for size in sizes:
        value = float(norms.op_norm(analysis.toeplitz_from_symbol(symbol, size)))
        values.append(value)
        rows.append((size, value, sup, value / sup))
    drop = max(
        (prev - curr for prev, curr in zip(values, values[1:])),
        default=0.0,
    )
    assertions = (
        _assert_cap("norms_nondecreasing", drop, IDENTITY_TOLERANCE),
        _assert_cap("norms_below_symbol", max(values) - sup, BOUND_SLACK),
        Assertion("norms_approach_symbol", values[-1] >= 0.98 * sup,
                  f"final {values[-1]:.6f} vs symbol {sup:.6f}"),
    )
    return ExperimentResult(
        "toeplitz-symbol-convergence", config,
        (Table("truncations", ("size", "truncation_norm", "symbol_sup",
                               "ratio"), tuple(rows)),),
        assertions,
    )


def phi_bounds(config: ExperimentConfig) -> ExperimentResult:
    """Coefficient pairing for a smoothed one-block Toeplitz matrix.

    With Fejer weights on a single block the pairing acts by averaging
    and then applying the block, so its norm equals the block norm; the
    sampled estimate should land there and no random polynomial may
    exceed it.
    """
    size = 32
    rng = _rngs(config, 1)[0]
    block = (rng.standard_normal((config.dim, config.dim))
             + 1j * rng.standard_normal((config.dim, config.dim)))
    block_norm = float(np.linalg.norm(block, 2))
    weights = ScalarSymbol.fejer(8)
    coeffs = {l: weights.coeff(l) * block for l in weights.support()}
    a = BlockMatrix.toeplitz(coeffs, size)

    estimate = analysis.coefficient_action_bound(a, trials=120, max_degree=8,
                                                 seed=config.seed)
    rows = []
    worst_ratio = 0.0
    for trial, trial_rng in enumerate(_rngs(config, 100)):
        p = _random_polynomial(trial_rng, config.dim, max_degree=8)
        action = float(np.linalg.norm(analysis.coefficient_action(a, p)))
        sup = float(p.sup_norm())
        rows.append((trial, action, sup, action / sup))
        worst_ratio = max(worst_ratio, action / sup)

    comparison = Table(
        "related_bounds", ("quantity", "value"),
        (
            ("coefficient_action_bound", float(estimate)),
            ("block_norm", block_norm),
            ("wiener_norm", norms.wiener_norm(a)),
            ("multiplier_lower_left",
             float(norms.multiplier_lower_bound(a, side="left", trials=40,
                                                seed=config.seed))),
            ("multiplier_lower_right",
             float(norms.multiplier_lower_bound(a, side="right", trials=40,
                                                seed=config.seed))),
        ),
    )
    assertions = (
        _assert_cap("estimate_matches_block_norm",
                    abs(float(estimate) - block_norm), BOUND_SLACK),
        _assert_cap("polynomials_within_bound",
                    worst_ratio - float(estimate), BOUND_SLACK),
    )
    return ExperimentResult(
        "phi-bounds", config,
        (Table("pairings", ("trial", "action_norm", "sup_norm", "ratio"),
               tuple(rows)), comparison),
        assertions,
    )


def _random_polynomial(rng: np.random.Generator, dim: int,
                       max_degree: int) -> VectorPolynomial:
    degree = int(rng.integers(0, max_degree + 1))
    parts = {}
    for l in range(-degree, degree + 1):
        parts[l] = (rng.standard_normal(dim)
                    + 1j * rng.standard_normal(dim)) / math.sqrt(2.0)
    return VectorPolynomial(parts)


HINF_RADII = (0.9, 0.99, 0.999, 0.9995, 0.9999, 0.99995)


def hinf_profile(config: ExperimentConfig) -> ExperimentResult:
    """Disc evaluations of upper-triangular Toeplitz matrices.

    The block shift evaluates to exactly the radius; a geometric symbol
    matches its closed form inside the disc; boundary suprema stay below
    the matrix norm while Poisson distances fall within tolerance.
    """
    dim = config.dim
    shift = BlockMatrix.toeplitz({1: np.eye(dim, dtype=complex)}, 32)
    shift_rows = []
    shift_err = 0.0
    for radius in (0.25, 0.5, 0.75, 0.9):
        value = float(norms.op_norm(analysis.analytic_eval(shift, radius)))
        shift_rows.append((radius, value, radius))
        shift_err = max(shift_err, abs(value - radius))

    geometric = BlockMatrix.toeplitz(
        {l: (0.5 ** l) * np.eye(dim, dtype=complex) for l in range(64)}, 64
    )
    closed_err = 0.0
    for z in (0.45 * np.exp(1.1j), 0.8 * np.exp(-2.3j), 0.95 + 0.0j):
        evaluated = analysis.symbol_analytic_eval(geometric, z)
        closed = OperatorBlock(np.eye(dim, dtype=complex) / (1.0 - z / 2.0))
        closed_err = max(closed_err, (evaluated - closed).norm())

    profile = analysis.boundary_profile(
        geometric, HINF_RADII,
        tolerance=config.tolerances.get("profile"),
    )
    reference = float(norms.op_norm(geometric))
    boundary_rows = tuple(
        (radius, sup, distance)
        for radius, sup, distance in zip(profile.radii, profile.sup_values,
                                         profile.poisson.distances)
    )
    assertions = (
        _assert_cap("shift_evaluates_to_radius", shift_err,
                    IDENTITY_TOLERANCE),
        _assert_cap("geometric_closed_form", closed_err, 1e-10),
        _assert_cap("boundary_below_norm",
                    max(profile.sup_values) - reference, IDENTITY_TOLERANCE),
        Assertion("poisson_converges", profile.poisson.converged,
                  f"threshold {profile.poisson.threshold_index}"),
    )
    return ExperimentResult(
        "hinf-profile", config,
        (Table("shift", ("radius", "norm", "expected"), tuple(shift_rows)),
         Table("boundary", ("radius", "sup_norm", "poisson_distance"),
               boundary_rows)),
        assertions,
    )


REGISTRY: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "norm-identities": norm_identities,
    "schur-submultiplicativity": schur_submultiplicativity,
    "kernel-axioms": kernel_axioms,
    "sigma-profiles": sigma_profiles,
    "toeplitz-symbol-convergence": toeplitz_symbol_convergence,
    "phi-bounds": phi_bounds,
    "hinf-profile": hinf_profile,
}


def experiment_names() -> tuple[str, ...]:
    return tuple(REGISTRY)


def run_experiment(name: str, config: ExperimentConfig) -> ExperimentResult:
    if name not in REGISTRY:
        raise KeyError(name)
    return REGISTRY[name](config)
