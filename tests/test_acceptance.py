"""Acceptance gate: one test per advertised guarantee, at its stated
tolerance.  Every test is self-contained and prints a single pass/fail
line under ``pytest -v``; failures here mean the package no longer
delivers what its documentation promises.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from opschur.analysis import (
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
    toeplitz_from_symbol,
)
from opschur.blocks import singular_values
from opschur.kernels import (
    ScalarSymbol,
    convolve,
    dirichlet_family,
    fejer_family,
    kernel_axiom_check,
    mask,
    poisson_family,
    smooth,
    torus_grid,
)
from opschur.matrices import (
    BlockMatrix,
    random_banded,
    random_dense,
    random_vector,
    rank_one,
    schur_product,
    tensor_scalar,
    truncate,
)
from opschur.norms import op_norm, symbol_sup_norm

from oracles import gaussian, lebesgue_constant, offset_weighted_norm


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _jordan_symbol() -> OperatorSymbol:
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return OperatorSymbol({0: np.eye(2, dtype=complex), 1: nil,
                           2: nil.conj().T})


def _continuous_symbol() -> OperatorSymbol:
    return OperatorSymbol(
        {l: (0.35 ** l) * _rotation(0.7 * l) for l in range(21)}
    )


HIGH_ORDERS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
               1024, 1536, 2048, 3072, 4096)


def test_c01_rank_one_norm_identity():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        d = (trial % 3) + 1
        rng = np.random.default_rng(1000 + trial)
        x = random_vector(8, d, rng)
        y = random_vector(8, d, rng)
        got = float(op_norm(rank_one(x, y)))
        worst = max(worst, abs(got - x.norm() * y.norm()))
    assert worst <= 1e-9, f"worst deviation {worst:.3e}"
    assert time.perf_counter() - start < 5.0


def test_c02_tensor_norm_identity():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(2000 + trial)
        scalar = gaussian(rng, (8, 8))
        block = gaussian(rng, (3, 3))
        got = float(op_norm(tensor_scalar(scalar, block)))
        expected = np.linalg.norm(scalar, 2) * np.linalg.norm(block, 2)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-8, f"worst deviation {worst:.3e}"
    assert time.perf_counter() - start < 10.0


def test_c03_modulation_preserves_norm_and_spectrum():
    start = time.perf_counter()
    angles = torus_grid(16)
    worst_norm, worst_spectrum = 0.0, 0.0
    for trial in range(50):
        rng = np.random.default_rng(3000 + trial)
        a = random_dense(10, 2, rng)
        norm_a = float(op_norm(a))
        spectrum_a = singular_values(a.flatten())
        for angle in angles:
            rotated = modulate(a, float(angle))
            worst_norm = max(worst_norm,
                             abs(float(op_norm(rotated)) - norm_a))
            worst_spectrum = max(
                worst_spectrum,
                float(np.max(np.abs(singular_values(rotated.flatten())
                                    - spectrum_a))),
            )
    assert worst_norm <= 1e-9, f"worst norm deviation {worst_norm:.3e}"
    assert worst_spectrum <= 1e-8, f"worst spectrum deviation {worst_spectrum:.3e}"
    assert time.perf_counter() - start < 30.0


def test_c04_schur_product_submultiplicative():
    start = time.perf_counter()
    violations = 0
    worst_margin = -np.inf
    for trial in range(500):
        rng = np.random.default_rng(4000 + trial)
        size = 4 + trial % 9
        d = 1 + trial % 3
        a = random_dense(size, d, rng)
        b = random_dense(size, d, rng)
        margin = (float(op_norm(schur_product(a, b)))
                  - float(op_norm(a)) * float(op_norm(b)))
        worst_margin = max(worst_margin, margin)
        if margin > 1e-9:
            violations += 1
    assert violations == 0, f"{violations} violations, worst {worst_margin:.3e}"
    assert time.perf_counter() - start < 60.0


def test_c05_smoothing_kernel_axioms():
    start = time.perf_counter()
    orders = (1, 2, 5, 10, 20, 35, 50)
    for family in (fejer_family(), poisson_family()):
        for n in range(1, 51):
            assert family(n).coeff(0) == 1.0, f"{family.name} order {n}"
        report = kernel_axiom_check(family, orders, deltas=(0.5,))
        for row in report.rows:
            assert abs(row.l1_norm - 1.0) <= 1e-6, (
                f"{family.name} L1 at order {row.order}: {row.l1_norm}"
            )
        by_order = {row.order: row.tails[0] for row in report.rows}
        assert by_order[2] >= 10.0 * by_order[50], (
            f"{family.name} tails {by_order[2]:.4f} -> {by_order[50]:.4f}"
        )
    dirichlet = kernel_axiom_check(dirichlet_family(), orders, deltas=(0.5,))
    assert dirichlet.mean_one
    assert not dirichlet.uniform_l1, "partial sums must be flagged"
    assert time.perf_counter() - start < 20.0


def test_c05_dirichlet_l1_level_at_order_fifty():
    t = torus_grid(4096)

    def l1(order):
        return float(np.mean(np.abs(ScalarSymbol.dirichlet(order).values(t))))

    # The grid misses Lebesgue's constant L_50 = 2.85987... by 8.2e-5.
    grid, level = l1(50), lebesgue_constant(50)
    assert abs(grid - level) <= 2e-4, (
        f"L1 norm at order 50 is {grid:.10f}, L_50 is {level:.10f}"
    )
    # The L1 norms grow like (4/pi^2) log n and first reach 3 at order 71.
    assert l1(70) < 3.0 <= l1(71), (
        f"L1 norms at orders 70, 71 are {l1(70):.6f}, {l1(71):.6f}"
    )


def test_c06_mask_products_realize_convolution():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(6000 + trial)
        eta = ScalarSymbol.trig_polynomial(
            {l: complex(gaussian(rng, ())) for l in range(-6, 7)}
        )
        f = ScalarSymbol.trig_polynomial(
            {l: complex(gaussian(rng, ())) for l in range(-6, 7)}
        )
        lhs = schur_product(mask(eta, 16, 2), mask(f, 16, 2))
        rhs = mask(convolve(eta, f), 16, 2)
        worst = max(worst,
                    float(np.max(np.abs(lhs.blocks() - rhs.blocks()))))
    assert worst <= 1e-12, f"worst entry deviation {worst:.3e}"


def test_c07_toeplitz_norms_converge_to_symbol_norm():
    start = time.perf_counter()
    symbol = _jordan_symbol()
    sup = float(symbol_sup_norm(symbol))
    values = []
    for size in (4, 8, 16, 32, 64, 128, 256):
        values.append(float(op_norm(toeplitz_from_symbol(symbol, size))))
    for prev, curr in zip(values, values[1:]):
        assert curr >= prev - 1e-12, f"norms decreased: {prev} -> {curr}"
    assert max(values) <= sup + 1e-8
    assert values[-1] >= 0.98 * sup, f"final {values[-1]:.6f} vs {sup:.6f}"
    assert time.perf_counter() - start < 60.0


def test_c08_banded_smoothing_rate_at_ten_bandwidths():
    def distance(a, order):
        return float(op_norm(smooth(a, ScalarSymbol.fejer(order)) - a))

    for width in (1, 2, 3):
        rng = np.random.default_rng(8000 + width)
        a = random_banded(16, 2, rng, (-width, width))
        # From order ``width`` on, smoothing scales diagonal l by
        # 1 - |l|/(n+1), so the distance is exactly rate / (n + 1).
        rate = offset_weighted_norm(a.blocks())
        for order in (width, 2 * width, 10 * width):
            scaled = (order + 1) * distance(a, order)
            assert abs(scaled - rate) <= 1e-9 * rate, (
                f"bandwidth {width}: (n+1) * distance {scaled!r} at order "
                f"{order}, predicted rate {rate!r}"
            )
        tolerance = 1e-3 * float(op_norm(a))
        first = math.ceil(rate / tolerance) - 1
        reached, before = distance(a, first), distance(a, first - 1)
        assert reached <= tolerance < before, (
            f"bandwidth {width}: distances {before:.6e}, {reached:.6e} at "
            f"orders {first - 1}, {first} (predicted first order) against "
            f"tolerance {tolerance:.6e}"
        )


def test_c08_continuous_symbol_profile_converges():
    start = time.perf_counter()
    a = toeplitz_from_symbol(_continuous_symbol(), 64)
    profile = smoothing_profile(a, fejer_family(), HIGH_ORDERS)
    assert profile.converged, f"floor {profile.floor:.6f}"
    assert time.perf_counter() - start < 120.0


def test_c08_dilation_stalls_with_unit_jump():
    start = time.perf_counter()
    a = dilation_matrix(64, 2)
    profile = smoothing_profile(a, fejer_family(), range(1, 33))
    assert not profile.converged
    assert profile.floor >= 0.5 * float(op_norm(a)), (
        f"floor {profile.floor:.6f}"
    )
    jump = float(op_norm(modulate(a, np.pi / 32) - a))
    assert abs(jump - 2.0) <= 1e-9, f"jump {jump!r}"
    assert time.perf_counter() - start < 120.0


def test_c09_coefficient_pairing_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(9000)
    block = gaussian(rng, (2, 2))
    block_norm = float(np.linalg.norm(block, 2))
    weights = ScalarSymbol.fejer(8)
    a = BlockMatrix.toeplitz(
        {l: weights.coeff(l) * block for l in weights.support()}, 32
    )
    violations = 0
    for trial in range(500):
        trial_rng = np.random.default_rng(9100 + trial)
        degree = int(trial_rng.integers(0, 9))
        parts = {l: gaussian(trial_rng, 2)
                 for l in range(-degree, degree + 1)}
        p = VectorPolynomial(parts)
        action = float(np.linalg.norm(coefficient_action(a, p)))
        if action > block_norm * float(p.sup_norm()) + 1e-8:
            violations += 1
    assert violations == 0, f"{violations} bound violations"
    estimate = coefficient_action_bound(a, trials=60, seed=0)
    assert float(estimate) >= 0.95 * block_norm, (
        f"estimate {float(estimate):.6f} vs block norm {block_norm:.6f}"
    )
    assert time.perf_counter() - start < 60.0


def test_c10_shift_boundary_values_exact():
    shift = BlockMatrix.toeplitz({1: np.eye(2, dtype=complex)}, 32)
    for radius in (0.25, 0.5, 0.9, 0.999):
        worst = max(
            float(op_norm(analytic_eval(shift, radius * np.exp(1j * t))))
            for t in torus_grid(8)
        )
        assert abs(worst - radius) <= 1e-9, f"radius {radius}: {worst!r}"


def test_c10_banded_upper_boundary_approaches_norm():
    rng = np.random.default_rng(0)
    a = random_banded(32, 2, rng, (0, 2), decay=0.5)
    reference = float(op_norm(a))
    profile = boundary_profile(a, (0.999,))
    assert abs(profile.sup_values[0] - reference) <= 1e-3 * reference, (
        f"sup {profile.sup_values[0]:.6f} vs norm {reference:.6f}"
    )


def test_c10_continuous_symbol_poisson_distances():
    a = toeplitz_from_symbol(_continuous_symbol(), 64)
    tolerance = 1e-3 * float(op_norm(a))
    for radius in (0.999, 0.9995, 0.9999):
        distance = float(op_norm(smooth(a, ScalarSymbol.poisson(radius)) - a))
        assert distance <= tolerance, (
            f"radius {radius}: distance {distance:.6e} vs {tolerance:.6e}"
        )


def test_c10_geometric_coefficients_match_closed_form():
    a = BlockMatrix.toeplitz(
        {l: (0.5 ** l) * np.eye(2, dtype=complex) for l in range(64)}, 64
    )
    for z in (0.45 * np.exp(1.1j), 0.8 * np.exp(-2.3j), 0.95 + 0.0j):
        got = symbol_analytic_eval(a, z).matrix
        closed = np.eye(2) / (1.0 - z / 2.0)
        assert float(np.max(np.abs(got - closed))) <= 1e-10


def test_c11_experiment_determinism_and_check_mode(tmp_path):
    start = time.perf_counter()

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "opschur", "run", "--experiment", "all",
             *args],
            capture_output=True, text=True, check=False,
        )

    first, second = tmp_path / "a", tmp_path / "b"
    assert run("--out", str(first)).returncode == 0
    assert run("--out", str(second)).returncode == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    checked = run("--out", str(tmp_path / "c"), "--check")
    assert checked.returncode == 0, checked.stdout + checked.stderr
    assert time.perf_counter() - start < 360.0
