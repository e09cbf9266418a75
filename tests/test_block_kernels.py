"""The batch-innermost block kernels against the einsum forms they replace.

``schur_product`` and ``scale_diagonals`` feed recorded experiment
bytes, so each must equal its batch-outermost einsum bit for bit,
signed zeros included, on Gaussian, integer-valued and signed-zero data.
The Gram band of the shift-and-invert finish feeds no recorded byte; it
must equal the einsum Gram of the flattening exactly on integer-valued
and signed-zero data, and to rounding on Gaussian data.
"""

import numpy as np
import pytest

from opschur.analysis import modulate
from opschur.kernels import ScalarSymbol, smooth
from opschur.matrices import (
    BANDED,
    DENSE,
    TOEPLITZ,
    BlockMatrix,
    adjoint,
    scale_diagonals,
    schur_product,
)
from opschur.norms import _gram_product, _gram_superblocks

DIMS = [1, 2, 3, 4]
DATA = ["gaussian", "integer", "signed_zero"]


def _entries(rng, data, shape):
    if data == "gaussian":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if data == "integer":
        return rng.integers(-9, 10, shape) + 1j * rng.integers(-9, 10, shape)
    # zeros of both signs among a few exact values, in both parts
    values = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0])
    return rng.choice(values, shape) + 1j * rng.choice(values, shape)


def _matrix(kind, rng, data, size, dim, offsets):
    if kind == DENSE:
        return BlockMatrix.dense(_entries(rng, data, (size, size, dim, dim)))
    if kind == TOEPLITZ:
        return BlockMatrix.toeplitz(
            {l: _entries(rng, data, (dim, dim)) for l in offsets}, size)
    return BlockMatrix.banded(
        {l: _entries(rng, data, (size - abs(l), dim, dim)) for l in offsets}, size)


def _assert_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("data", DATA)
@pytest.mark.parametrize(
    "kinds",
    [(BANDED, BANDED), (BANDED, TOEPLITZ), (TOEPLITZ, BANDED), (DENSE, BANDED),
     (TOEPLITZ, TOEPLITZ)],
    ids=lambda kinds: "x".join(kinds),
)
def test_schur_product_runs_match_einsum(kinds, data, dim):
    rng = np.random.default_rng(dim)
    size = 9
    a = _matrix(kinds[0], rng, data, size, dim, range(-3, 4))
    b = _matrix(kinds[1], rng, data, size, dim, range(-2, 6))
    got = schur_product(a, b)
    assert got.structure != DENSE
    for l in got.diagonal_support():
        want = np.einsum("kab,kbc->kac", a.diagonal_run(l), b.diagonal_run(l))
        _assert_bits(got.diagonal_run(l), np.broadcast_to(want, got.diagonal_run(l).shape))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("data", DATA)
@pytest.mark.parametrize("other", [DENSE, TOEPLITZ])
def test_schur_product_dense_path_matches_einsum(other, data, dim):
    rng = np.random.default_rng(10 + dim)
    size = 7
    a = _matrix(DENSE, rng, data, size, dim, None)
    b = _matrix(other, rng, data, size, dim, range(1 - size, size))
    got = schur_product(a, b)
    assert got.structure == DENSE
    _assert_bits(got.blocks(), np.einsum("kjab,kjbc->kjac", a.blocks(), b.blocks()))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("data", DATA)
@pytest.mark.parametrize(
    "weight",
    [lambda l: np.exp(1j * 0.7 * l), ScalarSymbol.poisson(0.6).coeff_array,
     lambda l: np.full(l.shape, 2.5 - 0.5j, dtype=complex)],
    ids=["modulate", "poisson", "scalar"],
)
def test_scale_diagonals_dense_matches_entrywise_weights(weight, data, dim):
    a = _matrix(DENSE, np.random.default_rng(20 + dim), data, 8, dim, None)
    got = scale_diagonals(a, weight)
    assert got.structure == DENSE
    index = np.arange(a.size)
    weights = weight(index[None, :] - index[:, None])
    _assert_bits(got.blocks(), a.blocks() * weights[:, :, None, None])


def _gram_reference(a, rows):
    """Super-blocks of the Gram matrix of ``a.flatten()``, zero-padded to
    whole super-blocks, formed by one einsum over the flat rows."""
    side = rows * a.dim
    count = -(-a.size // rows)
    flat = np.zeros((count * side, count * side), dtype=complex)
    flat[: a.flat_size, : a.flat_size] = a.flatten()
    gram = np.einsum("ka,kb->ab", flat.conj(), flat)
    tiles = gram.reshape(count, side, count, side).transpose(0, 2, 1, 3)
    index = np.arange(count)
    return tiles[index, index], tiles[index[:-1], index[1:]], np.max(np.abs(gram))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("data", DATA)
@pytest.mark.parametrize("kind", [TOEPLITZ, BANDED])
@pytest.mark.parametrize("band", [(0, 0), (-1, 2), (-3, 2), (2, 7)])
def test_gram_superblocks_match_einsum(band, kind, data, dim):
    lo, hi = band
    a = _matrix(kind, np.random.default_rng(30 + dim), data, 23, dim, range(lo, hi + 1))
    rows = max(hi - lo, 4)
    diag, upper, scale = _gram_reference(a, rows)
    # integer-valued and signed-zero data give exact products and sums
    atol = 1e-13 * scale if data == "gaussian" else 0
    for got, want in zip(_gram_superblocks(a, rows), (diag, upper)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", [TOEPLITZ, BANDED])
@pytest.mark.parametrize(
    "size, band",
    # 23 and 9 are not multiples of the rows; -8..7 is wider than N = 10
    [(23, (-3, 2)), (9, (0, 0)), (40, (-6, 6)), (10, (-8, 7))],
    ids=["rows-5", "rows-4", "rows-12", "wider-than-N"],
)
def test_gram_product_matches_flat_gram(size, band, kind, dim):
    lo, hi = band
    rng = np.random.default_rng(50 + dim)
    a = _matrix(kind, rng, "gaussian", size, dim, range(lo, hi + 1))
    rows = min(max(hi - lo, 4), size)
    flat = a.flatten()
    x = _entries(rng, "gaussian", (a.flat_size,))
    want = flat.conj().T @ (flat @ x)
    got = _gram_product(_gram_superblocks(a, rows), x)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "build",
    [lambda a, b: schur_product(a, b), lambda a, b: a + b, lambda a, b: a - b,
     lambda a, b: adjoint(a), lambda a, b: modulate(a, 0.4),
     lambda a, b: smooth(a, ScalarSymbol.poisson(0.5)), lambda a, b: 3 * a],
    ids=["schur", "add", "sub", "adjoint", "modulate", "smooth", "scale"],
)
def test_dense_results_are_read_only_and_own_their_blocks(build):
    rng = np.random.default_rng(40)
    a = _matrix(DENSE, rng, "gaussian", 5, 2, None)
    b = _matrix(DENSE, rng, "gaussian", 5, 2, None)
    got = build(a, b)
    assert got.structure == DENSE
    assert not got.blocks().flags.writeable
    with pytest.raises(ValueError):
        got.blocks()[0, 0, 0, 0] = 1.0
    for operand in (a, b):
        assert not np.shares_memory(got.blocks(), operand.blocks())
