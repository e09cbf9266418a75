"""The payload readers are total: every JSON document either raises
SerializationError or loads into a value whose canonical dump is strict
JSON and reads back to the same bytes.  No other exception escapes a
reader.  An accepted document need not equal its dump: the readers
normalise integers written where floats belong, the order of offsets,
and the ``upper_triangular`` flag, which is derived from the entries."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur.analysis import ConvergenceProfile
from opschur.errors import SerializationError
from opschur.kernels import ScalarSymbol
from opschur.matrices import BlockMatrix, random_banded, random_dense
from opschur.serialize import (
    dumps_canonical,
    matrix_from_payload,
    matrix_to_payload,
    profile_from_payload,
    profile_to_payload,
    symbol_from_payload,
    symbol_to_payload,
)

# Field names and tags of the three payload kinds, so that generated
# objects reach past the first type check.
NAMES = (
    "type", "N", "d", "structure", "upper_triangular", "data", "offset",
    "block", "blocks", "kind", "coeffs", "value", "n", "r", "indices",
    "distances", "tolerance", "reference_norm", "converged",
    "threshold_index", "floor", "block_matrix", "scalar_symbol",
    "convergence_profile", "dense", "toeplitz", "banded", "trigpoly",
    "fejer", "dirichlet", "poisson",
)

strings = st.sampled_from(NAMES) | st.text(max_size=4)
# JSON integers are unbounded; past 2**1024 they overflow a float.
integers = st.integers() | st.integers(-(2**1100), 2**1100)
scalars = st.none() | st.booleans() | integers | st.floats() | strings
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=8,
)

_rng = np.random.default_rng(0)
MATRICES = [
    matrix_to_payload(random_dense(2, 1, _rng)),
    matrix_to_payload(BlockMatrix.toeplitz({-1: np.eye(2), 2: 1j * np.eye(2)}, 3)),
    matrix_to_payload(random_banded(3, 1, _rng, (0, 1))),
]
SYMBOLS = [
    symbol_to_payload(ScalarSymbol.fejer(2)),
    symbol_to_payload(ScalarSymbol.poisson(0.5)),
    symbol_to_payload(ScalarSymbol.trig_polynomial({-1: 0.5j, 2: 1.0})),
]
PROFILES = [
    profile_to_payload(ConvergenceProfile(
        indices=(1.0, 4.0, 16.0), distances=(0.5, 0.1, 1e-4), tolerance=1e-3,
        reference_norm=2.0, converged=True, threshold_index=16.0, floor=1e-4,
    )),
]


def _paths(doc, prefix=()):
    """Every place in a JSON document, as a tuple of keys and indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def one_field_replaced(draw, valid):
    """A valid payload with the value at one place replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(valid))))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(documents)
    return doc


def _strict_json(text: str):
    """Parse ``text``, refusing the NaN and Infinity that JSON lacks."""

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _check_total(read, write, doc):
    try:
        value = read(doc)
    except SerializationError:
        return
    text = dumps_canonical(write(value))
    assert dumps_canonical(write(read(_strict_json(text)))) == text


@given(documents | one_field_replaced(MATRICES))
@settings(max_examples=80, deadline=None)
def test_matrix_reader_is_total(doc):
    _check_total(matrix_from_payload, matrix_to_payload, doc)


@given(documents | one_field_replaced(SYMBOLS))
@settings(max_examples=80, deadline=None)
def test_symbol_reader_is_total(doc):
    _check_total(symbol_from_payload, symbol_to_payload, doc)


@given(documents | one_field_replaced(PROFILES))
@settings(max_examples=80, deadline=None)
def test_profile_reader_is_total(doc):
    _check_total(profile_from_payload, profile_to_payload, doc)


def test_valid_payloads_round_trip_byte_for_byte():
    for read, write, valid in (
        (matrix_from_payload, matrix_to_payload, MATRICES),
        (symbol_from_payload, symbol_to_payload, SYMBOLS),
        (profile_from_payload, profile_to_payload, PROFILES),
    ):
        for doc in valid:
            assert dumps_canonical(write(read(doc))) == dumps_canonical(doc)
