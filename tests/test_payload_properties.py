"""The matrix payload reader is total: every JSON document either raises
SerializationError or loads into a matrix whose canonical dump is strict
JSON and reads back to the same bytes.  No other exception escapes the
reader.  An accepted document need not equal its dump: the reader
normalises integers written where floats belong and the order of offsets.
A matrix's ``upper_triangular`` flag must agree with its entries."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opschur.errors import SerializationError
from opschur.matrices import BlockMatrix, random_banded, random_dense
from opschur.serialize import dumps_canonical, matrix_from_payload, matrix_to_payload

# Field names and tags of the matrix payload, so that generated objects
# reach past the first type check.
NAMES = (
    "type", "N", "d", "structure", "upper_triangular", "data", "offset",
    "block", "blocks", "block_matrix", "dense", "toeplitz", "banded",
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


@given(documents | one_field_replaced(MATRICES))
@settings(max_examples=80, deadline=None)
def test_matrix_reader_is_total(doc):
    try:
        matrix = matrix_from_payload(doc)
    except SerializationError:
        return
    text = dumps_canonical(matrix_to_payload(matrix))
    again = matrix_from_payload(_strict_json(text))
    assert dumps_canonical(matrix_to_payload(again)) == text


def test_valid_payloads_round_trip_byte_for_byte():
    for doc in MATRICES:
        assert dumps_canonical(matrix_to_payload(matrix_from_payload(doc))) == (
            dumps_canonical(doc))
