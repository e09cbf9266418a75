import json
import math
import tracemalloc

import numpy as np
import pytest

from opschur import cli, serialize
from opschur.errors import SerializationError
from opschur.matrices import (
    DENSE_BYTES_LIMIT,
    BlockMatrix,
    allclose,
    random_banded,
    random_dense,
    random_toeplitz,
)
from opschur.serialize import (
    convert,
    dumps_canonical,
    format_cell,
    load_json,
    matrix_from_payload,
    matrix_to_payload,
    save_json,
    write_csv,
)


# Documents that json.loads refuses with something other than a
# JSONDecodeError: bytes that are not UTF-8, an integer literal past
# Python's 4,300-digit conversion limit, and arrays nested past the
# recursion limit.
UNDECODABLE = {
    "non_utf8": b'{"type": "matrix", "N": 2\xff}',
    "long_integer": b'{"N": ' + b"7" * 5000 + b"}",
    "deep_nesting": b"[" * 100_000 + b"]" * 100_000,
}


def _samples(rng):
    return (
        random_dense(4, 2, rng),
        random_toeplitz(5, 2, rng, (-1, 0, 2), decay=0.8),
        random_banded(5, 2, rng, (-1, 1), decay=0.8),
    )


class TestMatrixPayload:
    def test_round_trip_preserves_everything(self):
        rng = np.random.default_rng(0)
        for a in _samples(rng):
            back = matrix_from_payload(matrix_to_payload(a))
            assert back.structure == a.structure
            assert (back.size, back.dim) == (a.size, a.dim)
            assert allclose(a, back, tol=0)

    def test_round_trip_is_byte_exact(self):
        rng = np.random.default_rng(1)
        for a in _samples(rng):
            text = dumps_canonical(matrix_to_payload(a))
            again = dumps_canonical(
                matrix_to_payload(matrix_from_payload(json.loads(text)))
            )
            assert text == again

    def test_payload_shape(self):
        a = BlockMatrix.toeplitz({0: np.eye(2), 2: 2 * np.eye(2)}, 4)
        payload = matrix_to_payload(a)
        assert payload["type"] == "block_matrix"
        assert payload["N"] == 4 and payload["d"] == 2
        assert payload["structure"] == "toeplitz"
        assert payload["upper_triangular"] is True
        assert [item["offset"] for item in payload["data"]] == [0, 2]
        assert payload["data"][0]["block"][0][0] == [1.0, 0.0]

    def test_canonical_bytes_are_pinned(self):
        """Signed zeros, subnormals, huge and integral floats keep their bytes."""
        dense = BlockMatrix.dense(np.array(
            [[[[complex(-0.0, 1.0)]], [[complex(5e-324, -0.0)]]],
             [[[complex(-0.0, -0.0)]], [[complex(1e300, -3.0)]]]]))
        toeplitz = BlockMatrix.toeplitz(
            {-1: [[1e300, complex(-0.0, 0.0)], [5e-324j, 2.0]],
             1: [[complex(-1.5, -0.0), 0], [0, 7j]]}, 3)
        banded = BlockMatrix.banded(
            {0: [[[complex(-0.0, 4.0)]], [[1.0]], [[complex(5e-324, 1e300)]]],
             2: [[[complex(-3.0, -0.0)]]]}, 3)
        golden = [
            '{"N":2,"d":1,"data":[[[[[-0.0,1.0]]],[[[5e-324,-0.0]]]],[[[[-0.0,-0.0]]],'
            '[[[1e+300,-3.0]]]]],"structure":"dense","type":"block_matrix",'
            '"upper_triangular":true}\n',
            '{"N":3,"d":2,"data":[{"block":[[[1e+300,0.0],[-0.0,0.0]],[[0.0,5e-324],'
            '[2.0,0.0]]],"offset":-1},{"block":[[[-1.5,-0.0],[0.0,0.0]],[[0.0,0.0],'
            '[0.0,7.0]]],"offset":1}],"structure":"toeplitz","type":"block_matrix",'
            '"upper_triangular":false}\n',
            '{"N":3,"d":1,"data":[{"blocks":[[[[-0.0,4.0]]],[[[1.0,0.0]]],'
            '[[[5e-324,1e+300]]]],"offset":0},{"blocks":[[[[-3.0,-0.0]]]],"offset":2}],'
            '"structure":"banded","type":"block_matrix","upper_triangular":true}\n',
        ]
        for a, text in zip((dense, toeplitz, banded), golden):
            assert dumps_canonical(matrix_to_payload(a)) == text
            assert dumps_canonical(matrix_to_payload(matrix_from_payload(
                json.loads(text)))) == text

    def test_missing_field_named(self):
        payload = matrix_to_payload(BlockMatrix.identity(3, 2))
        del payload["structure"]
        with pytest.raises(SerializationError) as err:
            matrix_from_payload(payload)
        assert err.value.field == "structure"

    def test_bad_complex_pair_rejected(self):
        payload = matrix_to_payload(BlockMatrix.identity(3, 2))
        payload["data"][0]["block"][0][0] = [1.0]
        with pytest.raises(SerializationError):
            matrix_from_payload(payload)

    def test_unknown_structure_rejected(self):
        payload = matrix_to_payload(BlockMatrix.identity(3, 2))
        payload["structure"] = "sparse"
        with pytest.raises(SerializationError) as err:
            matrix_from_payload(payload)
        assert err.value.field == "structure"

    def test_wrong_run_length_rejected(self):
        rng = np.random.default_rng(2)
        payload = matrix_to_payload(random_banded(5, 2, rng, (0, 1)))
        payload["data"][1]["blocks"].pop()
        with pytest.raises(SerializationError):
            matrix_from_payload(payload)

    def test_read_back_keeps_structure_and_stored_runs(self):
        rng = np.random.default_rng(3)
        dense, t, b = _samples(rng)
        for a in (dense, t, b, t + b):  # t + b stores offset 2 as a constant run
            back = matrix_from_payload(json.loads(dumps_canonical(matrix_to_payload(a))))
            assert back.structure == a.structure
            for l in a.diagonal_support():
                run = back.diagonal_run(l)
                assert run.tobytes() == a.diagonal_run(l).tobytes()
                assert not run.flags.writeable

    def test_wrong_type_tag_rejected(self):
        with pytest.raises(SerializationError):
            matrix_from_payload({"type": "scalar_symbol"})


def _toeplitz_payload():
    return matrix_to_payload(BlockMatrix.toeplitz({0: np.eye(2), 1: np.eye(2)}, 4))


def _banded_payload():
    rng = np.random.default_rng(8)
    return matrix_to_payload(random_banded(4, 2, rng, (0, 1)))


def _dense_payload():
    return matrix_to_payload(random_dense(2, 2, np.random.default_rng(10)))


def _empty_data(p):
    p["data"] = []


def _non_object_item(p):
    p["data"][1] = 7


def _duplicate_offset(p):
    p["data"][1]["offset"] = p["data"][0]["offset"]


def _offset_out_of_range(p):
    p["data"][1]["offset"] = p["N"]


def _boolean_size(p):
    p["N"] = True


def _zero_size(p):
    p["N"] = 0


def _zero_dim(p):
    p["d"] = 0


def _nan_cell(p):
    p["data"][0][1][0][1] = [float("nan"), 0.0]


def _infinite_block(p):
    p["data"][1]["block"][1][0] = [0.0, float("inf")]


def _infinite_run(p):
    p["data"][1]["blocks"][2][0][0] = [float("-inf"), 1.0]


def _short_run(p):
    p["data"][1]["blocks"].pop()


def _boolean_cell(p):
    p["data"][0]["block"][0][0] = [True, False]


def _overflowing_cell(p):
    p["data"][0]["blocks"][0][1][1] = [0.0, -(10**400)]


def _put(value, *path):
    """Mutation that sets the place ``path`` of a payload to ``value``."""

    def mutate(p):
        for key in path[:-1]:
            p = p[key]
        p[path[-1]] = value

    return mutate


def _no_upper_flag(p):
    del p["upper_triangular"]


MALFORMED = {
    # name: (payload factory, mutation, field named by the error)
    "empty-toeplitz-data": (_toeplitz_payload, _empty_data, "data"),
    "empty-banded-data": (_banded_payload, _empty_data, "data"),
    "non-object-item": (_banded_payload, _non_object_item, "data[1]"),
    "duplicate-offset": (_toeplitz_payload, _duplicate_offset, "offset"),
    "offset-out-of-range": (_banded_payload, _offset_out_of_range, "offset"),
    "boolean-N": (_toeplitz_payload, _boolean_size, "N"),
    "zero-N": (_toeplitz_payload, _zero_size, "N"),
    "zero-d": (_banded_payload, _zero_dim, "d"),
    "nan-dense-cell": (_dense_payload, _nan_cell, "data"),
    "infinite-toeplitz-block": (_toeplitz_payload, _infinite_block, "offset 1"),
    "infinite-banded-run": (_banded_payload, _infinite_run, "offset 1"),
    "short-banded-run": (_banded_payload, _short_run, "offset 1"),
    "non-list-banded-run": (_banded_payload, _put(7, "data", 1, "blocks"), "offset 1"),
    "boolean-cell": (_toeplitz_payload, _boolean_cell, "offset 0[0][0]"),
    "overflowing-cell": (_banded_payload, _overflowing_cell, "offset 0[0][1][1]"),
    "numeric-string-cell": (
        _toeplitz_payload, _put(["1.5", 0.0], "data", 0, "block", 1, 0), "offset 0[1][0]"),
    "null-cell": (
        _banded_payload, _put(None, "data", 1, "blocks", 0, 1, 0), "offset 1[0][1][0]"),
    "object-cell": (_dense_payload, _put({}, "data", 1, 0, 0, 1), "data[1][0][0][1]"),
    "three-element-pair": (
        _toeplitz_payload, _put([1.0, 0.0, 0.0], "data", 1, "block", 0, 1),
        "offset 1[0][1]"),
    "ragged-block-row": (
        _banded_payload, _put([[0.0, 0.0]], "data", 0, "blocks", 2, 1), "offset 0[2]"),
    "boolean-dense-cell": (
        _dense_payload, _put([0.0, True], "data", 0, 0, 1, 1), "data[0][0][1][1]"),
    "overflowing-toeplitz-cell": (
        _toeplitz_payload, _put([10**400, 0.0], "data", 1, "block", 0, 0),
        "offset 1[0][0]"),
    "missing-upper-flag": (_banded_payload, _no_upper_flag, "upper_triangular"),
    "string-upper-flag": (
        _toeplitz_payload, _put("true", "upper_triangular"), "upper_triangular"),
    "contradicting-upper-flag": (
        _dense_payload, _put(True, "upper_triangular"), "upper_triangular"),
}


class TestMalformedPayload:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected_naming_the_field(self, case):
        make, mutate, field = MALFORMED[case]
        payload = make()
        mutate(payload)
        with pytest.raises(SerializationError) as err:
            matrix_from_payload(payload)
        assert err.value.field == field

    def test_boolean_offset_rejected(self):
        payload = _toeplitz_payload()
        payload["data"][0]["offset"] = False
        with pytest.raises(SerializationError) as err:
            matrix_from_payload(payload)
        assert err.value.field == "offset"

    def test_boolean_accepted_where_asked_for(self):
        payload = _toeplitz_payload()
        assert payload["upper_triangular"] is True
        assert matrix_from_payload(payload).upper_triangular == payload["upper_triangular"]
        payload["N"] = True
        with pytest.raises(SerializationError) as err:
            matrix_from_payload(payload)
        assert err.value.field == "N"

    def test_non_object_document_rejected(self):
        with pytest.raises(SerializationError):
            matrix_from_payload([1, 2])
        with pytest.raises(SerializationError):
            matrix_from_payload(3)


class TestCsvFormatting:
    def test_format_cell(self):
        assert format_cell(True) == "true"
        assert format_cell(7) == "7"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell(1.0 / 3.0) == "0.333333333333"
        assert format_cell("x") == "x"
        with pytest.raises(TypeError):
            format_cell(1.0 + 2.0j)

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
        assert path.read_text() == "a,b\n1,0.5\n2,0.333333333333\n"


class TestConvert:
    def test_canonical_identity(self, tmp_path):
        rng = np.random.default_rng(6)
        a = random_toeplitz(5, 2, rng, (-1, 0, 2))
        src = tmp_path / "a.json"
        dst = tmp_path / "b.json"
        save_json(src, matrix_to_payload(a))
        convert(src, dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_densify(self, tmp_path):
        rng = np.random.default_rng(7)
        a = random_toeplitz(5, 2, rng, (-1, 0, 2))
        src = tmp_path / "a.json"
        dst = tmp_path / "b.json"
        save_json(src, matrix_to_payload(a))
        out = convert(src, dst, densify=True)
        assert out.structure == "dense"
        assert allclose(out, a, tol=0)
        assert load_json(dst)["structure"] == "dense"

    def test_densify_builds_one_dense_form(self, tmp_path, monkeypatch):
        # the dense form of a toeplitz N = 256, d = 2 holds 16 * 512**2 bytes,
        # 4 MiB; a copy of the one blocks() caches would double the peak
        src = tmp_path / "a.json"
        save_json(src, matrix_to_payload(random_toeplitz(256, 2, 0, (-1, 0, 1))))
        written = []
        monkeypatch.setattr(serialize, "matrix_to_payload", written.append)
        monkeypatch.setattr(serialize, "save_json", lambda path, payload: None)
        tracemalloc.start()
        try:
            convert(src, tmp_path / "b.json", densify=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert written[0].structure == "dense"
        assert peak < 5 * 2**20

    def test_densify_refuses_size_past_the_limit(self, tmp_path):
        # one size past the largest N whose dense (N d)^2 array fits the limit
        payload = _toeplitz_payload()
        payload["N"] = math.isqrt(DENSE_BYTES_LIMIT // 16) // payload["d"] + 1
        src = tmp_path / "a.json"
        dst = tmp_path / "b.json"
        save_json(src, payload)
        with pytest.raises(SerializationError) as err:
            convert(src, dst, densify=True)
        assert err.value.field == "N"
        needed = 16 * (payload["N"] * payload["d"]) ** 2
        assert f"needs {needed} bytes" in str(err.value)
        assert not dst.exists()

    def test_huge_toeplitz(self, tmp_path):
        # no array can hold N = 10**400 blocks: the writer reads the stored ones
        payload = _toeplitz_payload()
        payload["N"] = 10**400
        text = dumps_canonical(payload)
        back = matrix_from_payload(json.loads(text))
        assert dumps_canonical(matrix_to_payload(back)) == text
        src = tmp_path / "a.json"
        dst = tmp_path / "b.json"
        src.write_text(text)
        assert cli.main(["convert", str(src), str(dst)]) == 0
        assert dst.read_text() == text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_writer_refuses_non_finite_floats(self, value):
        with pytest.raises(SerializationError) as err:
            dumps_canonical({"a": [1.0, value]})
        assert err.value.field == "<document>"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_reader_refuses_non_finite_literals(self, tmp_path, literal):
        src = tmp_path / "a.json"
        src.write_text(f'{{"a":[1.0,{literal}]}}\n')
        with pytest.raises(SerializationError) as err:
            load_json(src)
        assert err.value.field == "<document>"
        assert literal in str(err.value)

    def test_invalid_json_rejected(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        with pytest.raises(SerializationError):
            load_json(src)

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_undecodable_document_rejected(self, tmp_path, case):
        src = tmp_path / "bad.json"
        src.write_bytes(UNDECODABLE[case])
        with pytest.raises(SerializationError) as err:
            load_json(src)
        assert err.value.field == "<document>"
