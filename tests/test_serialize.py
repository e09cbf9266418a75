import json

import numpy as np
import pytest

from opschur.analysis import smoothing_profile
from opschur.errors import SerializationError
from opschur.kernels import ScalarSymbol, fejer_family
from opschur.matrices import (
    BlockMatrix,
    allclose,
    random_banded,
    random_dense,
    random_toeplitz,
)
from opschur.norms import multiplier_lower_bound, op_norm
from opschur.serialize import (
    convert,
    dumps_canonical,
    estimate_to_payload,
    format_cell,
    load_json,
    matrix_from_payload,
    matrix_to_payload,
    profile_csv_rows,
    profile_from_payload,
    profile_to_payload,
    save_json,
    symbol_from_payload,
    symbol_to_payload,
    write_csv,
)


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


def _boolean_cell(p):
    p["data"][0]["block"][0][0] = [True, False]


def _overflowing_cell(p):
    p["data"][0]["blocks"][0][1][1] = [0.0, -(10**400)]


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
    "boolean-cell": (_toeplitz_payload, _boolean_cell, "offset 0[0][0]"),
    "overflowing-cell": (_banded_payload, _overflowing_cell, "offset 0[0][1][1]"),
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

    def test_non_object_document_rejected(self):
        with pytest.raises(SerializationError):
            matrix_from_payload([1, 2])
        with pytest.raises(SerializationError):
            matrix_from_payload(3)

    def test_tuple_kind_is_named(self):
        with pytest.raises(SerializationError) as err:
            symbol_from_payload({"type": "scalar_symbol", "kind": "poisson", "r": "x"})
        assert err.value.field == "r"
        assert "int or float" in str(err.value)

    def test_boolean_accepted_where_asked_for(self):
        rng = np.random.default_rng(9)
        profile = smoothing_profile(random_banded(8, 2, rng, (0, 1)), fejer_family(), (1, 4))
        payload = profile_to_payload(profile)
        assert profile_from_payload(payload).converged is payload["converged"]
        payload["floor"] = True
        with pytest.raises(SerializationError) as err:
            profile_from_payload(payload)
        assert err.value.field == "floor"


class TestSymbolPayload:
    @pytest.mark.parametrize(
        "symbol",
        [
            ScalarSymbol.fejer(4),
            ScalarSymbol.dirichlet(3),
            ScalarSymbol.poisson(0.75),
            ScalarSymbol.trig_polynomial({-1: 2.0j, 0: 1.0, 4: -0.25}),
        ],
        ids=["fejer", "dirichlet", "poisson", "trigpoly"],
    )
    def test_round_trip(self, symbol):
        back = symbol_from_payload(symbol_to_payload(symbol))
        assert back.kind == symbol.kind
        for l in (-4, -1, 0, 1, 4):
            assert back.coeff(l) == pytest.approx(symbol.coeff(l))

    @pytest.mark.parametrize(
        "payload, field",
        [
            (5, "<document>"),
            ({"type": "scalar_symbol", "kind": "trigpoly", "coeffs": []}, "coeffs"),
            ({"type": "scalar_symbol", "kind": "trigpoly",
              "coeffs": [{"offset": 0, "value": [1.0, 0.0]}, 7]}, "coeffs[1]"),
            ({"type": "scalar_symbol", "kind": "trigpoly",
              "coeffs": [{"offset": 1, "value": [1.0, 0.0]},
                         {"offset": 1, "value": [2.0, 0.0]}]}, "offset"),
            ({"type": "scalar_symbol", "kind": "trigpoly",
              "coeffs": [{"offset": 0, "value": [float("nan"), 0.0]}]}, "coeffs"),
            ({"type": "scalar_symbol", "kind": "fejer", "n": -1}, "n"),
            ({"type": "scalar_symbol", "kind": "poisson", "r": 1.5}, "r"),
            ({"type": "scalar_symbol", "kind": "poisson", "r": float("nan")}, "r"),
            ({"type": "scalar_symbol", "kind": "poisson", "r": 10**400}, "r"),
            ({"type": "scalar_symbol", "kind": "trigpoly",
              "coeffs": [{"offset": 2**63, "value": [1.0, 0.0]}]}, "offset"),
        ],
        ids=["non-object-document", "empty-coeffs", "non-object-coeff",
             "duplicate-offset", "nan-coefficient", "negative-order",
             "radius-above-one", "nan-radius", "overflowing-radius",
             "offset-beyond-64-bits"],
    )
    def test_malformed_rejected_naming_the_field(self, payload, field):
        with pytest.raises(SerializationError) as err:
            symbol_from_payload(payload)
        assert err.value.field == field

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError) as err:
            symbol_from_payload({"type": "scalar_symbol", "kind": "gauss"})
        assert err.value.field == "kind"


class TestEstimatePayload:
    def test_exact_estimate_witness_reference(self):
        rng = np.random.default_rng(3)
        payload = estimate_to_payload(op_norm(random_dense(4, 2, rng)))
        assert payload["kind"] == "exact_svd"
        assert payload["witness"]["kind"] == "block_vector"
        assert payload["witness"]["norm"] == pytest.approx(1.0)

    def test_sampled_estimate(self):
        rng = np.random.default_rng(4)
        est = multiplier_lower_bound(random_dense(4, 2, rng), trials=8)
        payload = estimate_to_payload(est)
        assert payload["samples"] == 8
        assert payload["value"] == pytest.approx(est.value)


class TestProfilePayload:
    def _profile(self):
        rng = np.random.default_rng(5)
        a = random_banded(12, 2, rng, (0, 1))
        return smoothing_profile(a, fejer_family(), (1, 4, 16))

    def test_round_trip(self):
        profile = self._profile()
        back = profile_from_payload(profile_to_payload(profile))
        assert back == profile

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("indices", ["x", 4.0, 16.0], "indices"),
            ("indices", [None, 4.0, 16.0], "indices"),
            ("indices", [], "indices"),
            ("indices", [1.0, float("inf"), 16.0], "indices"),
            ("indices", [1.0, 4.0, 10**400], "indices"),
            ("distances", [0.5, True, 0.1], "distances"),
            ("distances", [0.5, float("nan"), 0.1], "distances"),
            ("distances", [0.5, 0.1], "distances"),
            ("threshold_index", "abc", "threshold_index"),
            ("threshold_index", False, "threshold_index"),
            ("threshold_index", float("nan"), "threshold_index"),
            ("tolerance", float("inf"), "tolerance"),
            ("floor", float("nan"), "floor"),
        ],
        ids=["string-index", "null-index", "no-indices", "infinite-index",
             "overflowing-index", "boolean-distance", "nan-distance",
             "lengths-differ", "string-threshold", "boolean-threshold",
             "nan-threshold", "infinite-tolerance", "nan-floor"],
    )
    def test_malformed_rejected_naming_the_field(self, field, value, named):
        payload = profile_to_payload(self._profile())
        payload[field] = value
        with pytest.raises(SerializationError) as err:
            profile_from_payload(payload)
        assert err.value.field == named

    def test_missing_threshold_rejected(self):
        payload = profile_to_payload(self._profile())
        del payload["threshold_index"]
        with pytest.raises(SerializationError) as err:
            profile_from_payload(payload)
        assert err.value.field == "threshold_index"

    def test_csv_rows(self):
        profile = self._profile()
        header, rows = profile_csv_rows(profile)
        assert header == ["index", "distance"]
        assert len(rows) == 3
        assert rows[0][0] == 1.0


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

    def test_invalid_json_rejected(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        with pytest.raises(SerializationError):
            load_json(src)
