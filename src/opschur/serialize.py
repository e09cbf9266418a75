"""JSON interchange and CSV table output.

Interchange payloads are plain JSON with complex numbers as
``[real, imag]`` pairs.  Canonical serialization sorts keys and uses
compact separators, and floats go through their shortest round-trip
representation, so load followed by dump reproduces the original bytes
exactly.  Values must be finite: ``NaN`` and ``Infinity`` are not JSON.
Experiment tables are output, not interchange: in CSV and JSON alike
their floats are rounded to 12 significant digits, and CSV splits
complex columns into real and imaginary parts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import ConvergenceProfile
from .blocks import BlockVector
from .errors import SerializationError
from .kernels import ScalarSymbol
from .matrices import BANDED, DENSE, TOEPLITZ, BlockMatrix
from .norms import NormEstimate

__all__ = [
    "dumps_canonical",
    "save_json",
    "load_json",
    "matrix_to_payload",
    "matrix_from_payload",
    "symbol_to_payload",
    "symbol_from_payload",
    "estimate_to_payload",
    "profile_to_payload",
    "profile_from_payload",
    "profile_csv_rows",
    "format_cell",
    "json_cell",
    "write_csv",
    "convert",
]

CSV_SIGNIFICANT_DIGITS = 12


def dumps_canonical(payload) -> str:
    """Deterministic JSON text: sorted keys, compact, newline-terminated."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def save_json(path, payload) -> None:
    Path(path).write_text(dumps_canonical(payload), encoding="utf-8")


def load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError("<document>", f"invalid JSON: {exc}") from exc


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _block_lists(block: np.ndarray) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(block, dtype=complex)]


def _require(payload: dict, field: str, kind=None):
    """``payload[field]``, checked against ``kind`` (a type or a tuple).

    JSON ``true``/``false`` load as ``bool``, a subclass of ``int``; they
    pass only where ``bool`` itself is asked for.
    """
    if field not in payload:
        raise SerializationError(field, "missing")
    value = payload[field]
    if kind is not None:
        kinds = kind if isinstance(kind, tuple) else (kind,)
        boolean = isinstance(value, bool) and bool not in kinds
        if boolean or not isinstance(value, kinds):
            names = " or ".join(k.__name__ for k in kinds)
            raise SerializationError(field, f"expected {names}")
    return value


def _typed(payload, tag: str) -> dict:
    """``payload`` checked to be an object whose ``type`` is ``tag``."""
    if not isinstance(payload, dict):
        raise SerializationError("<document>", "expected an object")
    if _require(payload, "type") != tag:
        raise SerializationError("type", f"expected {tag!r}")
    return payload


def _positive(payload: dict, field: str) -> int:
    value = _require(payload, field, int)
    if value < 1:
        raise SerializationError(field, f"must be at least 1, got {value}")
    return value


def _offset_items(items: list, field: str, size: int | None = None):
    """``(offset, item)`` for each entry of an offset-keyed list ``field``.

    ``items`` must be a non-empty list of objects with distinct offsets,
    inside ``[-(N-1), N-1]`` for a size ``N``, else in the int64 range;
    the checks cost one pass over the items.
    """
    if not items:
        raise SerializationError(field, "needs at least one stored offset")
    bound = int(np.iinfo(np.int64).max) if size is None else size - 1
    seen = set()
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise SerializationError(f"{field}[{index}]", "expected an object")
        offset = _require(item, "offset", int)
        if abs(offset) > bound:
            raise SerializationError(
                "offset", f"offset {offset} outside [{-bound}, {bound}]"
            )
        if offset in seen:
            raise SerializationError("offset", f"duplicate offset {offset}")
        seen.add(offset)
        yield offset, item


def _finite(values: np.ndarray, field: str) -> np.ndarray:
    """``values`` unchanged, or SerializationError if any is NaN or infinite."""
    if not np.isfinite(values).all():
        raise SerializationError(field, "values must be finite")
    return values


def _parse_pair(value, field: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise SerializationError(field, "complex values are [real, imag] pairs")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise SerializationError(field, "values must be finite") from None


def _parse_block(value, dim: int, field: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise SerializationError(field, f"expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise SerializationError(field, f"expected {dim} entries per row")
        for j, cell in enumerate(row):
            out[i, j] = _parse_pair(cell, f"{field}[{i}][{j}]")
    return out


def matrix_to_payload(a: BlockMatrix) -> dict:
    """Interchange form of a matrix; diagonal-major for structured storage."""
    payload = {
        "type": "block_matrix",
        "N": a.size,
        "d": a.dim,
        "structure": a.structure,
        "upper_triangular": bool(a.upper_triangular),
    }
    if a.structure == DENSE:
        blocks = a.blocks()
        payload["data"] = [
            [_block_lists(blocks[k, j]) for j in range(a.size)]
            for k in range(a.size)
        ]
    elif a.structure == TOEPLITZ:
        payload["data"] = [
            {"offset": l, "block": _block_lists(a.diagonal_run(l)[0])}
            for l in a.diagonal_support()
        ]
    else:
        payload["data"] = [
            {
                "offset": l,
                "blocks": [_block_lists(b) for b in a.diagonal_run(l)],
            }
            for l in a.diagonal_support()
        ]
    return payload


def matrix_from_payload(payload: dict) -> BlockMatrix:
    """Matrix of an interchange payload.

    Raises
    ------
    SerializationError
        For any malformed payload, naming the offending field.
    """
    _typed(payload, "block_matrix")
    size = _positive(payload, "N")
    dim = _positive(payload, "d")
    structure = _require(payload, "structure", str)
    data = _require(payload, "data", list)
    if structure == DENSE:
        if len(data) != size:
            raise SerializationError("data", f"expected {size} rows")
        rows = []
        for k, row in enumerate(data):
            if not isinstance(row, list) or len(row) != size:
                raise SerializationError("data", f"expected {size} columns")
            rows.append([
                _parse_block(cell, dim, f"data[{k}][{j}]") for j, cell in enumerate(row)
            ])
        return BlockMatrix.dense(_finite(np.array(rows), "data"))
    if structure == TOEPLITZ:
        coeffs = {}
        for offset, item in _offset_items(data, "data", size):
            coeffs[offset] = _finite(
                _parse_block(_require(item, "block"), dim, f"offset {offset}"),
                f"offset {offset}",
            )
        return BlockMatrix.toeplitz(coeffs, size)
    if structure == BANDED:
        diagonals = {}
        for offset, item in _offset_items(data, "data", size):
            runs = _require(item, "blocks", list)
            if len(runs) != size - abs(offset):
                raise SerializationError(
                    "blocks", f"offset {offset} needs {size - abs(offset)} blocks"
                )
            run = np.stack(
                [
                    _parse_block(b, dim, f"offset {offset}[{i}]")
                    for i, b in enumerate(runs)
                ]
            )
            diagonals[offset] = _finite(run, f"offset {offset}")
        return BlockMatrix.banded(diagonals, size)
    raise SerializationError("structure", f"unknown structure {structure!r}")


def symbol_to_payload(symbol: ScalarSymbol) -> dict:
    payload = {"type": "scalar_symbol", "kind": symbol.kind}
    if symbol.kind == "trigpoly":
        support = symbol.support()
        payload["coeffs"] = [
            {"offset": int(l), "value": _pair(symbol.coeff(l))} for l in support
        ]
    elif symbol.kind in ("fejer", "dirichlet"):
        payload["n"] = int(symbol.param)
    else:
        payload["r"] = float(symbol.param)
    return payload


# Closed-form symbol kinds: the payload field holding the parameter, its
# JSON type, and the constructor that validates its range.
_SYMBOL_PARAMETERS = {
    "fejer": ("n", int, ScalarSymbol.fejer),
    "dirichlet": ("n", int, ScalarSymbol.dirichlet),
    "poisson": ("r", (int, float), ScalarSymbol.poisson),
}


def symbol_from_payload(payload: dict) -> ScalarSymbol:
    """Symbol of an interchange payload.

    Raises
    ------
    SerializationError
        For any malformed payload, naming the offending field.
    """
    kind = _require(_typed(payload, "scalar_symbol"), "kind", str)
    if kind == "trigpoly":
        coeffs = {
            offset: _parse_pair(_require(item, "value"), f"offset {offset}")
            for offset, item in _offset_items(_require(payload, "coeffs", list), "coeffs")
        }
        _finite(np.array(list(coeffs.values())), "coeffs")
        return ScalarSymbol.trig_polynomial(coeffs)
    if kind not in _SYMBOL_PARAMETERS:
        raise SerializationError("kind", f"unknown symbol kind {kind!r}")
    field, field_kind, make = _SYMBOL_PARAMETERS[kind]
    try:
        return make(_require(payload, field, field_kind))
    except (ValueError, OverflowError) as exc:
        raise SerializationError(field, str(exc)) from exc


def _witness_reference(certificate) -> dict | None:
    if certificate is None:
        return None
    if isinstance(certificate, BlockVector):
        return {
            "kind": "block_vector",
            "size": certificate.size,
            "dim": certificate.dim,
            "norm": float(certificate.norm()),
        }
    if isinstance(certificate, dict):
        return certificate
    return {"kind": type(certificate).__name__}


def estimate_to_payload(estimate: NormEstimate) -> dict:
    """Norm estimate with a witness reference, not the full witness."""
    return {
        "type": "norm_estimate",
        "kind": estimate.kind,
        "value": float(estimate.value),
        "iterations": int(estimate.iterations),
        "samples": int(estimate.samples),
        "witness": _witness_reference(estimate.certificate),
    }


def profile_to_payload(profile: ConvergenceProfile) -> dict:
    return {
        "type": "convergence_profile",
        "indices": list(profile.indices),
        "distances": list(profile.distances),
        "tolerance": profile.tolerance,
        "reference_norm": profile.reference_norm,
        "converged": profile.converged,
        "threshold_index": profile.threshold_index,
        "floor": profile.floor,
    }


def _numbers(values: list, field: str) -> list:
    """``values`` unchanged if all are finite JSON numbers, not booleans."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise SerializationError(field, "expected numbers")
    try:
        _finite(np.array(values, dtype=float), field)
    except OverflowError:
        raise SerializationError(field, "values must be finite") from None
    return values


def profile_from_payload(payload: dict) -> ConvergenceProfile:
    """Profile of a payload; SerializationError names any malformed field."""
    _typed(payload, "convergence_profile")
    indices = _numbers(_require(payload, "indices", list), "indices")
    distances = _numbers(_require(payload, "distances", list), "distances")
    if not indices:
        raise SerializationError("indices", "needs at least one index")
    if len(distances) != len(indices):
        raise SerializationError("distances", f"expected {len(indices)}, one per index")
    threshold = _require(payload, "threshold_index")
    _numbers([] if threshold is None else [threshold], "threshold_index")
    scalars = {
        field: _numbers([_require(payload, field, (int, float))], field)[0]
        for field in ("tolerance", "reference_norm", "floor")
    }
    return ConvergenceProfile(
        indices=tuple(indices),
        distances=tuple(distances),
        converged=_require(payload, "converged", bool),
        threshold_index=threshold,
        **scalars,
    )


def profile_csv_rows(profile: ConvergenceProfile) -> tuple[list[str], list[list]]:
    header = ["index", "distance"]
    rows = [[i, d] for i, d in zip(profile.indices, profile.distances)]
    return header, rows


def format_cell(value) -> str:
    """CSV cell formatting: 12 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{CSV_SIGNIFICANT_DIGITS}g}"
    if isinstance(value, (complex, np.complexfloating)):
        raise TypeError("split complex values into _re/_im columns before writing")
    return str(value)


def json_cell(value):
    """JSON table cell: floats rounded as in :func:`format_cell`."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(format_cell(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a deterministic CSV table with canonical float formatting."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def convert(in_path, out_path, densify: bool = False) -> BlockMatrix:
    """Re-serialize a matrix payload, optionally forcing dense storage.

    Without ``densify`` the canonical output bytes reproduce the input
    exactly (for canonical input), since structure tags and stored
    supports are preserved.
    """
    matrix = matrix_from_payload(load_json(in_path))
    if densify:
        matrix = BlockMatrix.dense(matrix.blocks())
    save_json(out_path, matrix_to_payload(matrix))
    return matrix
