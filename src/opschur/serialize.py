"""JSON interchange and CSV table output.

Interchange payloads are plain JSON with complex numbers as
``[real, imag]`` pairs.  Canonical serialization sorts keys and uses
compact separators, and floats go through their shortest round-trip
representation, so load followed by dump reproduces the original bytes
exactly.  CSV tables are for experiment output, not interchange: there
floats are printed with 12 significant digits and complex columns are
split into real and imaginary parts.
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


def _positive(payload: dict, field: str) -> int:
    value = _require(payload, field, int)
    if value < 1:
        raise SerializationError(field, f"must be at least 1, got {value}")
    return value


def _offset_items(data: list, size: int):
    """``(offset, item)`` for each stored diagonal of a structured payload.

    ``data`` must be a non-empty list of objects with distinct offsets
    inside ``[-(N-1), N-1]``; the checks cost one pass over the items.
    """
    if not data:
        raise SerializationError("data", "needs at least one stored offset")
    seen = set()
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise SerializationError(f"data[{index}]", "expected an object")
        offset = _require(item, "offset", int)
        if abs(offset) > size - 1:
            raise SerializationError(
                "offset", f"offset {offset} outside [{-(size - 1)}, {size - 1}]"
            )
        if offset in seen:
            raise SerializationError("offset", f"duplicate offset {offset}")
        seen.add(offset)
        yield offset, item


def _parse_pair(value, field: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise SerializationError(field, "complex values are [real, imag] pairs")
    return complex(value[0], value[1])


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
    if not isinstance(payload, dict):
        raise SerializationError("<document>", "expected an object")
    if _require(payload, "type") != "block_matrix":
        raise SerializationError("type", "expected 'block_matrix'")
    size = _positive(payload, "N")
    dim = _positive(payload, "d")
    structure = _require(payload, "structure", str)
    data = _require(payload, "data", list)
    if structure == DENSE:
        if len(data) != size:
            raise SerializationError("data", f"expected {size} rows")
        blocks = np.zeros((size, size, dim, dim), dtype=complex)
        for k, row in enumerate(data):
            if not isinstance(row, list) or len(row) != size:
                raise SerializationError("data", f"expected {size} columns")
            for j, cell in enumerate(row):
                blocks[k, j] = _parse_block(cell, dim, f"data[{k}][{j}]")
        return BlockMatrix.dense(blocks)
    if structure == TOEPLITZ:
        coeffs = {}
        for offset, item in _offset_items(data, size):
            coeffs[offset] = _parse_block(
                _require(item, "block"), dim, f"offset {offset}"
            )
        return BlockMatrix.toeplitz(coeffs, size)
    if structure == BANDED:
        diagonals = {}
        for offset, item in _offset_items(data, size):
            runs = _require(item, "blocks", list)
            if len(runs) != size - abs(offset):
                raise SerializationError(
                    "blocks", f"offset {offset} needs {size - abs(offset)} blocks"
                )
            diagonals[offset] = np.stack(
                [
                    _parse_block(b, dim, f"offset {offset}[{i}]")
                    for i, b in enumerate(runs)
                ]
            )
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


def symbol_from_payload(payload: dict) -> ScalarSymbol:
    if _require(payload, "type") != "scalar_symbol":
        raise SerializationError("type", "expected 'scalar_symbol'")
    kind = _require(payload, "kind", str)
    if kind == "trigpoly":
        coeffs = {}
        for item in _require(payload, "coeffs", list):
            offset = _require(item, "offset", int)
            coeffs[offset] = _parse_pair(_require(item, "value"), f"offset {offset}")
        return ScalarSymbol.trig_polynomial(coeffs)
    if kind == "fejer":
        return ScalarSymbol.fejer(_require(payload, "n", int))
    if kind == "dirichlet":
        return ScalarSymbol.dirichlet(_require(payload, "n", int))
    if kind == "poisson":
        return ScalarSymbol.poisson(_require(payload, "r", (int, float)))
    raise SerializationError("kind", f"unknown symbol kind {kind!r}")


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


def profile_from_payload(payload: dict) -> ConvergenceProfile:
    if _require(payload, "type") != "convergence_profile":
        raise SerializationError("type", "expected 'convergence_profile'")
    return ConvergenceProfile(
        indices=tuple(_require(payload, "indices", list)),
        distances=tuple(_require(payload, "distances", list)),
        tolerance=_require(payload, "tolerance", (int, float)),
        reference_norm=_require(payload, "reference_norm", (int, float)),
        converged=_require(payload, "converged", bool),
        threshold_index=payload.get("threshold_index"),
        floor=_require(payload, "floor", (int, float)),
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
