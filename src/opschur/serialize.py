"""JSON interchange and CSV table output.

Interchange payloads are plain JSON with complex numbers as
``[real, imag]`` pairs.  Canonical serialization sorts keys and uses
compact separators, and floats go through their shortest round-trip
representation, so load followed by dump reproduces the original bytes
exactly.  Values must be finite: ``NaN`` and ``Infinity`` are not JSON,
and both the writer and the reader refuse them.
Matrix entries are written and read as whole numpy arrays: the
writer's bytes match a cell-by-cell ``[z.real, z.imag]`` dump exactly,
signed zeros included; the reader checks a whole array at once, walking it
again only when it fails, to name the first bad cell in row-major order.
Experiment tables are output, not interchange: in CSV and JSON alike
their floats are rounded to 12 significant digits, and CSV splits
complex columns into real and imaginary parts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import matrices
from .errors import SerializationError
from .matrices import BANDED, DENSE, TOEPLITZ, BlockMatrix

__all__ = [
    "dumps_canonical",
    "save_json",
    "load_json",
    "matrix_to_payload",
    "matrix_from_payload",
    "format_cell",
    "json_cell",
    "write_csv",
    "convert",
]

CSV_SIGNIFICANT_DIGITS = 12


def dumps_canonical(payload) -> str:
    """Deterministic JSON text: sorted keys, compact, newline-terminated;
    a NaN or infinite float raises SerializationError."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise SerializationError("<document>", str(exc)) from None
    return text + "\n"


def save_json(path, payload) -> None:
    Path(path).write_text(dumps_canonical(payload), encoding="utf-8")


def load_json(path):
    """Parse a UTF-8 JSON file; a document that does not decode, or that
    holds ``NaN`` or ``Infinity``, is refused."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8 and JSON
        raise SerializationError("<document>", f"invalid JSON: {exc}") from exc


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _pairs(arr) -> list:
    """Nested lists of ``[real, imag]`` Python floats, one pair per entry,
    read through a view of ``arr``, which is not copied."""
    return np.asarray(arr, dtype=complex)[..., None].view(float).tolist()


def _require(payload: dict, field: str, kind: type | None = None):
    """``payload[field]``, checked to be a ``kind``.

    JSON ``true``/``false`` load as ``bool``, a subclass of ``int``; they
    pass only where ``bool`` itself is asked for.
    """
    if field not in payload:
        raise SerializationError(field, "missing")
    value = payload[field]
    if kind is not None and (
        not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)
    ):
        raise SerializationError(field, f"expected {kind.__name__}")
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


def _offset_items(items: list, field: str, size: int):
    """``(offset, item)`` for each entry of an offset-keyed list ``field``.

    ``items`` must be a non-empty list of objects with distinct offsets
    inside ``[-(N-1), N-1]`` for the size ``N``; the checks cost one pass
    over the items.
    """
    if not items:
        raise SerializationError(field, "needs at least one stored offset")
    seen = set()
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise SerializationError(f"{field}[{index}]", "expected an object")
        offset = _require(item, "offset", int)
        if abs(offset) >= size:
            raise SerializationError(
                "offset", f"offset {offset} outside [{1 - size}, {size - 1}]"
            )
        if offset in seen:
            raise SerializationError("offset", f"duplicate offset {offset}")
        seen.add(offset)
        yield offset, item


def _parse_pairs(value, shape: tuple, field: str) -> np.ndarray:
    """Complex array of ``shape`` from nested ``[real, imag]`` pairs, checked
    and cast in bulk; cell types are checked first, since a float cast takes
    ``true`` and ``"1.5"``.  A NaN or infinite value is refused."""
    try:
        arr = np.array(value, dtype=object)
        if arr.shape != shape + (2,) or not set(map(type, arr.flat)) <= {int, float}:
            raise ValueError
        values = arr.astype(float)
    except (ValueError, OverflowError):
        _bad_place(value, shape, field)
        values = np.array(value, dtype=float)  # cells of float subclasses
    if not np.isfinite(values).all():
        raise SerializationError(field, "values must be finite")
    return values.view(complex)[..., 0]


def _bad_place(value, shape: tuple, field: str, index: tuple = ()) -> None:
    """Raise SerializationError at the first place, row-major, where ``value``
    is not ``shape`` nested lists of number pairs.  Errors inside a ``d x d``
    block name the indices above it (``data[k][j]``), a cell all of its
    indices (``data[k][j][r][c]``), a level above the blocks ``field``."""
    depth = len(index)
    if depth == len(shape):
        name = field + "".join(f"[{i}]" for i in index)
        if not isinstance(value, list) or len(value) != 2 or any(
            isinstance(x, bool) or not isinstance(x, (int, float)) for x in value
        ):
            raise SerializationError(name, "complex values are [real, imag] pairs")
        try:
            complex(*value)
        except OverflowError:
            raise SerializationError(name, "values must be finite") from None
    elif not isinstance(value, list) or len(value) != shape[depth]:
        left = len(shape) - depth
        where = "".join(f"[{i}]" for i in index[: len(shape) - 2]) if left <= 2 else ""
        what = {1: "entries per row", 2: "rows"}.get(left, "columns" if depth else "rows")
        raise SerializationError(field + where, f"expected {shape[depth]} {what}")
    else:
        for i, item in enumerate(value):
            _bad_place(item, shape, field, index + (i,))


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
        payload["data"] = _pairs(a.blocks())
    elif a.structure == TOEPLITZ:
        payload["data"] = [
            {"offset": l, "block": _pairs(a.entry(max(0, -l), max(0, l)).matrix)}
            for l in a.diagonal_support()
        ]
    else:
        payload["data"] = [
            {"offset": l, "blocks": _pairs(a.diagonal_run(l))}
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
    upper = _require(payload, "upper_triangular", bool)
    data = _require(payload, "data", list)
    if structure == DENSE:
        matrix = BlockMatrix.dense(_parse_pairs(data, (size, size, dim, dim), "data"))
    elif structure == TOEPLITZ:
        coeffs = {}
        for offset, item in _offset_items(data, "data", size):
            coeffs[offset] = _parse_pairs(_require(item, "block"), (dim, dim), f"offset {offset}")
        matrix = BlockMatrix.toeplitz(coeffs, size)
    elif structure == BANDED:
        diagonals = {}
        for offset, item in _offset_items(data, "data", size):
            name, length = f"offset {offset}", size - abs(offset)
            runs = _require(item, "blocks", list)
            if len(runs) != length:
                raise SerializationError("blocks", f"{name} needs {length} blocks")
            diagonals[offset] = _parse_pairs(runs, (length, dim, dim), name)
        matrix = BlockMatrix.banded(diagonals, size)
    else:
        raise SerializationError("structure", f"unknown structure {structure!r}")
    if matrix.upper_triangular != upper:
        raise SerializationError("upper_triangular", "contradicts the entries")
    return matrix


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
    supports are preserved.  With ``densify``, a dense array over
    ``matrices.DENSE_BYTES_LIMIT`` raises SerializationError for ``N``.
    """
    matrix = matrix_from_payload(load_json(in_path))
    if densify:
        if needed := matrices.dense_excess(matrix.size, matrix.dim):
            raise SerializationError("N", f"a dense copy needs {needed} bytes, over "
                                          f"the limit of {matrices.DENSE_BYTES_LIMIT}")
        matrix = BlockMatrix._from_dense(matrix.flatten(), matrix.size, matrix.dim)
    save_json(out_path, matrix_to_payload(matrix))
    return matrix
