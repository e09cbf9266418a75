"""The experiment suite still computes the values recorded in ``tests/golden/``.

Unlike the byte digests of ``test_digests.py``, which hold only on the
numpy and BLAS build that recorded them, this check holds on every
platform.  Strings, integers, booleans and verdicts must match exactly;
float cells, and the numbers inside assertion ``detail`` strings, within
``ABS + REL * |recorded|``.  Cells are printed to 12 significant digits,
so that admits rounding differences between BLAS kernels and nothing
larger.  A failure lists every moved cell by file, table, row and column.
``tests/record_golden.py`` re-records the golden.
"""

import copy
import re

import pytest

from record_golden import GOLDEN, SEEDS, load_run

ABS = 1e-12
REL = 1e-10
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class _Detail(str):
    """An assertion detail: its numbers are compared within the tolerance."""


def _close(recorded: float, got: float) -> bool:
    return abs(got - recorded) <= ABS + REL * abs(recorded)


def _same(recorded, got) -> bool:
    if isinstance(recorded, _Detail):
        numbers = NUMBER.findall(recorded), NUMBER.findall(got)
        return NUMBER.split(recorded) == NUMBER.split(got) and all(
            _close(float(r), float(g)) for r, g in zip(*numbers))
    if type(recorded) is float and type(got) is float:
        return _close(recorded, got)
    return type(recorded) is type(got) and recorded == got


def _leaves(value, place: str, cells: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _leaves(item, f"{place}.{key}", cells)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _leaves(item, f"{place}[{index}]", cells)
    else:
        cells[place] = value


def _cells(document: dict) -> dict:
    """``{place: value}`` for every leaf of an experiment document; table
    cells are placed by table, row and column, assertion fields by name."""
    cells = {}
    for key, value in document.items():
        if key not in ("tables", "assertions"):
            _leaves(value, key, cells)
    for table in document.get("tables", []):
        name, header = table["name"], table["header"]
        _leaves(header, f"table {name}, header", cells)
        for row_index, row in enumerate(table["rows"]):
            for column_index, value in enumerate(row):
                column = header[column_index] if column_index < len(header) else column_index
                cells[f"table {name}, row {row_index}, column {column}"] = value
    for assertion in document.get("assertions", []):
        place = f"assertion {assertion['name']}"
        cells[f"{place}, passed"] = assertion["passed"]
        cells[f"{place}, detail"] = _Detail(assertion["detail"])
    return cells


def moved_cells(recorded: dict, got: dict) -> list[str]:
    """Every place where ``got`` leaves ``recorded``, both ``{experiment:
    document}``: a value out of tolerance, or a cell on one side only."""
    moved = []
    for name in sorted(recorded.keys() | got.keys()):
        want, have = _cells(recorded.get(name, {})), _cells(got.get(name, {}))
        for place in [*want, *(place for place in have if place not in want)]:
            if place not in have:
                moved.append(f"{name}.json: {place}: recorded {want[place]!r}, missing")
            elif place not in want:
                moved.append(f"{name}.json: {place}: not recorded, got {have[place]!r}")
            elif not _same(want[place], have[place]):
                moved.append(f"{name}.json: {place}: recorded {want[place]!r}, "
                             f"got {have[place]!r}")
    return moved


def _golden(seed: int) -> dict:
    return load_run(GOLDEN / f"seed{seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_matches_golden(seed, suite_run):
    moved = moved_cells(_golden(seed), load_run(suite_run(seed)))
    assert not moved, (f"{len(moved)} cells moved from tests/golden/seed{seed}:\n"
                       + "\n".join(moved))


def _scale_cell(factor):
    def mutate(documents):
        row = documents["norm-identities"]["tables"][0]["rows"][0]
        row[2] *= factor
    return mutate


def _bump_detail(documents):
    # "worst -5.651621e+00": the last printed digit, 1.8e-7 relative
    assertion = documents["schur-submultiplicativity"]["assertions"][0]
    assertion["detail"] = assertion["detail"].replace("5.651621e", "5.651622e")


def _flip_verdict(documents):
    documents["phi-bounds"]["assertions"][1]["passed"] = False


def _retype_trial(documents):
    row = documents["norm-identities"]["tables"][0]["rows"][0]
    row[1] = float(row[1])


# name: (mutation of the seed-0 golden, the place its failure names, or None)
PERTURBATIONS = {
    "cell-1e-8": (_scale_cell(1 + 1e-8),
                  "norm-identities.json: table identities, row 0, column lhs"),
    "cell-1e-13": (_scale_cell(1 + 1e-13), None),
    "detail-last-digit": (
        _bump_detail, "schur-submultiplicativity.json: assertion submultiplicative, detail"),
    "verdict": (_flip_verdict, "phi-bounds.json: assertion polynomials_within_bound, passed"),
    "integer-as-float": (
        _retype_trial, "norm-identities.json: table identities, row 0, column trial"),
}


@pytest.mark.parametrize("case", PERTURBATIONS)
def test_perturbed_golden_names_the_cell(case, suite_run):
    # negative control: a golden moved in one place fails there, and only there
    mutate, place = PERTURBATIONS[case]
    perturbed = copy.deepcopy(_golden(0))
    mutate(perturbed)
    moved = moved_cells(perturbed, load_run(suite_run(0)))
    assert [line.split(": recorded")[0] for line in moved] == ([place] if place else [])

