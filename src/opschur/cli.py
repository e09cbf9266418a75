"""Command line front end for experiments and payload conversion.

Exit codes: 0 on success, 1 for configuration or usage errors, 2 when a
norm computation fails to converge, 3 when check mode finds a failed
assertion.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import matrices
from .errors import NonConvergenceError, SerializationError
from .experiments import (
    TOLERANCE_KEYS,
    ExperimentConfig,
    ExperimentResult,
    experiment_names,
    run_experiment,
)
from .serialize import convert, dumps_canonical, json_cell, write_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NONCONVERGENCE = 2
EXIT_CHECK_FAILED = 3

OUTPUT_DIR_VARIABLE = "OPSCHUR_OUT"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config code."""

    def error(self, message):
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="opschur",
                     description="block-matrix calculus experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or all experiments",
                         description="run experiments and write result files")
    run.add_argument("--experiment", default="all",
                     choices=("all",) + experiment_names(),
                     help="experiment name, or 'all'")
    run.add_argument("--d", type=int, default=2, dest="dim",
                     help="entry dimension")
    run.add_argument("--N", type=int, default=16, dest="size",
                     help="truncation size for random instances")
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument("--out", default=None,
                     help=f"output directory (default ${OUTPUT_DIR_VARIABLE}"
                          " or ./opschur-out)")
    run.add_argument("--format", default="csv", choices=("csv", "json"),
                     help="output file format")
    run.add_argument("--check", action="store_true",
                     help="exit 3 if any assertion fails")
    run.add_argument("--tolerance", action="append", default=[],
                     metavar="KEY=VALUE", help="tolerance override,"
                     " e.g. profile=1e-4 (repeatable)")

    conv = sub.add_parser("convert", help="re-serialize a matrix payload",
                          description="read a matrix payload and write it"
                          " back in canonical form")
    conv.add_argument("input", help="input JSON path")
    conv.add_argument("output", help="output JSON path")
    conv.add_argument("--densify", action="store_true",
                      help="convert structured storage to dense")
    return parser


def _parse_tolerances(pairs: list[str], parser: _Parser) -> dict[str, float]:
    tolerances = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            parser.error(f"--tolerance expects KEY=VALUE, got {pair!r}")
        try:
            value = float(raw)
        except ValueError:
            parser.error(f"--tolerance value for {key!r} is not a number")
        if key not in TOLERANCE_KEYS:
            parser.error(f"unknown --tolerance key {key!r}, not in {TOLERANCE_KEYS}")
        if not (math.isfinite(value) and value > 0):
            parser.error(f"--tolerance value for {key!r} must be finite and positive")
        tolerances[key] = value
    return tolerances


def _result_payload(result: ExperimentResult) -> dict:
    return {
        "type": "experiment",
        "name": result.name,
        "config": {
            "d": result.config.dim,
            "N": result.config.size,
            "seed": result.config.seed,
            "tolerances": dict(result.config.tolerances),
        },
        "tables": [
            {
                "name": table.name,
                "header": list(table.header),
                "rows": [[json_cell(cell) for cell in row]
                         for row in table.rows],
            }
            for table in result.tables
        ],
        "assertions": [
            {"name": a.name, "passed": a.passed, "detail": a.detail}
            for a in result.assertions
        ],
        "passed": result.passed,
    }


def _write_result(result: ExperimentResult, out_dir: Path, fmt: str) -> None:
    if fmt == "json":
        path = out_dir / f"{result.name}.json"
        path.write_text(dumps_canonical(_result_payload(result)),
                        encoding="utf-8")
        return
    for table in result.tables:
        write_csv(out_dir / f"{result.name}__{table.name}.csv",
                  table.header, table.rows)
    write_csv(
        out_dir / f"{result.name}__assertions.csv",
        ("name", "passed", "detail"),
        [(a.name, a.passed, a.detail) for a in result.assertions],
    )


def _run_command(args, parser: _Parser) -> int:
    tolerances = _parse_tolerances(args.tolerance, parser)
    if args.dim < 1:
        parser.error("--d must be at least 1")
    if args.size < 2:
        parser.error("--N must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if needed := matrices.dense_excess(args.size, args.dim):  # the experiments flatten
        parser.error(f"--N {args.size} with --d {args.dim} needs {needed} bytes per"
                     f" dense matrix, over the limit of {matrices.DENSE_BYTES_LIMIT}")
    out_dir = Path(args.out if args.out is not None
                   else os.environ.get(OUTPUT_DIR_VARIABLE, "opschur-out"))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create output directory {out_dir}: {exc}")

    names = (experiment_names() if args.experiment == "all"
             else (args.experiment,))
    config = ExperimentConfig(dim=args.dim, size=args.size, seed=args.seed,
                              tolerances=tolerances)
    all_passed = True
    for name in names:
        try:
            result = run_experiment(name, config)
        except NonConvergenceError as exc:
            print(f"{name}: did not converge ({exc})", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        _write_result(result, out_dir, args.format)
        verdict = "ok" if result.passed else "FAILED"
        failed = sum(1 for a in result.assertions if not a.passed)
        print(f"{name}: {verdict} "
              f"({len(result.assertions) - failed}/{len(result.assertions)}"
              " assertions)")
        all_passed = all_passed and result.passed
        if args.check:
            for a in result.assertions:
                if not a.passed:
                    print(f"{a.name}: {a.detail}", file=sys.stderr)
    if args.check and not all_passed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _convert_command(args) -> int:
    try:
        convert(args.input, args.output, densify=args.densify)
    except (SerializationError, OSError) as exc:
        print(f"opschur: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_command(args, parser)
    return _convert_command(args)


if __name__ == "__main__":
    sys.exit(main())
