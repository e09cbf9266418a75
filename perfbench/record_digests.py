"""Record the suite workload's expected experiment digests.

Runs ``opschur run --experiment all --format json`` in-process for each
seed in ``range(SEEDS)`` at the default sizes and writes the SHA-256
of every experiment file to ``perfbench/digests.json``, keyed by the
numerical platform (numpy and BLAS build).  The suite workload compares
each pass against these digests when the platform matches, so a change
that alters any canonical JSON byte counts as a failed op.

Run from the root of a checkout, only when the experiment output is
meant to change::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys

import run  # the benchmark's import path and BLAS thread setting
import workloads
from opschur import cli
from platform_info import platform_key

HERE = run.HERE
SEEDS = 64


def suite_digests(out_dir) -> dict[str, str]:
    """SHA-256 of each experiment's canonical JSON file in ``out_dir``."""
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*.json"))
    }


def main() -> int:
    out_dir = HERE / "out" / "digests"
    table = {"platform": platform_key(), "seeds": {}}
    for seed in range(SEEDS):
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--experiment", "all", "--format", "json",
                             "--seed", str(seed), "--out", str(out_dir)])
        if code != 0:
            print(f"seed {seed}: opschur run exited {code}", file=sys.stderr)
            return 1
        table["seeds"][str(seed)] = suite_digests(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recorded {SEEDS} seeds for {table['platform']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
