"""Check that the suite still writes the bytes the benchmark recorded.

Runs ``opschur run --experiment all --format json`` in-process for every
seed that ``perfbench/digests.json`` records, with one BLAS thread set
before numpy loads, into a temporary directory.  It hashes each file
as ``perfbench/record_digests.py`` does and compares the hashes with the
recorded ones.  Every moved ``(seed, experiment)`` is listed, and any
moved, missing or extra file makes it exit 1.  The digests hold only for
the numerical platform they were recorded on (numpy and BLAS build);
elsewhere it says so and still lists what differs.

It takes about 80 s, so it is not part of the test suite.  Run from the
root of a checkout::

    python3 tests/check_digests.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# imports the benchmark's run module first: one BLAS thread set before numpy
# loads, and the package imported from src/ of this checkout
import record_digests  # noqa: E402
from opschur import cli  # noqa: E402
from platform_info import platform_key  # noqa: E402
from workloads import DIGESTS_PATH  # noqa: E402


def seed_digests(seed: int, out_dir: Path) -> dict[str, str]:
    """SHA-256 of each experiment file the suite writes at ``seed``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--experiment", "all", "--format", "json",
                         "--seed", str(seed), "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"seed {seed}: opschur run exited {code}")
    return record_digests.suite_digests(out_dir)


def main() -> int:
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    here = platform_key()
    if here != recorded["platform"]:
        print(f"digests recorded on {recorded['platform']!r}, this is {here!r}: "
              "moved files are expected here")
    moved = []
    with tempfile.TemporaryDirectory() as scratch:
        for seed, expected in sorted(recorded["seeds"].items(), key=lambda item: int(item[0])):
            got = seed_digests(int(seed), Path(scratch) / seed)
            moved += [(int(seed), name) for name in sorted(expected.keys() | got.keys())
                      if got.get(name) != expected.get(name)]
    for seed, name in moved:
        print(f"moved: seed {seed}, {name}")
    seeds = len(recorded["seeds"])
    if moved:
        print(f"{len(moved)} files moved over {seeds} seeds")
        return 1
    print(f"all {seeds} seeds reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
