"""Record the value golden that ``tests/test_golden.py`` compares against.

Runs ``opschur run --experiment all --format json`` for each seed in
``SEEDS`` with one BLAS thread, as the benchmark does, and writes every
experiment file, parsed and re-indented one value per line, to
``tests/golden/seed<n>/<experiment>.json``.  The test compares strings,
integers and verdicts exactly and floats within a tolerance, so the
golden holds on any numpy and BLAS build.

Run from the root of a checkout, only in a change that means to move
experiment values, together with ``perfbench/record_digests.py``::

    python3 tests/record_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"
SEEDS = (0, 1)


def run_suite(seed: int, out: Path) -> Path:
    """Write the suite's JSON files for ``seed`` into ``out``, in a fresh
    process with one BLAS thread, importing the package from ``src/``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "opschur", "run", "--experiment", "all",
         "--format", "json", "--seed", str(seed), "--out", str(out)],
        check=True, capture_output=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path},
    )
    return out


def load_run(directory: Path) -> dict:
    """``{experiment: parsed document}`` for every JSON file in ``directory``."""
    return {path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.json"))}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            documents = load_run(run_suite(seed, Path(scratch) / str(seed)))
            target = GOLDEN / f"seed{seed}"
            target.mkdir(parents=True, exist_ok=True)
            for stale in target.glob("*.json"):
                stale.unlink()
            for name, document in documents.items():
                text = json.dumps(document, indent=1, sort_keys=True) + "\n"
                (target / f"{name}.json").write_text(text, encoding="utf-8")
            print(f"seed {seed}: recorded {len(documents)} files in {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
