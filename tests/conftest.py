import os
import sys
from pathlib import Path

import pytest

# Make the sibling oracles and record_golden modules importable from every
# test file.
sys.path.insert(0, str(Path(__file__).parent))

from record_golden import run_suite  # noqa: E402

# CLI tests run ``python -m opschur`` in subprocesses: let them import the
# package from src/ as this process does, with or without PYTHONPATH set.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    """``suite_run(seed)``: the directory of ``opschur run --experiment all
    --format json`` at ``seed``, run once per seed per session, so the
    digest and golden tests share one run."""
    runs = {}

    def run(seed: int) -> Path:
        if seed not in runs:
            runs[seed] = run_suite(seed, tmp_path_factory.mktemp(f"suite-seed{seed}"))
        return runs[seed]

    return run
