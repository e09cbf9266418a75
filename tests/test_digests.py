"""The experiment suite still writes the bytes the benchmark recorded.

``perfbench/digests.json`` holds the SHA-256 of every file that
``opschur run --experiment all --format json`` writes, per seed, for one
numerical platform (numpy and BLAS build).  This test re-runs two seeds
with one BLAS thread, as the benchmark does, and compares; on another
platform the recorded bytes do not apply and it skips.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from platform_info import platform_key  # noqa: E402

RECORDED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_reproduces_recorded_digests(seed, tmp_path):
    here = platform_key()
    if here != RECORDED["platform"]:
        pytest.skip(f"digests recorded on {RECORDED['platform']!r}, this is {here!r}")
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "opschur", "run", "--experiment", "all",
         "--format", "json", "--seed", str(seed), "--out", str(out)],
        check=True, capture_output=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    got = {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.glob("*.json"))}
    assert got == RECORDED["seeds"][str(seed)]
