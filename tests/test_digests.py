"""The experiment suite still writes the bytes the benchmark recorded.

``perfbench/digests.json`` holds the SHA-256 of every file that
``opschur run --experiment all --format json`` writes, per seed, for one
numerical platform (numpy and BLAS build).  This test compares two seeds
of the session's suite run (``suite_run`` in ``conftest.py``, one BLAS
thread, as the benchmark uses); on another platform the recorded bytes do
not apply and it skips.  ``test_golden.py`` checks the values there.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from platform_info import platform_key  # noqa: E402

RECORDED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_reproduces_recorded_digests(seed, suite_run):
    here = platform_key()
    if here != RECORDED["platform"]:
        pytest.skip(f"digests recorded on {RECORDED['platform']!r}, this is {here!r}")
    out = suite_run(seed)
    got = {path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.glob("*.json"))}
    assert got == RECORDED["seeds"][str(seed)]
