import os
import sys
from pathlib import Path

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

# CLI tests run ``python -m opschur`` in subprocesses: let them import the
# package from src/ as this process does, with or without PYTHONPATH set.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
