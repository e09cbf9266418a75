"""The benchmark's layer trace can still wrap every function it lists.

``perfbench/layertrace.py`` wraps library functions by name, in every
namespace that binds them.  Deleting or renaming a listed function, or
capturing one in a default argument or closure where no wrapper can
reach it, makes ``Tracer.install`` raise ``TraceError``; this test finds
that in a fraction of a second instead of in a full traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    tracer = layertrace.Tracer().install()
    tracer.close()
