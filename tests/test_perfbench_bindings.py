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
import numpy as np  # noqa: E402

from opschur.matrices import BlockMatrix, random_dense  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    tracer = layertrace.Tracer().install()
    tracer.close()


def test_densify_counts_the_first_dense_form_of_a_structured_matrix():
    # the counter reads BlockMatrix._cache["dense"] before each blocks() call
    t = BlockMatrix.toeplitz({0: np.eye(2), 1: np.ones((2, 2))}, 4)
    a = random_dense(4, 2, 0)
    with layertrace.Tracer() as tracer:
        t.blocks()
        t.blocks()
        t.flatten()
        a.blocks()
        a.flatten()
    assert tracer.counters == {
        "matrices.densify.count": 1,
        "matrices.densify.computed_bytes": 16 * 8**2,
    }
