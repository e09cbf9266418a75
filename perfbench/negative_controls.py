"""Negative controls for the benchmark's own checks and trace.

Each control feeds a check a deliberately wrong output and requires it
to count as a failed op, next to the untouched output that must pass:
a perturbed norm value, a flipped byte in an experiment's JSON file, an
experiment file that reports a failed assertion on a platform without
recorded digests, wrong calculus results, and a traced count that
differs from ROADMAP's baseline.  The trace controls require the tracer to
refuse a binding it cannot wrap and a listed function that has gone,
and to put every original back.

Run from the root of a checkout (about ten seconds)::

    python3 perfbench/negative_controls.py
"""

from __future__ import annotations

import json
import shutil
import sys
import traceback

import numpy as np

import run  # sets up the import path; imports opschur from src/
import layertrace
import workloads
from opschur import matrices, norms
from opschur.matrices import BlockMatrix
from opschur.norms import NormEstimate

WORK_DIR = run.OUT_DIR / "negative-controls"


def test_perturbed_norm_value_fails():
    bench = workloads.StructuredNorm()
    spec = workloads._separated(np.random.default_rng(0), "banded", 260, 2)
    a = spec.build()
    estimate = norms.op_norm(a)
    good = bench.check_norm(spec.label, a, estimate)
    assert good.ok, good
    state = {"specs": [spec]}
    assert bench.finalize(state, [good]) == [good]

    perturbed = NormEstimate(value=estimate.value * (1 + 1e-5), kind=estimate.kind,
                             certificate=estimate.certificate)
    assert not bench.check_norm(spec.label, a, perturbed).ok
    # A value that its own certificate reproduces but that is not the
    # norm (the second singular value, say) is caught by the reference.
    wrong = workloads.Record(good.op, True, value=good.value * (1 - 1e-6))
    assert not bench.finalize(state, [wrong])[0].ok


def test_flipped_json_byte_fails():
    bench = workloads.Suite()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    state = bench.setup(0, WORK_DIR)
    bench.fresh(state)
    code = bench.run(state, None)
    assert all(r.ok for r in bench.check(state, None, code))

    path = WORK_DIR / "kernel-axioms.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    records = bench.check(state, None, code)
    failed = [r.op for r in records if not r.ok]
    assert failed == ["suite.kernel-axioms"], failed

    # A verdict flip is reported as such.
    path.write_bytes(bytes(state["first"]["kernel-axioms"]).replace(
        b'"passed":true', b'"passed":false', 1))
    record = bench.check_experiment(state, "kernel-axioms", code, path.read_bytes())
    assert not record.ok and "assertions failed" in record.detail, record

    # A file equal to the first pass but not to the recorded digest fails.
    state["recorded"] = {"phi-bounds": "0" * 64}
    record = bench.check_experiment(state, "phi-bounds", code,
                                    state["first"]["phi-bounds"])
    assert not record.ok, record
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def test_failed_assertion_fails_without_digests():
    """Off the recording platform a failed assertion still fails the op,
    even when every pass fails it alike, and the report says why no
    digests were used."""
    bench = workloads.Suite()
    state = bench.setup(0, WORK_DIR)
    platform_key = workloads.platform_key
    workloads.platform_key = lambda: "another numerical platform"
    try:
        bench.load_digests(state)
    finally:
        workloads.platform_key = platform_key
    assert state["recorded"] == {}
    assert "no recorded digests apply" in bench.notes(state)[0], bench.notes(state)

    payload = {"assertions": [{"name": "bound holds", "passed": False, "detail": ""}],
               "passed": False}
    data = json.dumps(payload).encode()
    state["first"] = {"phi-bounds": data}
    record = bench.check_experiment(state, "phi-bounds", 0, data)
    assert not record.ok and "bound holds" in record.detail, record

    payload["assertions"][0]["passed"] = True
    data = json.dumps(payload).encode()
    state["first"] = {"phi-bounds": data}
    record = bench.check_experiment(state, "phi-bounds", 0, data)
    assert not record.ok and "top-level" in record.detail, record


def test_baseline_mismatch_fails():
    layers = {"norms.op_norm.calls": run.SUITE_OP_NORM_CALLS,
              "norms.op_norm.exact_calls": run.SUITE_OP_NORM_CALLS - 1}

    class Tracer:
        @staticmethod
        def calls_under(_label, _ancestor):
            return run.SUITE_PHI_BOUNDS_SUP_CALLS

    checks = run.baselines("suite", Tracer, 1, layers)
    assert [c["match"] for c in checks] == [True, False, True], checks
    checks = run.baselines("structured-norm", Tracer, 1,
                           {"norms.op_norm.fallback_calls": 0})
    assert not checks[0]["match"], checks


def test_wrong_calculus_result_fails():
    bench = workloads.Calculus()
    state = bench.setup(0, WORK_DIR)
    fresh = bench.fresh(state)
    outputs = bench.run(state, fresh)
    assert all(r.ok for r in bench.check(state, fresh, outputs))

    width = len(bench.OPS)
    for index in (0, width, 2 * width):  # schur_product on banded, toeplitz, dense
        product = outputs[index]
        blocks = np.array(product.blocks())
        blocks[1, 1, 0, 0] += 1e-6
        wrong = list(outputs)
        wrong[index] = BlockMatrix.dense(blocks)
        failed = [r.op for r in bench.check(state, fresh, wrong) if not r.ok]
        assert len(failed) == 1 and failed[0].startswith("schur_product"), failed

    apply_index = bench.OPS.index("apply")
    wrong = list(outputs)
    wrong[apply_index] = outputs[apply_index] * (1 + 1e-7)
    failed = [r.op for r in bench.check(state, fresh, wrong) if not r.ok]
    assert len(failed) == 1 and failed[0].startswith("apply"), failed

    matrix, text = outputs[-1]
    runs = {l: np.array(matrix.diagonal_run(l)) for l in matrix.diagonal_support()}
    runs[0][0, 0, 0] = np.nextafter(runs[0][0, 0, 0].real, np.inf) + 1j * runs[0][0, 0, 0].imag
    wrong = list(outputs)
    wrong[-1] = (BlockMatrix.banded(runs, matrix.size), text)
    failed = [r.op for r in bench.check(state, fresh, wrong) if not r.ok]
    assert failed == ["payload round trip"], failed


def test_trace_refuses_unwrapped_binding():
    hidden = (norms.op_norm,)
    norms._negative_control_hidden = hidden
    try:
        try:
            layertrace.Tracer().install()
        except layertrace.TraceError as exc:
            assert "_negative_control_hidden" in str(exc), exc
        else:
            raise AssertionError("a binding inside a tuple was not reported")
    finally:
        del norms._negative_control_hidden
    assert norms.op_norm is hidden[0], "original not restored after refusal"


def test_trace_refuses_missing_function():
    original = norms.wiener_norm
    del norms.wiener_norm
    try:
        try:
            layertrace.Tracer().install()
        except layertrace.TraceError as exc:
            assert "wiener_norm" in str(exc), exc
        else:
            raise AssertionError("a missing listed function was not reported")
    finally:
        norms.wiener_norm = original


def test_trace_restores_originals():
    before = (norms.op_norm, matrices.schur_product, BlockMatrix.__dict__["flatten"],
              BlockMatrix.__dict__["blocks"])
    with layertrace.Tracer() as tracer:
        assert norms.op_norm is not before[0]
        norms.op_norm(BlockMatrix.identity(4, 2))
    after = (norms.op_norm, matrices.schur_product, BlockMatrix.__dict__["flatten"],
             BlockMatrix.__dict__["blocks"])
    assert after == before
    labels = [span[1] for span in tracer.spans]
    assert labels == ["norms.op_norm", "matrices.flatten", "blocks.svd"], labels
    assert tracer.counters["matrices.densify.count"] == 1


def test_benchmark_json_names_match():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layertrace.per_layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # report every control, then fail the run
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failures}/{len(tests)} negative controls passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
