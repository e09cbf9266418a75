"""opschur benchmark: end-to-end metrics per workload, or a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload suite --seed 0 --seconds 24 --trace 0

With ``--workload``, one workload runs in this process: set-up is timed
in fresh processes, a warm-up pass runs, then timed passes repeat until
``--seconds`` have elapsed.  Every op's output is checked.  A traced run
skips the set-up probes and alternates untraced and traced passes, at
least ``MIN_TRACE_PAIRS`` of each, and fails if its counts differ from
ROADMAP's baselines.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload``, each workload runs in its own fresh process, once
untraced and once traced, and a summary table is printed.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11
MIN_TRACE_PAIRS = 3
MIN_TAIL_BEYOND = 10
OUT_DIR = HERE / "out"

# ROADMAP's counted baselines: all experiments at d=2, N=16.
SUITE_OP_NORM_CALLS = 1017
SUITE_PHI_BOUNDS_SUP_CALLS = 237

E2E_UNITS = {"setup_s": "s", "pass_s_p50": "s", "peak_rss_mb": "MB"}

# One BLAS thread (at most nproc, as allowed): on a small shared machine a
# second BLAS thread made pass times and peak RSS vary from run to run, and
# the single-threaded run is the baseline a threading change is measured
# against.  Set before numpy loads; set-up probes inherit it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))
try:
    import numpy as np
    import opschur
except ImportError as exc:
    print(f"perfbench: cannot import opschur from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(opschur.__file__).resolve().parent.parent != SRC:
    print(f"perfbench: opschur imported from {opschur.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(2)

import layertrace  # noqa: E402  (after the path set-up above)
import platform_info  # noqa: E402
import workloads  # noqa: E402


# -- statistics ----------------------------------------------------------


def summarize(times: list[float]) -> dict:
    """Median, quartiles and the tail percentile of pass times.

    The tail is the highest percentile with at least ``MIN_TAIL_BEYOND``
    passes beyond it; with that few passes or fewer there is none.
    """
    ordered = sorted(times)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n >= 2 else (ordered[0],) * 3
    out = {"n": n, "p50": statistics.median(ordered), "q1": q1, "q3": q3,
           "tail": None, "tail_percentile": None}
    if n > MIN_TAIL_BEYOND:
        out["tail"] = ordered[n - MIN_TAIL_BEYOND - 1]
        out["tail_percentile"] = 100.0 * (n - MIN_TAIL_BEYOND) / n
    return out


# -- one workload --------------------------------------------------------


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """CPU and wall times of fresh processes that import opschur and build
    inputs; a probe's CPU time is read from its rusage once it is reaped."""
    cpu_times, wall_times = [], []
    for _ in range(SETUP_PROBES):
        cpu, wall = _children_cpu(), time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL,
        ) as probe:
            code = probe.wait()
        wall_times.append(time.perf_counter() - wall)
        cpu_times.append(_children_cpu() - cpu)
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited {code}")
    return cpu_times, wall_times


def setup_probe(workload: str, seed: int) -> None:
    """Body of one set-up probe; exits without interpreter tear-down."""
    workloads.WORKLOADS[workload]().setup(seed, OUT_DIR / "probe")
    os._exit(0)


class Passes:
    """Runs timed passes of one workload and collects checked records.

    A pass is timed in process CPU time, which is what the metrics
    report, and in wall time, which is printed beside it.
    """

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.records = []
        self.wall_times = []

    def one(self, tracer=None) -> float:
        fresh = self.workload.fresh(self.state)
        if tracer is not None:
            tracer.recording = True
        cpu, wall = time.process_time(), time.perf_counter()
        outputs = self.workload.run(self.state, fresh)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if tracer is not None:
            tracer.recording = False
        self.wall_times.append(wall)
        self.records += self.workload.check(self.state, fresh, outputs)
        return cpu

    def repeat(self, seconds: float) -> list[float]:
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.one())
        return times


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    env = platform_info.environment()
    setup_times, setup_walls = ([], []) if traced else measure_setup(name, seed)
    workload = workloads.WORKLOADS[name]()
    run_dir = OUT_DIR / f"{name}-{os.getpid()}"
    state = workload.setup(seed, run_dir)
    passes = Passes(workload, state)
    passes.one()  # warm-up: checked, not timed
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "env": env, "setup_s_samples": setup_times,
              "setup_wall_s_samples": setup_walls, "baselines": []}
    if traced:
        untraced, times, tracer = traced_passes(passes, seconds)
        tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        layers = tracer.layer_metrics(len(times))
        layers["trace.overhead_ratio"] = statistics.median(times) / statistics.median(untraced)
        result["untraced_passes"] = summarize(untraced)
        result["baselines"] = baselines(name, tracer, len(times), layers)
    else:
        times = passes.repeat(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = workload.finalize(state, passes.records)
    shutil.rmtree(run_dir, ignore_errors=True)

    stats = summarize(times)
    failed = [r for r in records if not r.ok]
    baselines_match = all(check["match"] for check in result["baselines"])
    result.update({
        "notes": workload.notes(state), "baselines_match": baselines_match,
        "passes": stats,
        "wall_passes": summarize(passes.wall_times[2::2] if traced else passes.wall_times[1:]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(records), "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "failures": [f"{r.op}: {r.detail}" for r in failed[:20]],
    })
    if traced:
        units = layertrace.per_layer_metric_units()
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        values = {"setup_s": statistics.median(setup_times), "pass_s_p50": stats["p50"],
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    result["metrics"] = metrics
    _write_json(OUT_DIR / f"result-{name}-trace{int(traced)}-seed{seed}.json", result)
    report(result)
    print(json.dumps({"correct": not failed and baselines_match,
                      "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def traced_passes(passes: Passes, seconds: float):
    """Alternate untraced and traced passes for ``seconds``.

    Pairs, not two halves of the run, so that a drift in machine speed
    falls on both sides of ``trace.overhead_ratio`` alike; at least
    ``MIN_TRACE_PAIRS`` pairs, so neither side is a single pass.  The
    wrappers are installed only around the traced passes.
    """
    tracer = layertrace.Tracer(extra_namespaces=[("workloads", vars(workloads))])
    tracer.recording = False
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        untraced.append(passes.one())
        tracer.pass_id = len(traced)
        with tracer:
            traced.append(passes.one(tracer))
    return untraced, traced, tracer


def baselines(name: str, tracer, passes: int, layers: dict) -> list[dict]:
    """ROADMAP's counts, compared as counts with the traced run.

    A count that does not match makes the run's ``correct`` false.
    """
    if name == "suite":
        checks = [
            ("op_norm calls per pass", layers["norms.op_norm.calls"], SUITE_OP_NORM_CALLS),
            ("op_norm exact_svd calls per pass", layers["norms.op_norm.exact_calls"],
             SUITE_OP_NORM_CALLS),
            ("symbol_sup_norm calls from phi-bounds per pass",
             tracer.calls_under("norms.symbol_sup_norm", "experiments.phi-bounds") / passes,
             SUITE_PHI_BOUNDS_SUP_CALLS),
        ]
        return [{"what": w, "measured": m, "baseline": b, "match": m == b}
                for w, m, b in checks]
    if name == "structured-norm":
        m = layers["norms.op_norm.fallback_calls"]
        return [{"what": "op_norm fallback calls per pass", "measured": m,
                 "baseline": ">= 1", "match": m >= 1}]
    return []


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    stats = result["passes"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for note in result["notes"]:
        print(f"note {note}")
    setups = result["setup_s_samples"]
    if setups:
        print(f"setup_s      {statistics.median(setups):.4f} s   CPU time, median of "
              f"{len(setups)} fresh processes (import opschur + inputs); wall "
              f"{statistics.median(result['setup_wall_s_samples']):.4f} s")
    wall = result["wall_passes"]
    print(f"pass_s_p50   {stats['p50']:.4f} s   CPU time, n={stats['n']} passes, "
          f"q1={stats['q1']:.4f} q3={stats['q3']:.4f}; wall p50 {wall['p50']:.4f} s "
          f"(q1={wall['q1']:.4f} q3={wall['q3']:.4f})")
    if stats["tail"] is None:
        print(f"pass_s_tail  n/a        n={stats['n']} passes; a tail needs more than "
              f"{MIN_TAIL_BEYOND} (reported outside the end-to-end set)")
    else:
        print(f"pass_s_tail  {stats['tail']:.4f} s   p{stats['tail_percentile']:.1f}, "
              f"n={stats['n']} (reported outside the end-to-end set)")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"failed_ratio {result['failed_ratio']:.4g}   "
          f"{result['failed']} failed / {result['attempted']} attempted")
    for line in result["failures"]:
        print(f"  failed: {line}")
    if result["trace"]:
        untraced = result["untraced_passes"]
        overhead = result["metrics"]["trace.overhead_ratio"]["value"]
        print(f"trace overhead {overhead:.4f} = traced pass_s_p50 {stats['p50']:.4f} s "
              f"(n={stats['n']}) / untraced {untraced['p50']:.4f} s (n={untraced['n']})")
        for check in result["baselines"]:
            verdict = "matches" if check["match"] else "DIFFERS"
            print(f"baseline {check['what']}: {check['measured']:g} "
                  f"vs {check['baseline']} -> {verdict}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -- every workload ------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own fresh process, untraced then traced."""
    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT, timeout=900,
            )
            path = OUT_DIR / f"result-{name}-trace{traced}-seed{seed}.json"
            if proc.returncode != 0 or not path.exists():
                print(f"perfbench: {name} trace={traced} exited {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            rows.append(json.loads(path.read_text(encoding="utf-8")))
            if rows[-1]["failed"] or not rows[-1]["baselines_match"]:
                status = 1
    print()
    print(f"{'workload':16s} {'trace':>5s} {'setup_s [s]':>11s} {'pass_s_p50 [s]':>14s} "
          f"{'pass_s_tail [s]':>15s} {'peak_rss_mb [MB]':>16s} {'failed/attempted':>16s} "
          f"{'failed_ratio':>12s} {'overhead':>8s}")
    for row in rows:
        stats = row["passes"]
        setup = (f"{statistics.median(row['setup_s_samples']):11.3f}"
                 if row["setup_s_samples"] else f"{'':11s}")
        tail = ("n/a" if stats["tail"] is None
                else f"{stats['tail']:.3f} p{stats['tail_percentile']:.0f}")
        overhead = (f"{row['metrics']['trace.overhead_ratio']['value']:.3f}"
                    if row["trace"] else "")
        counts = f"{row['failed']}/{row['attempted']}"
        print(f"{row['workload']:16s} {row['trace']:5d} "
              f"{setup} {stats['p50']:14.3f} "
              f"{tail:>15s} {row['peak_rss_mb']:16.1f} {counts:>16s} "
              f"{row['failed_ratio']:12.4g} {overhead:>8s}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except layertrace.TraceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
