"""Span tracing of opschur's public functions, from outside the package.

The tracer replaces each listed public function with a timing wrapper in
every ``opschur.*`` namespace that binds it (module globals, class
dictionaries and module-level dictionaries such as the experiment
registry), records one span per call, and puts the originals back when
it is closed.  Nothing inside ``src/`` is edited.

A binding the tracer cannot wrap (a default argument, a closure cell, an
entry of a module-level list) would let calls bypass the trace and
silently zero a layer, so :meth:`Tracer.install` refuses to start when it
finds one, and :meth:`Tracer.close` refuses to finish when an original
cannot be restored.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path


class TraceError(RuntimeError):
    """The trace cannot cover, or cannot restore, a listed function."""


@dataclass(frozen=True)
class Target:
    """One listed public function: span label, home module, attribute path."""

    label: str
    module: str
    attr: str
    span: bool = True


# Labels name the layer metric the calls feed.  ``BlockMatrix.blocks`` is
# counted but opens no span, so densification time stays in the self time
# of the caller (``flatten``, ``allclose``, ...).
TARGETS = (
    Target("blocks.svd", "opschur.blocks", "singular_triples"),
    Target("blocks.svd", "opschur.blocks", "singular_values"),
    Target("matrices.schur_product", "opschur.matrices", "schur_product"),
    Target("matrices.apply", "opschur.matrices", "apply"),
    Target("matrices.adjoint", "opschur.matrices", "adjoint"),
    Target("matrices.combine", "opschur.matrices", "BlockMatrix.__add__"),
    Target("matrices.combine", "opschur.matrices", "BlockMatrix.__sub__"),
    Target("matrices.flatten", "opschur.matrices", "BlockMatrix.flatten"),
    Target("matrices.densify", "opschur.matrices", "BlockMatrix.blocks", span=False),
    Target("kernels.smooth", "opschur.kernels", "smooth"),
    Target("kernels.kernel_axiom_check", "opschur.kernels", "kernel_axiom_check"),
    Target("norms.op_norm", "opschur.norms", "op_norm"),
    Target("norms.power", "opschur.norms", "power_iteration"),
    Target("norms.symbol_sup_norm", "opschur.norms", "symbol_sup_norm"),
    Target("norms.multiplier_lower_bound", "opschur.norms", "multiplier_lower_bound"),
    Target("norms.wiener_norm", "opschur.norms", "wiener_norm"),
    Target("analysis.smoothing_profile", "opschur.analysis", "smoothing_profile"),
    Target("analysis.boundary_profile", "opschur.analysis", "boundary_profile"),
    Target("analysis.coefficient_action_bound", "opschur.analysis",
           "coefficient_action_bound"),
    Target("analysis.modulate", "opschur.analysis", "modulate"),
    Target("analysis.analytic_eval", "opschur.analysis", "analytic_eval"),
    Target("serialize.matrix_to_payload", "opschur.serialize", "matrix_to_payload"),
    Target("serialize.matrix_from_payload", "opschur.serialize", "matrix_from_payload"),
    Target("serialize.dumps_canonical", "opschur.serialize", "dumps_canonical"),
    Target("cli.main", "opschur.cli", "main"),
)

EXPERIMENT_NAMES = (
    "norm-identities",
    "schur-submultiplicativity",
    "kernel-axioms",
    "sigma-profiles",
    "toeplitz-symbol-convergence",
    "phi-bounds",
    "hinf-profile",
)

# Labels reported as ``.calls`` and ``.self_s``; ``cli.main`` and the
# experiments are reported as span time, ``matrices.densify`` by counters.
CALL_LABELS = tuple(dict.fromkeys(
    t.label for t in TARGETS if t.span and t.label != "cli.main"
))

# Counters, keyed by metric name and reported per pass, except
# ``flat_n_max`` (a maximum) and the attempted iterations and useful ratio,
# which are derived from the other two power-iteration counts.
COUNTER_METRICS = (
    ("matrices.densify.count", "count"),
    ("matrices.densify.computed_bytes", "B"),
    ("norms.op_norm.exact_calls", "count"),
    ("norms.op_norm.power_calls", "count"),
    ("norms.op_norm.fallback_calls", "count"),
    ("norms.op_norm.flat_n_max", "count"),
    ("norms.power.iterations", "count"),
    ("norms.power.wasted_iterations", "count"),
    ("norms.power.attempted_iterations", "count"),
    ("norms.power.useful_ratio", "ratio"),
    ("norms.symbol_sup_norm.grid_points", "count"),
    ("serialize.bytes", "B"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for label in CALL_LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units.update(dict(COUNTER_METRICS))
    for name in EXPERIMENT_NAMES:
        units[f"experiments.{name}.s"] = "s"
    units["cli.main.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _opschur_modules() -> list[types.ModuleType]:
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "opschur" or name.startswith("opschur."))
    ]


def _resolve(target: Target):
    """The original function object of a target, or TraceError."""
    try:
        owner = importlib.import_module(target.module)
        value = owner
        for part in target.attr.split("."):
            value = getattr(value, part)
    except (ImportError, AttributeError) as exc:
        raise TraceError(
            f"{target.module}.{target.attr} (layer {target.label}) is gone: {exc}"
        ) from exc
    if not callable(value):
        raise TraceError(f"{target.module}.{target.attr} is not callable")
    return value


def _bindings(originals: dict[int, object]):
    """Yield ``(container, key, value)`` for every wrappable binding.

    Covers module globals, attributes of classes defined in opschur
    modules, and values of module-level dictionaries.  A class or
    dictionary re-exported by several modules is visited once.
    """
    seen = set()
    for module in _opschur_modules():
        namespace = vars(module)
        containers = [namespace]
        for value in namespace.values():
            if isinstance(value, type) and value.__module__.startswith("opschur"):
                containers.append(value)
            elif isinstance(value, dict):
                containers.append(value)
        for container in containers:
            if id(container) in seen:
                continue
            seen.add(id(container))
            items = vars(container) if isinstance(container, type) else container
            for key, value in list(items.items()):
                if id(value) in originals:
                    yield container, key, value


def _store(container, key, value) -> None:
    if isinstance(container, type):
        setattr(container, key, value)
    else:
        container[key] = value


def _load(container, key):
    if isinstance(container, type):
        return vars(container).get(key)
    return container.get(key)


def _hidden_references(watched: dict[int, object], skip: dict[int, object],
                       extra_namespaces=()):
    """Places holding a watched object that the wrapping does not reach.

    Looks into function defaults and closure cells of every opschur
    function (methods included, the tracer's own wrappers in ``skip``
    excluded), module-level lists and tuples, and the given extra
    namespaces (the benchmark's own modules).
    """
    found = []

    def functions_of(namespace: dict):
        for value in namespace.values():
            if isinstance(value, types.FunctionType):
                yield value
            elif isinstance(value, type) and value.__module__.startswith("opschur"):
                for member in vars(value).values():
                    member = getattr(member, "__func__", member)
                    if isinstance(member, types.FunctionType):
                        yield member

    for module in _opschur_modules():
        namespace = vars(module)
        for key, value in namespace.items():
            if isinstance(value, (list, tuple)):
                found.extend(
                    f"{module.__name__}.{key}[{i}]"
                    for i, item in enumerate(value) if id(item) in watched
                )
        for fn in functions_of(namespace):
            if id(fn) in skip:
                continue
            defaults = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
            cells = [c.cell_contents for c in fn.__closure__ or () if _cell_full(c)]
            if any(id(v) in watched for v in defaults + cells):
                found.append(f"default or closure of {fn.__module__}.{fn.__qualname__}")
    for label, namespace in extra_namespaces:
        found.extend(
            f"{label}.{key}" for key, value in namespace.items() if id(value) in watched
        )
    return found


def _cell_full(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


class Tracer:
    """Wraps the listed functions, records spans and per-layer counters.

    ``install`` wraps, ``close`` restores; use it as a context manager.
    While ``recording`` is false the wrappers call straight through, so
    the benchmark's own checks leave no spans.
    Spans are ``(id, label, start, end, parent, pass_id)`` tuples kept in
    memory until :meth:`write_spans`.
    """

    def __init__(self, extra_namespaces=()):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.pass_id = -1
        self.recording = True
        self._stack: list[int] = []
        self._extra = tuple(extra_namespaces)
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        self._installed: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> "Tracer":
        targets = [(t, _resolve(t)) for t in TARGETS]
        targets += self._experiment_targets()
        wrapper_of = {}
        for target, original in targets:
            self._originals[id(original)] = original
            wrapper_of[id(original)] = self._wrap(target, original)
        for container, key, value in list(_bindings(self._originals)):
            wrapper = wrapper_of[id(value)]
            _store(container, key, wrapper)
            self._installed.append((container, key, value))
        self._wrappers = {id(w): w for w in wrapper_of.values()}
        wrapped = {id(value) for _, _, value in self._installed}
        missing = [t for t, original in targets if id(original) not in wrapped]
        hidden = _hidden_references(self._originals, self._wrappers, self._extra)
        if missing or hidden:
            self.close()
            raise TraceError(
                "trace incomplete: "
                + "; ".join([f"{t.module}.{t.attr} has no binding" for t in missing]
                            + [f"unwrapped binding at {where}" for where in hidden])
            )
        return self

    def _experiment_targets(self):
        experiments = importlib.import_module("opschur.experiments")
        registry = experiments.REGISTRY
        if tuple(registry) != EXPERIMENT_NAMES:
            raise TraceError(
                f"experiment registry {tuple(registry)} differs from {EXPERIMENT_NAMES}"
            )
        return [
            (Target(f"experiments.{name}", "opschur.experiments", f"REGISTRY[{name}]"),
             fn)
            for name, fn in registry.items()
        ]

    def close(self) -> None:
        """Put every original back; TraceError if one cannot be restored."""
        failures = []
        for container, key, original in reversed(self._installed):
            try:
                _store(container, key, original)
            except (AttributeError, TypeError) as exc:
                failures.append(f"{key}: {exc}")
                continue
            if _load(container, key) is not original:
                failures.append(f"{key} still wrapped")
        self._installed = []
        leftovers = [
            f"{key}" for container, key, _ in _bindings(self._wrappers)
        ] + _hidden_references(self._wrappers, {}, self._extra)
        if failures or leftovers:
            raise TraceError(
                "cannot restore originals: " + "; ".join(failures + leftovers)
            )

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recording ----------------------------------------------------

    def _wrap(self, target: Target, fn):
        observe = _OBSERVERS.get(target.label)
        counters = self.counters
        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.recording:
                    observe(counters, args, None, True)
                return fn(*args, **kwargs)
            return counted

        label = target.label
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[span_id] = (span_id, label, start, clock(), parent, self.pass_id)
                stack.pop()
                if observe is not None:
                    observe(counters, args, exc, False)
                raise
            spans[span_id] = (span_id, label, start, clock(), parent, self.pass_id)
            stack.pop()
            if observe is not None:
                observe(counters, args, result, True)
            return result

        return traced

    # -- reporting ----------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics over the recorded spans and counters."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            _, label, start, end, parent, _ = span
            if parent >= 0:
                child_time[parent] += end - start
        for span in self.spans:
            span_id, label, start, end, _, _ = span
            calls[label] = calls.get(label, 0) + 1
            total[label] = total.get(label, 0.0) + (end - start)
            self_time[label] = self_time.get(label, 0.0) + (end - start) - child_time[span_id]
        out: dict[str, float] = {}
        for label in CALL_LABELS:
            out[f"{label}.calls"] = calls.get(label, 0) / passes
            out[f"{label}.self_s"] = self_time.get(label, 0.0) / passes
        for name, _ in COUNTER_METRICS:
            out[name] = self.counters.get(name, 0) / passes
        out["norms.op_norm.flat_n_max"] = self.counters.get("norms.op_norm.flat_n_max", 0)
        useful, wasted = out["norms.power.iterations"], out["norms.power.wasted_iterations"]
        out["norms.power.attempted_iterations"] = useful + wasted
        out["norms.power.useful_ratio"] = useful / (useful + wasted) if useful + wasted else 0.0
        for name in EXPERIMENT_NAMES:
            out[f"experiments.{name}.s"] = total.get(f"experiments.{name}", 0.0) / passes
        out["cli.main.s"] = total.get("cli.main", 0.0) / passes
        return out

    def calls_under(self, label: str, ancestor: str) -> int:
        """Number of ``label`` spans that have an ``ancestor`` span above them."""
        by_id = {span[0]: span for span in self.spans}
        count = 0
        for span in self.spans:
            if span[1] != label:
                continue
            parent = span[4]
            while parent >= 0:
                if by_id[parent][1] == ancestor:
                    count += 1
                    break
                parent = by_id[parent][4]
        return count

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, label, start, end, parent, pass_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": label, "start": start, "end": end,
                    "parent": parent, "pass": pass_id,
                }) + "\n")


# -- observers: counters at the same boundaries as the spans -------------


def _bump(counters: dict, key: str, amount=1) -> None:
    counters[key] = counters.get(key, 0) + amount


def _observe_densify(counters, args, _result, _ok) -> None:
    matrix = args[0]
    # A structured matrix caches its dense form on the first call only.
    if matrix.structure != "dense" and "dense" not in matrix._cache:
        _bump(counters, "matrices.densify.count")
        _bump(counters, "matrices.densify.computed_bytes", 16 * matrix.flat_size ** 2)


def _observe_op_norm(counters, args, result, ok) -> None:
    if not ok:
        return
    flat = args[0].flat_size
    exact_limit = sys.modules["opschur.norms"].EXACT_SVD_LIMIT
    if result.kind == "power_iteration":
        _bump(counters, "norms.op_norm.power_calls")
    elif flat > exact_limit:
        _bump(counters, "norms.op_norm.fallback_calls")
    else:
        _bump(counters, "norms.op_norm.exact_calls")
    key = "norms.op_norm.flat_n_max"
    counters[key] = max(counters.get(key, 0), flat)


def _observe_power(counters, _args, result, ok) -> None:
    if ok:
        _bump(counters, "norms.power.iterations", result[2])
    elif hasattr(result, "iteration_cap"):
        _bump(counters, "norms.power.wasted_iterations", result.iteration_cap)


def _observe_sup(counters, _args, result, ok) -> None:
    if ok:
        _bump(counters, "norms.symbol_sup_norm.grid_points", result.grid_points)


def _observe_dumps(counters, _args, result, ok) -> None:
    if ok:
        _bump(counters, "serialize.bytes", len(result.encode("utf-8")))


_OBSERVERS = {
    "matrices.densify": _observe_densify,
    "norms.op_norm": _observe_op_norm,
    "norms.power": _observe_power,
    "norms.symbol_sup_norm": _observe_sup,
    "serialize.dumps_canonical": _observe_dumps,
}
