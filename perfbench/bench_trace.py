"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public functions that :data:`LAYERS` names so
that every call records a span (name, layer, start, end, parent, run id)
and bumps the layer's counters; :meth:`Installation.remove` puts every
original back.  Spans stay in memory until the run ends.  Nothing inside
``src/`` changes: the wrappers call the originals with the same arguments
and return their results untouched, so a traced report is bit-identical
to an untraced one.

A span's *self time* is its duration minus the time its direct child
spans cover; a layer's self time is the sum over its spans, which counts
a layer that calls back into itself once.  The span stack assumes one
thread, which every workload's executor (serial, or a process pool)
satisfies; forked process-pool workers inherit the wrappers but their
spans stay in the worker and are never collected.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from types import FunctionType
from typing import Any, Callable, NamedTuple

from bench_workloads import LAYERS, Layer, Target


class Span(NamedTuple):
    span_id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run_id: str


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus its direct children's."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.end - span.start
    return {
        span.span_id: span.end - span.start - covered.get(span.span_id, 0.0)
        for span in spans
    }


def summed_self_times(spans: list[Span], field: str = "layer") -> dict[str, float]:
    """Self time summed per layer (or per span ``name``)."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        key = getattr(span, field)
        totals[key] = totals.get(key, 0.0) + own[span.span_id]
    return totals


def outermost_time(spans: list[Span], layer: str) -> float:
    """Wall time inside *layer*: spans with no ancestor of the same layer."""
    by_id = {span.span_id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.layer != layer:
            continue
        parent = span.parent
        while parent >= 0 and by_id[parent].layer != layer:
            parent = by_id[parent].parent
        if parent < 0:
            total += span.end - span.start
    return total


class Recorder:
    """In-memory span store plus per-layer counters for one traced run."""

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self._layer: list[str] = []
        self._name: list[str] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._stack: list[int] = []
        self.depth: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: Items handed to the process pool, pickled for their size at the end.
        self.shard_items: list[Any] = []

    def open(self, layer: str, name: str) -> int:
        span_id = len(self._start)
        self._layer.append(layer)
        self._name.append(name)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(span_id)
        self.depth[layer] += 1
        self._start.append(perf_counter())
        return span_id

    def close(self, span_id: int, layer: str) -> None:
        self._end[span_id] = perf_counter()
        self._stack.pop()
        self.depth[layer] -= 1

    def spans(self) -> list[Span]:
        return [
            Span(index, layer, name, start, end, parent, self.run_id)
            for index, (layer, name, start, end, parent) in enumerate(
                zip(self._layer, self._name, self._start, self._end, self._parent)
            )
        ]

    def shard_bytes(self) -> int:
        return sum(len(pickle.dumps(item)) for item in self.shard_items)


# -- counters ------------------------------------------------------------------
#
# A hook runs after its span closed and sees the call's arguments and result.
# ``outer`` is true when no span of the same layer encloses the call, so a
# layer calling back into itself is counted once.

Hook = Callable[[Recorder, str, str, tuple, dict, Any, bool], None]


def _count_scenarios(rec, layer, name, args, kwargs, result, outer):
    if outer:
        rec.counts["scenarios.jobs"] += result.num_jobs


def _count_dispatch(rec, layer, name, args, kwargs, result, outer):
    if outer:
        rec.counts["dispatch.calls"] += 1
        rec.counts["dispatch.jobs"] += len(result)


def _count_controller(rec, layer, name, args, kwargs, result, outer):
    rec.counts["controller.epochs"] += len(result.awake_counts)
    rec.counts["controller.wake_transitions"] += sum(
        1 for _time, _server, kind in result.transitions if kind == "wake"
    )


def _count_tenancy(rec, layer, name, args, kwargs, result, outer):
    rec.counts["tenancy.calls"] += 1


def _count_runtime(rec, layer, name, args, kwargs, result, outer):
    if outer and result is not None:
        rec.counts["runtime.epochs"] += len(result.epochs)


def _count_search(rec, layer, name, args, kwargs, result, outer):
    if outer:
        rec.counts["search.selections"] += 1


def _count_kernel(rec, layer, name, args, kwargs, result, outer):
    if name.endswith(".__init__"):
        rec.counts["kernel.builds"] += 1
        return
    rec.counts["kernel.solves"] += 1
    rec.counts["kernel.solve_jobs"] += args[0].num_jobs
    if rec.depth["search"] > 0:
        rec.counts["kernel.solves_in_search"] += 1


def _count_calls(rec, layer, name, args, kwargs, result, outer):
    if outer:
        rec.counts[f"{layer}.calls"] += 1


def _count_executor(rec, layer, name, args, kwargs, result, outer):
    if outer:
        items = args[2] if len(args) > 2 else kwargs["items"]
        rec.counts["executor.tasks"] += len(items)
        if type(args[0]).__name__ == "ProcessExecutor":
            rec.shard_items.extend(items)


def _count_farm(rec, layer, name, args, kwargs, result, outer):
    if rec.depth["tenancy"] > 0:
        rec.counts["tenancy.farm_runs"] += 1


HOOKS: dict[str, Hook] = {
    "scenarios": _count_scenarios,
    "dispatch": _count_dispatch,
    "controller": _count_controller,
    "tenancy": _count_tenancy,
    "runtime": _count_runtime,
    "search": _count_search,
    "kernel": _count_kernel,
    "power": _count_calls,
    "prediction": _count_calls,
    "executor": _count_executor,
    "farm": _count_farm,
}


# -- wrapping ------------------------------------------------------------------


def _wrap(function: Callable, rec: Recorder, layer: str, name: str) -> Callable:
    hook = HOOKS.get(layer)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        outer = rec.depth[layer] == 0
        span_id = rec.open(layer, name)
        try:
            result = function(*args, **kwargs)
        finally:
            rec.close(span_id, layer)
        if hook is not None:
            hook(rec, layer, name, args, kwargs, result, outer)
        return result

    return traced


def _classes(root: type, subclasses: bool) -> list[type]:
    found = [root]
    if subclasses:
        pending = list(root.__subclasses__())
        while pending:
            cls = pending.pop()
            if cls not in found:
                found.append(cls)
                pending.extend(cls.__subclasses__())
    return found


def _public_methods(cls: type) -> list[str]:
    return [attr for attr in vars(cls) if not attr.startswith("_")]


@dataclass
class Installation:
    """The patches one :func:`install` made, undone by :meth:`remove`."""

    patches: list[tuple[Any, str, Any]]

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


def _patch_target(target: Target, layer: Layer, rec: Recorder, patches: list) -> None:
    module = importlib.import_module(target.module)
    if target.owner is None:
        original = getattr(module, target.attr)
        wrapper = _wrap(original, rec, layer.name, target.attr)
        # Modules that imported the function by name hold their own binding.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro"):
                for attr, value in list(vars(other).items()):
                    if value is original:
                        patches.append((other, attr, original))
                        setattr(other, attr, wrapper)
        return
    root = getattr(module, target.owner)
    for cls in _classes(root, target.subclasses):
        attrs = _public_methods(cls) if target.attr == "*" else [target.attr]
        for attr in attrs:
            original = vars(cls).get(attr)
            # Plain functions only: properties and static methods keep their
            # descriptors, and abstract stubs are never the code that runs.
            if not isinstance(original, FunctionType) or getattr(
                original, "__isabstractmethod__", False
            ):
                continue
            patches.append((cls, attr, original))
            setattr(cls, attr, _wrap(original, rec, layer.name, f"{cls.__name__}.{attr}"))


def install(rec: Recorder) -> Installation:
    """Wrap every target of :data:`LAYERS` so calls record into *rec*."""
    patches: list[tuple[Any, str, Any]] = []
    installation = Installation(patches)
    try:
        for layer in LAYERS:
            for target in layer.targets:
                _patch_target(target, layer, rec, patches)
    except BaseException:
        installation.remove()
        raise
    return installation


# -- per-layer metrics ---------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span], counts: Counter, root: str, shard_bytes: int
) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics of one traced run, and self time per layer.

    *root* is the layer of the benchmark's own span around the measured
    call; its self time is the part no named layer covers.
    """
    by_layer = summed_self_times(spans)
    by_name = summed_self_times(spans, "name")
    run_s = sum(span.end - span.start for span in spans if span.layer == root)
    named = {layer: value for layer, value in by_layer.items() if layer != root}
    metrics = {
        "scenarios.build_s": by_layer.get("scenarios", 0.0),
        "scenarios.jobs": counts["scenarios.jobs"],
        "dispatch.self_s": by_layer.get("dispatch", 0.0),
        "dispatch.calls": counts["dispatch.calls"],
        "dispatch.jobs": counts["dispatch.jobs"],
        "controller.plan_s": by_layer.get("controller", 0.0),
        "controller.epochs": counts["controller.epochs"],
        "controller.wake_transitions": counts["controller.wake_transitions"],
        "tenancy.self_s": by_layer.get("tenancy", 0.0),
        "tenancy.replays": counts["tenancy.farm_runs"] - counts["tenancy.calls"],
        "runtime.self_s": by_layer.get("runtime", 0.0),
        "runtime.epochs": counts["runtime.epochs"],
        "search.self_s": by_layer.get("search", 0.0),
        "search.selections": counts["search.selections"],
        "search.solves_per_selection": _ratio(
            counts["kernel.solves_in_search"], counts["search.selections"]
        ),
        "kernel.self_s": by_layer.get("kernel", 0.0),
        "kernel.solves": counts["kernel.solves"],
        "kernel.builds": counts["kernel.builds"],
        "kernel.jobs_per_solve": _ratio(counts["kernel.solve_jobs"], counts["kernel.solves"]),
        "power.self_s": by_layer.get("power", 0.0),
        "power.calls": counts["power.calls"],
        "prediction.self_s": by_layer.get("prediction", 0.0),
        "prediction.calls": counts["prediction.calls"],
        "executor.map_s": outermost_time(spans, "executor"),
        "executor.tasks": counts["executor.tasks"],
        "executor.shard_bytes": shard_bytes,
        "farm.self_s": by_layer.get("farm", 0.0),
        "report.build_s": by_name.get("report_from_result", 0.0),
        "report.validate_s": by_name.get("validate_report", 0.0),
        "trace.run_s": run_s,
        "trace.coverage_frac": _ratio(sum(named.values()), run_s),
    }
    return metrics, named
