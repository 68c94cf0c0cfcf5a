"""Spans taken at the program's public seams, for the traced benchmark pass.

Nothing here reaches inside the program.  Every span is opened by the
benchmark around a public call:

* :func:`execute_in_steps` runs one sweep job the way
  :func:`repro.experiments.harness.execute_request` does, but step by
  step (``RunRequest.instance`` -> ``AlgorithmSpec.build`` ->
  ``Instance.world`` -> ``Engine.run`` -> ``summarize`` ->
  ``canonical_json``), so each layer gets its own span.  The record it
  returns must be byte-identical to ``execute_request``'s; the benchmark
  checks that on every traced run.
* :class:`TracedBackend` wraps the registered ``serial`` backend and
  hands it :class:`TracedJob` wrappers, which run those steps through
  ``execute_request``'s ``execute_record`` hook.  Their spans come back
  beside the record and are stripped before the harness sees it.
* :class:`TracedCache` and :class:`TracedManifest` subclass the harness's
  ``ResultCache`` and ``SweepManifest`` and are passed into ``run_sweep``.

Spans are kept in memory (name, start, end, parent, job key) and
written out when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.core.registry import get_algorithm
from repro.core.runner import AlgorithmRun, RunRequest
from repro.experiments.cache import ResultCache, canonical_json, request_key
from repro.experiments.executors import get_executor
from repro.experiments.manifest import SweepManifest
from repro.metrics import summarize
from repro.sim import SOURCE_ID, Engine

#: The program's layers, in the order the per-layer table prints them.
LAYERS = ("instances", "core", "sim", "metrics", "experiments", "service")

#: Spans whose self time counts as named layer work when measuring how
#: much of a pass's wall the trace explains.  The pass root and the
#: executor's wait span are containers: their self time is harness and
#: dispatch overhead the trace does not break down further.
LEAF_SPANS = frozenset(
    {
        "instances.make",
        "core.build",
        "sim.world",
        "sim.run",
        "metrics.summarize",
        "experiments.record_json",
        "experiments.cache.load",
        "experiments.cache.store",
        "experiments.manifest.flush",
    }
)

#: A calibration sample taken inside the traced pass (see
#: ``workloads.run_round``); its self time is no layer's.
CALIBRATE = "trace.calibrate"

#: Key under which a job ships its spans and counts back beside the
#: record; :class:`TracedBackend` removes it before the harness sees it.
_SIDE_KEY = "__perfbench_trace__"


class Tracer:
    """In-memory span and count recorder for one thread of one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, key]`` rows; ``parent`` is an
        #: index into this list.
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, key: str | None = None) -> Iterator[int]:
        """Time the block; yields the span's index (a parent for
        :meth:`adopt`)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), None, parent, key]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def export(self) -> dict[str, Any]:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def adopt(self, payload: dict[str, Any], parent: int | None = None) -> None:
        """Merge another tracer's export (a job's, or a client thread's);
        its root spans nest under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, key in payload["spans"]:
            self.spans.append(
                [name, start, end, parent if up is None else up + offset, key]
            )
        self.counts.update(payload["counts"])


def execute_in_steps(request: RunRequest, tracer: Tracer) -> dict[str, Any]:
    """One sweep job, one span per layer; returns ``execute_request``'s record."""
    if request.collect != "summary":
        raise ValueError("the traced job body only replays collect='summary' runs")
    key = request_key(request)
    spec = get_algorithm(request.algorithm)
    params = spec.validate_params(request.resolved_params())
    world_config = request.world_config()
    with tracer.span("instances.make", key):
        instance = request.instance()
    if spec.max_n is not None and instance.n > spec.max_n:
        raise ValueError(f"algorithm {spec.name!r} is limited to n <= {spec.max_n}")
    with tracer.span("core.build", key):
        if spec.world_aware:
            setup = spec.build(instance, params, world_config)
        else:
            setup = spec.build(instance, params)
    with tracer.span("sim.world", key):
        if world_config is None:
            world = instance.world(budget=setup.budget)
        else:
            world = instance.world(config=world_config.with_budget_cap(setup.budget))
    with tracer.span("sim.run", key):
        engine = Engine(world, trace=request.make_trace())
        engine.spawn(setup.program, robot_ids=[SOURCE_ID])
        result = engine.run()
    run = AlgorithmRun(
        algorithm=setup.label,
        instance=instance,
        ell=setup.ell,
        rho=setup.rho,
        result=result,
    )
    with tracer.span("metrics.summarize", key):
        record: dict[str, Any] = summarize(run).as_dict()
    with tracer.span("experiments.record_json", key):
        record["family"] = request.workload
        record["family_kwargs"] = dict(sorted(dict(request.family_kwargs).items()))
        record["seed"] = dict(request.family_kwargs).get("seed")
        if request.scenario is not None:
            record["scenario"] = request.scenario
            record["world_params"] = dict(sorted(dict(request.world_params).items()))
        record = json.loads(canonical_json(record))
    tracer.count("sim.events", result.events_processed)
    tracer.count("sim.snapshots", result.snapshots)
    tracer.count("sim.robots", instance.n)
    tracer.count(f"jobs.{request.algorithm}")
    return record


@dataclass(frozen=True)
class TracedJob:
    """Job wrapper: the backend runs it through the ``execute_record``
    hook of ``execute_request``, and its spans come back beside the
    record."""

    request: RunRequest

    def label(self) -> str:
        return self.request.label()

    def execute_record(self) -> dict[str, Any]:
        tracer = Tracer()
        record = execute_in_steps(self.request, tracer)
        record[_SIDE_KEY] = tracer.export()
        return record


class TracedBackend:
    """Wraps the ``serial`` backend: it runs :class:`TracedJob`\\ s, and
    the time the harness spends blocked on the next settle is the
    ``experiments.executors.wait`` span.  The job ran inside that wait,
    so its spans nest under it and the wait's self time is dispatch
    overhead."""

    name = "serial"

    def __init__(self, tracer: Tracer) -> None:
        self.inner = get_executor("serial")
        self.tracer = tracer

    def submit(self, jobs: Sequence[tuple[int, RunRequest]]) -> Iterator[tuple[int, dict, float]]:
        settles = self.inner.submit([(index, TracedJob(request)) for index, request in jobs])
        while True:
            with self.tracer.span("experiments.executors.wait") as wait:
                try:
                    index, record, elapsed = next(settles)
                except StopIteration:
                    return
            self.tracer.adopt(record.pop(_SIDE_KEY), parent=wait)
            self.tracer.count("experiments.executors.worker_busy_s", elapsed)
            yield index, record, elapsed


class TracedCache(ResultCache):
    """``ResultCache`` with load/store spans and a bytes-written count."""

    tracer: Tracer

    def load(self, request: RunRequest) -> dict[str, Any] | None:
        with self.tracer.span("experiments.cache.load"):
            return super().load(request)

    def store(self, request: RunRequest, record: dict[str, Any]) -> Path:
        with self.tracer.span("experiments.cache.store"):
            path = super().store(request, record)
        self.tracer.count("experiments.cache.bytes_written", path.stat().st_size)
        return path


class TracedManifest(SweepManifest):
    """``SweepManifest`` with a flush span and flush/byte counts."""

    tracer: Tracer

    def flush(self) -> Path:
        with self.tracer.span("experiments.manifest.flush"):
            path = super().flush()
        self.tracer.count("experiments.manifest.flushes")
        self.tracer.count("experiments.manifest.bytes_written", path.stat().st_size)
        return path


def self_seconds(tracer: Tracer) -> list[float]:
    """Each span's duration minus the part its child spans cover
    (children never overlap: each thread records on its own stack)."""
    child: dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _key in tracer.spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, *_r) in enumerate(tracer.spans)]


def span_seconds(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Busy and self seconds per span name."""
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for (name, start, end, *_rest), self_s in zip(tracer.spans, self_seconds(tracer)):
        busy[name] += end - start
        own[name] += self_s
    return dict(busy), dict(own)


def covered_seconds(tracer: Tracer) -> float:
    """Self time of named layer work (:data:`LEAF_SPANS`)."""
    return sum(
        self_s
        for (name, *_rest), self_s in zip(tracer.spans, self_seconds(tracer))
        if name in LEAF_SPANS
    )


def per_algorithm_seconds(tracer: Tracer, span: str, algorithm_of: dict[str, str]) -> Counter[str]:
    """Seconds of ``span`` per algorithm, mapped from each span's job key."""
    totals: Counter[str] = Counter()
    for name, start, end, _parent, key in tracer.spans:
        if name == span and key is not None:
            totals[algorithm_of[key]] += end - start
    return totals


def layer_table(tracer: Tracer, wall: float) -> list[dict[str, Any]]:
    """Per-layer span count, busy time, self time and share of ``wall``.

    A layer's busy time counts only its outermost spans, so nested spans
    of one layer (an executor wait around a serial job's record step)
    are not counted twice.  ``share`` is self time over the pass wall; in
    ``serve_overlap`` the shares add up to more than one because two
    client threads run at once.
    """
    rows = {layer: {"layer": layer, "count": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    spans = tracer.spans
    for (name, start, end, parent, _key), self_s in zip(spans, self_seconds(tracer)):
        layer = name.split(".", 1)[0]
        if layer not in rows:
            continue
        row = rows[layer]
        row["count"] += 1
        row["self_s"] += self_s
        ancestor = parent
        while ancestor is not None and spans[ancestor][0].split(".", 1)[0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            row["busy_s"] += end - start
    # Calibration samples are paused time, left out of the wall: take
    # them out of the busy time of every layer whose span holds them.
    for name, start, end, parent, _key in spans:
        if name != CALIBRATE:
            continue
        holders = set()
        while parent is not None:
            holders.add(spans[parent][0].split(".", 1)[0])
            parent = spans[parent][3]
        for layer in holders & rows.keys():
            rows[layer]["busy_s"] -= end - start
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    return list(rows.values())


def format_layer_table(rows: list[dict[str, Any]], wall: float) -> str:
    lines = [f"{'layer':<12} {'count':>8} {'busy_s':>10} {'self_s':>10} {'share':>7}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<12} {row['count']:>8} {row['busy_s']:>10.4f} "
            f"{row['self_s']:>10.4f} {row['share']:>7.1%}"
        )
    lines.append(f"{'wall':<12} {'':>8} {wall:>10.4f}")
    return "\n".join(lines)
