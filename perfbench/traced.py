"""The traced run: an untraced pass, then a traced replica of the same work.

Both passes do a fixed amount of work (one round of a sweep workload, or
exactly ``SERVE_MIN_SWEEPS`` serve sweeps against a fresh service), so
the exact counts repeat from run to run and the replica's records can be
compared byte for byte with the untraced pass.  Tracing overhead is the
replica's wall over the untraced pass's wall, minus one.

Every per-layer metric is reported on every workload.  A layer the
workload does not reach from the benchmark's seams reads 0: the service
runs its jobs in its own processes, so serve_overlap has no ``sim``,
``core``, ``instances`` or ``metrics`` spans, and the sweep workloads
have no ``service`` spans.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path
from typing import Any

from repro.experiments.cache import request_key
from repro.experiments.harness import SweepSpec

from . import tracing
from . import workloads as wl

SIM_ALGORITHMS = ("aseparator", "agrid", "awave", "quadtree", "chain", "greedy")
PAPER_ALGORITHMS = ("aseparator", "agrid", "awave")
#: sweep_cold's mix is balanced: each paper algorithm must take a share
#: of ``sim.run_s`` in this range, and the named layer spans must cover
#: at least ``MIN_COVERAGE`` of the traced wall.
SHARE_RANGE = (0.20, 0.45)
MIN_COVERAGE = 0.95

#: Every per-layer metric with its unit, in BENCHMARK.json order.
PER_LAYER: dict[str, str] = {
    "sim.run_s": "s",
    **{f"sim.run_s.{a}": "s" for a in SIM_ALGORITHMS},
    **{f"sim.share.{a}": "ratio" for a in PAPER_ALGORITHMS},
    "sim.events": "count",
    "sim.events_per_robot": "count",
    "sim.events_per_s": "1/s",
    "sim.snapshots": "count",
    "sim.world_s": "s",
    "core.build_s": "s",
    **{f"core.build_s.{a}": "s" for a in SIM_ALGORITHMS},
    "instances.make_s": "s",
    "metrics.summarize_s": "s",
    "experiments.record_json_s": "s",
    "experiments.cache.load_s": "s",
    "experiments.cache.store_s": "s",
    "experiments.cache.bytes_written": "bytes",
    "experiments.cache.hit_ratio": "ratio",
    "experiments.manifest.flush_s": "s",
    "experiments.manifest.flushes": "count",
    "experiments.manifest.bytes_written": "bytes",
    "experiments.executors.wait_s": "s",
    "experiments.executors.worker_busy_s": "s",
    "experiments.executors.worker_busy_ratio": "ratio",
    "experiments.harness.other_s": "s",
    "service.submit_ms": "ms",
    "service.watch_ms": "ms",
    "service.csv_ms": "ms",
    "service.jobs_executed": "count",
    "service.reuse_ratio": "ratio",
    "service.worker_busy_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "host.calibration_ms": "ms",
    "host.nproc": "count",
}


#: Counts that depend only on the work, never on timing: two traced runs
#: of one workload and seed must report them identically.
EXACT_SWEEP_COUNTS = (
    "sim.events",
    "sim.snapshots",
    "experiments.cache.bytes_written",
    "experiments.manifest.bytes_written",
    "experiments.manifest.flushes",
)


def exact_sweep_counts(tracer: tracing.Tracer) -> dict[str, float]:
    return {name: tracer.counts[name] for name in EXACT_SWEEP_COUNTS}


def exact_serve_counts(trips: list[wl.SweepTrip]) -> tuple[int, float]:
    """``(jobs executed, reuse ratio)`` from the settle events.  The
    scheduler runs each distinct job once (cache, then in-flight dedup),
    so both depend only on the sweeps, not on how they interleaved."""
    settles = [s for trip in trips for s in trip.settles]
    executed = sum(1 for s in settles if s.get("origin") == "executed")
    return executed, 1.0 - executed / len(settles)


def _write_trace(name: str, seed: int, tracer: tracing.Tracer, wall: float) -> None:
    """Spans and the per-layer table, written when the run ends."""
    wl.OUT.mkdir(parents=True, exist_ok=True)
    stem = wl.OUT / f"{name}-seed{seed}"
    spans = [
        dict(zip(("name", "start", "end", "parent", "key"), row))
        for row in tracer.spans
    ]
    Path(f"{stem}-spans.json").write_text(json.dumps({"wall_s": wall, "spans": spans}))
    table = tracing.format_layer_table(tracing.layer_table(tracer, wall), wall)
    Path(f"{stem}-layers.txt").write_text(table + "\n")


def host_scaled_sim_seconds(
    tracer: tracing.Tracer, algorithm_of: dict[str, str], every: int
) -> Counter[str]:
    """``sim.run`` seconds per algorithm, each job's divided by the host
    factor of the calibration samples nearest to it.  Each algorithm runs
    in its own sub-sweep, so a host slowdown during one sub-sweep would
    otherwise move the shares."""
    samples = [end - start for name, start, end, *_ in tracer.spans if name == tracing.CALIBRATE]
    runs = [(key, end - start) for name, start, end, _p, key in tracer.spans if name == "sim.run"]
    factors = wl.local_factors([seconds for _key, seconds in runs], samples, every)
    totals: Counter[str] = Counter()
    for (key, seconds), factor in zip(runs, factors):
        totals[algorithm_of[key]] += seconds / factor
    return totals


def _sweep_layers(
    values: dict[str, float], tracer: tracing.Tracer, wall: float,
    specs: list[SweepSpec], every: int, cache_hits: int, cache_probes: int,
) -> None:
    busy, own = tracing.span_seconds(tracer)
    algorithm_of = {request_key(r): r.algorithm for spec in specs for r in spec.expand()}
    sim_by_algorithm = tracing.per_algorithm_seconds(tracer, "sim.run", algorithm_of)
    build_by_algorithm = tracing.per_algorithm_seconds(tracer, "core.build", algorithm_of)
    sim_total = busy.get("sim.run", 0.0)
    counts = tracer.counts
    values["sim.run_s"] = sim_total
    for algorithm in SIM_ALGORITHMS:
        values[f"sim.run_s.{algorithm}"] = sim_by_algorithm[algorithm]
        values[f"core.build_s.{algorithm}"] = build_by_algorithm[algorithm]
    scaled = host_scaled_sim_seconds(tracer, algorithm_of, every)
    scaled_total = sum(scaled.values())
    for algorithm in PAPER_ALGORITHMS:
        values[f"sim.share.{algorithm}"] = (
            scaled[algorithm] / scaled_total if scaled_total else 0.0
        )
    values.update(exact_sweep_counts(tracer))
    values["sim.events_per_robot"] = counts["sim.events"] / max(1, counts["sim.robots"])
    values["sim.events_per_s"] = counts["sim.events"] / sim_total if sim_total else 0.0
    for metric, span in (
        ("sim.world_s", "sim.world"),
        ("core.build_s", "core.build"),
        ("instances.make_s", "instances.make"),
        ("metrics.summarize_s", "metrics.summarize"),
        ("experiments.record_json_s", "experiments.record_json"),
        ("experiments.cache.load_s", "experiments.cache.load"),
        ("experiments.cache.store_s", "experiments.cache.store"),
        ("experiments.manifest.flush_s", "experiments.manifest.flush"),
        ("experiments.executors.wait_s", "experiments.executors.wait"),
    ):
        values[metric] = busy.get(span, 0.0)
    values["experiments.cache.hit_ratio"] = cache_hits / cache_probes if cache_probes else 0.0
    worker_busy = counts["experiments.executors.worker_busy_s"]
    values["experiments.executors.worker_busy_s"] = worker_busy
    values["experiments.executors.worker_busy_ratio"] = worker_busy / wall
    values["experiments.harness.other_s"] = own.get("experiments.run_sweep", 0.0)
    values["trace.coverage"] = tracing.covered_seconds(tracer) / wall


def check_balance(outcome: wl.Outcome, values: dict[str, float]) -> None:
    """Fail the run when the mix or the trace's coverage drifts."""
    low, high = SHARE_RANGE
    for algorithm in PAPER_ALGORITHMS:
        share = values[f"sim.share.{algorithm}"]
        if not low <= share <= high:
            outcome.fail(1, f"sim.share.{algorithm} = {share:.3f}, outside [{low}, {high}]")
    if values["trace.coverage"] < MIN_COVERAGE:
        outcome.fail(1, f"trace.coverage = {values['trace.coverage']:.3f} < {MIN_COVERAGE}")


def run_traced_sweep(name: str, seed: int) -> wl.Outcome:
    workload = wl.SWEEP_WORKLOADS[name]
    v = wl.variant(seed)
    pins = wl.load_pins()
    outcome = wl.Outcome()
    wl.warm_up_in_process()
    specs = [SweepSpec.from_dict(p) for p in workload.payloads(v)]
    plain = wl.run_round(workload, specs)
    wl.check_round(outcome, name, v, specs, plain, pins)
    tracer = tracing.Tracer()
    replica = wl.run_round(workload, specs, tracer=tracer)
    wl.check_round(outcome, name, v, specs, replica, pins)
    if wl.records_digests(replica.records) != wl.records_digests(plain.records):
        outcome.fail(len(replica.records), f"{name}: traced records differ from untraced")
    values = dict.fromkeys(PER_LAYER, 0.0)
    jobs = len(replica.records)
    _sweep_layers(
        values, tracer, replica.wall, specs, workload.calibrate_every,
        cache_hits=replica.cache_hits, cache_probes=replica.cache_probes,
    )
    values["trace.wall_s"] = replica.wall
    values["trace.overhead_ratio"] = replica.wall / plain.wall - 1.0
    if name == "sweep_cold":
        check_balance(outcome, values)
    _write_trace(name, seed, tracer, replica.wall)
    _finish(outcome, values)
    outcome.notes.append(
        f"traced replica: {jobs} jobs in {replica.wall:.3f}s "
        f"(untraced {plain.wall:.3f}s), layer table in {wl.OUT.name}/"
    )
    return outcome


def run_traced_serve(seed: int) -> wl.Outcome:
    v = wl.variant(seed)
    pins = wl.load_pins()
    outcome = wl.Outcome()
    sweeps = wl.SERVE_MIN_SWEEPS
    service = wl.serve_start(None)
    try:
        plain, plain_wall = wl.drive_service(service, v, sweeps)
    finally:
        service.stop()
    wl.check_trips(outcome, v, plain, pins)
    tracer = tracing.Tracer()
    service = wl.serve_start(None)
    try:
        replica, wall = wl.drive_service(service, v, sweeps, tracer=tracer)
        server = service.client.metrics()
    finally:
        service.stop()
    if [t.csv for t in replica] != [t.csv for t in plain]:
        outcome.fail(
            sum(len(t.settles) for t in replica), "serve_overlap: traced CSVs differ from untraced"
        )
    settles = [s for trip in replica for s in trip.settles]
    executed = [s for s in settles if s.get("origin") == "executed"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    values["service.jobs_executed"], values["service.reuse_ratio"] = exact_serve_counts(replica)
    for metric, span in (
        ("service.submit_ms", "service.submit"),
        ("service.watch_ms", "service.watch"),
        ("service.csv_ms", "service.csv"),
    ):
        durations = [end - start for name, start, end, *_ in tracer.spans if name == span]
        values[metric] = statistics.median(durations) * 1000.0
    values["service.worker_busy_ratio"] = sum(s["elapsed"] for s in executed) / (wall * wl.WORKERS)
    values["experiments.cache.hit_ratio"] = server["cache"]["hit_rate"]
    values["trace.wall_s"] = wall
    values["trace.overhead_ratio"] = wall / plain_wall - 1.0
    # Share of the client threads' time spent inside endpoint calls.
    values["trace.coverage"] = sum(
        end - start for name, start, end, *_ in tracer.spans if name.startswith("service.")
    ) / (wall * wl.client_threads())
    _write_trace("serve_overlap", seed, tracer, wall)
    _finish(outcome, values)
    outcome.notes.append(
        f"traced replica: {len(replica)} sweeps, {len(settles)} settles, "
        f"{len(executed)} executed, wall {wall:.3f}s (untraced {plain_wall:.3f}s)"
    )
    return outcome


def _finish(outcome: wl.Outcome, values: dict[str, float]) -> None:
    outcome.metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def run_traced(name: str, seed: int, context: dict[str, Any]) -> wl.Outcome:
    outcome = run_traced_serve(seed) if name == "serve_overlap" else run_traced_sweep(name, seed)
    outcome.metrics["host.calibration_ms"] = (context["calibration_ms"], "ms")
    outcome.metrics["host.nproc"] = (context["nproc"], "count")
    return outcome
