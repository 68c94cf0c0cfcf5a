"""The benchmark's three workloads, their inputs, passes and output checks.

* ``sweep_cold`` — serial in-process ``run_sweep`` rounds over a fixed mix
  of ASeparator, AGrid, AWave and the quadtree baseline on five
  workloads, n on a fixed-density ladder.  Stresses instance generation,
  algorithm setup, the engine and summaries.
* ``sweep_tiny`` — serial in-process ``run_sweep`` rounds (a fresh cache
  and a manifest) over a few thousand n <= 12 centralized jobs.
  Stresses the harness: cache stores, request keys, manifest rewrites.
* ``serve_overlap`` — ``freezetag serve`` as a child process, driven by
  closed-loop client threads (POST a sweep, watch its SSE stream to
  ``end``, GET the CSV).  Adjacent sweeps share two thirds of their jobs,
  so the service's cache reads and in-flight dedup run beside fresh
  executions.

Inputs come from ``--seed`` through :func:`variant`: a seed picks one of
:data:`VARIANTS` disjoint instance-seed ranges, and ``pins.json`` holds
the SHA-256 of each variant's canonical records, made by
``perfbench/pin.py`` through the plain ``run_sweep`` path.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.experiments.cache import ResultCache, canonical_json, request_key
from repro.experiments.harness import SweepSpec, run_sweep
from repro.experiments.io import format_csv, sweep_rows
from repro.service.client import ServiceClient

from . import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (temp caches, service logs, spans, layer
#: tables) lives here, inside the checkout; temp caches are removed.
OUT = ROOT / ".perfbench-out"
PINS = Path(__file__).resolve().parent / "pins.json"

#: Number of distinct input variants; ``--seed`` selects one modulo this.
VARIANTS = 8
#: Worker processes of the service (and of the served-CSV check).
WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Serve sweeps in the traced pass, and the fewest in any run; the pin
#: covers the first this-many sweeps.
SERVE_MIN_SWEEPS = 100
#: A serve run does a fixed amount of work, ``seconds`` times this many
#: sweeps (about the rate on a 2-vCPU VM).  Fixed work keeps its peak RSS
#: comparable: the service keeps every sweep resident, so a time-bounded
#: run of a faster service would grow more.
SERVE_SWEEPS_PER_S = 30
#: Blocks of sweeps the serve metrics are medians over; each holds 75
#: sweeps at 25 s, 7 of them beyond the block's p90.  The host factor is
#: taken between blocks, so short blocks keep it close to the work.
SERVE_BLOCKS = 10
#: Seeds per serve sweep: sweep k covers base+k .. base+k+2.
SERVE_WINDOW = 3

#: n = DENSITY * pi * rho^2 robots in the disk workloads; the bead path
#: keeps its unit spacing and grows with rho instead.
DENSITY = 0.8
LADDER = (4.0, 5.0, 6.0, 7.0, 8.0)
#: sweep_cold's sub-sweeps: (algorithm, rho ladder, seed offsets).  One
#: AWave job at rho=6 costs about 4x an ASeparator or AGrid one, so AWave
#: stays on the low rungs and AGrid takes a second seed on the three low
#: rungs; with this mix each paper algorithm takes 20-45% of the engine
#: time (the traced run reports it as sim.share.*).
COLD_MIX = (
    ("aseparator", LADDER, (0,)),
    ("agrid", LADDER, (0,)),
    ("agrid", LADDER[:3], (1,)),
    ("awave", (3.0, 4.0, 5.0), (0,)),
    ("quadtree", LADDER, (0,)),
)
TINY_ALGORITHMS = ("quadtree", "chain", "greedy")
TINY_SEEDS = 150


def variant(seed: int) -> int:
    return seed % VARIANTS


def _disk_n(rho: float) -> int:
    return round(DENSITY * math.pi * rho * rho)


def _ladder_workloads(rhos: tuple[float, ...]) -> tuple[list[dict], list[dict]]:
    families: list[dict] = []
    scenarios: list[dict] = []
    for rho in rhos:
        n = _disk_n(rho)
        families += [
            {"family": "uniform_disk", "params": {"n": [n], "rho": [rho]}},
            {"family": "clusters", "params": {"n": [n], "n_clusters": [4], "rho": [rho]}},
            {"family": "beaded_path", "params": {"n": [round(5 * rho)], "spacing": [1.0]}},
        ]
        scenarios += [
            {"scenario": "slow_swarm", "params": {"n": [n], "rho": [rho]}},
            {"scenario": "fragile_swarm", "params": {"n": [n], "rho": [rho]}},
        ]
    return families, scenarios


def cold_payloads(v: int) -> list[dict]:
    """One sweep-spec payload per sub-sweep; a round runs them in order.

    Unlike the tiny workloads, the variant does not pick the instances,
    only the order: the sub-sweeps start at a different one and the rungs
    run upward or downward.  A round has a few heavy jobs whose cost
    depends strongly on the instance (an AWave run on a slow swarm takes
    0.2-1.3 s), so per-variant instances made the work per round differ
    by about 25% between variants, more than the host's noise.
    """
    parts = list(enumerate(COLD_MIX))
    parts = parts[v % len(parts):] + parts[:v % len(parts)]
    payloads = []
    for part, (algorithm, rhos, offsets) in parts:
        families, scenarios = _ladder_workloads(rhos[::-1] if v % 2 else rhos)
        payloads.append(
            {
                "name": f"perfbench-cold-{part}-{algorithm}-v{v}",
                "algorithms": [algorithm],
                "seeds": list(offsets),
                "families": families,
                "scenarios": scenarios,
            }
        )
    return payloads


def _tiny_families(full: bool) -> list[dict]:
    if not full:
        return [
            {"family": "uniform_disk", "params": {"n": [6, 12], "rho": [3.0]}},
            {"family": "beaded_path", "params": {"n": [9], "spacing": [1.0]}},
        ]
    return [
        {"family": "uniform_disk", "params": {"n": [6, 9, 12], "rho": [3.0]}},
        {"family": "clusters", "params": {"n": [8, 12], "n_clusters": [2], "rho": [3.0]}},
        {"family": "beaded_path", "params": {"n": [8, 12], "spacing": [1.0]}},
    ]


def tiny_payload(v: int) -> dict:
    return {
        "name": f"perfbench-tiny-v{v}",
        "algorithms": list(TINY_ALGORITHMS),
        "seeds": [1000 * v + j for j in range(TINY_SEEDS)],
        "families": _tiny_families(full=True),
    }


def serve_seeds(v: int, first: int, count: int) -> list[int]:
    return [100_000 + 10_000 * v + first + j for j in range(count)]


def serve_payload(v: int, k: int) -> dict:
    return {
        "name": f"perfbench-serve-v{v}-{k}",
        "algorithms": list(TINY_ALGORITHMS),
        "seeds": serve_seeds(v, k, SERVE_WINDOW),
        "families": _tiny_families(full=False),
    }


#: Warm-up sweep (set-up): every algorithm the workloads run, on a family
#: and a scenario, so first-use imports and registrations happen before
#: timing.  n=5 keeps it out of every measured job set; with more than one
#: job the pool backend really starts its workers.
WARMUP_PAYLOAD = {
    "name": "perfbench-warmup",
    "algorithms": ["aseparator", "agrid", "awave", *TINY_ALGORITHMS],
    "seeds": [0],
    "families": [{"family": "uniform_disk", "params": {"n": [5], "rho": [2.0]}}],
    "scenarios": [{"scenario": "slow_swarm", "params": {"n": [5], "rho": [2.0]}}],
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def records_csv(records: list[dict]) -> str:
    """The canonical records CSV (``freezetag sweep`` / ``?format=csv`` bytes)."""
    return format_csv(sweep_rows(records))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digests(records: list[dict]) -> dict[str, str]:
    """Digests of the CSV and of the full canonical records (the CSV
    leaves out some record fields, such as total energy)."""
    return {
        "csv": sha256(records_csv(records)),
        "records": sha256("\n".join(canonical_json(r) for r in records)),
    }


def load_pins() -> dict[str, Any]:
    return json.loads(PINS.read_text())


def count_bad_settles(records: list[dict | None], expected: int) -> int:
    """Jobs that did not settle into a result: missing or quarantined."""
    missing = expected - sum(1 for r in records if r is not None)
    quarantined = sum(1 for r in records if isinstance(r, dict) and r.get("quarantined"))
    return max(0, missing) + quarantined


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def fresh_dir(tag: str) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` (0 < q < 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Largest high-water mark of this process (it runs ``run_sweep``)
    and every reaped child (the set-up probes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: Iterations of the calibration loop; one sample takes about 2 ms.
CALIBRATION_LOOP = 30_000
#: Samples in one bracketing calibration (about 30 ms).
CALIBRATION_SAMPLES = 16
#: The calibration sample time of the reference host.  Timed figures are
#: reported as they would read on a host whose calibration sample takes
#: this long (see :func:`segment_metrics`).
REFERENCE_CALIBRATION_MS = 2.0


def calibration_sample() -> float:
    """Seconds one fixed pure-Python loop takes: host speed, not program speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [calibration_sample() for _ in range(CALIBRATION_SAMPLES)]


def calibration_ms() -> float:
    return statistics.median(calibrate()) * 1000.0


def host_factor(samples: list[float]) -> float:
    """The host's slowness at the time of ``samples``, relative to the
    reference host: 1.2 means the calibration loop ran 20% slower."""
    return statistics.median(samples) * 1000.0 / REFERENCE_CALIBRATION_MS


#: A settle gap's host factor is the median of this many calibration
#: samples on each side of it, besides the nearest.
LOCAL_SAMPLES = 2


def local_factors(gaps: list[float], host: list[float], every: int) -> list[float]:
    """The host factor of each settle gap, from the calibration samples
    nearest to it (sample ``j`` was taken after settle ``every * (j + 1)``).
    The host's speed changes within seconds, so one factor per round
    over- and under-corrects its jobs."""
    factors = []
    for i in range(len(gaps)):
        j = min(i // every, len(host) - 1)
        factors.append(host_factor(host[max(0, j - LOCAL_SAMPLES):j + LOCAL_SAMPLES + 1]))
    return factors


def run_context() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "calibration_ms": calibration_ms(),
    }


@dataclass
class Outcome:
    """What one benchmark invocation measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, jobs: int, message: str) -> None:
        self.failed += jobs
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def _probe_setup() -> float:
    """One set-up sample: a fresh interpreter imports the package and
    runs the warm-up sweep."""
    cache = fresh_dir("probe")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from repro.experiments.cache import ResultCache\n"
        "from repro.experiments.harness import SweepSpec, run_sweep\n"
        f"run_sweep(SweepSpec.from_dict({WARMUP_PAYLOAD!r}), "
        f"cache=ResultCache({str(cache)!r}))\n"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True)
    elapsed = time.perf_counter() - start
    shutil.rmtree(cache, ignore_errors=True)
    return elapsed


#: Seconds a fresh interpreter takes to import numpy on the reference
#: host; ``setup_s`` is reported as it would read there.
REFERENCE_IMPORT_S = 0.16


def _import_reference() -> float:
    """One reference sample for set-up: a fresh interpreter importing
    numpy, work of the same kind as set-up that the program never
    changes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def set_up(probe: Callable[[], float]) -> float:
    """``setup_s``: the median of ``SETUP_SAMPLES`` timed set-ups, scaled
    by the median of as many reference samples taken between them.

    Set-up is mostly process start, imports and page faults, which the
    calibration loop tracks poorly: over 30 probes on a drifting host
    their spread was 0.22 unscaled, 0.14 over the loop and 0.09 over
    the numpy import, and two batches scaled by the loop still read
    12-22% apart."""
    samples, references = [], []
    for _ in range(SETUP_SAMPLES):
        references.append(_import_reference())
        samples.append(probe())
    return statistics.median(samples) * REFERENCE_IMPORT_S / statistics.median(references)


def warm_up_in_process() -> None:
    cache = fresh_dir("warmup")
    try:
        run_sweep(SweepSpec.from_dict(WARMUP_PAYLOAD), cache=ResultCache(cache))
    finally:
        shutil.rmtree(cache, ignore_errors=True)


@dataclass
class Segment:
    """A stretch of one run the end-to-end metrics take a median over: a
    round of a sweep workload, or a block of serve sweeps."""

    jobs: int
    robots: int
    wall: float
    latencies: list[float]
    #: The host factor of each latency sample, and of the wall.
    factors: list[float]
    wall_factor: float


def _segment_figures(segments: list[Segment], scaled: bool) -> dict[str, float]:
    def median(values: Any) -> float:
        return statistics.median(list(values))

    def wall(s: Segment) -> float:
        return s.wall / s.wall_factor if scaled else s.wall

    def latencies(s: Segment) -> list[float]:
        return [t / f for t, f in zip(s.latencies, s.factors)] if scaled else s.latencies

    return {
        "jobs_per_s": median(s.jobs / wall(s) for s in segments),
        "robots_per_s": median(s.robots / wall(s) for s in segments),
        "latency_p50_ms": median(quantile(latencies(s), 0.5) for s in segments) * 1e3,
        "latency_p90_ms": median(quantile(latencies(s), 0.9) for s in segments) * 1e3,
    }


def segment_metrics(outcome: Outcome, segments: list[Segment], what: str) -> None:
    """Rates and latency percentiles as medians over the run's segments,
    so a stretch slowed by the host does not move them.

    Times are divided by their :func:`host_factor`: the shared host's
    speed drifts by up to 2x within minutes, and the calibration loop,
    run during or right around the timed work, drifts with it.  The
    unscaled medians are printed as a note."""
    if not segments:
        return
    scaled = _segment_figures(segments, scaled=True)
    raw = _segment_figures(segments, scaled=False)
    for name, value in scaled.items():
        outcome.metrics[name] = (value, "ms" if name.endswith("_ms") else "1/s")
    samples = [len(s.latencies) for s in segments]
    factors = [s.wall_factor for s in segments]
    outcome.notes.append(
        f"latency = {what}; medians over {len(segments)} segments of {min(samples)}"
        f"-{max(samples)} samples; host factor {min(factors):.3f}-{max(factors):.3f}"
    )
    outcome.notes.append("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))


# ---------------------------------------------------------------------------
# In-process sweep workloads (sweep_cold, sweep_tiny)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepWorkload:
    """A sweep workload: ``run_sweep`` on the ``serial`` backend.

    Both run in-process so that the calibration loop, run between
    settles, sees the same host as the jobs.  A 2-worker pool was tried
    for ``sweep_tiny``: its rounds follow the host's speed only in part
    (about its square root), so no calibration steadied them."""

    name: str
    payloads: Callable[[int], list[dict]]
    #: Settles per calibration sample (about 2 ms each).
    calibrate_every: int = 1


SWEEP_WORKLOADS = {
    "sweep_cold": SweepWorkload("sweep_cold", cold_payloads),
    "sweep_tiny": SweepWorkload("sweep_tiny", lambda v: [tiny_payload(v)], calibrate_every=16),
}


@dataclass
class RoundResult:
    records: list[dict | None]
    wall: float
    gaps: list[float]
    cache_hits: int
    cache_probes: int
    #: Calibration samples taken during the round.
    host: list[float] = field(default_factory=list)
    #: Why ``run_sweep`` raised, if it did (a job failed or never settled).
    error: str | None = None


def run_round(
    workload: SweepWorkload, specs: list[SweepSpec],
    tracer: tracing.Tracer | None = None,
) -> RoundResult:
    """One round: every spec of the workload through ``run_sweep`` against
    one fresh cache (removed afterwards).  ``gaps`` are the times between
    consecutive settles, as the progress callback sees them.

    A calibration sample is taken after every ``calibrate_every``
    settles, inside the progress callback, and left out of the gaps and
    the wall."""
    directory = fresh_dir(workload.name)
    gaps: list[float] = []
    records: list[dict | None] = []
    host: list[float] = []
    paused = 0.0
    error = None
    try:
        if tracer is None:
            cache: ResultCache = ResultCache(directory)
        else:
            cache = tracing.TracedCache(directory)
            cache.tracer = tracer
        gc.collect()
        start = last = time.perf_counter()

        def progress(_tick: Any) -> None:
            nonlocal last, paused
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
            if len(gaps) % workload.calibrate_every == 0:
                with tracer.span(tracing.CALIBRATE) if tracer else nullcontext():
                    host.append(calibration_sample())
                last = time.perf_counter()
                paused += last - now

        try:
            for spec in specs:
                if tracer is None:
                    result = run_sweep(spec, cache=cache, progress=progress)
                else:
                    with tracer.span("experiments.run_sweep"):
                        manifest = tracing.TracedManifest.for_spec(spec, spec.expand(), cache)
                        manifest.tracer = tracer
                        backend = tracing.TracedBackend(tracer)
                        result = run_sweep(
                            spec, cache=cache, progress=progress,
                            executor=backend, manifest=manifest,
                        )
                records.extend(result.records)
        except RuntimeError as exc:  # SweepJobError, or a record that never came
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start - paused
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return RoundResult(
        records=records, wall=wall, gaps=gaps,
        cache_hits=cache.hits, cache_probes=cache.hits + cache.misses,
        host=host, error=error,
    )


def check_round(
    outcome: Outcome, workload: str, v: int, specs: list[SweepSpec],
    result: RoundResult, pins: dict[str, Any],
) -> None:
    expected = sum(len(spec.expand()) for spec in specs)
    outcome.attempted += expected
    if result.error is not None:
        outcome.fail(expected, f"{workload}: the round failed: {result.error}")
        return
    bad = count_bad_settles(result.records, expected)
    if bad or len(result.gaps) != expected:
        outcome.fail(max(bad, 1), f"{workload}: {bad} of {expected} jobs did not settle")
        return
    if records_digests(result.records) != pins[workload][v]:
        outcome.fail(expected, f"{workload}: records digest differs from the pin")


def run_sweep_workload(name: str, seed: int, seconds: float) -> Outcome:
    """End-to-end run: whole rounds until ``seconds`` of measured time."""
    workload = SWEEP_WORKLOADS[name]
    v = variant(seed)
    pins = load_pins()
    outcome = Outcome()
    outcome.metrics["setup_s"] = (set_up(_probe_setup), "s")
    warm_up_in_process()
    specs = [SweepSpec.from_dict(p) for p in workload.payloads(v)]
    wall = 0.0
    rounds: list[Segment] = []
    while wall < seconds:
        result = run_round(workload, specs)
        wall += result.wall
        check_round(outcome, name, v, specs, result, pins)
        if result.error is not None:
            break
        settled = [r for r in result.records if r is not None]
        factors = local_factors(result.gaps, result.host, workload.calibrate_every)
        rounds.append(
            Segment(
                jobs=len(settled),
                robots=sum(r["n"] for r in settled),
                wall=result.wall,
                latencies=result.gaps,
                factors=factors,
                wall_factor=sum(result.gaps) / sum(g / f for g, f in zip(result.gaps, factors)),
            )
        )
    segment_metrics(outcome, rounds, "gap between consecutive job settles")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.notes.append(f"{len(rounds)} rounds of {len(result.records)} jobs, variant {v}")
    return outcome


# ---------------------------------------------------------------------------
# The service workload (serve_overlap)
# ---------------------------------------------------------------------------

def _die_with_parent() -> None:
    """Child pre-exec hook: SIGTERM the service if the benchmark dies, so
    a killed run leaves no server behind (Linux ``PR_SET_PDEATHSIG``)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


class ServiceProcess:
    """``freezetag serve --port 0`` as a child process with its own cache."""

    def __init__(self, tag: str) -> None:
        self.cache_dir = fresh_dir(tag)
        self.log = open(self.cache_dir.with_suffix(".log"), "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir),
            ],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=_die_with_parent,
        )
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.split("http://", 1)[1].split()[0]
        self.client = ServiceClient(self.url, timeout=60.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        Path(self.log.name).unlink(missing_ok=True)


@dataclass
class SweepTrip:
    """One closed-loop sweep: POST -> SSE to ``end`` -> GET CSV."""

    k: int
    latency: float
    csv: str
    settles: list[dict]
    end: dict


def round_trip(
    client: ServiceClient, payload: dict, k: int, tracer: tracing.Tracer | None
) -> SweepTrip:
    def timed(name: str, key: str | None = None):
        return tracer.span(name, key) if tracer is not None else nullcontext()

    start = time.perf_counter()
    with timed("service.submit"):
        sweep_id = client.submit(payload)["id"]
    settles: list[dict] = []
    end: dict = {}
    with timed("service.watch", sweep_id):
        for event in client.watch(sweep_id):
            if event.get("event") == "end":
                end = event
            else:
                settles.append(event)
    with timed("service.csv", sweep_id):
        csv = client.records(sweep_id, csv=True)
    return SweepTrip(
        k=k, latency=time.perf_counter() - start, csv=csv, settles=settles, end=end
    )


def serve_start(outcome: Outcome | None) -> ServiceProcess:
    """Set-up: start the service and push a warm-up sweep through its
    pool, ``SETUP_SAMPLES`` times; the last service is kept."""
    services: list[ServiceProcess] = []

    def probe() -> float:
        if services:
            services.pop().stop()
        start = time.perf_counter()
        service = ServiceProcess("serve")
        services.append(service)
        service.client.wait(service.client.submit(WARMUP_PAYLOAD)["id"])
        return time.perf_counter() - start

    setup = set_up(probe)
    if outcome is not None:
        outcome.metrics["setup_s"] = (setup, "s")
    return services[0]


def client_threads() -> int:
    """Load-generating threads: one per service worker, at most ``nproc``."""
    return max(1, min(WORKERS, os.cpu_count() or 1))


def drive_service(
    service: ServiceProcess, v: int, sweeps: int,
    tracer: tracing.Tracer | None = None, first: int = 0,
) -> tuple[list[SweepTrip], float]:
    """Closed loop: ``nproc``-capped client threads take sweep numbers
    ``first``, ``first + 1``, ... from a shared counter until ``sweeps``
    have run.  With a ``tracer``,
    each thread records endpoint spans on its own tracer, merged into it
    at the end."""
    threads = client_threads()
    lock = threading.Lock()
    counter = iter(range(first, first + sweeps))
    trips: list[SweepTrip] = []
    errors: list[BaseException] = []
    gc.collect()
    start = time.perf_counter()

    def next_k() -> int | None:
        with lock:
            return next(counter, None)

    def client_loop() -> None:
        own = tracing.Tracer() if tracer is not None else None
        client = ServiceClient(service.url, timeout=60.0)
        mine: list[SweepTrip] = []
        try:
            while (k := next_k()) is not None:
                mine.append(round_trip(client, serve_payload(v, k), k, own))
        except BaseException as exc:  # re-raised by the caller after the join
            errors.append(exc)
        with lock:
            trips.extend(mine)
            if own is not None:
                tracer.adopt(own.export())

    pool = [threading.Thread(target=client_loop) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    trips.sort(key=lambda trip: trip.k)
    return trips, wall


def direct_csvs(v: int, count: int) -> list[str]:
    """Expected CSV of each of the first ``count`` serve sweeps, from one
    in-process ``run_sweep`` over the union of their seeds (no cache, on
    the pool backend); each sweep's rows are its own jobs' records in its
    own expansion order."""
    union = dict(serve_payload(v, 0))
    union["name"] = f"perfbench-serve-v{v}-union"
    union["seeds"] = serve_seeds(v, 0, count + SERVE_WINDOW - 1)
    spec = SweepSpec.from_dict(union)
    requests = spec.expand()
    records = run_sweep(spec, executor="pool", workers=WORKERS).records
    by_key = {request_key(r): rec for r, rec in zip(requests, records)}
    csvs = []
    for k in range(count):
        sweep = SweepSpec.from_dict(serve_payload(v, k))
        csvs.append(records_csv([by_key[request_key(r)] for r in sweep.expand()]))
    return csvs


def check_trips(outcome: Outcome, v: int, trips: list[SweepTrip], pins: dict[str, Any]) -> None:
    """Every job settles, every served CSV equals the direct one, and the
    first ``SERVE_MIN_SWEEPS`` CSVs match the pin."""
    expected = direct_csvs(v, len(trips))
    jobs_per_sweep = len(SweepSpec.from_dict(serve_payload(v, 0)).expand())
    for trip, direct in zip(trips, expected):
        outcome.attempted += jobs_per_sweep
        counts = trip.end.get("counts", {})
        settled_ok = (
            len(trip.settles) == jobs_per_sweep
            and counts.get("settled") == jobs_per_sweep
            and counts.get("failed") == 0
        )
        if not settled_ok:
            outcome.fail(jobs_per_sweep, f"serve sweep {trip.k}: not every job settled")
        elif trip.csv != direct:
            outcome.fail(jobs_per_sweep, f"serve sweep {trip.k}: served CSV differs from run_sweep")
    if len(trips) < SERVE_MIN_SWEEPS:
        outcome.fail(1, f"serve_overlap: only {len(trips)} sweeps completed")
    elif sha256("".join(expected[:SERVE_MIN_SWEEPS])) != pins["serve_overlap"][v]["csv"]:
        outcome.fail(jobs_per_sweep, "serve_overlap: direct CSVs differ from the pin")


def run_serve_workload(seed: int, seconds: float) -> Outcome:
    """End-to-end run: ``SERVE_BLOCKS`` blocks of closed-loop sweeps
    against one service, calibrated between blocks while it is idle."""
    v = variant(seed)
    pins = load_pins()
    outcome = Outcome()
    service = serve_start(outcome)
    size = max(SERVE_MIN_SWEEPS, round(seconds * SERVE_SWEEPS_PER_S)) // SERVE_BLOCKS
    trips: list[SweepTrip] = []
    blocks: list[tuple[list[SweepTrip], float]] = []
    hosts = [calibrate()]
    try:
        for b in range(SERVE_BLOCKS):
            block, wall = drive_service(service, v, size, first=b * size)
            hosts.append(calibrate())
            blocks.append((block, wall))
            trips += block
    except Exception as exc:  # a client call failed: no result for the run
        jobs = len(SweepSpec.from_dict(serve_payload(v, 0)).expand())
        outcome.attempted += SERVE_BLOCKS * size * jobs
        outcome.fail(SERVE_BLOCKS * size * jobs, f"serve_overlap: {type(exc).__name__}: {exc}")
        return outcome
    finally:
        service.stop()
        # The services and their workers are the only children: the
        # benchmark's own checks below stay out of the figure.
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    sweep_robots = sum(
        dict(r.family_kwargs)["n"] for r in SweepSpec.from_dict(serve_payload(v, 0)).expand()
    )
    segments = []
    for b, (block, wall) in enumerate(blocks):
        factor = host_factor(hosts[b] + hosts[b + 1])
        segments.append(
            Segment(
                jobs=sum(len(trip.settles) for trip in block),
                robots=len(block) * sweep_robots,
                wall=wall,
                latencies=[trip.latency for trip in block],
                factors=[factor] * len(block),
                wall_factor=factor,
            )
        )
    segment_metrics(outcome, segments, "sweep round trip, POST to CSV")
    jobs = sum(len(trip.settles) for trip in trips)
    check_trips(outcome, v, trips, pins)
    outcome.metrics["peak_rss_mb"] = (rss, "MB")
    outcome.notes.append(f"{len(trips)} sweeps of {jobs // max(1, len(trips))} jobs, variant {v}")
    return outcome
