"""Tests of the benchmark's own checks and its traced replica.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They use small job sets, so they say nothing about speed: they show that
a one-record change is caught, that the traced replica returns the
untraced records byte for byte, and that its exact counts repeat.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments.harness import SweepSpec, run_sweep  # noqa: E402

from perfbench import traced, tracing  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

SMALL_COLD = {
    "name": "test-cold",
    "algorithms": ["aseparator", "agrid", "awave", "quadtree"],
    "seeds": [3],
    "families": [{"family": "uniform_disk", "params": {"n": [14], "rho": [3.0]}}],
    "scenarios": [{"scenario": "fragile_swarm", "params": {"n": [14], "rho": [3.0]}}],
}
SMALL_TINY = {
    "name": "test-tiny",
    "algorithms": list(wl.TINY_ALGORITHMS),
    "seeds": [0, 1, 2],
    "families": [{"family": "beaded_path", "params": {"n": [8, 12], "spacing": [1.0]}}],
}
WORKLOADS = {
    "cold": wl.SweepWorkload("test-cold", lambda v: [SMALL_COLD]),
    "tiny": wl.SweepWorkload("test-tiny", lambda v: [SMALL_TINY], calibrate_every=4),
}


def _specs(workload: wl.SweepWorkload) -> list[SweepSpec]:
    return [SweepSpec.from_dict(p) for p in workload.payloads(0)]


def _pins_for(workload: wl.SweepWorkload) -> dict:
    records = [r for spec in _specs(workload) for r in run_sweep(spec).records]
    return {workload.name: [wl.records_digests(records)]}


def _perturbed(records: list[dict], index: int) -> list[dict]:
    changed = [dict(r) for r in records]
    changed[index]["makespan"] = math.nextafter(changed[index]["makespan"], math.inf)
    return changed


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_round_check_catches_a_one_record_perturbation(kind: str) -> None:
    workload = WORKLOADS[kind]
    specs = _specs(workload)
    pins = _pins_for(workload)
    result = wl.run_round(workload, specs)
    assert len(result.host) == len(result.records) // workload.calibrate_every

    clean = wl.Outcome()
    wl.check_round(clean, workload.name, 0, specs, result, pins)
    assert clean.correct and clean.attempted == len(result.records)

    result.records = _perturbed(result.records, len(result.records) // 2)
    dirty = wl.Outcome()
    wl.check_round(dirty, workload.name, 0, specs, result, pins)
    assert not dirty.correct and dirty.failed == len(result.records)


def test_a_failing_job_fails_the_round() -> None:
    # The exact solver refuses n > 9 when the job runs, so run_sweep raises.
    failing = {
        "name": "test-failing",
        "algorithms": ["quadtree", "exact"],
        "seeds": [0],
        "families": [{"family": "beaded_path", "params": {"n": [12], "spacing": [1.0]}}],
    }
    workload = wl.SweepWorkload("test-failing", lambda v: [failing])
    specs = _specs(workload)
    result = wl.run_round(workload, specs)
    assert result.error is not None and "exact" in result.error
    outcome = wl.Outcome()
    wl.check_round(outcome, workload.name, 0, specs, result, {})
    assert not outcome.correct and outcome.failed == outcome.attempted == 2


def test_served_csv_check_catches_a_one_record_perturbation(monkeypatch) -> None:
    monkeypatch.setattr(wl, "SERVE_MIN_SWEEPS", 2)
    direct = wl.direct_csvs(0, 2)
    pins = {"serve_overlap": [{"csv": wl.sha256("".join(direct))}]}
    jobs = len(SweepSpec.from_dict(wl.serve_payload(0, 0)).expand())

    def trips(csvs: list[str]) -> list[wl.SweepTrip]:
        end = {"counts": {"settled": jobs, "failed": 0}}
        return [
            wl.SweepTrip(k=k, latency=0.01, csv=csv, settles=[{}] * jobs, end=end)
            for k, csv in enumerate(csvs)
        ]

    clean = wl.Outcome()
    wl.check_trips(clean, 0, trips(direct), pins)
    assert clean.correct and clean.attempted == 2 * jobs

    rows = list(csv.reader(io.StringIO(direct[1])))
    column = rows[0].index("makespan")
    rows[3][column] = repr(math.nextafter(float(rows[3][column]), math.inf))
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    dirty = wl.Outcome()
    wl.check_trips(dirty, 0, trips([direct[0], buffer.getvalue()]), pins)
    assert not dirty.correct and dirty.failed == jobs


def test_each_gap_is_scaled_by_the_samples_nearest_to_it() -> None:
    ms = wl.REFERENCE_CALIBRATION_MS / 1000.0
    # One sample after every second settle: the host is twice as slow
    # for the last four settles.
    host = [ms] * 5 + [2 * ms] * 5
    factors = wl.local_factors([0.1] * 20, host, every=2)
    assert factors[:8] == pytest.approx([1.0] * 8)
    assert factors[-4:] == pytest.approx([2.0] * 4)


def _traced_round(workload: wl.SweepWorkload) -> tuple[wl.RoundResult, tracing.Tracer]:
    tracer = tracing.Tracer()
    return wl.run_round(workload, _specs(workload), tracer=tracer), tracer


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_traced_replica_matches_and_its_counts_repeat(kind: str) -> None:
    workload = WORKLOADS[kind]
    plain = wl.run_round(workload, _specs(workload))
    first, first_tracer = _traced_round(workload)
    second, second_tracer = _traced_round(workload)

    assert wl.records_digests(first.records) == wl.records_digests(plain.records)
    assert wl.records_digests(second.records) == wl.records_digests(plain.records)
    exact = traced.exact_sweep_counts(first_tracer)
    assert exact == traced.exact_sweep_counts(second_tracer)
    assert exact["sim.events"] > 0 and exact["experiments.manifest.flushes"] >= 2
    assert exact["experiments.cache.bytes_written"] > 0
    # Every job ran through the traced steps, nested in the executor wait.
    spans = first_tracer.spans
    runs = [row for row in spans if row[0] == "sim.run"]
    assert len(runs) == len(plain.records)
    assert all(spans[row[3]][0] == "experiments.executors.wait" for row in runs)


def test_traced_serve_replica_matches_and_its_counts_repeat(monkeypatch) -> None:
    monkeypatch.setattr(wl, "SETUP_SAMPLES", 1)
    runs = []
    for tracer in (None, tracing.Tracer(), tracing.Tracer()):
        service = wl.serve_start(None)
        try:
            trips, _wall = wl.drive_service(service, 0, 6, tracer=tracer)
        finally:
            service.stop()
        runs.append(trips)
    plain, first, second = runs
    assert [t.csv for t in first] == [t.csv for t in plain]
    assert [t.csv for t in second] == [t.csv for t in plain]
    assert traced.exact_serve_counts(first) == traced.exact_serve_counts(second)
    executed, reuse = traced.exact_serve_counts(first)
    # Six sweeps of three seeds each, sliding by one: eight distinct seeds.
    jobs_per_seed = len(SweepSpec.from_dict(wl.serve_payload(0, 0)).expand()) // wl.SERVE_WINDOW
    assert executed == 8 * jobs_per_seed
    assert reuse == pytest.approx(1 - 8 / 18)


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "sweep_cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
