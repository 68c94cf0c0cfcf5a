"""Regenerate ``perfbench/pins.json``: the records digests every run checks.

    PYTHONPATH=src python3 -m perfbench.pin

The digests come from the plain ``run_sweep`` path (serial, no tracing,
one ``run_sweep`` per serve sweep against a shared cache), not from the
benchmark's own passes, so a benchmark run checks its records against
an independent computation.  Rerun only when a change is meant to alter
records; ROADMAP requires them byte-identical otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

from repro.experiments.cache import ResultCache
from repro.experiments.harness import SweepSpec, run_sweep

from . import workloads as wl


def sweep_records(payloads: list[dict]) -> list[dict]:
    records: list[dict] = []
    for payload in payloads:
        records += run_sweep(SweepSpec.from_dict(payload)).records
    return records


def serve_csv_digest(v: int) -> str:
    cache_dir = wl.fresh_dir("pin-serve")
    try:
        cache = ResultCache(cache_dir)
        csvs = [
            wl.records_csv(
                run_sweep(SweepSpec.from_dict(wl.serve_payload(v, k)), cache=cache).records
            )
            for k in range(wl.SERVE_MIN_SWEEPS)
        ]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return wl.sha256("".join(csvs))


def main() -> int:
    pins: dict[str, list] = {"sweep_cold": [], "sweep_tiny": [], "serve_overlap": []}
    for v in range(wl.VARIANTS):
        pins["sweep_cold"].append(wl.records_digests(sweep_records(wl.cold_payloads(v))))
        pins["sweep_tiny"].append(wl.records_digests(sweep_records([wl.tiny_payload(v)])))
        pins["serve_overlap"].append({"csv": serve_csv_digest(v)})
        print(f"variant {v} pinned", file=sys.stderr, flush=True)
    wl.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
