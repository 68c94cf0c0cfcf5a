"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
untraced pass plus its traced replica and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run whose outputs are wrong still prints it, with ``correct`` false.
Without the program's source next to this directory the run exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_cold", "sweep_tiny", "serve_overlap")
#: Every end-to-end metric with its unit, in BENCHMARK.json order.
END_TO_END = {
    "jobs_per_s": "1/s",
    "robots_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fresh interpreter with a fixed hash seed: set iteration order
        # (and with it any hash-ordered work) is the same on every run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import traced, workloads

    context = workloads.run_context()
    if args.trace:
        outcome = traced.run_traced(args.workload, args.seed, context)
    elif args.workload == "serve_overlap":
        outcome = workloads.run_serve_workload(args.seed, args.seconds)
    else:
        outcome = workloads.run_sweep_workload(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print(
        f"  context: nproc={context['nproc']} python={context['python']} "
        f"numpy={context['numpy']} host.calibration_ms={context['calibration_ms']:.3f}"
    )
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    if not args.trace:
        missing = set(END_TO_END) - set(outcome.metrics)
        if missing and outcome.correct:
            raise RuntimeError(f"workload did not measure {sorted(missing)}")
        # A failed run may stop before it measures everything; it still
        # prints its result line, with zeros for what it did not measure.
        outcome.metrics = {
            name: outcome.metrics.get(name, (0.0, unit)) for name, unit in END_TO_END.items()
        }
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
