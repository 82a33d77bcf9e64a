"""Run one benchmark workload for one seed and print its result.

    python3 kdebench/run.py --workload serve-s512 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from that
checkout's ``src/``.  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` alternates untraced and traced windows, prints a per-layer
self-time table and the per-layer metrics, and writes the spans to
``kdebench/runs/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_to_one_cpu() -> None:
    """Run on the last CPU of the allowed set, with single-threaded BLAS.

    On a 2-vCPU VM the front end's event loop and executor threads
    hand the GIL across cores; unpinned, the serve latencies swung by
    2x between runs and between seconds of one run.  One CPU keeps them
    within a few percent.  Must run before numpy is imported, so that
    every thread the process starts inherits the affinity.
    """
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"kdebench: cannot import the program from {src}: {error}")
    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"kdebench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _pin_to_one_cpu()
    _import_program()
    from kdebench import workloads
    from kdebench.measure import cpu_times, fingerprint

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed, args.seconds, bool(args.trace))
    cpu_before = cpu_times()
    outcome = asyncio.run(workload.run())
    cpu_after = cpu_times()

    if args.trace:
        print(workload.tracer.layer_table())
        spans = ROOT / "kdebench" / "runs" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        workload.tracer.write(spans)
        print(f"spans: {len(workload.tracer.spans)} written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<32}{value:>16.6g} {unit}")
    for note in outcome.notes:
        print(note)
    print("failures " + json.dumps({"attempted": outcome.attempted, **outcome.failures}))
    for problem in outcome.problems:
        print("problem: " + problem)
    print("fingerprint " + json.dumps(fingerprint(ROOT, cpu_before, cpu_after)))
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
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
