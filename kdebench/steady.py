"""Steadiness mode: repeat a workload over seeds and report each metric's spread.

    python3 kdebench/steady.py --workload serve-s512 --seeds 10
    python3 kdebench/steady.py --workload serve-s512 --seeds 10 --series 2
    python3 kdebench/steady.py --workload serve-s512 --seeds 10 --other ../parent

Each run is ``kdebench/run.py`` in a fresh process, for ``run_seconds``
from ``BENCHMARK.json``, with seeds 1 to ``--seeds``.  For every series
(or side) and end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread
``(q3 - q1) / median`` and that spread as a share of the metric's bound.
``--series 2`` repeats the whole series on the same code; ``--other``
runs a second checkout seed by seed, alternating which side runs first.
Either way it then prints how far the second median moved from the first,
as a share of the first and of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [
        sys.executable, "kdebench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=600)
    if result.returncode != 0:
        raise SystemExit(f"run failed ({checkout}, seed {seed}):\n{result.stderr[-2000:]}")
    lines = result.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    if not final["correct"] or final["failed"]:
        print(f"  seed {seed}: correct={final['correct']} failed={final['failed']}")
    for line in lines:
        if line.startswith("fingerprint "):
            steal = json.loads(line[len("fingerprint "):]).get("steal_share")
            print(f"  {checkout.name} seed {seed}: steal_share={steal}", flush=True)
    return {name: entry["value"] for name, entry in final["metrics"].items()}


def summarize(label: str, runs: List[Dict[str, float]], bounds: Dict[str, float]) -> Dict[str, float]:
    print(f"{label}: {len(runs)} runs")
    print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'/bound':>8}")
    medians = {}
    for name, bound in bounds.items():
        values = [run[name] for run in runs if name in run]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        medians[name] = median
        print(
            f"  {name:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
            f"{spread:>9.3f}{spread / bound:>8.2f}"
        )
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--series", type=int, default=1)
    parser.add_argument("--other", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = range(1, args.seeds + 1)

    if args.other is not None:
        sides = {ROOT: [], args.other.resolve(): []}
        for index, seed in enumerate(seeds):
            order = list(sides) if index % 2 == 0 else list(sides)[::-1]
            for checkout in order:
                sides[checkout].append(run_once(checkout, args.workload, seed, seconds))
        series = [(str(checkout), runs) for checkout, runs in sides.items()]
    else:
        series = [
            (f"series {number + 1}", [run_once(ROOT, args.workload, s, seconds) for s in seeds])
            for number in range(args.series)
        ]

    medians = [summarize(f"{args.workload} {label}", runs, bounds) for label, runs in series]
    for label, later in zip([label for label, _ in series[1:]], medians[1:]):
        print(f"median shift, {label} against {series[0][0]}:")
        for name, first in medians[0].items():
            shift = (later[name] - first) / first
            print(f"  {name:<18}{shift:>+9.3f}{shift / bounds[name]:>+8.2f} of bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
