"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.bench fig4   [--scale smoke|small|paper]
    python -m repro.bench fig5   [--scale ...]
    python -m repro.bench table1 [--scale ...]
    python -m repro.bench fig6   [--scale ...]
    python -m repro.bench fig7   [--scale ...]
    python -m repro.bench fig8   [--scale ...]
    python -m repro.bench ablations [--scale ...]
    python -m repro.bench batch
    python -m repro.bench backends [--scale ...] [--shards N [N ...]]
                                   [--sublinear-sizes N [N ...]]
    python -m repro.bench chaos  [--scale ...]
    python -m repro.bench metrics
    python -m repro.bench serving [--scale ...] [--checkpoint PATH]
                                  [--clients N [N ...]]
    python -m repro.bench forecast [--scale ...]
    python -m repro.bench plans  [--scale ...]
    python -m repro.bench replay [--scale ...] [--replay-table CSV]
                                 [--replay-log PATH]
    python -m repro.bench all    [--scale ...]

Any invocation accepts ``--metrics-json PATH``: the process-wide
metrics registry is enabled for the run and its full snapshot
(counters, histograms, spans, estimation traces) is dumped as JSON.

Any invocation accepts ``--checkpoint PATH``: experiments that build a
primary self-tuning model (currently ``serving``) warm-start it from the
checkpoint when the file exists and save the final tuned state back to
it, so repeated runs resume where the last one stopped.

Scales trade fidelity for runtime: ``smoke`` finishes in well under a
minute per experiment (CI-sized), ``small`` (the default) reproduces the
paper's qualitative shapes in minutes, ``paper`` runs the full protocol
(25 repetitions, all datasets, all workloads) and can take hours.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from ..obs import disable_metrics, enable_metrics, export_metrics, get_registry
from .experiments import (
    PAPER_MODEL_SIZES,
    run_adaptive_parameter_ablation,
    run_backend_scaling,
    run_batch_scaling,
    run_chaos,
    run_dynamic_quality,
    run_forecast,
    run_frontend_load,
    run_karma_ablation,
    run_log_update_ablation,
    run_model_size_quality,
    run_observability,
    run_plans,
    run_replay,
    run_runtime_scaling,
    run_selector_shootout,
    run_serving,
    run_static_quality,
)
from .metrics import win_matrix
from .reporting import (
    render_chaos,
    render_dynamic,
    render_forecast,
    render_frontend_load,
    render_model_size,
    render_observability,
    render_plans,
    render_replay,
    render_runtime,
    render_serving,
    render_static_quality,
    render_win_matrix,
)

__all__ = ["main", "run_experiment", "EXPERIMENTS", "SCALES"]

#: Scale presets: (datasets, workloads, repetitions, rows, test queries).
SCALES: Dict[str, Dict] = {
    "smoke": dict(
        datasets=("power", "synthetic"),
        workloads=("DT", "UV"),
        repetitions=1,
        rows=20_000,
        train_queries=30,
        test_queries=60,
        model_sizes=(1024, 4096),
        dynamic_runs=1,
        dynamic_cycles=3,
        dynamic_queries=30,
        batch_starts=3,
    ),
    "small": dict(
        datasets=("bike", "forest", "power", "protein", "synthetic"),
        workloads=("DT", "DV", "UT", "UV"),
        repetitions=3,
        rows=50_000,
        train_queries=100,
        test_queries=150,
        model_sizes=(1024, 2048, 4096, 8192, 16384, 32768),
        dynamic_runs=3,
        dynamic_cycles=10,
        dynamic_queries=60,
        batch_starts=6,
    ),
    "paper": dict(
        datasets=("bike", "forest", "power", "protein", "synthetic"),
        workloads=("DT", "DV", "UT", "UV"),
        repetitions=25,
        rows=None,
        train_queries=100,
        test_queries=300,
        model_sizes=(1024, 2048, 4096, 8192, 16384, 32768),
        dynamic_runs=10,
        dynamic_cycles=10,
        dynamic_queries=100,
        batch_starts=8,
    ),
}

EXPERIMENTS = (
    "fig4",
    "fig5",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "ablations",
    "batch",
    "backends",
    "chaos",
    "metrics",
    "serving",
    "forecast",
    "plans",
    "replay",
    "all",
)

#: Per-scale sweep parameters for the ``backends`` experiment.
#: ``sublinear_sizes`` is the million-row regime where only the
#: sublinear backends run the full batch (the numpy baseline is timed
#: on ``reference_queries`` queries).
BACKEND_SCALE = {
    "smoke": dict(
        sample_sizes=(4096, 16384), batch_size=64, repeats=1,
        sublinear_sizes=(100_000,), reference_queries=8,
    ),
    "small": dict(
        sample_sizes=(16384, 65536), batch_size=128, repeats=2,
        sublinear_sizes=(1_000_000,), reference_queries=16,
    ),
    "paper": dict(
        sample_sizes=(16384, 65536, 262144), batch_size=256, repeats=3,
        sublinear_sizes=(1_000_000, 10_000_000), reference_queries=16,
    ),
}

#: Trajectory file the ``backends`` experiment writes next to the report
#: so perf regressions are diffable across PRs.
BACKENDS_JSON = "BENCH_backends.json"

#: Per-scale parameters for the ``fig7`` runtime sweep.  Every scale
#: runs the generated device kernels on each model size to read the
#: modelled clock, so wall time grows with ``sizes`` x ``queries``; only
#: ``paper`` sweeps the full 131072-row range of the figure.
FIG7_SCALE = {
    "smoke": dict(sizes=(1024, 4096, 16384), queries=10, data_rows=20_000),
    "small": dict(
        sizes=(1024, 4096, 16384, 65536), queries=25, data_rows=70_000
    ),
    "paper": dict(sizes=PAPER_MODEL_SIZES, queries=100, data_rows=100_000),
}

#: Per-scale parameters for the ``chaos`` experiment.
CHAOS_SCALE = {
    "smoke": dict(seeds=(0, 1), sample_size=256, batches=3, batch_size=24),
    "small": dict(seeds=(0, 1, 2), sample_size=512, batches=4, batch_size=32),
    "paper": dict(
        seeds=tuple(range(8)), sample_size=1024, batches=6, batch_size=64
    ),
}

#: Per-scale parameters for the ``serving`` experiment.
SERVING_SCALE = {
    "smoke": dict(sample_size=512, rows=10_000, feedbacks=64, readers=2),
    "small": dict(sample_size=1024, rows=20_000, feedbacks=200, readers=4),
    "paper": dict(sample_size=4096, rows=100_000, feedbacks=1000, readers=8),
}

#: Per-scale parameters for the ``serving`` experiment's concurrency
#: axis (the closed-loop front-end load sweep).  Each scale includes a
#: cell with more clients than the admission-queue depth, so the sweep
#: always exercises load shedding.
FRONTEND_SCALE = {
    "smoke": dict(
        sample_size=1024, rows=8_000, clients=(2, 8, 24),
        rates=(None,), requests_per_client=40, max_queue_depth=12,
    ),
    "small": dict(
        sample_size=2048, rows=20_000, clients=(2, 8, 32),
        rates=(None, 100.0), requests_per_client=80, max_queue_depth=16,
    ),
    "paper": dict(
        sample_size=4096, rows=100_000, clients=(2, 8, 32, 128),
        rates=(None, 100.0, 1000.0), requests_per_client=200,
        max_queue_depth=32,
    ),
}


#: Per-scale parameters for the ``plans`` experiment (optimizer in
#: the loop: plan quality per estimator family on a correlated star).
PLANS_SCALE = {
    "smoke": dict(
        fact_rows=10_000, dim_rows=1_500, sample_size=256,
        feedback_queries=30, dp_tables=10,
    ),
    "small": dict(
        fact_rows=40_000, dim_rows=4_000, sample_size=512,
        feedback_queries=100, dp_tables=11,
    ),
    "paper": dict(
        fact_rows=200_000, dim_rows=20_000, sample_size=2048,
        feedback_queries=400, dp_tables=14,
    ),
}

#: Per-scale parameters for the ``forecast`` experiment (reactive vs
#: proactive serving under phased load, plus the clock-injected
#: autoscale ramp).
FORECAST_SCALE = {
    "smoke": dict(
        sample_size=16384, rows=30_000, phases=3, clients=24,
        rate=100.0, requests_per_client=10, max_queue_depth=6,
        offered_rates=(30, 90, 200, 330, 330),
    ),
    "small": dict(
        sample_size=32768, rows=50_000, phases=4, clients=32,
        rate=100.0, requests_per_client=15, max_queue_depth=6,
    ),
    "paper": dict(
        sample_size=32768, rows=100_000, phases=8, clients=48,
        rate=150.0, requests_per_client=40, max_queue_depth=8,
        offered_rates=(40, 120, 260, 420, 600, 600, 600, 600),
        max_shards=8,
    ),
}


#: Per-scale parameters for the ``replay`` experiment (workload replay
#: head-to-head across every estimator family on a drifting log).
REPLAY_SCALE = {
    "smoke": dict(
        rows=10_000, queries=120, dimensions=3, drift_at=0.5, target=0.02,
    ),
    "small": dict(
        rows=20_000, queries=240, dimensions=4, drift_at=0.5, target=0.02,
    ),
    "paper": dict(
        rows=100_000, queries=1_000, dimensions=5, drift_at=0.5,
        target=0.01,
    ),
}

#: Machine-readable result the ``replay`` experiment writes next to the
#: report, so learned-vs-KDE quality is diffable across PRs.
REPLAY_JSON = "BENCH_replay.json"


def _static(scale: Dict, dimensions: int, progress: bool):
    return run_static_quality(
        dimensions=dimensions,
        datasets=scale["datasets"],
        workloads=scale["workloads"],
        repetitions=scale["repetitions"],
        rows=scale["rows"],
        train_queries=scale["train_queries"],
        test_queries=scale["test_queries"],
        batch_starts=scale["batch_starts"],
        progress=progress,
    )


def run_experiment(
    name: str,
    scale_name: str,
    progress: bool = True,
    shards=None,
    checkpoint=None,
    clients=None,
    sublinear_sizes=None,
    replay_table=None,
    replay_log=None,
) -> str:
    """Run one experiment and return its rendered report."""
    scale = SCALES[scale_name]
    started = time.time()
    if name == "fig4":
        report = render_static_quality(_static(scale, 3, progress))
        title = "Figure 4 - estimation quality on static datasets (3D)"
    elif name == "fig5":
        report = render_static_quality(_static(scale, 8, progress))
        title = "Figure 5 - estimation quality on static datasets (8D)"
    elif name == "table1":
        experiments = []
        for dimensions in (3, 8):
            experiments.extend(_static(scale, dimensions, progress).experiments)
        report = render_win_matrix(win_matrix(experiments))
        title = "Table 1 - pairwise win percentages (3D + 8D)"
    elif name == "fig6":
        result = run_model_size_quality(
            sizes=scale["model_sizes"],
            repetitions=max(1, scale["repetitions"] * 2),
            rows=scale["rows"] or 100_000,
            batch_starts=scale["batch_starts"],
            progress=progress,
        )
        report = render_model_size(result)
        title = "Figure 6 - estimation quality with growing model size"
    elif name == "fig7":
        report = render_runtime(
            run_runtime_scaling(progress=progress, **FIG7_SCALE[scale_name])
        )
        title = "Figure 7 - estimator runtime with growing model size"
    elif name == "fig8":
        sections = []
        for dimensions in (5, 8):
            result = run_dynamic_quality(
                dimensions=dimensions,
                runs=scale["dynamic_runs"],
                cycles=scale["dynamic_cycles"],
                queries_per_cycle=scale["dynamic_queries"],
                progress=progress,
            )
            sections.append(
                f"[{dimensions}D]\n" + render_dynamic(result)
            )
        report = "\n\n".join(sections)
        title = "Figure 8 - estimation quality on changing data"
    elif name == "ablations":
        log_result = run_log_update_ablation(
            repetitions=scale["repetitions"]
        )
        karma_result = run_karma_ablation(runs=scale["dynamic_runs"])
        params = run_adaptive_parameter_ablation(
            repetitions=scale["repetitions"]
        )
        shootout = run_selector_shootout(repetitions=scale["repetitions"])
        report = "\n".join(
            [
                "A1 log-space updates: better in "
                f"{100 * log_result.log_win_fraction:.0f}% of paired trials "
                "(paper: 68%)",
                "A2 karma maintenance on dynamic data: "
                f"error {karma_result.with_karma:.4f} with, "
                f"{karma_result.without_karma:.4f} without, "
                f"{karma_result.with_karma_no_shortcut:.4f} without shortcut "
                f"(improvement {100 * karma_result.karma_improvement:.0f}%)",
                "A3 mini-batch sizes: "
                + ", ".join(
                    f"N={n}: {e:.4f}"
                    for n, e in params.batch_size_errors.items()
                ),
                "A3 losses: "
                + ", ".join(
                    f"{loss}: {e:.4f}" for loss, e in params.loss_errors.items()
                ),
                "A4 selector shootout (mean abs error): "
                + ", ".join(
                    f"{name}: {shootout.errors[name]:.4f}"
                    for name in shootout.ranking()
                ),
            ]
        )
        title = "Ablations - design choices called out by the paper"
    elif name == "batch":
        result = run_batch_scaling(adaptive=True)
        lines = []
        for device in ("gpu", "cpu"):
            speedups = result.speedup(device)
            lines.append(
                f"{device.upper()}: per-query protocol "
                f"{result.per_query_seconds[device] * 1e6:.0f}us/query; "
                + ", ".join(
                    f"q={size}: {seconds * 1e6:.0f}us ({speedup:.2f}x)"
                    for size, seconds, speedup in zip(
                        result.batch_sizes,
                        result.batched_seconds[device],
                        speedups,
                    )
                )
            )
        report = "\n".join(lines)
        title = (
            "Batched evaluation - modelled per-query cost vs batch size "
            "(adaptive estimate+feedback)"
        )
    elif name == "backends":
        params = dict(BACKEND_SCALE[scale_name])
        if shards:
            params["shard_counts"] = tuple(shards)
        if sublinear_sizes is not None:
            params["sublinear_sizes"] = tuple(sublinear_sizes)
        result = run_backend_scaling(progress=progress, **params)
        lines = []
        for series, values in result.wall_seconds.items():
            speedups = result.speedup(series)
            lines.append(
                f"{series}: "
                + ", ".join(
                    f"s={size}: {seconds * 1e3:.1f}ms ({speedup:.2f}x)"
                    for size, seconds, speedup in zip(
                        result.sample_sizes, values, speedups
                    )
                )
            )
        lines.append(
            "cache hit rate: "
            + ", ".join(
                f"s={size}: {rate:.2f}"
                for size, rate in zip(
                    result.sample_sizes, result.cache_hit_rates
                )
            )
        )
        lines.append(
            f"max |deviation| vs numpy backend: "
            f"{result.max_abs_deviation:.2e}"
        )
        for series, qerrors in result.qerror.items():
            lines.append(
                f"{series} accuracy: Q-error (max/mean) "
                + ", ".join(
                    f"s={size}: {q:.2f}/{m:.2f}"
                    for size, q, m in zip(
                        result.sample_sizes,
                        qerrors,
                        result.qerror_mean[series],
                    )
                )
                + "; rows/query "
                + ", ".join(
                    f"s={size}: {rows:.0f}"
                    for size, rows in zip(
                        result.sample_sizes, result.rows_per_query[series]
                    )
                )
            )
        if result.sublinear_sizes:
            lines.append(
                f"[million-row sweep, selective workload: full batch on "
                f"sublinear backends, numpy timed on "
                f"{result.reference_queries} queries]"
            )
            for series, values in result.sublinear_seconds_per_query.items():
                entries = []
                for i, size in enumerate(result.sublinear_sizes):
                    entry = f"s={size}: {values[i] * 1e6:.0f}us/query"
                    if series != "numpy":
                        speedup = result.sublinear_speedup(series)[i]
                        qmax = result.sublinear_qerror[series][i]
                        qmean = result.sublinear_qerror_mean[series][i]
                        entry += (
                            f" ({speedup:.0f}x, Q-err {qmax:.2f}/{qmean:.2f},"
                            f" {result.sublinear_rows_per_query[series][i]:.0f}"
                            " rows/q)"
                        )
                    entries.append(entry)
                lines.append(f"{series}: " + ", ".join(entries))
        with open(BACKENDS_JSON, "w", encoding="utf-8") as handle:
            json.dump(
                {"experiment": "backends", "scale": scale_name,
                 "result": result.as_dict()},
                handle,
                indent=2,
            )
            handle.write("\n")
        lines.append(f"trajectory written to {BACKENDS_JSON}")
        profile = result.device_profile
        lines.append(
            f"modelled device profile ({profile['device']}): "
            f"kernels {profile['kernel_seconds'] * 1e3:.2f}ms, "
            f"transfers {profile['transfer_seconds'] * 1e3:.2f}ms; "
            + ", ".join(
                f"{kernel}: {entry['launches']}x/"
                f"{entry['seconds'] * 1e6:.0f}us"
                for kernel, entry in sorted(profile["kernels"].items())
            )
        )
        report = "\n".join(lines)
        title = (
            "Execution backends - measured wall clock, shards x sample "
            "size (speedups vs the numpy backend)"
        )
    elif name == "chaos":
        result = run_chaos(progress=progress, **CHAOS_SCALE[scale_name])
        report = render_chaos(result)
        title = (
            "Chaos - sharded execution under seeded fault storms "
            "(crashes, stragglers, shm corruption)"
        )
    elif name == "metrics":
        report = render_observability(run_observability())
        title = (
            "Observability - metrics/span/trace summary of one "
            "instrumented serving loop"
        )
    elif name == "serving":
        result = run_serving(
            checkpoint=checkpoint, **SERVING_SCALE[scale_name]
        )
        frontend_params = dict(FRONTEND_SCALE[scale_name])
        if clients:
            frontend_params["clients"] = tuple(clients)
        load = run_frontend_load(**frontend_params)
        report = (
            render_serving(result)
            + "\n\n[concurrency axis]\n"
            + render_frontend_load(load)
        )
        title = (
            "Serving - reader throughput, snapshot staleness, and the "
            "micro-batching front end under closed-loop load"
        )
    elif name == "forecast":
        report = render_forecast(run_forecast(**FORECAST_SCALE[scale_name]))
        title = (
            "Forecast - proactive (forecast-driven warming/publication/"
            "autoscaling) vs reactive serving under phased load"
        )
    elif name == "plans":
        result = run_plans(progress=progress, **PLANS_SCALE[scale_name])
        report = render_plans(result)
        title = (
            "Plans - join-order quality per estimator family "
            "(RegistryCostModel over served snapshots)"
        )
    elif name == "replay":
        result = run_replay(
            progress=progress,
            table_path=replay_table,
            log_path=replay_log,
            **REPLAY_SCALE[scale_name],
        )
        report = render_replay(result)
        with open(REPLAY_JSON, "w", encoding="utf-8") as handle:
            json.dump(
                {"experiment": "replay", "scale": scale_name,
                 "result": result.as_dict()},
                handle,
                indent=2,
            )
            handle.write("\n")
        report += f"\nresults written to {REPLAY_JSON}"
        title = (
            "Replay - workload replay head-to-head (KDE vs classic vs "
            "learned baselines on one drifting log)"
        )
    else:
        raise ValueError(f"unknown experiment {name!r}")
    elapsed = time.time() - started
    banner = "=" * len(title)
    return f"{title}\n{banner}\n{report}\n[{elapsed:.1f}s @ scale={scale_name}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="fidelity/runtime preset (default: small)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-trial progress"
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None,
        help="shard counts swept by the backends experiment",
    )
    parser.add_argument(
        "--sublinear-sizes", type=int, nargs="*", default=None,
        help="sample sizes for the backends experiment's million-row "
        "sublinear sweep (pass no values to skip it)",
    )
    parser.add_argument(
        "--clients", type=int, nargs="+", default=None,
        help="client counts swept by the serving experiment's "
        "closed-loop front-end load generator",
    )
    parser.add_argument(
        "--replay-table", metavar="CSV", default=None,
        help="existing CSV table dump for the replay experiment "
        "(default: generate a two-cluster synthetic table)",
    )
    parser.add_argument(
        "--replay-log", metavar="PATH", default=None,
        help="existing query log (CSV or SQL-lite) for the replay "
        "experiment (default: generate a drifting log)",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="enable the metrics registry and dump its snapshot "
        "(counters, spans, estimation traces) to PATH as JSON",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="warm-start the experiment's primary model from this "
        "ModelState checkpoint when the file exists, and save the "
        "final state back to it",
    )
    args = parser.parse_args(argv)

    names = (
        ["fig4", "fig5", "table1", "fig6", "fig7", "fig8", "ablations",
         "batch", "backends", "chaos", "metrics", "serving", "forecast",
         "plans", "replay"]
        if args.experiment == "all"
        else [args.experiment]
    )
    if args.metrics_json:
        enable_metrics()
    try:
        for name in names:
            print(
                run_experiment(
                    name, args.scale, progress=not args.quiet,
                    shards=args.shards, checkpoint=args.checkpoint,
                    clients=args.clients,
                    sublinear_sizes=args.sublinear_sizes,
                    replay_table=args.replay_table,
                    replay_log=args.replay_log,
                )
            )
            print()
        if args.metrics_json:
            export_metrics(get_registry(), path=args.metrics_json)
            print(f"metrics snapshot written to {args.metrics_json}")
    finally:
        if args.metrics_json:
            disable_metrics()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
