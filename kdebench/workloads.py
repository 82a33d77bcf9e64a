"""The three workloads: set-up, the driven phase, and the output check.

All three are closed loop over d=3 correlated columns, driven from this
one process through the public API of ``repro.serve``, ``repro.db`` and
``repro.core``.  The benchmark starts no threads of its own; the front
end's executor is the program's.

``serve-s512``
    Two sessions send single-box ``EstimatorFrontend.estimate`` requests
    to one 512-row model (the paper's d*4 kB budget).  Every box is
    fresh.  The front end's executor hop and coalescing take somewhat more
    time per request than the kernel (traced: ~180 us against ~140 us on
    a 2-vCPU Xeon VM), so both front-end and kernel work show.
``serve-s16k``
    The same traffic against a 16384-row sample.  The Eq. (13) scan
    dominates; backend and kernel work shows, front-end work barely does.
``plan-feedback``
    One session works through a drifting star query: each step prices a
    plan with ``plan_cardinalities`` (the timed op), checks the plan's
    prices and order and counts the true answer of each base predicate
    (both untimed), feeds it back through
    ``SnapshotServer.feedback`` (timed), and every INGEST_EVERY steps
    replaces a block of rows with rows of a drifted correlation.  The only
    workload that runs the writer path and the optimizer.

The served snapshot never changes in the serve workloads.  So that they
too report what one feedback costs at their sample size, each untraced
window ends with a short write burst into a second, unserved
``SnapshotServer`` built like the served one: it feeds back the Q-error
boxes with their true selectivities.

Every timing is measured in windows of WINDOW_SECONDS with a
:class:`~kdebench.measure.SpeedMeter` reading between them, and is
reported at the meter's reference CPU speed (see ``measure.py``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import statistics
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import SelfTuningKDE
from repro.db import EstimatorTableBridge, Table
from repro.db.optimizer import JoinQuery
from repro.geometry import Box
from repro.serve import (
    EstimatorFrontend,
    ModelKey,
    ModelRegistry,
    Overloaded,
    SnapshotServer,
)

from . import inputs
from .measure import (
    ANSWER_TOLERANCE,
    RELATIVE_TOLERANCE,
    SpeedMeter,
    eq13_reference,
    equi_join_reference,
    peak_rss_mb,
    percentile,
    qerror,
    samples_beyond,
)
from .tracing import Tracer

WORKLOADS = ("serve-s512", "serve-s16k", "plan-feedback")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Closed-loop client sessions in the serve workloads: the core count of
#: the 2-vCPU Xeon VM the bounds were set on.
SESSIONS = 2
#: Per serve session, the leading boxes whose Q-error is reported.  Fixed,
#: so Q-error repeats exactly for a seed however fast the run goes.
QERROR_PER_SESSION = 300
#: Seconds of the write burst that ends each untraced serve window.
WRITE_BURST_SECONDS = 0.05
#: Leading plan-feedback steps whose Q-error is reported (60 ingest blocks).
QERROR_STEPS = 480
#: Inputs are generated for at most this many ops per second per session.
SERVE_RATE_CAP = 8000
PLAN_RATE_CAP = 250
#: Length of one measurement window; the speed meter reads between windows.
WINDOW_SECONDS = 0.5
#: A traced run alternates this many blocks of untraced and traced windows.
TRACE_BLOCKS = 8

SERVE_KEY = ModelKey.for_table("serve", ("x", "y", "z"))
PLAN_SAMPLE = 512
STAR_JOINS = (("fact", 0, "dim_a", 0), ("fact", 1, "dim_b", 0), ("fact", 2, "dim_c", 0))
#: ``plan_cardinalities``' default equi-join key width.
KEY_WIDTH = 1.0

#: Metric names and units, from ``BENCHMARK.json`` at the checkout root.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@dataclass
class Outcome:
    """What one run measured and what its output check found."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    #: Failed ops; an op with several faults counts once.
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Metric values by name; :meth:`report` attaches the units.
    values: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and not (
            self.failures["invalid"] or self.failures["mismatched"]
        )

    def report(self, group: str) -> None:
        """Keep the values of ``BENCHMARK.json``'s metric group, with their units."""
        self.metrics = {
            metric["name"]: (float(self.values[metric["name"]]), metric["unit"])
            for metric in SPEC[group]
        }

    def fail(self, kinds: List[str]) -> None:
        if kinds:
            self.failed += 1
            self.failures.update(kinds)

    def note_exception(self, error: BaseException) -> None:
        if len(self.notes) < 5:
            self.notes.append(
                "exception: " + "".join(traceback.format_exception_only(error)).strip()
            )


def _answer_faults(value: float, reference: float) -> List[str]:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        return ["invalid"]
    if abs(value - reference) > ANSWER_TOLERANCE:
        return ["mismatched"]
    return []


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= RELATIVE_TOLERANCE * abs(reference)


def _window_plan(seconds: float, trace: bool) -> List[bool]:
    """Per window, whether it is traced: blocks of windows alternate."""
    count = max(1, round(seconds / WINDOW_SECONDS))
    if not trace:
        return [False] * count
    block = max(1, count // TRACE_BLOCKS)
    return [(index // block) % 2 == 1 for index in range(block * TRACE_BLOCKS)]


class _Workload:
    """Shared run skeleton: repeated set-up, measured windows, reports."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.out = Outcome()
        self.meter: Optional[SpeedMeter] = None
        self.frontend: Optional[EstimatorFrontend] = None
        #: Raw seconds recorded in the current window, by sample name ...
        self.window_samples: Dict[str, List[float]] = defaultdict(list)
        #: ... and every window's samples, as measured and at the reference speed.
        self.raw_samples: Dict[str, List[float]] = defaultdict(list)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: (traced, ops, raw seconds, scale) per window.
        self.windows: List[Tuple[bool, int, float, float]] = []
        self.counters: Counter = Counter()

    async def run(self) -> Outcome:
        self.meter = SpeedMeter()
        setups = []
        for _ in range(SETUP_REPEATS):
            await self.discard()
            gc.collect()
            setups.append(await self.setup() * self.meter.next_scale())
        self.out.values["setup_s"] = statistics.median(setups)
        self.out.notes.append(
            f"setup_s: median of {SETUP_REPEATS}; the first (cold) took {setups[0]:.6g} s"
            " at the reference speed"
        )
        await self.attach()
        gc.collect()
        try:
            plan = _window_plan(self.seconds, self.trace)
            self.meter.next_scale()
            for index, traced in enumerate(plan):
                before = self.counter_snapshot()
                if traced:
                    self.tracer.install()
                try:
                    ops, wall = await self.window(WINDOW_SECONDS, last=index == len(plan) - 1)
                finally:
                    self.tracer.remove()
                self.windows.append((traced, ops, wall, self.close_window()))
                if traced:
                    after = self.counter_snapshot()
                    self.counters.update({k: after[k] - before[k] for k in after})
            self.out.values["rss_peak_mb"] = peak_rss_mb()
            await self.check()
            self.out.report("per_layer" if self.trace else "end_to_end")
        finally:
            await self.discard()
        scales = self.meter.scales
        self.out.notes.append(
            f"speed scale: median {statistics.median(scales):.3f}, range "
            f"{min(scales):.3f}-{max(scales):.3f} over {len(scales)} readings"
        )
        return self.out

    def record(self, name: str, seconds: float) -> None:
        """Keep one timing of the current window (untraced windows only)."""
        if not self.tracer.installed:
            self.window_samples[name].append(seconds)

    def close_window(self) -> float:
        """Read the speed meter; move the window's timings to the reference speed."""
        scale = self.meter.next_scale()
        for name, values in self.window_samples.items():
            self.raw_samples[name].extend(values)
            self.samples[name].extend(value * scale for value in values)
        self.window_samples.clear()
        return scale

    def timing_metrics(self, prefix: str) -> None:
        micros = [value * 1e6 for value in self.samples[prefix]]
        self.out.values[f"{prefix}_p50_us"] = percentile(micros, 50)
        self.out.values[f"{prefix}_p95_us"] = percentile(micros, 95)
        raw = [value * 1e6 for value in self.raw_samples[prefix]]
        self.out.notes.append(
            f"{prefix}: {len(micros)} samples, {samples_beyond(len(micros), 95)} beyond p95;"
            f" as measured p50 {percentile(raw, 50):.6g} p95 {percentile(raw, 95):.6g} us"
        )

    def ops_per_s(self, traced: bool, scaled: bool = True) -> float:
        """Ops per second over one kind of window, at the reference speed
        unless ``scaled`` is false."""
        ops = sum(o for t, o, _, _ in self.windows if t == traced)
        wall = sum(w * (s if scaled else 1.0) for t, _, w, s in self.windows if t == traced)
        return ops / wall

    def per_layer(self) -> Dict[str, float]:
        tracer = self.tracer
        spans = tracer.by_name()
        selfs = tracer.self_times()

        def durations(name: str) -> List[float]:
            return [end - start for _, _, start, end, _, _ in spans.get(name, ())]

        def mean_us(name: str) -> float:
            values = durations(name)
            return sum(values) / len(values) * 1e6 if values else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        requests = spans.get("frontend.estimate", [])
        kernels = spans.get("kde.selectivity_batch", [])
        first_kernel: Dict[int, float] = {}
        for _, _, start, _, parents, _ in kernels:
            for request in parents:
                first_kernel.setdefault(request, start)
        waits = [first_kernel[s[0]] - s[2] for s in requests if s[0] in first_kernel]
        frontend_self = sum(
            selfs[s[0]] for name in ("frontend.estimate", "frontend.plan")
            for s in spans.get(name, ())
        )
        plans = len(spans.get("optimizer.plan", ()))
        feedbacks = len(spans.get("server.feedback", ()))
        publish_seconds = sum(durations("publish.snapshot")) + sum(durations("publish.reader"))
        untraced = self.ops_per_s(False)
        values = {
            "frontend.requests": self.counters["requests"],
            "frontend.batches": self.counters["batches"],
            "frontend.coalescing": ratio(self.counters["answered"], self.counters["batches"]),
            "frontend.queue_wait_us": ratio(sum(waits), len(waits)) * 1e6,
            "frontend.self_us": ratio(frontend_self, len(requests)) * 1e6,
            "frontend.shed": self.counters["shed"],
            "kde.calls": len(kernels),
            "kde.queries": tracer.kernel_queries,
            "kde.us_per_query": ratio(sum(durations("kde.selectivity_batch")), tracer.kernel_queries) * 1e6,
            "kde.rows_per_query": ratio(tracer.rows_touched, tracer.kernel_queries),
            "server.feedback_us": mean_us("server.feedback"),
            "server.publishes": self.counters["publishes"],
            "server.publish_us": ratio(publish_seconds, self.counters["publishes"]) * 1e6,
            "server.publishes_per_feedback": ratio(self.counters["publishes"], feedbacks),
            "model.feedback_us": mean_us("model.feedback"),
            "model.points_replaced": self.counters["points_replaced"],
            "model.bandwidth_epochs": self.counters["bandwidth_epochs"],
            "optimizer.plan_us": mean_us("optimizer.plan"),
            "optimizer.base_us": ratio(sum(durations("optimizer.base")), plans) * 1e6,
            "optimizer.join_us": ratio(sum(durations("optimizer.join")), plans) * 1e6,
            "optimizer.nodes_priced": tracer.nodes_priced,
            "table.count_us": mean_us("table.count"),
            "table.ingest_us": ratio(
                sum(durations("table.delete_where")) + sum(durations("table.insert_many")),
                len(spans.get("table.delete_where", ())),
            ) * 1e6,
            "trace.overhead_pct": (untraced - self.ops_per_s(True)) / untraced * 100.0,
        }
        for metric in SPEC["per_layer"]:
            _, _, rung = metric["name"].partition("optimizer.rung.")
            if rung:
                values[metric["name"]] = tracer.rungs[rung]
        return values

    def frontend_counters(self) -> Dict[str, int]:
        stats = self.frontend.stats()
        return {
            "requests": stats.requests,
            "answered": stats.answered,
            "batches": stats.batches,
            "shed": stats.shed,
        }

    async def discard(self) -> None:
        if self.frontend is not None:
            await self.frontend.stop()
            self.frontend = None

    # Subclass hooks.
    async def setup(self) -> float: ...
    async def attach(self) -> None: ...
    def counter_snapshot(self) -> Dict[str, int]: ...
    async def window(self, length: float, last: bool) -> Tuple[int, float]: ...
    async def check(self) -> None: ...


class ServeWorkload(_Workload):
    """``serve-s512`` / ``serve-s16k``: read-only single-box traffic."""

    def __init__(self, sample_size: int, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(seed, seconds, trace)
        self.sample_size = sample_size
        self.table = Table(3, ["x", "y", "z"], initial_rows=inputs.serve_rows(seed))
        count = max(QERROR_PER_SESSION, int(math.ceil(seconds * SERVE_RATE_CAP)))
        self.streams = [inputs.serve_boxes(seed, session, count) for session in range(SESSIONS)]
        self.answers = [np.full(count, np.nan) for _ in range(SESSIONS)]
        self.cursor = [0] * SESSIONS
        self.warm = Box(*inputs.warmup_box(seed))
        self.server = None
        self.published = None
        self.writer = None
        #: (session, position, box, true selectivity) of the Q-error boxes,
        #: counted before any timing starts.
        self.truths = []
        for position in range(QERROR_PER_SESSION):
            for index, (low, high) in enumerate(self.streams):
                box = Box(low[position], high[position])
                self.truths.append((index, position, box, self.table.count(box) / len(self.table)))
        self.written = 0

    async def setup(self) -> float:
        started = perf_counter()
        sample = self.table.analyze(self.sample_size, seed=self.seed)
        model = SelfTuningKDE(
            sample, row_source=self.table, population_size=len(self.table), seed=self.seed
        )
        registry = ModelRegistry()
        server = registry.register(SERVE_KEY, model)
        frontend = EstimatorFrontend(registry)
        await frontend.start()
        value = await frontend.estimate(SERVE_KEY, self.warm)
        elapsed = perf_counter() - started
        self.frontend, self.server = frontend, server
        self.published = server.published
        state = self.published.state
        reference = eq13_reference(state.sample, state.bandwidth, self.warm.low, self.warm.high)[0]
        if _answer_faults(value, reference):
            self.out.problems.append(f"set-up answer {value!r} != reference {reference!r}")
        return elapsed

    async def attach(self) -> None:
        sample = self.table.analyze(self.sample_size, seed=self.seed)
        self.writer = SnapshotServer(
            SelfTuningKDE(
                sample, row_source=self.table, population_size=len(self.table), seed=self.seed
            )
        )

    def counter_snapshot(self) -> Dict[str, int]:
        return {
            **self.frontend_counters(),
            "publishes": self.server.publish_count,
            "points_replaced": self.server.model.points_replaced,
            "bandwidth_epochs": self.server.model.bandwidth_epoch,
        }

    async def window(self, length: float, last: bool) -> Tuple[int, float]:
        deadline = perf_counter() + length
        started = perf_counter()
        counts = await asyncio.gather(
            *(self._session(index, deadline, last) for index in range(SESSIONS))
        )
        wall = perf_counter() - started
        if not self.tracer.installed:
            self._write_burst()
        return sum(counts), wall

    def _write_burst(self) -> None:
        end = perf_counter() + WRITE_BURST_SECONDS
        while perf_counter() < end:
            _, _, box, truth = self.truths[self.written % len(self.truths)]
            self.written += 1
            self.out.attempted += 1
            started = perf_counter()
            try:
                self.writer.feedback(box, truth)
            except Exception as error:  # counted and reported, never fatal
                self.out.fail(["exception"])
                self.out.note_exception(error)
            else:
                self.record("feedback", perf_counter() - started)

    async def _session(self, index: int, deadline: float, last: bool) -> int:
        low, high = self.streams[index]
        answers = self.answers[index]
        position = start = self.cursor[index]
        frontend = self.frontend
        while position < len(low) and (
            perf_counter() < deadline or (last and position < QERROR_PER_SESSION)
        ):
            box = Box(low[position], high[position])
            started = perf_counter()
            try:
                value = await frontend.estimate(SERVE_KEY, box)
            except Overloaded:
                self.out.fail(["overloaded"])
            except Exception as error:  # counted and reported, never fatal
                self.out.fail(["exception"])
                self.out.note_exception(error)
            else:
                self.record("op", perf_counter() - started)
                answers[position] = value
            position += 1
        self.cursor[index] = position
        self.out.attempted += position - start
        return position - start

    async def check(self) -> None:
        out = self.out
        if self.server.published is not self.published:
            out.problems.append("published snapshot changed during a read-only workload")
        state = self.published.state
        for index in range(SESSIONS):
            count = self.cursor[index]
            low, high = self.streams[index]
            answers = self.answers[index][:count]
            answered = ~np.isnan(answers)
            reference = eq13_reference(state.sample, state.bandwidth, low[:count], high[:count])
            for value, expected in zip(answers[answered], reference[answered]):
                out.fail(_answer_faults(float(value), float(expected)))
        if self.trace:
            out.values = self.per_layer()
            return
        out.values["ops_per_s"] = self.ops_per_s(False)
        out.notes.append(f"ops_per_s as measured {self.ops_per_s(False, scaled=False):.6g}")
        self.timing_metrics("op")
        self.timing_metrics("feedback")
        rows = len(self.table)
        qerrors = [
            qerror(self.answers[index][position], truth, rows)
            for index, position, _, truth in self.truths
        ]
        out.values["qerror_p50"] = percentile(qerrors, 50)
        out.values["qerror_p95"] = percentile(qerrors, 95)


class PlanFeedbackWorkload(_Workload):
    """``plan-feedback``: plan pricing, feedback and ingest under drift."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(seed, seconds, trace)
        schema = inputs.star_schema(seed)
        self.tables = {"fact": Table(3, ["ka", "kb", "kc"], initial_rows=schema.fact)}
        for name in inputs.DIM_TABLES:
            self.tables[name] = Table(3, ["k", "u", "w"], initial_rows=schema.dims[name])
        self.max_steps = max(QERROR_STEPS, int(math.ceil(seconds * PLAN_RATE_CAP)))
        self.predicates = [
            {name: Box(low, high) for name, (low, high) in step.items()}
            for step in inputs.templates(seed, self.max_steps)
        ]
        self.blocks = [
            inputs.ingest_block(seed, block)
            for block in range(self.max_steps // inputs.INGEST_EVERY)
        ]
        self.step = 0
        self.servers: Dict[str, object] = {}
        self.qerrors: List[float] = []
        #: Per edge subject: the snapshots its reference was computed from, and it.
        self._edge_cache: Dict[str, Tuple[Tuple[object, object], float]] = {}
        #: Seconds the benchmark's own oracle and checks took inside windows.
        self.bench_seconds = 0.0

    def query(self, step: int) -> JoinQuery:
        return JoinQuery(tables=self.tables, predicates=self.predicates[step], joins=STAR_JOINS)

    async def setup(self) -> float:
        started = perf_counter()
        registry = ModelRegistry()
        servers = {}
        for index, (name, table) in enumerate(sorted(self.tables.items())):
            sample = table.analyze(PLAN_SAMPLE, seed=np.random.SeedSequence([self.seed, index]))
            model = SelfTuningKDE(
                sample,
                row_source=table,
                population_size=len(table),
                seed=np.random.SeedSequence([self.seed, 100 + index]),
            )
            servers[name] = registry.register(name, tuple(table.column_names), model)
        frontend = EstimatorFrontend(registry)
        await frontend.start()
        box = self.predicates[0]["dim_a"]
        value = await frontend.estimate(ModelKey.for_table("dim_a", ("k", "u", "w")), box)
        elapsed = perf_counter() - started
        self.frontend, self.servers = frontend, servers
        state = servers["dim_a"].published.state
        reference = eq13_reference(state.sample, state.bandwidth, box.low, box.high)[0]
        if _answer_faults(value, reference):
            self.out.problems.append(f"set-up answer {value!r} != reference {reference!r}")
        return elapsed

    async def attach(self) -> None:
        # Inserts and deletes reach each dimension model's reservoir.
        for name in inputs.DIM_TABLES:
            self.tables[name].add_listener(EstimatorTableBridge(self.servers[name].model))

    def counter_snapshot(self) -> Dict[str, int]:
        servers = [self.servers[name] for name in inputs.DIM_TABLES]
        return {
            **self.frontend_counters(),
            "publishes": sum(s.publish_count for s in servers),
            "points_replaced": sum(s.model.points_replaced for s in servers),
            "bandwidth_epochs": sum(s.model.bandwidth_epoch for s in servers),
        }

    def _plan_faults(self, estimate, published, step: int) -> List[str]:
        """Check one plan against the snapshots it was priced from."""
        if any(self.servers[name].published is not published[name] for name in self.tables):
            return ["mismatched"]  # no writer runs during the op
        faults = []
        if sorted(estimate.order) != sorted(self.tables):
            faults.append("invalid")
        if not all(math.isfinite(c) and c >= 0.0 for c in estimate.cardinalities):
            faults.append("invalid")
        for name in inputs.DIM_TABLES:
            box = self.predicates[step][name]
            state = published[name].state
            reference = eq13_reference(state.sample, state.bandwidth, box.low, box.high)[0]
            faults += _answer_faults(estimate.base_selectivities[name], reference)
        if not faults:
            faults += self._pricing_faults(estimate, published)
        return sorted(set(faults))

    def _edge_references(self, published) -> Dict[str, Tuple[Tuple[str, str], float]]:
        """Per star edge, its pricing subject, its tables and the reference
        joint-integral selectivity of the published snapshots.

        A reference is recomputed only when one of its snapshots changed.
        """
        references = {}
        for fact, fact_col, dim, dim_col in STAR_JOINS:
            ends = sorted(
                [
                    (fact, self.tables[fact].column_names[fact_col]),
                    (dim, self.tables[dim].column_names[dim_col]),
                ]
            )
            subject = "edge:" + "=".join(f"{table}.{column}" for table, column in ends)
            snapshots = (published[fact], published[dim])
            cached = self._edge_cache.get(subject)
            if cached is None or any(a is not b for a, b in zip(cached[0], snapshots)):
                left, right = snapshots[0].state, snapshots[1].state
                density = equi_join_reference(
                    left.sample[:, fact_col],
                    left.bandwidth[fact_col],
                    right.sample[:, dim_col],
                    right.bandwidth[dim_col],
                )
                cached = (snapshots, min(max(KEY_WIDTH * density, 0.0), 1.0))
                self._edge_cache[subject] = cached
            references[subject] = ((fact, dim), cached[1])
        return references

    def _pricing_faults(self, estimate, published) -> List[str]:
        """Check the joint-integral edge prices and the chosen join order.

        Each star edge must be priced once, by the ``joint-integral``
        rung, within RELATIVE_TOLERANCE of :func:`equi_join_reference`.
        The plan's node cardinalities and C_out cost are then re-derived
        from the checked base selectivities and the reference edge
        selectivities, and no left-deep order may cost less.
        """
        references = self._edge_references(published)
        priced = [r for r in estimate.pricing if r.subject.startswith("edge:")]
        if sorted(r.subject for r in priced) != sorted(references):
            return ["mismatched"]
        for record in priced:
            if record.rung != "joint-integral" or not _close(
                record.value, references[record.subject][1]
            ):
                return ["mismatched"]

        base = {
            name: len(table) * estimate.base_selectivities.get(name, 1.0)
            for name, table in self.tables.items()
        }

        def nodes(order) -> List[float]:
            cardinality = base[order[0]]
            joined = {order[0]}
            out = [cardinality]
            for table in order[1:]:
                cardinality *= base[table]
                for ends, selectivity in references.values():
                    if table in ends and joined & set(ends):
                        cardinality *= selectivity
                joined.add(table)
                out.append(cardinality)
            return out

        chosen = nodes(estimate.order)
        cheapest = min(sum(nodes(order)[1:]) for order in permutations(sorted(self.tables)))
        if not all(_close(a, b) for a, b in zip(estimate.cardinalities, chosen)) or not (
            _close(estimate.plan.cost, sum(chosen[1:]))
            and estimate.plan.cost <= cheapest * (1.0 + RELATIVE_TOLERANCE)
        ):
            return ["mismatched"]
        return []

    async def window(self, length: float, last: bool) -> Tuple[int, float]:
        deadline = perf_counter() + length
        started = perf_counter()
        bench_before = self.bench_seconds
        first = self.step
        while self.step < self.max_steps and (
            perf_counter() < deadline or (last and self.step < QERROR_STEPS)
        ):
            await self._step()
        wall = perf_counter() - started - (self.bench_seconds - bench_before)
        return self.step - first, wall

    async def _step(self) -> None:
        step = self.step
        self.step += 1
        self.out.attempted += 1
        query = self.query(step)
        published = {name: self.servers[name].published for name in self.tables}
        started = perf_counter()
        try:
            estimate = await self.frontend.plan_cardinalities(query)
        except Overloaded:
            self.out.fail(["overloaded"])
            return
        except Exception as error:  # counted and reported, never fatal
            self.out.fail(["exception"])
            self.out.note_exception(error)
            return
        self.record("op", perf_counter() - started)

        checked = perf_counter()
        faults = self._plan_faults(estimate, published, step)
        truths = {}
        for name in inputs.DIM_TABLES:
            table = self.tables[name]
            truths[name] = table.count(query.predicates[name]) / len(table)
            if step < QERROR_STEPS:
                self.qerrors.append(
                    qerror(estimate.base_selectivities[name], truths[name], len(table))
                )
        self.bench_seconds += perf_counter() - checked

        for name in inputs.DIM_TABLES:
            started = perf_counter()
            try:
                self.servers[name].feedback(query.predicates[name], truths[name])
            except Exception as error:  # counted and reported, never fatal
                faults.append("exception")
                self.out.note_exception(error)
            else:
                self.record("feedback", perf_counter() - started)
        if step % inputs.INGEST_EVERY == inputs.INGEST_EVERY - 1:
            self._ingest(step // inputs.INGEST_EVERY)
        self.out.fail(faults)

    def _ingest(self, block: int) -> None:
        for name, (first, stop, rows) in self.blocks[block].items():
            table = self.tables[name]
            table.delete_where(lambda r: (r[:, 0] >= first) & (r[:, 0] < stop))
            table.insert_many(rows)

    async def check(self) -> None:
        out = self.out
        if self.trace:
            out.values = self.per_layer()
            return
        out.values["ops_per_s"] = self.ops_per_s(False)
        out.notes.append(f"ops_per_s as measured {self.ops_per_s(False, scaled=False):.6g}")
        self.timing_metrics("op")
        self.timing_metrics("feedback")
        out.values["qerror_p50"] = percentile(self.qerrors, 50)
        out.values["qerror_p95"] = percentile(self.qerrors, 95)


def make(workload: str, seed: int, seconds: float, trace: bool) -> _Workload:
    if workload == "serve-s512":
        return ServeWorkload(512, seed, seconds, trace)
    if workload == "serve-s16k":
        return ServeWorkload(16384, seed, seconds, trace)
    if workload == "plan-feedback":
        return PlanFeedbackWorkload(seed, seconds, trace)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
