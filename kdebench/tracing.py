"""Traced mode: spans recorded around calls into each layer's public API.

:class:`Tracer` replaces public entry points of ``repro`` with timing
wrappers while it is installed and restores the originals when it is
removed; no program file changes.  A span is ``(id, name, start, end,
parent, request)``.  ``parent`` is the causing span's id, or a tuple of
request span ids for a kernel call that answered a coalesced batch.
Request spans are the front end's per-request estimates; the kernel call
finds the requests it serves by their box bounds (every in-flight box is
distinct in these workloads).

Spans stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: Span name -> the ``repro`` module whose public function it times.
LAYERS = {
    "frontend.estimate": "serve.frontend",
    "frontend.plan": "serve.frontend",
    "kde.selectivity_batch": "core.estimator",
    "server.feedback": "serve.server",
    "publish.snapshot": "serve.server",
    "publish.reader": "serve.server",
    "model.feedback": "core.model",
    "optimizer.plan": "db.optimizer",
    "optimizer.base": "db.optimizer",
    "optimizer.join": "db.optimizer",
    "table.count": "db.table",
    "table.delete_where": "db.table",
    "table.insert_many": "db.table",
}

Span = Tuple[int, str, float, float, object, Optional[int]]


def _box_key(low, high) -> bytes:
    return low.tobytes() + high.tobytes()


class Tracer:
    """Installs span-recording wrappers; computes self time per span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Span id of the plan operation in flight; the parent of spans
        #: opened on executor threads, which have no span stack of their own.
        self._ambient: Optional[int] = None
        self._inflight: Dict[bytes, int] = {}
        self._originals: List[Tuple[object, str, object]] = []
        #: Queries the traced kernel calls answered, and the sample rows they
        #: touched by the backend's own counters.
        self.kernel_queries = 0
        self.rows_touched = 0
        self.rungs: Counter = Counter()
        self.nodes_priced = 0

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from repro.core import KernelDensityEstimator, SelfTuningKDE
        from repro.db import Table
        from repro.db import optimizer
        from repro.serve import EstimatorFrontend, SnapshotServer

        if self._originals:
            return
        self._patch(EstimatorFrontend, "estimate", self._wrap_request)
        self._patch(EstimatorFrontend, "plan_cardinalities", self._wrap_plan)
        self._patch(KernelDensityEstimator, "selectivity_batch", self._wrap_kernel)
        self._patch(SnapshotServer, "feedback", self._span("server.feedback"))
        self._patch(SelfTuningKDE, "feedback", self._span("model.feedback"))
        self._patch(SelfTuningKDE, "snapshot", self._span("publish.snapshot"))
        self._patch(
            KernelDensityEstimator,
            "from_state",
            lambda fn: classmethod(self._span("publish.reader")(fn.__func__)),
        )
        self._patch(optimizer, "optimize_join_order", self._wrap_optimizer)
        self._patch(
            optimizer.RegistryCostModel, "base_cardinality", self._span("optimizer.base")
        )
        self._patch(
            optimizer.RegistryCostModel, "join_selectivity", self._span("optimizer.join")
        )
        self._patch(Table, "count", self._span("table.count"))
        self._patch(Table, "delete_where", self._span("table.delete_where"))
        self._patch(Table, "insert_many", self._span("table.insert_many"))

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def remove(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrap) -> None:
        original = vars(owner)[name]
        self._originals.append((owner, name, original))
        setattr(owner, name, wrap(original))

    # -- wrappers ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack()
                parent = stack[-1] if stack else self._ambient
                span_id = next(self._ids)
                stack.append(span_id)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    self.spans.append((span_id, name, start, end, parent, None))

            return wrapper

        return wrap

    def _wrap_request(self, fn):
        from repro.geometry import Box

        @functools.wraps(fn)
        async def wrapper(frontend, *args, **kwargs):
            box = next(a for a in (*args, *kwargs.values()) if isinstance(a, Box))
            key = _box_key(box.low, box.high)
            span_id = next(self._ids)
            parent = self._ambient
            self._inflight[key] = span_id
            start = perf_counter()
            try:
                return await fn(frontend, *args, **kwargs)
            finally:
                end = perf_counter()
                self._inflight.pop(key, None)
                self.spans.append(
                    (span_id, "frontend.estimate", start, end, parent, span_id)
                )

        return wrapper

    def _wrap_plan(self, fn):
        @functools.wraps(fn)
        async def wrapper(frontend, *args, **kwargs):
            span_id = next(self._ids)
            self._ambient = span_id
            start = perf_counter()
            try:
                return await fn(frontend, *args, **kwargs)
            finally:
                end = perf_counter()
                self._ambient = None
                self.spans.append((span_id, "frontend.plan", start, end, None, span_id))

        return wrapper

    def _wrap_kernel(self, fn):
        @functools.wraps(fn)
        def wrapper(estimator, queries, *args, **kwargs):
            low = getattr(queries, "low", None)
            high = getattr(queries, "high", None)
            requests: Tuple[int, ...] = ()
            if low is not None:
                requests = tuple(
                    span
                    for span in (
                        self._inflight.get(_box_key(low[i], high[i]))
                        for i in range(low.shape[0])
                    )
                    if span is not None
                )
            stats = estimator.backend.stats
            rows = stats.rows_touched
            span_id = next(self._ids)
            start = perf_counter()
            try:
                return fn(estimator, queries, *args, **kwargs)
            finally:
                end = perf_counter()
                self.kernel_queries += len(queries)
                self.rows_touched += stats.rows_touched - rows
                self.spans.append(
                    (span_id, "kde.selectivity_batch", start, end, requests, None)
                )

        return wrapper

    def _wrap_optimizer(self, fn):
        timed = self._span("optimizer.plan")(fn)

        @functools.wraps(fn)
        def wrapper(query, model, *args, **kwargs):
            plan = timed(query, model, *args, **kwargs)
            rung_counts = getattr(model, "rung_counts", None)
            if rung_counts is not None:
                self.rungs.update(rung_counts())
                self.nodes_priced += len(model.pricing)
            return plan

        return wrapper

    # -- analysis -------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if isinstance(parent, tuple):
                for request in parent:
                    children[request].append((start, end))
            elif parent is not None:
                children[parent].append((start, end))
        out = {}
        for span_id, _, start, end, _, _ in self.spans:
            out[span_id] = (end - start) - _covered(start, end, children.get(span_id, ()))
        return out

    def by_name(self) -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span[1]].append(span)
        return grouped

    def layer_table(self) -> str:
        """Per-layer self-time table (one row per span name)."""
        selfs = self.self_times()
        rows = [
            f"{'layer':<16}{'span':<24}{'count':>9}{'total_ms':>12}"
            f"{'self_ms':>12}{'self_us/span':>14}"
        ]
        for name, spans in sorted(self.by_name().items(), key=lambda kv: LAYERS[kv[0]]):
            total = sum(end - start for _, _, start, end, _, _ in spans)
            own = sum(selfs[span[0]] for span in spans)
            rows.append(
                f"{LAYERS[name]:<16}{name:<24}{len(spans):>9}{total * 1e3:>12.1f}"
                f"{own * 1e3:>12.1f}{own / len(spans) * 1e6:>14.1f}"
            )
        return "\n".join(rows)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": list(parent) if isinstance(parent, tuple) else parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
