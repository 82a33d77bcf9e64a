"""Benchmark inputs, each a pure function of the seed.

Generated here rather than by ``repro.workloads`` so that a change to the
program's own generators cannot move the benchmark.  Every stream draws
from ``numpy.random.default_rng([seed, stream, ...])``, so inputs for one
purpose never shift when another purpose draws more numbers, and longer
runs only extend a stream (block ``j`` of a stream does not depend on how
many blocks are drawn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

DIMENSIONS = 3

# -- serve-* ------------------------------------------------------------
#: Rows of the table behind both serve workloads: 256x the s=512 sample,
#: 8x the s=16384 one.
SERVE_ROWS = 1 << 17
#: Boxes per independently seeded block of a session's request stream.
BOX_BLOCK = 2048

# Three correlated Gaussian clusters in d=3.
_MEANS = np.array([[0.0, 0.0, 0.0], [2.5, -1.5, 1.0], [-2.0, 2.0, -1.5]])
_WEIGHTS = np.array([0.5, 0.3, 0.2])
_SCALES = np.array([1.0, 0.6, 0.8])
_CORRELATION = np.array([[1.0, 0.8, 0.5], [0.8, 1.0, 0.6], [0.5, 0.6, 1.0]])
_CHOLESKY = np.linalg.cholesky(_CORRELATION)

# -- plan-feedback ------------------------------------------------------
#: Rows per dimension table: 16x the 512-row model sample.
DIM_ROWS = 1 << 13
FACT_ROWS = 1 << 16
DIM_TABLES = ("dim_a", "dim_b", "dim_c")
#: An insert/delete block lands after every INGEST_EVERY plan steps ...
INGEST_EVERY = 8
#: ... and replaces BLOCK_ROWS rows of every dimension table.
BLOCK_ROWS = 128
#: Blocks per full cycle of the drifting (u, w) correlation.
DRIFT_PERIOD = 96
#: Plan steps per cycle of a predicate constant's drift.
TEMPLATE_PERIOD = 40

_STREAM_TABLE = 1
_STREAM_BOXES = 2
_STREAM_WARMUP = 3
_STREAM_DIMS = 4
_STREAM_INGEST = 5
_STREAM_TEMPLATES = 6


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def _cluster_points(rng: np.random.Generator, count: int) -> np.ndarray:
    cluster = rng.choice(len(_WEIGHTS), size=count, p=_WEIGHTS)
    noise = rng.standard_normal((count, DIMENSIONS)) @ _CHOLESKY.T
    return _MEANS[cluster] + noise * _SCALES[cluster, None]


def serve_rows(seed: int) -> np.ndarray:
    """``(SERVE_ROWS, 3)`` rows of the serve table."""
    return _cluster_points(_rng(seed, _STREAM_TABLE), SERVE_ROWS)


def _boxes(rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
    centres = _cluster_points(rng, count)
    half = np.exp(rng.uniform(np.log(0.25), np.log(1.2), (count, DIMENSIONS)))
    return centres - half, centres + half


def serve_boxes(seed: int, session: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first ``count`` boxes of one session's request stream."""
    blocks = [
        _boxes(_rng(seed, _STREAM_BOXES, session, block), BOX_BLOCK)
        for block in range(math.ceil(count / BOX_BLOCK))
    ]
    low = np.concatenate([b[0] for b in blocks])[:count]
    high = np.concatenate([b[1] for b in blocks])[:count]
    return low, high


def warmup_box(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The box set-up answers first; it is not part of any session stream."""
    low, high = _boxes(_rng(seed, _STREAM_WARMUP), 1)
    return low[0], high[0]


def _correlation(table: str, block: float) -> float:
    """The (u, w) correlation that rows inserted by ``block`` follow.

    ``dim_a`` swings from -0.9 to +0.9 and back, ``dim_b`` the other way,
    and ``dim_c`` is the control that keeps 0.5 throughout.
    """
    phase = math.cos(2.0 * math.pi * block / DRIFT_PERIOD)
    return {"dim_a": -0.9 * phase, "dim_b": 0.9 * phase, "dim_c": 0.5}[table]


def _dim_payload(rng: np.random.Generator, count: int, rho: float) -> np.ndarray:
    u = rng.standard_normal(count)
    w = rho * u + math.sqrt(1.0 - rho * rho) * rng.standard_normal(count)
    return np.column_stack([u, w])


@dataclass(frozen=True)
class StarSchema:
    """Initial contents of the star query's tables (columns k, u, w)."""

    fact: np.ndarray
    dims: Dict[str, np.ndarray]


def star_schema(seed: int) -> StarSchema:
    rng = _rng(seed, _STREAM_DIMS)
    dims = {}
    for table in DIM_TABLES:
        keys = np.arange(float(DIM_ROWS))
        dims[table] = np.column_stack(
            [keys, _dim_payload(rng, DIM_ROWS, _correlation(table, 0))]
        )
    fact = rng.integers(0, DIM_ROWS, (FACT_ROWS, DIMENSIONS)).astype(float)
    return StarSchema(fact=fact, dims=dims)


def ingest_block(seed: int, block: int) -> Dict[str, Tuple[float, float, np.ndarray]]:
    """Block ``block``: per table, the key range it deletes and the rows it
    inserts in their place (same keys, the drifted correlation)."""
    rng = _rng(seed, _STREAM_INGEST, block)
    first = float((block * BLOCK_ROWS) % DIM_ROWS)
    keys = first + np.arange(float(BLOCK_ROWS))
    out = {}
    for table in DIM_TABLES:
        payload = _dim_payload(rng, BLOCK_ROWS, _correlation(table, block + 1))
        out[table] = (first, first + BLOCK_ROWS, np.column_stack([keys, payload]))
    return out


# Per table: the lower bounds on (u, w) each template starts from, and the
# phases of their drift.  The upper bounds stay at 6 sigma, and the key
# column is unconstrained.
_TEMPLATE_BASE = {"dim_a": (0.0, 0.0), "dim_b": (0.5, 0.5), "dim_c": (-0.5, 0.0)}
_TEMPLATE_PHASE = {"dim_a": (0.0, 2.0), "dim_b": (1.0, 3.0), "dim_c": (4.0, 5.0)}


def templates(seed: int, steps: int) -> List[Dict[str, Tuple[np.ndarray, np.ndarray]]]:
    """Per step, each dimension table's predicate box over (k, u, w).

    The constants drift along a sine of period TEMPLATE_PERIOD steps, take
    a seeded jitter, and are rounded to 0.1, so predicates repeat as
    templates with recurring constants.
    """
    rng = _rng(seed, _STREAM_TEMPLATES)
    jitter = rng.normal(0.0, 0.1, (steps, len(DIM_TABLES), 2))
    out = []
    for step in range(steps):
        boxes = {}
        for index, table in enumerate(DIM_TABLES):
            cu, cw = (
                round(base + 0.5 * math.sin(2.0 * math.pi * step / TEMPLATE_PERIOD + phase) + noise, 1)
                for base, phase, noise in zip(
                    _TEMPLATE_BASE[table], _TEMPLATE_PHASE[table], jitter[step, index]
                )
            )
            boxes[table] = (
                np.array([-1.0, cu, cw]),
                np.array([float(DIM_ROWS), 6.0, 6.0]),
            )
        out.append(boxes)
    return out
