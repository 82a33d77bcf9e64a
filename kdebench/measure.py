"""Measurement helpers: percentiles, Q-error, the Eq. (13) reference, the
host fingerprint.

Nothing here imports ``repro``: the reference evaluation is written
independently of the program it checks.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.special import ndtr

#: Largest absolute gap allowed between a served answer and the reference
#: re-evaluation of the same snapshot.  Both sum the same Gaussian box
#: masses; they differ only in the CDF routine (erf versus ndtr) and in
#: summation order, which moves a selectivity by well under 1e-14.
ANSWER_TOLERANCE = 1e-12

#: Largest relative gap allowed between a priced join edge or plan node and
#: its reference.  Both sides sum the same terms in a different order and
#: chunking, which moves a sum of ~10^5 positive terms by well under 1e-12.
RELATIVE_TOLERANCE = 1e-9


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - math.ceil(pct / 100.0 * count)


def qerror(estimate: float, truth: float, rows: int) -> float:
    """max(est, true) / min(est, true), both floored at one tuple (1/N)."""
    if rows < 1:
        raise ValueError("rows must be at least 1")
    floor = 1.0 / rows
    est = max(float(estimate), floor)
    true = max(float(truth), floor)
    return max(est / true, true / est)


def eq13_reference(
    sample: np.ndarray,
    bandwidth: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    chunk_elements: int = 1 << 20,
) -> np.ndarray:
    """Exact Gaussian-kernel box selectivity, Eq. (13), for ``(q, d)`` boxes.

    The mean over sample points of the product over dimensions of
    ``Phi((high - x) / h) - Phi((low - x) / h)``, evaluated in query
    chunks of at most ``chunk_elements`` (query, point) pairs.
    """
    bandwidth = np.asarray(bandwidth, dtype=np.float64)
    points = np.asarray(sample, dtype=np.float64) / bandwidth
    low = np.atleast_2d(np.asarray(low, dtype=np.float64)) / bandwidth
    high = np.atleast_2d(np.asarray(high, dtype=np.float64)) / bandwidth
    out = np.empty(low.shape[0], dtype=np.float64)
    step = max(1, chunk_elements // points.shape[0])
    for start in range(0, low.shape[0], step):
        stop = min(low.shape[0], start + step)
        mass = np.ones((stop - start, points.shape[0]))
        for dim in range(points.shape[1]):
            column = points[None, :, dim]
            mass *= ndtr(high[start:stop, dim, None] - column) - ndtr(
                low[start:stop, dim, None] - column
            )
        out[start:stop] = mass.mean(axis=1)
    return out


def equi_join_reference(
    left_keys: np.ndarray,
    left_bandwidth: float,
    right_keys: np.ndarray,
    right_bandwidth: float,
) -> float:
    """Joint integral of two Gaussian KDEs over one join key.

    The mean over sample pairs ``(t, u)`` of the normal density
    ``N(t - u; 0, h^2 + g^2)``: the integral of the product of two
    Gaussian kernels centred on ``t`` and ``u``.
    """
    variance = float(left_bandwidth) ** 2 + float(right_bandwidth) ** 2
    terms = np.subtract.outer(
        np.asarray(left_keys, dtype=np.float64), np.asarray(right_keys, dtype=np.float64)
    )
    np.square(terms, out=terms)
    terms *= -0.5 / variance
    np.exp(terms, out=terms)
    return float(terms.mean()) / math.sqrt(2.0 * math.pi * variance)


#: Seconds the calibration kernel takes on an unloaded core of the 2-vCPU
#: Xeon VM the bounds were set on.  Timings are reported at this speed.
REFERENCE_SECONDS = 220e-6
_CALIBRATION_POINTS = np.linspace(-4.0, 4.0, 2048)


def calibration_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of a fixed interpreter-plus-ufunc kernel.

    The kernel mixes a pure-Python loop with Gaussian-CDF ufunc calls,
    the two kinds of work the workloads spend their time in.
    """
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        total = 0
        for value in range(1500):
            total += value * value
        for _ in range(6):
            ndtr(_CALIBRATION_POINTS).sum()
        best = min(best, perf_counter() - start)
    return best


class SpeedMeter:
    """Relates wall time on the host right now to the reference CPU speed.

    On the 2-vCPU Xeon VM the bounds were set on, CPU speed changed by up
    to 2x over tens of seconds, from load outside the VM that its steal
    time did not show.  Timing the
    calibration kernel before and after an interval gives that interval's
    scale, REFERENCE_SECONDS over the mean of the two readings; a time
    measured in the interval times the scale is the time at the
    reference speed.
    """

    def __init__(self) -> None:
        self._last = calibration_seconds()
        self.scales: List[float] = []

    def next_scale(self) -> float:
        """The scale for the interval since the previous reading."""
        now = calibration_seconds()
        scale = REFERENCE_SECONDS / ((self._last + now) / 2.0)
        self._last = now
        self.scales.append(scale)
        return scale


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (2^20 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> Optional[List[int]]:
    """Aggregate CPU jiffies from ``/proc/stat`` (None where unavailable)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(value) for value in fields[1:]]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of all CPU time the hypervisor stole between two readings."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    if total <= 0:
        return 0.0
    return (after[7] - before[7]) / total


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path, cpu_before, cpu_after) -> Dict[str, object]:
    """Host and code identity for one run (printed beside every result)."""
    import numpy
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    commit = _git_commit(root)
    try:
        load = os.getloadavg()
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "loadavg": load,
        "steal_share": steal_share(cpu_before, cpu_after),
        **({"commit": commit} if commit else {"source_digest": source_digest(root)}),
    }
