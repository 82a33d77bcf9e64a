"""Chunk-budget policy for the memory-bounded evaluation paths.

The batched estimation kernels of :mod:`repro.core.estimator`, its
``density()`` and the pair kernels of :mod:`repro.core.join` never
materialise a full pairwise intermediate: they walk their input in
chunks sized so each float64 working block stays cache-resident.  This
module is the one tunable budget they all share, so execution backends
and benchmarks can adjust chunking without editing source.

Resolution order, on every call:

1. an explicit :func:`set_chunk_budget` call,
2. the ``REPRO_CHUNK_BUDGET`` environment variable (elements),
3. an L2-cache-derived default: ``l2_bytes // 16`` elements, i.e. two
   float64 working blocks per L2 slice (the running product and the
   incoming per-dimension masses), read from sysfs on Linux and falling
   back to a 2 MiB L2 (which yields ``131_072``).  The sysfs probe runs
   once per process.

Chunk sizes never change results beyond summation order — every chunked
path computes each row independently and reduces along the sample axis
only — so this is purely a performance knob.
"""

from __future__ import annotations

import functools
import os
from typing import Optional

__all__ = [
    "default_chunk_budget",
    "detect_l2_cache_bytes",
    "get_chunk_budget",
    "set_chunk_budget",
]

#: Environment override (chunk budget, in float64 elements).
ENV_VAR = "REPRO_CHUNK_BUDGET"

#: Fallback L2 size when the platform exposes no cache topology.
_FALLBACK_L2_BYTES = 2 * 1024 * 1024

#: Clamp for derived defaults, so exotic cache reports cannot produce
#: degenerate (chunk == 1) or memory-hostile budgets.
_MIN_BUDGET = 16_384
_MAX_BUDGET = 8_388_608

_override: Optional[int] = None


@functools.lru_cache(maxsize=None)
def detect_l2_cache_bytes() -> Optional[int]:
    """Best-effort L2 data-cache size in bytes (``None`` when unknown).

    Memoised: the sysfs probe runs once per process.
    """
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        indexes = sorted(os.listdir(base))
    except OSError:
        return None
    for index in indexes:
        if not index.startswith("index"):
            continue
        try:
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            if level != "2":
                continue
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        try:
            if size.endswith("K"):
                return int(size[:-1]) * 1024
            if size.endswith("M"):
                return int(size[:-1]) * 1024 * 1024
            return int(size)
        except ValueError:
            continue
    return None


def default_chunk_budget() -> int:
    """The L2-derived (or fallback) chunk budget, in elements."""
    l2 = detect_l2_cache_bytes() or _FALLBACK_L2_BYTES
    return int(min(_MAX_BUDGET, max(_MIN_BUDGET, l2 // 16)))


def get_chunk_budget() -> int:
    """Current chunk budget (float64 elements per working block)."""
    if _override is not None:
        return _override
    env = os.environ.get(ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{ENV_VAR} must be a positive integer, got {env!r}"
            )
        if value <= 0:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return default_chunk_budget()


def set_chunk_budget(elements: Optional[int]) -> None:
    """Override the chunk budget process-wide; ``None`` restores defaults.

    The value is the soft cap on the float64 element count of one
    working block of every chunked path.
    """
    global _override
    if elements is None:
        _override = None
        return
    elements = int(elements)
    if elements <= 0:
        raise ValueError("chunk budget must be a positive element count")
    _override = elements
