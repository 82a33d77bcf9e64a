"""Self-tests of the benchmark: ``python3 -m pytest kdebench -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kdebench import inputs
from kdebench.measure import (
    eq13_reference,
    equi_join_reference,
    percentile,
    qerror,
    samples_beyond,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_qerror_floors_both_sides_at_one_tuple():
    assert qerror(0.5, 0.25, 10) == 2.0
    assert qerror(0.25, 0.5, 10) == 2.0
    # Both below 1/N: both floored, so a perfect miss of nothing is 1.
    assert qerror(0.0, 0.0, 100) == 1.0
    assert qerror(1e-9, 0.0, 1000) == 1.0
    # One side floored: 0.05 against the 1/100 floor.
    assert qerror(0.0, 0.05, 100) == pytest.approx(5.0)
    assert qerror(0.002, 0.0, 1000) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        qerror(0.1, 0.1, 0)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([7], 95) == 7
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(100, 50) == 50
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def _input_bytes(seed: int) -> bytes:
    parts = [inputs.serve_rows(seed)]
    for session in range(2):
        parts.extend(inputs.serve_boxes(seed, session, 3000))
    parts.extend(inputs.warmup_box(seed))
    schema = inputs.star_schema(seed)
    parts.append(schema.fact)
    parts.extend(schema.dims[name] for name in inputs.DIM_TABLES)
    for step in inputs.templates(seed, 50):
        for name in inputs.DIM_TABLES:
            parts.extend(step[name])
    for block in range(3):
        for first, stop, rows in inputs.ingest_block(seed, block).values():
            parts.extend([np.array([first, stop]), rows])
    return b"".join(np.ascontiguousarray(part).tobytes() for part in parts)


def test_inputs_are_a_pure_function_of_the_seed():
    assert _input_bytes(7) == _input_bytes(7)
    assert _input_bytes(7) != _input_bytes(8)


def test_longer_runs_only_extend_the_streams():
    short_low, short_high = inputs.serve_boxes(3, 1, 100)
    long_low, long_high = inputs.serve_boxes(3, 1, 5000)
    assert np.array_equal(short_low, long_low[:100])
    assert np.array_equal(short_high, long_high[:100])
    assert [
        {name: [b.tolist() for b in box] for name, box in step.items()}
        for step in inputs.templates(3, 10)
    ] == [
        {name: [b.tolist() for b in box] for name, box in step.items()}
        for step in inputs.templates(3, 400)[:10]
    ]


def test_reference_matches_the_program_kernel():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import KernelDensityEstimator, scott_bandwidth
    from repro.geometry import QueryBatch

    rng = np.random.default_rng(0)
    sample = rng.normal(size=(300, 3))
    low = rng.normal(size=(40, 3))
    high = low + rng.uniform(0.1, 2.0, size=(40, 3))
    bandwidth = scott_bandwidth(sample)
    served = KernelDensityEstimator(sample, bandwidth).selectivity_batch(QueryBatch(low, high))
    np.testing.assert_allclose(
        eq13_reference(sample, bandwidth, low, high, chunk_elements=1000), served, rtol=0, atol=1e-13
    )


def test_join_reference_known_answer_and_program():
    # One point each, equal keys, h^2 + g^2 = 1: the standard normal density at 0.
    half = math.sqrt(0.5)
    assert equi_join_reference([0.0], half, [0.0], half) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )
    # Keys 1 apart: the density at 1.
    assert equi_join_reference([1.0], half, [0.0], half) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-15
    )

    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import KernelDensityEstimator, scott_bandwidth
    from repro.core.join import equi_join_density

    rng = np.random.default_rng(1)
    left = rng.integers(0, 500, size=(200, 3)).astype(float)
    right = rng.normal(250.0, 80.0, size=(300, 3))
    h, g = scott_bandwidth(left), scott_bandwidth(right)
    served = equi_join_density(
        KernelDensityEstimator(left, h), KernelDensityEstimator(right, g), [1], [0]
    )
    assert equi_join_reference(left[:, 1], h[1], right[:, 0], g[0]) == pytest.approx(
        served, rel=1e-12
    )


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "kdebench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_the_output_check(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(ROOT, workload, trace)
        assert result.returncode == 0, result.stderr[-2000:]
        final = json.loads(result.stdout.strip().splitlines()[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True
        assert final["failed"] == 0
        assert final["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
        assert {k: v["unit"] for k, v in final["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "kdebench", tmp_path / "kdebench",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    result = _run(tmp_path, "serve-s512", 0)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
