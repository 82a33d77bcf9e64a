"""Chunk-budget policy: override precedence and result invariance."""

import numpy as np
import pytest

from repro.core import (
    KernelDensityEstimator,
    get_chunk_budget,
    scott_bandwidth,
    set_chunk_budget,
)
from repro.core import chunking
from repro.geometry import QueryBatch


@pytest.fixture(autouse=True)
def _restore_budget():
    chunking.detect_l2_cache_bytes.cache_clear()
    yield
    set_chunk_budget(None)
    chunking.detect_l2_cache_bytes.cache_clear()


class TestPolicy:
    def test_default_within_clamp(self):
        budget = chunking.default_chunk_budget()
        assert chunking._MIN_BUDGET <= budget <= chunking._MAX_BUDGET

    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv(chunking.ENV_VAR, "999")
        set_chunk_budget(123)
        assert get_chunk_budget() == 123

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(chunking.ENV_VAR, "4096")
        assert get_chunk_budget() == 4096

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(chunking.ENV_VAR, "not-a-number")
        with pytest.raises(ValueError, match="positive integer"):
            get_chunk_budget()

    def test_env_nonpositive_raises(self, monkeypatch):
        monkeypatch.setenv(chunking.ENV_VAR, "-5")
        with pytest.raises(ValueError, match="positive"):
            get_chunk_budget()

    def test_set_none_restores_default(self, monkeypatch):
        monkeypatch.delenv(chunking.ENV_VAR, raising=False)
        set_chunk_budget(17)
        set_chunk_budget(None)
        assert get_chunk_budget() == chunking.default_chunk_budget()

    def test_set_nonpositive_raises(self):
        with pytest.raises(ValueError, match="positive"):
            set_chunk_budget(0)

    def test_l2_probe_runs_once(self, monkeypatch):
        """After the first call the sysfs probe is never repeated, yet
        the explicit and environment overrides still win on every call."""
        monkeypatch.delenv(chunking.ENV_VAR, raising=False)
        budget = get_chunk_budget()

        def unavailable(*args, **kwargs):
            raise AssertionError("L2 probe ran again")

        monkeypatch.setattr(chunking.os, "listdir", unavailable)
        monkeypatch.setattr(chunking, "open", unavailable, raising=False)
        assert get_chunk_budget() == budget
        assert chunking.default_chunk_budget() == budget
        set_chunk_budget(321)
        assert get_chunk_budget() == 321
        set_chunk_budget(None)
        monkeypatch.setenv(chunking.ENV_VAR, "4096")
        assert get_chunk_budget() == 4096
        monkeypatch.delenv(chunking.ENV_VAR)
        assert get_chunk_budget() == budget

    def test_l2_detection_type(self):
        l2 = chunking.detect_l2_cache_bytes()
        assert l2 is None or (isinstance(l2, int) and l2 > 0)


class TestInvariance:
    """Chunk size is a performance knob: results must be identical."""

    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(3)
        sample = rng.normal(size=(200, 3))
        kde = KernelDensityEstimator(sample, scott_bandwidth(sample))
        lows = rng.uniform(-2, 0, size=(40, 3))
        batch = QueryBatch(lows, lows + rng.uniform(0.5, 2, size=(40, 3)))
        return kde, batch, rng.normal(size=(30, 3))

    @pytest.mark.parametrize("budget", [1, 7, 10_000])
    def test_selectivity_batch_invariant(self, setup, budget):
        kde, batch, _ = setup
        expected = kde.selectivity_batch(batch)
        set_chunk_budget(budget)
        np.testing.assert_array_equal(kde.selectivity_batch(batch), expected)

    @pytest.mark.parametrize("budget", [1, 7])
    def test_gradient_batch_invariant(self, setup, budget):
        kde, batch, _ = setup
        expected = kde.selectivity_gradient_batch(batch)
        set_chunk_budget(budget)
        np.testing.assert_array_equal(
            kde.selectivity_gradient_batch(batch), expected
        )

    @pytest.mark.parametrize("budget", [1, 7])
    def test_density_invariant(self, setup, budget):
        kde, _, points = setup
        expected = kde.density(points)
        set_chunk_budget(budget)
        np.testing.assert_array_equal(kde.density(points), expected)

    def test_legacy_module_constant_still_honoured(self, setup):
        """tests monkeypatch ``_BATCH_ELEMENT_BUDGET``; it must keep
        overriding the policy when set (backwards compatibility)."""
        from repro.core import estimator as estimator_module

        kde, batch, _ = setup
        expected = kde.selectivity_batch(batch)
        old = estimator_module._BATCH_ELEMENT_BUDGET
        try:
            estimator_module._BATCH_ELEMENT_BUDGET = 1
            np.testing.assert_array_equal(
                kde.selectivity_batch(batch), expected
            )
            assert kde._batch_chunk() == 1
        finally:
            estimator_module._BATCH_ELEMENT_BUDGET = old
