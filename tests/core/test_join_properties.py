"""Property tests for the closed-form join integrals.

Two analytic invariants of the Gaussian joint-integral machinery:

1. **Equality limit**: as ``epsilon -> 0`` the band-join selectivity
   ``P(|X - Y| <= eps)`` converges to ``equi_join_density * 2 eps``
   (band width), since the difference density is continuous — the
   relation the optimizer's joint-integral pricing rung relies on when
   it converts a density into an equi-join selectivity via
   ``key_width``.

2. **Monte-Carlo equivalence**: the closed form equals the probability
   it claims to integrate.  Drawing ``X`` from the left KDE's mixture
   and ``Y`` from the right's, the empirical rate of ``|X - Y| <= eps``
   matches ``band_join_selectivity`` within sampling error.
"""

import numpy as np
import pytest

from repro.core import KernelDensityEstimator, scott_bandwidth
from repro.core.chunking import get_chunk_budget, set_chunk_budget
from repro.core.join import band_join_selectivity, equi_join_density
from repro.core.kernels import GaussianKernel


def make_pair(seed=0, s_left=256, s_right=192):
    rng = np.random.default_rng(seed)
    left = rng.normal(0.0, 1.0, size=(s_left, 2))
    right = np.column_stack(
        [rng.normal(0.4, 1.3, s_right), rng.normal(size=s_right)]
    )
    kde_l = KernelDensityEstimator(left, scott_bandwidth(left))
    kde_r = KernelDensityEstimator(right, scott_bandwidth(right))
    return kde_l, kde_r


class TestEqualityLimit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_band_converges_to_density_times_width(self, seed):
        """band(eps) / (2 eps) -> equi_join_density as eps -> 0, and the
        approximation error shrinks monotonically (to first order)."""
        kde_l, kde_r = make_pair(seed)
        density = equi_join_density(kde_l, kde_r, [0], [0])
        errors = []
        for epsilon in (0.5, 0.1, 0.02, 0.004):
            band = band_join_selectivity(kde_l, kde_r, [0], [0], epsilon)
            errors.append(abs(band / (2.0 * epsilon) - density))
        # Tightest band is within 0.1% of the density...
        assert errors[-1] <= 1e-3 * density
        # ...and halving epsilon never makes the approximation worse.
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_multikey_limit(self):
        """The limit holds per key dimension: with two join keys the
        band selectivity approaches density * (2 eps)^2."""
        kde_l, kde_r = make_pair(3)
        density = equi_join_density(kde_l, kde_r, [0, 1], [0, 1])
        epsilon = 0.005
        band = band_join_selectivity(
            kde_l, kde_r, [0, 1], [0, 1], epsilon
        )
        assert band / (2.0 * epsilon) ** 2 == pytest.approx(
            density, rel=1e-2
        )


class TestMonteCarloEquivalence:
    def _sample_mixture(self, kde, count, rng):
        """Draw from the KDE's Gaussian mixture: pick a sample point,
        add bandwidth-scaled noise."""
        picks = rng.integers(0, kde.sample.shape[0], count)
        noise = rng.normal(size=(count, kde.dimensions)) * kde.bandwidth
        return kde.sample[picks] + noise

    @pytest.mark.parametrize("epsilon", [0.05, 0.2])
    def test_closed_form_matches_direct_sampling(self, epsilon):
        kde_l, kde_r = make_pair(7)
        closed = band_join_selectivity(kde_l, kde_r, [0], [0], epsilon)

        rng = np.random.default_rng(42)
        draws = 200_000
        x = self._sample_mixture(kde_l, draws, rng)[:, 0]
        y = self._sample_mixture(kde_r, draws, rng)[:, 0]
        empirical = float(np.mean(np.abs(x - y) <= epsilon))

        # Monte-Carlo standard error of a Bernoulli rate.
        stderr = np.sqrt(max(empirical * (1 - empirical), 1e-12) / draws)
        assert closed == pytest.approx(empirical, abs=5 * stderr + 1e-4)


class TestChunkBudgetInvariance:
    def test_results_identical_across_budgets(self):
        """The chunking policy changes traversal order only — the
        selectivity and density must be bit-stable across budgets."""
        kde_l, kde_r = make_pair(9)
        previous = get_chunk_budget()
        try:
            set_chunk_budget(previous)
            band_ref = band_join_selectivity(kde_l, kde_r, [0], [0], 0.1)
            density_ref = equi_join_density(kde_l, kde_r, [0], [0])
            for budget in (1, 37, 4096):
                set_chunk_budget(budget)
                assert band_join_selectivity(
                    kde_l, kde_r, [0], [0], 0.1
                ) == pytest.approx(band_ref, rel=1e-12)
                assert equi_join_density(
                    kde_l, kde_r, [0], [0]
                ) == pytest.approx(density_ref, rel=1e-12)
        finally:
            set_chunk_budget(previous)


def _reference_band(left, right, left_keys, right_keys, epsilon):
    """The outer-product band-join formula the blocked kernel replaced."""
    cdf = GaussianKernel().cdf
    t = left.sample[:, left_keys]
    u = right.sample[:, right_keys]
    sigma = np.sqrt(
        left.bandwidth[left_keys] ** 2 + right.bandwidth[right_keys] ** 2
    )
    pair = np.ones((t.shape[0], u.shape[0]))
    for k in range(len(left_keys)):
        delta = t[:, k, None] - u[None, :, k]
        pair *= cdf((epsilon - delta) / sigma[k]) - cdf(
            (-epsilon - delta) / sigma[k]
        )
    return pair.sum() / pair.size


def _reference_density(left, right, left_keys, right_keys):
    """The outer-product joint-integral formula the blocked kernel replaced."""
    t = left.sample[:, left_keys]
    u = right.sample[:, right_keys]
    variance = (
        left.bandwidth[left_keys] ** 2 + right.bandwidth[right_keys] ** 2
    )
    log_norm = -0.5 * len(left_keys) * np.log(2.0 * np.pi) - 0.5 * np.log(
        variance
    ).sum()
    exponent = np.zeros((t.shape[0], u.shape[0]))
    for k in range(len(left_keys)):
        delta = t[:, k, None] - u[None, :, k]
        exponent -= delta * delta / (2.0 * variance[k])
    return np.exp(exponent + log_norm).sum() / exponent.size


class TestBlockedPairKernels:
    """The cache-blocked pair kernels equal the outer-product formulas to
    float64 accuracy, whatever the block size and however the last block
    is cut."""

    @pytest.fixture(scope="class")
    def pair(self):
        return make_pair(11, s_left=509, s_right=517)

    @pytest.fixture(params=[1, 37, None], ids=["b1", "b37", "default"])
    def budget(self, request):
        set_chunk_budget(request.param)
        yield request.param
        set_chunk_budget(None)

    @pytest.mark.parametrize("keys", [[0], [0, 1]], ids=["1key", "2keys"])
    def test_equi_join_density(self, pair, budget, keys):
        kde_l, kde_r = pair
        assert equi_join_density(kde_l, kde_r, keys, keys) == pytest.approx(
            _reference_density(kde_l, kde_r, keys, keys), rel=1e-12
        )

    @pytest.mark.parametrize("epsilon", [0.05, 1.0])
    @pytest.mark.parametrize("keys", [[0], [0, 1]], ids=["1key", "2keys"])
    def test_band_join_selectivity(self, pair, budget, keys, epsilon):
        kde_l, kde_r = pair
        assert band_join_selectivity(
            kde_l, kde_r, keys, keys, epsilon
        ) == pytest.approx(
            _reference_band(kde_l, kde_r, keys, keys, epsilon), rel=1e-12
        )
