"""Join selectivity estimation with KDE models (Section 8, future work).

The paper sketches two routes to join cardinalities and this module
implements both:

1. **PK-FK joins** — "build the estimator based on a sample collected
   directly from the join result".  :mod:`repro.db.join` materialises
   such samples; any :class:`~repro.core.estimator.KernelDensityEstimator`
   over them then answers post-join range predicates directly.

2. **Theta joins via a joint integral** — "express join selectivities by
   a joint integral over the two estimators".  For Gaussian product
   kernels the integral has a closed form.  With ``X`` drawn from model
   ``R`` (kernel centred at ``t_i``, bandwidth ``h``) and ``Y`` from
   model ``S`` (centre ``u_j``, bandwidth ``g``), the difference on a
   join-key dimension is again normal:

   .. math::
       X_k - Y_k \\sim \\mathcal{N}(t_{ik} - u_{jk},\\; h_k^2 + g_k^2)

   so the *band join* ``|R.a - S.b| <= eps`` (with equality the
   ``eps -> 0`` limit) integrates to differences of normal CDFs, summed
   over all sample-point pairs — an :math:`O(s_R \\cdot s_S)` kernel that
   parallelises exactly like the paper's range kernels.

The equality-join *density* :math:`\\int p_R(x) p_S(x)\\,dx` is also
provided: it is the factor by which the true join size exceeds the
independence (cross-product-scaled) estimate on a discretised domain,
and the quantity the paper's joint-integral formulation reduces to.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple, Union

import numpy as np
from scipy.special import erf

from .chunking import get_chunk_budget
from .estimator import KernelDensityEstimator
from .kernels import GaussianKernel

__all__ = [
    "band_join_selectivity",
    "equi_join_density",
    "independence_band_join_selectivity",
]


def _scaled_join_keys(
    left: KernelDensityEstimator,
    right: KernelDensityEstimator,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a join; return both key columns times ``1/sqrt(2(h^2+g^2))``
    and that per-key scale.

    In scaled units a key difference ``x`` enters the Gaussian pair
    density as ``exp(-x^2)`` and the normal CDF as ``erf``, so the pair
    kernels need no per-pair division.
    """
    left_keys = np.asarray(left_keys, dtype=np.intp)
    right_keys = np.asarray(right_keys, dtype=np.intp)
    if left_keys.size == 0 or left_keys.size != right_keys.size:
        raise ValueError("join requires equal, non-empty key column lists")
    if left_keys.min() < 0 or left_keys.max() >= left.dimensions:
        raise ValueError("left key column out of range")
    if right_keys.min() < 0 or right_keys.max() >= right.dimensions:
        raise ValueError("right key column out of range")
    if not isinstance(left.kernel, GaussianKernel) or not isinstance(
        right.kernel, GaussianKernel
    ):
        raise ValueError(
            "closed-form join integrals require Gaussian kernels"
        )
    h = left.bandwidth[left_keys]
    g = right.bandwidth[right_keys]
    scale = 1.0 / np.sqrt(2.0 * (h * h + g * g))
    t = left.sample[:, left_keys] * scale
    return t, right.sample[:, right_keys] * scale, scale


def _pair_mean(
    t: np.ndarray, u: np.ndarray, buffers: int, terms: Callable
) -> float:
    """Mean of ``terms`` over all pairs of rows of ``t`` and ``u``.

    Left rows are taken in blocks of ``b``, so that one ``(b, s_S)``
    float64 block fits the chunk budget of :mod:`repro.core.chunking`.
    ``terms(block, u, *work)`` fills ``buffers`` such blocks with
    ``out=`` ufuncs and returns the one holding the per-pair terms; the
    blocks are allocated once and reused, so they stay cache-resident.
    """
    rows = max(1, min(t.shape[0], get_chunk_budget() // u.shape[0]))
    work = np.empty((buffers, rows, u.shape[0]), dtype=np.float64)
    total = 0.0
    for start in range(0, t.shape[0], rows):
        block = t[start : start + rows]
        total += float(terms(block, u, *work[:, : block.shape[0]]).sum())
    return total / (t.shape[0] * u.shape[0])


def _gaussian_terms(block, u, out, diff):
    """``exp(-|t - u|^2)`` per pair, in scaled key units."""
    np.subtract(block[:, 0, None], u[:, 0], out=out)
    np.square(out, out=out)
    for k in range(1, block.shape[1]):
        np.subtract(block[:, k, None], u[:, k], out=diff)
        out += np.square(diff, out=diff)
    return np.exp(np.negative(out, out=out), out=out)


def band_join_selectivity(
    left: KernelDensityEstimator,
    right: KernelDensityEstimator,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
    epsilon: Union[float, Sequence[float]],
) -> float:
    """Selectivity of ``|R.a_k - S.b_k| <= eps_k`` for all key pairs.

    Returns the estimated fraction of the cross product ``R x S``
    satisfying the band predicate; multiply by ``|R| * |S|`` for the
    join cardinality.

    Parameters
    ----------
    left, right:
        KDE models of the two relations (Gaussian kernels).
    left_keys, right_keys:
        Join-key column indices, positionally paired.
    epsilon:
        Band half-width, scalar or one per key pair.  Must be positive —
        use :func:`equi_join_density` for the equality limit.
    """
    t, u, scale = _scaled_join_keys(left, right, left_keys, right_keys)
    epsilon = np.broadcast_to(np.asarray(epsilon, float), scale.shape)
    if np.any(epsilon <= 0):
        raise ValueError("epsilon must be positive (see equi_join_density)")
    half = epsilon * scale

    def band_terms(block, u, out, diff, upper):
        # Per key, Phi((eps - d)/sigma) - Phi((-eps - d)/sigma) is
        # (erf(e - x) + erf(e + x)) / 2 in scaled units; the 2^-k is
        # applied once to the mean.
        for k in range(block.shape[1]):
            x = out if k == 0 else diff
            np.subtract(block[:, k, None], u[:, k], out=x)
            erf(np.add(x, half[k], out=upper), out=upper)
            erf(np.subtract(half[k], x, out=x), out=x)
            x += upper
            if k:
                out *= x
        return out

    return _pair_mean(t, u, 3, band_terms) * 0.5 ** scale.size


def equi_join_density(
    left: KernelDensityEstimator,
    right: KernelDensityEstimator,
    left_keys: Sequence[int],
    right_keys: Sequence[int],
) -> float:
    """The joint integral ``\\int p_R(x) p_S(x) dx`` over the join keys.

    This is the equality limit of the band join: the expected *density*
    of matches per unit of key volume.  On a domain discretised with
    resolution ``w`` per key dimension the equi-join selectivity is
    approximately ``equi_join_density(...) * prod(w)``, which is also
    what :func:`band_join_selectivity` converges to for small bands.

    Closed form for Gaussian product kernels: the integral of the
    product of two normals is a normal density at the centre difference,

    .. math::
        \\int \\mathcal{N}(x; t, h^2) \\mathcal{N}(x; u, g^2) dx
        = \\mathcal{N}(t - u;\\, 0,\\, h^2 + g^2)
    """
    t, u, scale = _scaled_join_keys(left, right, left_keys, right_keys)
    # N(0; 0, h^2 + g^2) per key is scale / sqrt(pi).
    norm = float(np.prod(scale)) * math.pi ** (-0.5 * scale.size)
    return _pair_mean(t, u, 2, _gaussian_terms) * norm


def independence_band_join_selectivity(
    left_values: np.ndarray,
    right_values: np.ndarray,
    epsilon: float,
    buckets: int = 64,
) -> float:
    """Histogram-based band-join baseline under independence per bucket.

    The classic system approach a KDE join competes with: bucketise both
    key columns, assume uniformity within buckets, and integrate the
    band predicate bucket-against-bucket.  One-dimensional keys only —
    the baseline for the join experiments.
    """
    left_values = np.asarray(left_values, dtype=np.float64).reshape(-1)
    right_values = np.asarray(right_values, dtype=np.float64).reshape(-1)
    if left_values.size == 0 or right_values.size == 0:
        raise ValueError("key columns must be non-empty")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo = min(left_values.min(), right_values.min())
    hi = max(left_values.max(), right_values.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, buckets + 1)
    left_fracs, _ = np.histogram(left_values, bins=edges)
    right_fracs, _ = np.histogram(right_values, bins=edges)
    left_fracs = left_fracs / left_values.size
    right_fracs = right_fracs / right_values.size

    # Probability that |X - Y| <= eps with X uniform in bucket i and Y
    # uniform in bucket j, computed by quadrature over X.
    centers = (edges[:-1] + edges[1:]) / 2.0
    width = edges[1] - edges[0]
    grid = np.linspace(-0.5, 0.5, 9) * width
    total = 0.0
    for i in range(buckets):
        if left_fracs[i] == 0.0:
            continue
        xs = centers[i] + grid                     # (9,)
        # For each Y-bucket j: P(|x - Y| <= eps) for Y ~ U(bucket j).
        overlap_low = np.maximum(edges[:-1], xs[:, None] - epsilon)
        overlap_high = np.minimum(edges[1:], xs[:, None] + epsilon)
        prob = np.clip(overlap_high - overlap_low, 0.0, None) / width
        total += left_fracs[i] * float((prob.mean(axis=0) * right_fracs).sum())
    return total
