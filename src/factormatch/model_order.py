"""Per-image model order selection from an information-content criterion.

The number of factor-loading columns worth keeping for an image is estimated
by scanning candidate ranks k and minimizing

    I(k) = ln V(k) + k * ((T + N) / (T N)) * ln(T N / (T + N))

where ``V(k)`` is the mean squared residual of the best rank-k factor model,
which for PCA equals the tail singular-value energy ``sum_{i>k} s_i^2 / (T N)``.
The same estimated order is reused for the NMF factorization of the image.

``V`` is floored at ``RESIDUAL_FLOOR`` so exactly-low-rank inputs (synthetic
corpora) keep the logarithm finite; real descriptor data never hits the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptors import DescriptorMatrix
from .factorization import SvdResult, compute_svd

RESIDUAL_FLOOR = 1e-12


def default_k_max(T: int, N: int) -> int:
    """Default scan ceiling: SIFT-scale headroom, bounded by the matrix shape.

    Note for small T (toy corpora, T <= ~48): white observation noise makes
    I(k) dip again as k approaches min(T, N) because the residual collapses
    to the last couple of singular values. Callers working at toy scale
    should pass an explicit k_max with headroom ~2x the expected rank instead
    of relying on this default, which targets T=128 descriptors.
    """
    return min(64, min(T, N) - 1) if min(T, N) > 1 else 1


@dataclass(frozen=True)
class ModelOrderProfile:
    """I(k)/V(k) over k = 1..k_max (``k_max = len(V)``) plus the argmin ``k_star``."""

    V: np.ndarray
    I: np.ndarray
    k_star: int


def estimate_order(
    m: DescriptorMatrix,
    k_max: int | None = None,
    svd: SvdResult | None = None,
) -> ModelOrderProfile:
    """Scan I(k) for k = 1..k_max from one SVD; ties break toward smaller k."""
    if k_max is None:
        k_max = default_k_max(m.T, m.N)
    if not 1 <= k_max <= min(m.T, m.N):
        raise ValueError(f"k_max={k_max} out of range [1, {min(m.T, m.N)}]")
    if svd is None:
        svd = compute_svd(m)
    s2 = svd.singular_values**2
    # tail[k] = sum of squared singular values beyond the first k
    tail = np.concatenate([np.cumsum(s2[::-1])[::-1], [0.0]])
    ks = np.arange(1, k_max + 1)
    V = np.maximum(tail[ks] / (m.T * m.N), RESIDUAL_FLOOR)
    penalty = ks * ((m.T + m.N) / (m.T * m.N)) * math.log((m.T * m.N) / (m.T + m.N))
    I = np.log(V) + penalty
    k_star = int(ks[np.argmin(I)])  # argmin returns the first (smallest) min
    return ModelOrderProfile(V=V, I=I, k_star=k_star)
