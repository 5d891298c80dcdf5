"""PCA and sparse-NMF factor loadings of a descriptor matrix.

Both factorizations compress a ``T x N`` descriptor matrix into a ``T x k``
loading matrix with unit-norm columns:

* PCA loadings are the top-k left singular vectors (orthonormal, signed so
  each column's largest-magnitude entry is positive), read from the SVD of
  ``Rᵀ`` for ``Mᵀ = QR``, so the ``N``-long right singular vectors are never
  formed (the R-SVD: Chan, "An improved algorithm for computing the singular
  value decomposition", ACM TOMS 8(1), 1982).
* NMF loadings come from an alternating minimization of
  ``0.5 * ||M - L R||_F^2`` where every column of ``R`` has a single
  non-negative nonzero — i.e. each descriptor is explained by exactly one
  loading column scaled by a non-negative weight. This is a spherical
  clustering of the descriptor cloud: the assignment step picks the loading
  with the largest inner product, the update step replaces each loading by
  the (scale-weighted) normalized sum of its assigned descriptors. Both
  half-steps are exact coordinate minimizers, so the objective never
  increases. A unit-norm loading and the best scale ``s_j = max(L_cᵀ m_j, 0)``
  leave ``||m_j||² − s_j²`` of descriptor ``j``, so the objective is
  ``0.5 * (||M||_F² − s·s)`` (Dhillon & Modha, "Concept decompositions for
  large sparse text data using clustering", Machine Learning 42, 2001).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descriptors import DescriptorMatrix

KIND_PCA = "pca"
KIND_NMF = "nmf"

# sparse NMF stopping rule: at most this many iterations, or a relative
# objective decrease below this tolerance
_NMF_MAX_ITERS = 100
_NMF_TOL = 1e-6


@dataclass(frozen=True)
class FactorLoadings:
    """A ``T x k`` loading matrix tagged by the factorization that made it."""

    image_id: str
    kind: str
    columns: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_PCA, KIND_NMF):
            raise ValueError(f"kind must be {KIND_PCA!r} or {KIND_NMF!r}, got {self.kind!r}")
        cols = np.array(self.columns, dtype=np.float64, order="C")
        if cols.ndim != 2 or cols.shape[1] < 1:
            raise ValueError(f"loadings must be a T x k matrix with k >= 1, got {cols.shape}")
        object.__setattr__(self, "columns", cols)
        cols.setflags(write=False)

    @property
    def T(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class FactorAssignment:
    """1-sparse factor matrix: descriptor ``j`` uses loading ``cluster_of[j]``
    with non-negative weight ``scale_of[j]`` (cluster indices are 0-based)."""

    k: int
    cluster_of: np.ndarray
    scale_of: np.ndarray

    def __post_init__(self) -> None:
        cluster = np.array(self.cluster_of, dtype=np.int64)
        scale = np.array(self.scale_of, dtype=np.float64)
        if cluster.shape != scale.shape or cluster.ndim != 1:
            raise ValueError("cluster_of and scale_of must be 1-D and equal length")
        if cluster.size and (cluster.min() < 0 or cluster.max() >= self.k):
            raise ValueError(f"cluster indices must lie in [0, {self.k})")
        if (scale < 0).any():
            raise ValueError("scales must be non-negative")
        object.__setattr__(self, "cluster_of", cluster)
        object.__setattr__(self, "scale_of", scale)
        cluster.setflags(write=False)
        scale.setflags(write=False)

    @property
    def N(self) -> int:
        return self.cluster_of.size


@dataclass(frozen=True)
class SvdResult:
    """``T x min(T, N)`` left singular vectors and non-increasing singular values."""

    U: np.ndarray = field(repr=False)
    singular_values: np.ndarray


def compute_svd(m: DescriptorMatrix) -> SvdResult:
    """``M = Rᵀ Qᵀ`` has the left singular vectors and singular values of ``Rᵀ``."""
    values = m.values.astype(np.float64)
    try:
        R = np.linalg.qr(values.T, mode="r")
        U, s, _ = np.linalg.svd(R.T, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed on image {m.image_id!r}: {exc}") from exc
    return SvdResult(U=U, singular_values=s)


def _canonical_signs(H: np.ndarray) -> np.ndarray:
    """Flip column signs so each column's largest-|entry| (first on ties) is positive."""
    pivot = np.argmax(np.abs(H), axis=0)
    return H * np.where(H[pivot, np.arange(H.shape[1])] < 0, -1.0, 1.0)


def pca_loadings(m: DescriptorMatrix, k: int, svd: SvdResult) -> FactorLoadings:
    """First ``k`` left singular vectors of the descriptor matrix, read from
    its ``svd``, sign-canonicalized."""
    if not 1 <= k <= min(m.T, m.N):
        raise ValueError(f"k={k} out of range [1, {min(m.T, m.N)}]")
    H = _canonical_signs(svd.U[:, :k])
    return FactorLoadings(image_id=m.image_id, kind=KIND_PCA, columns=H)


def _farthest_point_init(values: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Pick k descriptor columns: seeded first pick, then max-min-distance
    greedy, each distance ``||v||² − 2 vᵀc + ||c||²`` from one GEMV. Once all
    left lie within that sum's rounding error (fewer than k distinct
    descriptors), they are summed from differences: a repeat is exactly 0."""
    sq = np.einsum("ij,ij->j", values, values)
    floor = 4 * values.shape[0] * np.finfo(np.float64).eps * sq.max()
    chosen = [int(np.random.default_rng(seed).integers(values.shape[1]))]
    dist2 = sq - 2.0 * (values[:, chosen[0]] @ values) + sq[chosen[0]]
    for _ in range(k - 1):
        if dist2.max() <= floor:
            dist2 = np.min([np.sum((values - values[:, [c]]) ** 2, axis=0) for c in chosen], 0)
        nxt = int(np.argmax(dist2))  # argmax takes the first index on ties
        chosen.append(nxt)
        dist2 = np.minimum(dist2, sq - 2.0 * (values[:, nxt] @ values) + sq[nxt])
    L = values[:, chosen].copy()
    norms = np.linalg.norm(L, axis=0)
    norms[norms == 0] = 1.0
    return L / norms


def nmf_loadings(
    m: DescriptorMatrix, k: int, seed: int
) -> tuple[FactorLoadings, FactorAssignment, np.ndarray]:
    """Sparse NMF via alternating assignment/update; returns the objective trace.

    The trace holds ``0.5 * ||M - L R||_F^2`` once per iteration (measured
    after the assignment step, exact to about ``eps * ||M||_F^2``, so an
    exact fit may read just below 0) and is non-increasing. Iteration stops
    when the relative decrease falls below ``_NMF_TOL``, when a step yields
    no measured improvement (the previous iterate is kept), or at
    ``_NMF_MAX_ITERS``.
    """
    if not 1 <= k <= m.N:
        raise ValueError(f"k={k} out of range [1, N={m.N}]")
    values = m.values.astype(np.float64)
    col_idx = np.arange(m.N)
    total = float(np.einsum("ij,ij->", values, values))

    def assign(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        S = L.T @ values  # k x N inner products
        cluster = np.argmax(S, axis=0)
        scale = np.maximum(S[cluster, col_idx], 0.0)
        return cluster, scale

    def objective(scale: np.ndarray) -> float:
        # unit-norm (or zero) loadings: ||m_j - s_j L_c||^2 = ||m_j||^2 - s_j^2
        return 0.5 * (total - float(scale @ scale))

    L = _farthest_point_init(values, k, seed)
    cluster, scale = assign(L)
    trace = [objective(scale)]

    for _ in range(_NMF_MAX_ITERS - 1):
        # Exact minimizer of the objective over unit-norm columns for the
        # frozen assignment: scale-weighted sum of each cluster's members,
        # one GEMM with the N x k matrix holding scale_j at (j, cluster_j).
        R = np.zeros((m.N, k))
        R[col_idx, cluster] = scale
        weighted = values @ R
        norms = np.linalg.norm(weighted, axis=0)
        live = norms > 0
        L_new = np.zeros_like(L)
        L_new[:, live] = weighted[:, live] / norms[live]

        if not live.all():
            # Re-seed dead clusters (empty, or only zero-scale members) from
            # the worst-explained descriptors; their rows of R are all zero,
            # so this cannot change the objective.
            residual = np.sum((values - L_new[:, cluster] * scale) ** 2, axis=0)
            for j in np.where(~live)[0]:
                pick = int(np.argmax(residual))
                L_new[:, j] = values[:, pick] / np.linalg.norm(values[:, pick])
                residual[pick] = -1.0

        cluster_new, scale_new = assign(L_new)
        obj = objective(scale_new)
        if obj >= trace[-1]:
            break  # no measurable progress; keep the better iterate
        L, cluster, scale = L_new, cluster_new, scale_new
        converged = (trace[-1] - obj) < _NMF_TOL * trace[-1]
        trace.append(obj)
        if converged:
            break

    loadings = FactorLoadings(image_id=m.image_id, kind=KIND_NMF, columns=L)
    assignment = FactorAssignment(k=k, cluster_of=cluster, scale_of=scale)
    return loadings, assignment, np.array(trace)
