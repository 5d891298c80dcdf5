"""Similarity metrics and database ranking over factor loadings.

Two metrics compare a query loading matrix ``A`` against a database loading
matrix ``B`` sharing the descriptor dimension T:

* ``subspace_angle`` — the angle between the column spans, equal to
  ``arccos`` of the largest singular value of ``Qa^T Qb`` for orthonormal
  bases ``Qa, Qb``. This matches the projection-matrix form
  ``arccos(||P_A P_B||_2)`` exactly while costing ``O(T k^2 + k^3)`` per pair
  instead of ``O(T^3)``; the projection form survives in the tests as the
  oracle. Smaller is better.
* ``correlation_score`` — sum over B's columns of the best correlation with
  any column of A. Larger is better.

``rank_database`` applies one metric across the whole database (or a
candidate subset), dedups images to objects keeping each object's best view,
and truncates to the top eta. ``retrieve_combined`` runs the full pipeline:
cheap PCA-correlation prefilter, NMF-angle rerank on the surviving objects'
views, then the rank-fusion pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .factorization import KIND_NMF, KIND_PCA, FactorLoadings
from .fusion import FusionParams, RankedEntry, RankedList, fuse

METRIC_ANGLE = "angle"
METRIC_CORRELATION = "correlation"

# Default metric per loadings kind: correlation for PCA, angle for NMF.
DEFAULT_METRIC = {KIND_PCA: METRIC_CORRELATION, KIND_NMF: METRIC_ANGLE}

WORST_ANGLE = math.pi / 2


class DegenerateLoadingsError(ValueError):
    """Loadings whose columns do not span a full-rank subspace."""


@dataclass(frozen=True)
class IndexedImage:
    image_id: str
    object_id: str
    pca: FactorLoadings
    nmf: FactorLoadings


@dataclass(frozen=True)
class ObjectIndex:
    """Immutable server-side database: image id -> loadings + object id."""

    images: dict[str, IndexedImage] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.images:
            raise ValueError("index must contain at least one image")
        for image_id, rec in self.images.items():
            if rec.image_id != image_id:
                raise ValueError(f"key {image_id!r} != record id {rec.image_id!r}")
            if rec.pca.kind != KIND_PCA or rec.nmf.kind != KIND_NMF:
                raise ValueError(f"image {image_id!r} has mistagged loadings")
            if rec.pca.k != rec.nmf.k:
                raise ValueError(
                    f"image {image_id!r}: loadings ranks ({rec.pca.k}, {rec.nmf.k}) differ"
                )

    @property
    def num_images(self) -> int:
        return len(self.images)

    @property
    def num_objects(self) -> int:
        return len({rec.object_id for rec in self.images.values()})

    def images_of_objects(self, object_ids: Iterable[str]) -> set[str]:
        wanted = set(object_ids)
        return {iid for iid, rec in self.images.items() if rec.object_id in wanted}


def _orthonormal_basis(f: FactorLoadings) -> np.ndarray:
    """Orthonormalize columns; raise if they are numerically rank-deficient."""
    U, s, _ = np.linalg.svd(f.columns, full_matrices=False)
    if s[0] == 0.0:
        raise DegenerateLoadingsError(f"loadings of {f.image_id!r} are all zero")
    tol = max(f.T, f.k) * np.finfo(np.float64).eps * s[0]
    rank = int(np.sum(s > tol))
    if rank < f.k:
        raise DegenerateLoadingsError(
            f"loadings of {f.image_id!r} have rank {rank} < k={f.k}"
        )
    return U[:, : f.k]


def subspace_angle(a: FactorLoadings, b: FactorLoadings) -> float:
    """Smallest principal angle between the column spans, in [0, pi/2]."""
    if a.T != b.T:
        raise ValueError(f"descriptor dims differ: {a.T} vs {b.T}")
    qa = _orthonormal_basis(a)
    qb = _orthonormal_basis(b)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(s[0], -1.0, 1.0)))


def correlation_score(a: FactorLoadings, b: FactorLoadings) -> float:
    """Sum over b's columns of their maximum correlation with a's columns."""
    if a.T != b.T:
        raise ValueError(f"descriptor dims differ: {a.T} vs {b.T}")
    S = a.columns.T @ b.columns
    return float(np.sum(S.max(axis=0)))


def rank_database(
    query: FactorLoadings,
    index: ObjectIndex,
    metric: str | None = None,
    eta: int = 20,
    candidates: set[str] | None = None,
) -> RankedList:
    """Score the query against database images and return the top-eta objects.

    Database loadings of the query's kind are used. Ordering is best-first
    (ascending angle / descending correlation) with lexicographic image-id
    tie-breaking; multiple views of one object collapse to the best view.
    Images whose loadings are degenerate under the angle metric sort last
    (angle pi/2) rather than aborting the query.
    """
    if metric is None:
        metric = DEFAULT_METRIC[query.kind]
    if metric not in (METRIC_ANGLE, METRIC_CORRELATION):
        raise ValueError(f"unknown metric {metric!r}")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    pool = index.images.keys() if candidates is None else candidates & index.images.keys()
    scored: list[tuple[float, str, str]] = []  # (sort key, image_id, object_id)
    for image_id in pool:
        rec = index.images[image_id]
        db_loadings = rec.pca if query.kind == KIND_PCA else rec.nmf
        if metric == METRIC_ANGLE:
            try:
                key = subspace_angle(query, db_loadings)
            except DegenerateLoadingsError:
                key = WORST_ANGLE
        else:
            key = -correlation_score(query, db_loadings)
        scored.append((key, image_id, rec.object_id))
    if not scored:
        raise ValueError("no candidate images to rank")
    scored.sort(key=lambda t: (t[0], t[1]))
    entries: list[RankedEntry] = []
    seen: set[str] = set()
    for key, image_id, object_id in scored:
        if object_id in seen:
            continue
        seen.add(object_id)
        score = -key if metric == METRIC_CORRELATION else key
        entries.append(RankedEntry(object_id, image_id, score))
        if len(entries) == eta:
            break
    return RankedList(entries=tuple(entries), eta=eta)


def combined_hypotheses(
    query_pca: FactorLoadings,
    query_nmf: FactorLoadings,
    index: ObjectIndex,
    eta: int = 20,
) -> tuple[RankedList, RankedList]:
    """The two retrieval hypotheses feeding fusion: (primary NMF, secondary PCA).

    The correlation pass over PCA loadings picks eta candidate objects; the
    angle pass over NMF loadings re-scores every view of those objects.
    """
    v_sec = rank_database(query_pca, index, METRIC_CORRELATION, eta)
    candidate_images = index.images_of_objects(v_sec.object_ids())
    v_pri = rank_database(query_nmf, index, METRIC_ANGLE, eta, candidates=candidate_images)
    return v_pri, v_sec


def retrieve_combined(
    query_pca: FactorLoadings,
    query_nmf: FactorLoadings,
    index: ObjectIndex,
    eta: int = 20,
    alpha: int = 2,
) -> RankedList:
    """PCA-correlation prefilter, NMF-angle rerank, then rank fusion."""
    if not 0 <= alpha <= eta:
        raise ValueError(f"alpha={alpha} out of range [0, {eta}]")
    v_pri, v_sec = combined_hypotheses(query_pca, query_nmf, index, eta)
    return fuse(v_pri, v_sec, FusionParams(alpha=alpha, eta=eta))
