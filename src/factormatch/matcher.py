"""Similarity metrics and database ranking over factor loadings.

Two metrics compare a query loading matrix ``A`` against a database loading
matrix ``B`` sharing the descriptor dimension T:

* ``subspace_angle`` — the angle between the column spans, equal to
  ``arccos`` of the largest singular value of ``Qa^T Qb`` for orthonormal
  bases ``Qa, Qb`` (Björck & Golub, Math. Comp. 27, 1973), here each side's
  left singular vectors. This matches the projection-matrix form
  ``arccos(||P_A P_B||_2)`` exactly while costing ``O(T k^2 + k^3)`` per
  pair instead of ``O(T^3)``; the projection form survives in the tests as
  the oracle. Smaller is better.
* ``correlation_score`` — sum over B's columns of the best correlation with
  any column of A. Larger is better.

The index is columnar: each kind's loadings of every image sit side by side
in one ``T x Σk`` matrix. ``rank_database`` scores the whole database (or a
candidate subset) at once — one GEMM for the correlation; for the angle,
database bases cached in the index (each image's computed once, by one
batched SVD per rank ``k`` of the images not yet cached) — dedups images to objects
keeping each object's best view, and truncates to the top eta. The two
pairwise metrics are the same kernels applied to one database image.
``retrieve_combined`` runs the full pipeline: cheap PCA-correlation
prefilter, NMF-angle rerank on the surviving objects' views, then the
rank-fusion pass.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from . import codec
from .binary import MAX_TEXT_BYTES
from .codec import QuantizedLoadings
from .factorization import KIND_NMF, KIND_PCA, FactorLoadings
from .fusion import FusionParams, RankedEntry, RankedList, fuse

METRIC_ANGLE = "angle"
METRIC_CORRELATION = "correlation"

# Default metric per loadings kind: correlation for PCA, angle for NMF.
DEFAULT_METRIC = {KIND_PCA: METRIC_CORRELATION, KIND_NMF: METRIC_ANGLE}

WORST_ANGLE = math.pi / 2


class DegenerateLoadingsError(ValueError):
    """Loadings whose columns do not span a full-rank subspace."""


class DimensionMismatchError(ValueError):
    """Loadings of different descriptor dimensions T met."""


def _check_dims(a_T: int, b_T: int) -> None:
    if a_T != b_T:
        raise DimensionMismatchError(f"descriptor dims differ: {a_T} vs {b_T}")


@dataclass(frozen=True)
class IndexedImage:
    """One image as :attr:`ObjectIndex.images` shows it."""

    image_id: str
    object_id: str
    pca: FactorLoadings
    nmf: FactorLoadings


class _ImageView(Mapping[str, IndexedImage]):
    """Read-only image id -> :class:`IndexedImage` view of an index; each
    record is rebuilt from the stacked columns when it is looked up."""

    def __init__(self, index: ObjectIndex):
        self._index = index

    def __getitem__(self, image_id: str) -> IndexedImage:
        return self._index._record(self._index._row[image_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self._index._image_ids)

    def __len__(self) -> int:
        return len(self._index._image_ids)


class ObjectIndex:
    """Server-side database of one descriptor dimension T, stored by column:
    immutable loadings plus a derived basis cache.

    Built from ``(object_id, pca, nmf)`` triples, consumed one at a time;
    the constructor is the one place that checks an image: its image id
    (the PCA loadings' own, equal to the NMF one's, and not seen before),
    the kinds of its two loadings, one rank ``k`` for both, the index's one
    ``T``, ids that fit the u16 lengths they travel with, and NMF loadings
    that are all quantized or all float.

    Image ``r`` owns columns ``offsets[r]:offsets[r + 1]`` of the stacked
    ``T x Σk`` PCA loading matrix (float64, which every correlation query
    reads whole) and of the NMF one. Quantized NMF loadings are stacked as
    their levels (uint8 up to 8 bits, uint16 above) with each image's
    ``bits``; an image's float64 NMF columns are rebuilt from them by
    ``codec.dequantize`` where they are needed: for its angle basis, for
    the whole float64 stack the NMF correlation builds once, and in
    ``images``, a read-only image id -> :class:`IndexedImage` view that
    rebuilds each record on access. The angle metric fills, per kind and on
    first use of each image, its orthonormal basis and numerical rank
    (:meth:`_basis_cache`); those are a function of the loadings alone, so
    no answer depends on what was cached.
    """

    def __init__(self, images: Iterable[
            tuple[str, FactorLoadings, FactorLoadings | QuantizedLoadings]]):
        row: dict[str, int] = {}  # image id -> row, in insertion order
        object_ids: list[str] = []
        pca_columns: list[np.ndarray] = []
        nmf_columns: list[np.ndarray] = []  # float columns, or levels
        nmf_bits: list[int] = []
        rows_of: dict[str, list[int]] = {}
        T: int | None = None
        quantized: bool | None = None
        for object_id, pca, nmf in images:
            image_id = pca.image_id
            if image_id in row:
                raise ValueError(f"duplicate image id {image_id!r}")
            if nmf.image_id != image_id:
                raise ValueError(
                    f"image {image_id!r}: NMF loadings are of image {nmf.image_id!r}")
            if pca.kind != KIND_PCA or nmf.kind != KIND_NMF:
                raise ValueError(f"image {image_id!r} has mistagged loadings")
            if pca.k != nmf.k:
                raise ValueError(
                    f"image {image_id!r}: loadings ranks ({pca.k}, {nmf.k}) differ"
                )
            for what, text in (("image", image_id), ("object", object_id)):
                size = len(text.encode("utf-8"))
                if size > MAX_TEXT_BYTES:
                    raise ValueError(
                        f"{what} id of {size} bytes exceeds the {MAX_TEXT_BYTES}-byte limit")
            if T is None:
                T = pca.T
                quantized = isinstance(nmf, QuantizedLoadings)
            if pca.T != T or nmf.T != T:
                raise DimensionMismatchError(
                    f"image {image_id!r}: descriptor dims ({pca.T}, {nmf.T}) "
                    f"differ from the index's {T}"
                )
            if isinstance(nmf, QuantizedLoadings) != quantized:
                raise ValueError(
                    f"image {image_id!r}: an index holds quantized or float NMF loadings, not both")
            rows_of.setdefault(object_id, []).append(len(row))
            row[image_id] = len(row)
            object_ids.append(object_id)
            pca_columns.append(pca.columns)
            if quantized:
                nmf_columns.append(nmf.levels)
                nmf_bits.append(nmf.bits)
            else:
                nmf_columns.append(nmf.columns)
        if not row:
            raise ValueError("index must contain at least one image")
        n = len(row)
        self._image_ids = tuple(row)
        self._object_ids = tuple(object_ids)
        self._offsets = np.cumsum([0, *(columns.shape[1] for columns in pca_columns)])
        self._pca = np.concatenate(pca_columns, axis=1)
        # the float64 NMF stack; with levels, built on first use by _stack
        self._nmf: np.ndarray | None = None
        self._nmf_levels: np.ndarray | None = None
        if quantized:
            self._nmf_levels = np.concatenate(
                nmf_columns, axis=1, dtype=np.uint8 if max(nmf_bits) <= 8 else np.uint16)
            self._nmf_bits = np.array(nmf_bits, dtype=np.uint8)
        else:
            self._nmf = np.concatenate(nmf_columns, axis=1)
        for array in (self._offsets, self._pca, self._nmf, self._nmf_levels):
            if array is not None:
                array.setflags(write=False)
        self._row = row
        self._rows_of_object = rows_of
        # per row: its object's code (for the dedup) and its image id's
        # lexicographic rank (for the tie-break)
        self._object_code = np.empty(n, dtype=np.intp)
        for code, rows in enumerate(rows_of.values()):
            self._object_code[rows] = code
        self._id_rank = np.empty(n, dtype=np.intp)
        self._id_rank[sorted(range(n), key=self._image_ids.__getitem__)] = np.arange(n)
        self.images: Mapping[str, IndexedImage] = _ImageView(self)
        self._basis_caches: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def T(self) -> int:
        return self._pca.shape[0]

    @property
    def num_images(self) -> int:
        return len(self._image_ids)

    @property
    def num_objects(self) -> int:
        return len(self._rows_of_object)

    def images_of_objects(self, object_ids: Iterable[str]) -> set[str]:
        rows_of = self._rows_of_object
        return {self._image_ids[r] for obj in set(object_ids) if obj in rows_of
                for r in rows_of[obj]}

    def _record(self, row: int) -> IndexedImage:
        rows = np.array([row])
        image_id = self._image_ids[row]
        return IndexedImage(
            image_id=image_id, object_id=self._object_ids[row],
            pca=FactorLoadings(image_id, KIND_PCA, self._gather(KIND_PCA, rows)),
            nmf=FactorLoadings(image_id, KIND_NMF, self._gather(KIND_NMF, rows)),
        )

    def _dequantized(self, row: int) -> FactorLoadings:
        """Image ``row``'s NMF loadings rebuilt from its levels, by the
        ``codec.dequantize`` of one image that reading its blob would run."""
        lo, hi = codec.kind_range(KIND_NMF)
        levels = self._nmf_levels[:, self._offsets[row]:self._offsets[row + 1]]
        return codec.dequantize(QuantizedLoadings(
            image_id=self._image_ids[row], kind=KIND_NMF, T=self.T, k=levels.shape[1],
            bits=int(self._nmf_bits[row]), lo=lo, hi=hi, levels=levels))

    def _rows(self, candidates: set[str] | None) -> np.ndarray:
        """Row numbers of the candidate images (all rows for ``None``) in
        index order, so that no score depends on the set's iteration order;
        ids the index does not hold are skipped."""
        if candidates is None:
            return np.arange(self.num_images)
        row = self._row
        return np.array(sorted(row[i] for i in candidates if i in row), dtype=np.intp)

    def _stack(self, kind: str) -> np.ndarray:
        """This kind's float64 ``T x Σk`` loadings. NMF levels are rebuilt
        into it on first use, one image at a time: a batched dequantize sums
        a ``k = 1`` column's norm in another order. Threads that race here
        publish identical stacks, each by one assignment."""
        if kind == KIND_PCA:
            return self._pca
        if self._nmf is None:
            stack = self._gather(KIND_NMF, np.arange(self.num_images))
            stack.setflags(write=False)
            self._nmf = stack
        return self._nmf

    def _gather(self, kind: str, rows: np.ndarray) -> np.ndarray:
        """The float64 loadings of ``rows`` side by side, ``T x Σk``; NMF
        held only as levels is rebuilt for these rows alone."""
        if kind == KIND_NMF and self._nmf is None:
            return np.concatenate([self._dequantized(r).columns for r in rows], axis=1)
        starts = self._offsets[rows]
        return self._stack(kind)[:, _columns(starts, self._offsets[rows + 1] - starts)]

    def _basis_cache(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """``(bases, ranks)`` of this kind's images, allocated on first use:
        image ``r``'s orthonormal basis is the ``T x k`` C-order block at
        ``bases[T * offsets[r]:T * offsets[r + 1]]``, valid once ``ranks[r]``
        (its numerical rank) is no longer -1. Writers store the basis before
        the rank, and two writers of one image store identical bytes, so
        threads share the cache without a lock."""
        cache = self._basis_caches.get(kind)
        if cache is None:  # setdefault: threads that race here share one cache
            cache = self._basis_caches.setdefault(kind, (
                np.empty(self.T * int(self._offsets[-1])),
                np.full(self.num_images, -1, dtype=np.intp)))
        return cache


# --- scoring kernels ------------------------------------------------------

_EPS = np.finfo(np.float64).eps


def _bases(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of an ``(n, T, k)`` stack of loadings from one
    batched SVD, and each matrix's numerical rank: its singular values above
    ``max(T, k) * eps * s_max`` (0 for an all-zero matrix)."""
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    tol = max(stack.shape[1:]) * _EPS * s[:, :1]
    return u, np.sum(s > tol, axis=1)


def _basis(f: FactorLoadings) -> np.ndarray:
    """Orthonormal basis of one loading matrix; raise if it is rank-deficient."""
    q, rank = _bases(f.columns[None])
    if rank[0] == 0:
        raise DegenerateLoadingsError(f"loadings of {f.image_id!r} are all zero")
    if rank[0] < f.k:
        raise DegenerateLoadingsError(
            f"loadings of {f.image_id!r} have rank {rank[0]} < k={f.k}"
        )
    return q[0]


def _angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Angle between the span of ``qa`` and that of each basis in ``qb``."""
    top = np.linalg.svd(qa.T @ qb, compute_uv=False)[:, 0]
    return np.arccos(np.clip(top, -1.0, 1.0))


def _rank_groups(ks: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(k, positions)`` of the images of each rank ``k``."""
    for k in np.unique(ks):
        yield int(k), np.flatnonzero(ks == k)


def _columns(starts: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Column numbers of images whose ``ks[i]`` columns start at ``starts[i]``."""
    ends = np.cumsum(ks)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - ks), ks)


def _correlations(q: np.ndarray, columns: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Correlation score of each image laid side by side in ``columns``
    (image ``i`` owns the next ``ks[i]`` of them): one GEMM, each database
    column's best query column, then a sum per image in ``np.sum``'s order."""
    best = (q.T @ columns).max(axis=0)
    starts = np.cumsum(ks) - ks
    sums = np.empty(ks.size)
    for k, pos in _rank_groups(ks):
        sums[pos] = best[_columns(starts[pos], np.full(pos.size, k))].reshape(-1, k).sum(axis=1)
    return sums


def subspace_angle(a: FactorLoadings, b: FactorLoadings) -> float:
    """Smallest principal angle between the column spans, in [0, pi/2]."""
    _check_dims(a.T, b.T)
    qa = _basis(a)
    qb = _basis(b)
    return float(_angles(qa, qb[None])[0])


def correlation_score(a: FactorLoadings, b: FactorLoadings) -> float:
    """Sum over b's columns of their maximum correlation with a's columns."""
    _check_dims(a.T, b.T)
    return float(_correlations(a.columns, b.columns, np.array([b.k]))[0])


def _angle_keys(query: FactorLoadings, index: ObjectIndex, rows: np.ndarray) -> np.ndarray:
    """Angle of the query to each image of ``rows``: the query is
    orthonormalized once; each image's basis comes from the index's cache,
    where the images not yet cached are first filled by one batched SVD per
    rank. A degenerate image, and every image for a degenerate query, scores
    ``WORST_ANGLE``."""
    keys = np.full(rows.size, WORST_ANGLE)
    try:
        qa = _basis(query)
    except DegenerateLoadingsError:
        return keys
    bases, ranks = index._basis_cache(query.kind)
    T = index.T
    starts = index._offsets[rows]
    for k, pos in _rank_groups(index._offsets[rows + 1] - starts):
        if k > T:  # more columns than dimensions: rank-deficient, WORST_ANGLE
            continue
        missing = pos[ranks[rows[pos]] < 0]
        if missing.size:
            block = index._gather(query.kind, rows[missing])
            qb, rank = _bases(block.reshape(T, missing.size, k).transpose(1, 0, 2))
            bases[_columns(T * starts[missing], np.full(missing.size, T * k))] = qb.ravel()
            ranks[rows[missing]] = rank  # after the bases: publishes them
        qb = bases[_columns(T * starts[pos], np.full(pos.size, T * k))].reshape(-1, T, k)
        keys[pos] = np.where(ranks[rows[pos]] == k, _angles(qa, qb), WORST_ANGLE)
    return keys


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
    _check_dims(query.T, index.T)
    rows = index._rows(candidates)
    if rows.size == 0:
        raise ValueError("no candidate images to rank")
    if metric == METRIC_ANGLE:
        keys = _angle_keys(query, index, rows)
    else:
        stacked = index._stack(query.kind)
        starts = index._offsets[rows]
        ks = index._offsets[rows + 1] - starts
        columns = stacked if candidates is None else stacked[:, _columns(starts, ks)]
        keys = -_correlations(query.columns, columns, ks)
    # best-first by (key, image id); each object's first row is its best view
    order = np.lexsort((index._id_rank[rows], keys))
    _, first = np.unique(index._object_code[rows[order]], return_index=True)
    best = order[np.sort(first)[:eta]]
    sign = -1.0 if metric == METRIC_CORRELATION else 1.0
    return RankedList(entries=tuple(
        RankedEntry(index._object_ids[r], index._image_ids[r], sign * key)
        for r, key in zip(rows[best].tolist(), keys[best].tolist())
    ), eta=eta)


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
