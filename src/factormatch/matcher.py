"""Similarity metrics and database ranking over factor loadings.

Two metrics compare a query loading matrix ``A`` against a database loading
matrix ``B`` sharing the descriptor dimension T:

* the angle between the column spans: ``arccos`` of the largest singular
  value of ``Qa Qb^T`` for matrices ``Qa, Qb`` of orthonormal rows spanning
  each side (Björck & Golub, Math. Comp. 27, 1973); it equals the
  projection-matrix form ``arccos(||P_A P_B||_2)`` at ``O(T k^2 + k^3)`` per
  pair instead of ``O(T^3)``. Smaller is better.
* the correlation score: the sum over B's columns of the best correlation
  with any column of A. Larger is better.

A quantized column is an integer vector in disguise: ``codec.dequantize``
gives ``M / ||M||`` for ``M = 2L - (2^b - 1)`` (PCA levels ``L`` at ``b``
bits) or ``M = L`` (NMF). The columnar index keeps each kind in that one
form (:class:`_Lattice`), stored in the narrowest integer dtype that holds
it (``int8`` for 5-bit PCA, ``uint8`` for NMF up to 8 bits) and widened a
chunk of rows at a time for the GEMM, so a correlation is one GEMM of
integer vectors, exact in any blocking, and no score depends on the rows or
queries that share it. The angle whitens each side's unit columns ``U``
(``M / ||M||``, bit for bit ``codec.dequantize``) by the Cholesky factor
``L`` of ``U U^T + delta I`` (:func:`_whitener`), so ``Q = L^-1 U``, per
query and from the stored lattice: the index holds no basis and never
changes after it is built. Both kernels score a list of queries of one
kind against the whole database or a candidate subset into one key matrix,
one row per query equal to the query's keys alone: the angle kernel gathers
and whitens each chunk of images once for every query, and quantized
queries of one rank share each correlation GEMM. ``rank_database`` is their
one-query call: it keeps each object's best view and truncates to the top
eta (:func:`_top_eta`). ``retrieve_combined`` is the combined pipeline for
one query: a PCA-correlation prefilter, an NMF-angle rerank on the
surviving objects' views, and fusion of the two lists. :class:`QueryBatch`
gives many queries at once the lists that these two give each of them, from
one key matrix per kind and metric over every image.

One kernel call is split across the CPUs this process may run on
(``os.sched_getaffinity``): the calling thread scores one part and a private
thread pool, made on first use with one thread fewer, the others
(:func:`_in_parts`). The correlation scan splits into runs of whole chunks
of rows, the angle kernel into runs of each rank's images; each part writes
its own columns of the key matrix and computes them as one worker would, so
every key is the same bit for bit in any split. Parts run numpy calls that
release the GIL, so BLAS is meant to run one thread per process
(``OPENBLAS_NUM_THREADS=1``), else each part's GEMM starts BLAS threads of
its own on the same CPUs.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_for
from dataclasses import dataclass
from typing import NamedTuple, TypeVar

import numpy as np

from .binary import MAX_TEXT_BYTES
from .codec import QuantizedLoadings
from .factorization import KIND_NMF, KIND_PCA, FactorLoadings
from .fusion import FusionParams, RankedEntry, RankedList, _check_eta, fuse

METRIC_ANGLE = "angle"
METRIC_CORRELATION = "correlation"

WORST_ANGLE = math.pi / 2

# database rows per step of the correlation kernel: at T=128, its widened
# float32 rows take 1 MB, so the GEMM reads them from cache; the angle kernel
# steps over as many rows in whole images
_CHUNK_ROWS = 2048
# queries of one rank per call of the angle kernel's gufuncs: bounds their
# temporaries at this many times those of one query
_QUERY_STACK = 16


class DimensionMismatchError(ValueError):
    """Loadings of different descriptor dimensions T met."""


def _check_dims(a_T: int, b_T: int) -> None:
    if a_T != b_T:
        raise DimensionMismatchError(f"descriptor dims differ: {a_T} vs {b_T}")


class IndexRecord(NamedTuple):
    """One image: its object id and its two loadings, whose ``image_id``
    is the image's."""

    object_id: str
    pca: FactorLoadings | QuantizedLoadings
    nmf: FactorLoadings | QuantizedLoadings


class _ImageView(Mapping[str, IndexRecord]):
    """Read-only image id -> :class:`IndexRecord` view of an index; each
    record is rebuilt, as float loadings, from the stacked columns when it
    is looked up."""

    def __init__(self, index: ObjectIndex):
        self._index = index

    def __getitem__(self, image_id: str) -> IndexRecord:
        return self._index._record(self._index._row[image_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self._index._image_ids)

    def __len__(self) -> int:
        return len(self._index._image_ids)


@dataclass(frozen=True)
class _Lattice:
    """Loadings of one kind as they are scored: row ``j`` of ``vectors``
    is column ``j``'s lattice vector, in the narrowest integer dtype that
    holds the lattice at the widest of ``bits`` (float loadings: the
    float64 column itself), ``norms[j]`` its float64 norm (1 for float
    loadings and for an all-zero vector), ``bits`` each image's bit width
    (None for float loadings)."""

    vectors: np.ndarray
    norms: np.ndarray
    bits: np.ndarray | None


def _lattice(kind: str, parts: list[np.ndarray], bits: list[int | None]) -> _Lattice:
    """The read-only :class:`_Lattice` of images given as ``k x T`` parts:
    each image's unsigned levels at its ``bits``, or, where its bits are
    None, its float columns. The stack of lattice vectors takes the
    narrowest integer dtype that holds ``[-(2^b - 1), 2^b - 1]`` (PCA) or
    ``[0, 2^b - 1]`` (NMF) at the widest ``b``, and is formed in that dtype
    with no wider full-stack temporary; each norm is the square root of an
    exact int64 sum of squares."""
    rows, T = sum(map(len, parts)), parts[0].shape[1]
    if bits[0] is None:
        vectors = np.concatenate(parts, out=np.empty((rows, T)))
        lattice = _Lattice(vectors, np.ones(rows), None)
    else:
        image_bits = np.array(bits, dtype=np.uint8)
        top = (1 << int(image_bits.max())) - 1
        # C order whatever the parts' layout
        vectors = np.concatenate(parts, out=np.empty(
            (rows, T), np.min_scalar_type(-top if kind == KIND_PCA else top)))
        if kind == KIND_PCA:  # M = L - ((2^b - 1) - L), each term within the lattice
            tops = np.repeat((1 << image_bits.astype(np.int64)) - 1,
                             [len(part) for part in parts]).astype(vectors.dtype)[:, None]
            for start in range(0, rows, _CHUNK_ROWS):
                chunk = vectors[start:start + _CHUNK_ROWS]
                chunk -= tops[start:start + _CHUNK_ROWS] - chunk
        norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.int64),
                        dtype=np.float64)
        lattice = _Lattice(vectors, np.where(norms > 0, norms, 1.0), image_bits)
    lattice.vectors.setflags(write=False)
    lattice.norms.setflags(write=False)
    return lattice


def _unit_rows(lattice: _Lattice, columns: np.ndarray) -> np.ndarray:
    """The dequantized ``columns`` of a lattice, one row each: ``M / ||M||``,
    the definition ``codec.dequantize`` shares; float columns have norm 1
    and pass through, and an all-zero vector stays zero."""
    return lattice.vectors[columns] / lattice.norms[columns, None]


def _query_lattice(query: FactorLoadings | QuantizedLoadings) -> _Lattice:
    if isinstance(query, QuantizedLoadings):
        return _lattice(query.kind, [query.levels.T], [query.bits])
    return _lattice(query.kind, [query.columns.T], [None])


def _gemm_dtype(T: int, bits_a: np.ndarray | None, bits_b: np.ndarray | None) -> type:
    """The dtype that a GEMM of ``T``-long lattice vectors of these bit
    widths runs in, whatever dtype they are stored in: float32 where it is
    exact, every product sum an integer below 2^24; float64 otherwise, where
    it is exact up to T < 2^21 at 16 bits, and for float loadings."""
    if bits_a is None or bits_b is None:
        return np.float64
    largest = ((1 << int(bits_a.max())) - 1) * ((1 << int(bits_b.max())) - 1) * T
    return np.float32 if largest < 1 << 24 else np.float64


class ObjectIndex:
    """Server-side database of one descriptor dimension T, stored by column
    and immutable once built.

    Built from :class:`IndexRecord` triples, consumed one at a time; the
    constructor is the one place that checks an image: its image id
    (the PCA loadings' own, equal to the NMF one's, and not seen before),
    the kinds of its two loadings, one rank ``k`` for both, the index's one
    ``T``, ids that fit the u16 lengths they travel with, and, per kind,
    loadings that are all quantized or all float.

    Image ``r`` owns rows ``offsets[r]:offsets[r + 1]`` of each kind's
    :class:`_Lattice`, the one stored form of that kind: at 5 bits, one
    byte per lattice entry and a float64 norm per column, so 3.1 + 3.1 kB of
    vectors and 0.4 kB of norms per image at T=128, k=24. Quantized
    loadings are held as given, levels in the narrowest unsigned dtype,
    until every image is in, so the constructor never holds a second stack.
    An image's float64 columns are rebuilt where they are needed
    (:meth:`_gather`): for each angle query that scores it, and in
    ``images``, a read-only image id -> :class:`IndexRecord` view that
    rebuilds each record, with float loadings, on access. Nothing is
    cached, so threads share an index with no lock: the callers of a server
    and the matcher's pool threads, which score parts of one caller's
    query, only read it.
    """

    def __init__(self, images: Iterable[IndexRecord]):
        row: dict[str, int] = {}  # image id -> row, in insertion order
        object_ids: list[str] = []
        ks: list[int] = []
        parts: dict[str, list[np.ndarray]] = {KIND_PCA: [], KIND_NMF: []}
        bits: dict[str, list[int | None]] = {KIND_PCA: [], KIND_NMF: []}
        rows_of: dict[str, list[int]] = {}
        T: int | None = None
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
            if pca.T != T or nmf.T != T:
                raise DimensionMismatchError(
                    f"image {image_id!r}: descriptor dims ({pca.T}, {nmf.T}) "
                    f"differ from the index's {T}"
                )
            for f in (nmf, pca):
                b = f.bits if isinstance(f, QuantizedLoadings) else None
                seen = bits[f.kind]
                if seen and (seen[0] is None) != (b is None):
                    raise ValueError(f"image {image_id!r}: an index holds quantized or float "
                                     f"{f.kind.upper()} loadings, not both")
                seen.append(b)
                parts[f.kind].append(f.columns.T if b is None else f.levels.T)
            rows_of.setdefault(object_id, []).append(len(row))
            row[image_id] = len(row)
            object_ids.append(object_id)
            ks.append(pca.k)
        if not row:
            raise ValueError("index must contain at least one image")
        n = len(row)
        self.T = T
        self._image_ids = tuple(row)
        self._object_ids = tuple(object_ids)
        self._offsets = np.cumsum([0, *ks])
        self._offsets.setflags(write=False)
        # one kind at a time, each kind's parts dropped once it is stacked
        self._lattices = {kind: _lattice(kind, parts.pop(kind), bits[kind])
                          for kind in (KIND_PCA, KIND_NMF)}
        self._row = row
        self._rows_of_object = rows_of
        # per row: its object's code (for the dedup) and its image id's
        # lexicographic rank (for the tie-break)
        self._object_code = np.empty(n, dtype=np.intp)
        for code, rows in enumerate(rows_of.values()):
            self._object_code[rows] = code
        self._id_rank = np.empty(n, dtype=np.intp)
        self._id_rank[sorted(range(n), key=self._image_ids.__getitem__)] = np.arange(n)
        self.images: Mapping[str, IndexRecord] = _ImageView(self)

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

    def _record(self, row: int) -> IndexRecord:
        rows = np.array([row])
        k = int(self._offsets[row + 1] - self._offsets[row])
        image_id = self._image_ids[row]
        return IndexRecord(
            self._object_ids[row],
            FactorLoadings(image_id, KIND_PCA, self._gather(KIND_PCA, rows, k)[0].T),
            FactorLoadings(image_id, KIND_NMF, self._gather(KIND_NMF, rows, k)[0].T),
        )

    def _rows(self, candidates: set[str] | None) -> np.ndarray:
        """Row numbers of the candidate images (all rows for ``None``) in
        index order, so that no score depends on the set's iteration order;
        ids the index does not hold are skipped."""
        if candidates is None:
            return np.arange(self.num_images)
        row = self._row
        return np.array(sorted(row[i] for i in candidates if i in row), dtype=np.intp)

    def _gather(self, kind: str, rows: np.ndarray, k: int) -> np.ndarray:
        """The float64 unit columns of ``rows``, all of rank ``k``, as an
        ``(n, k, T)`` stack of rows (:func:`_unit_rows`): float loadings as
        given, quantized ones each bit for bit its own ``codec.dequantize``."""
        columns = _columns(self._offsets[rows], np.full(rows.size, k))
        return _unit_rows(self._lattices[kind], columns).reshape(rows.size, k, self.T)


# --- scoring kernels ------------------------------------------------------

_EPS = np.finfo(np.float64).eps

# the parts that one kernel call splits into at most, the calling thread's
# included: one per CPU this process may run on
_workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None  # its other _workers - 1, made on first use
_pool_lock = threading.Lock()
_callers = 0  # threads inside _in_parts, counted under _pool_lock
# the least work that one part of a split kernel call carries, in
# multiply-adds of the correlation GEMM and of the angle's U_b W_aᵀ products
_PART_GEMM = 1 << 23
_PART_ANGLE = 1 << 20
# and the least of one image's U_b W_aᵀ product for the angle kernel to split
_SPLIT_PRODUCT = 1 << 13
_Part = TypeVar("_Part")


def _part_count(work: int, least: int, most: int) -> int:
    """How many parts a kernel call of ``work`` multiply-adds splits into:
    one per worker, each of at least ``least`` of them, at most ``most``."""
    return max(1, min(_workers, most, work // least))


def _in_parts(task: Callable[[_Part], None], parts: Sequence[_Part]) -> None:
    """Run ``task`` on each of ``parts``, at most :data:`_workers` of them,
    and return once every part has finished. A caller alone in this helper
    runs the first part and the matcher's thread pool the others; if any
    raised, the first one's exception, in part order, is re-raised once all
    have finished. A caller that finds another inside, whose parts already
    hold the CPUs, runs its parts itself, in order, up to the first that
    raises: on 2 vCPUs, two serve-k24 loopback clients whose every query
    split got 90-92 answers per second, against 105-109 with no split. A task
    writes its own slice of an output and calls no public matcher name (the
    benchmark's tracer keeps one span stack), so the pool never waits on
    itself.

    A part's numpy calls release the GIL, but not all of them gain from a
    second core: OpenBLAS's small per-matrix LAPACK calls contend inside the
    library, and a hand-off to the pool costs tens of microseconds. So a
    kernel splits only whole 2048-row GEMM chunks, and whole gufunc calls
    over a stack of images and queries, into parts of at least
    :data:`_PART_GEMM` or :data:`_PART_ANGLE` multiply-adds
    (:func:`_part_count`), and the angle kernel only where one image's
    product averages :data:`_SPLIT_PRODUCT`. On a 2-vCPU VM with one BLAS
    thread, forced two-part splits below those sizes took 0.86-1.56 of one
    worker's time: the T=32, k=4 correlation of one query against 1024-4096
    images, its angles against 200-1600 images or of 4-16 queries against
    200, and the T=128, k=24 correlation against 171 images or angles
    against 16-24. Above them they took 0.67-0.96: the T=128, k=24 angles
    against 32-80 images and its correlation against 342-1000 images, the
    serve-k24 prefilter (K=1000) and rerank (80 candidates) among them. The
    angles of a T=32 ``sweep_bits`` (50 queries against 200 images, k≈4,
    products of 512) took 217 ms split against 177 ms whole, medians of 15
    alternating runs."""
    global _pool, _callers
    with _pool_lock:
        alone = _callers == 0
        _callers += 1
        if alone and len(parts) > 1 and _pool is None:
            _pool = ThreadPoolExecutor(_workers - 1, thread_name_prefix="matcher")
    try:
        if not alone:  # the CPUs are busy with another caller's parts
            for part in parts:
                task(part)
            return
        others = [_pool.submit(task, part) for part in parts[1:]]
        try:
            task(parts[0])
        finally:
            wait_for(others)
        for future in others:
            future.result()
    finally:
        with _pool_lock:
            _callers -= 1


def _rank_groups(ks: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(k, positions)`` of the images of each rank ``k``."""
    for k in np.unique(ks):
        yield int(k), np.flatnonzero(ks == k)


def _columns(starts: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Column numbers of images whose ``ks[i]`` columns start at ``starts[i]``."""
    ends = np.cumsum(ks)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - ks), ks)


def _correlations(queries: np.ndarray, query_norms: np.ndarray, vectors: np.ndarray,
                  norms: np.ndarray, ks: np.ndarray, dtype: type) -> np.ndarray:
    """Correlation scores, ``(m, len(ks))``, of ``m`` queries given as
    ``(m, kq, T)`` lattice vectors with their ``(m, kq)`` norms, against the
    images whose lattice vectors are the rows of ``vectors`` (image ``i``
    owns the next ``ks[i]``), with their ``norms``.

    Per chunk of rows, widened into a buffer unless ``vectors`` are already
    in ``dtype``, one GEMM in ``dtype`` gives ``G = rows @ queryᵀ``, exact
    for lattice vectors; then, in float64, each row's best ``G_i / ||q_i||``
    over the query's columns, divided by the row's own norm; then a sum per
    image in ``np.sum``'s order. Every step after the GEMM is elementwise,
    so no score depends on the other rows or queries. The chunks are split
    into contiguous runs of whole chunks, one per part (:func:`_in_parts`),
    each with a widening buffer of its own, so every GEMM has the same shape
    in any split."""
    m, kq, T = queries.shape
    columns = queries.reshape(m * kq, T).T.astype(dtype, order="C")
    divisors = query_norms.reshape(m * kq, 1)
    best = np.empty((m, len(vectors)))

    def scan(starts: range) -> None:
        widened = (None if vectors.dtype == dtype
                   else np.empty((min(_CHUNK_ROWS, len(vectors)), T), dtype))
        for start in starts:
            rows = vectors[start:start + _CHUNK_ROWS]
            if widened is not None:
                widened[:len(rows)] = rows
                rows = widened[:len(rows)]
            # G transposed, one contiguous float64 row per query column, so
            # the max over a query's columns runs along rows
            g = (rows @ columns).T.astype(np.float64, order="C")
            g /= divisors
            out = best[:, start:start + len(rows)]
            np.maximum.reduce(g.reshape(m, kq, -1), axis=1, out=out)
            out /= norms[start:start + len(rows)]

    chunks = range(0, len(vectors), _CHUNK_ROWS)
    parts = _part_count(len(vectors) * T * m * kq, _PART_GEMM, len(chunks))
    _in_parts(scan, [chunks[len(chunks) * p // parts:len(chunks) * (p + 1) // parts]
                     for p in range(parts)])
    sums = np.empty((m, ks.size))
    starts = np.cumsum(ks) - ks
    for k, pos in _rank_groups(ks):
        columns = _columns(starts[pos], np.full(pos.size, k))
        for query_sums, query_best in zip(sums, best):  # each over a contiguous row
            query_sums[pos] = query_best[columns].reshape(-1, k).sum(axis=1)
    return sums


def _correlation_keys(queries: Sequence[FactorLoadings | QuantizedLoadings],
                      index: ObjectIndex, rows: np.ndarray) -> np.ndarray:
    """Negated correlation scores, ``(m, rows.size)``, of ``m`` queries of
    one kind against each image of ``rows``; all rows read the stored stack
    in place, a subset gathers its own once for every query. Lattice
    queries of one rank against a lattice index share a GEMM: a GEMM of
    lattice vectors is exact in any blocking (:func:`_gemm_dtype`). A float
    on either side takes the GEMM to float64 values it rounds, so each such
    query has a GEMM of its own."""
    stored = index._lattices[queries[0].kind]
    starts = index._offsets[rows]
    ks = index._offsets[rows + 1] - starts
    vectors, norms = stored.vectors, stored.norms
    if rows.size < index.num_images:
        columns = _columns(starts, ks)
        vectors, norms = vectors[columns], norms[columns]
    lattices = [_query_lattice(query) for query in queries]
    groups: dict[tuple[int, int], list[int]] = {}  # (rank, -1 or a float query's own number)
    for i, lattice in enumerate(lattices):
        exact = lattice.bits is not None and stored.bits is not None
        groups.setdefault((len(lattice.vectors), -1 if exact else i), []).append(i)
    keys = np.empty((len(queries), rows.size))
    for group in groups.values():
        batch = [lattices[i] for i in group]
        bits = None if batch[0].bits is None else np.concatenate([q.bits for q in batch])
        keys[group] = -_correlations(
            np.stack([q.vectors for q in batch]), np.stack([q.norms for q in batch]),
            vectors, norms, ks, _gemm_dtype(index.T, bits, stored.bits))
    return keys


def _whitener(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Cholesky factors ``L`` of ``G = U Uᵀ + δI`` for an ``(n, k, T)``
    stack of unit rows, and which of the ``n`` are degenerate.

    ``δ = 2·k·T·eps`` is twice a bound on the rounding of the computed Gram
    of unit rows, so ``G`` stays positive definite and the factorization
    never fails. Then ``L⁻¹ U`` has orthonormal rows, up to a shrink by
    ``δ`` that puts a floor of about ``sqrt(2δ / λ_max(U Uᵀ))`` under the
    angle between two equal spans: at T=128, k=24, 5 bits, about 4e-7 for
    NMF and 1.2e-6 for PCA loadings. A row that is a combination ``v`` of
    the rows before it leaves a pivot ``L_jj²`` of at most ``1.5·δ·||v||²``:
    ``1.5·δ`` for a zero row and ``3·δ`` for a duplicate one. A stack is
    degenerate where some ``L_jj² ≤ 4δ``. Each step factors one matrix at a
    time."""
    _, k, T = U.shape
    delta = 2 * k * T * _EPS
    gram = U @ U.transpose(0, 2, 1)
    gram[:, np.arange(k), np.arange(k)] += delta
    L = np.linalg.cholesky(gram)
    pivots = np.diagonal(L, axis1=1, axis2=2)
    return L, (pivots * pivots <= 4 * delta).any(axis=1)


def _angle_keys(queries: Sequence[FactorLoadings | QuantizedLoadings],
                index: ObjectIndex, rows: np.ndarray) -> np.ndarray:
    """Angles, ``(m, rows.size)``, of ``m`` queries of one kind to each
    image of ``rows``, from the index's lattice on each call. The queries of
    one rank, up to :data:`_QUERY_STACK` at a time, are stacked and
    whitened as images are, to ``W_a = L_a⁻¹ U_a``; per rank and chunk of
    images, the chunk is gathered and whitened once, and each image's
    ``Y = L_b⁻¹ (U_b W_aᵀ)`` gives ``cos = sqrt(λ_max(YᵀY))``, every query
    of a stack on a leading batch axis of these gufunc calls, which still
    factor, solve and decompose one matrix at a time, so no angle depends on
    the images or the queries that share its call. Each part
    (:func:`_in_parts`) takes a contiguous run of each rank's images. A degenerate image, and every
    image for a degenerate query, scores ``WORST_ANGLE``; so does a side with
    more columns than T, which is rank-deficient and skipped before any
    ``k x k`` Gram is formed."""
    kind = queries[0].kind
    keys = np.full((len(queries), rows.size), WORST_ANGLE)
    stacks = []  # (rows of keys, (m', 1, T, kq) stack of W_aᵀ), healthy queries only
    for kq, same_rank in _rank_groups(np.array([query.k for query in queries])):
        if kq > index.T:
            continue
        for at in range(0, same_rank.size, _QUERY_STACK):
            stack = same_rank[at:at + _QUERY_STACK]
            U_a = np.stack([_unit_rows(_query_lattice(queries[i]), np.arange(kq))
                            for i in stack])
            L_a, degenerate = _whitener(U_a)
            if not degenerate.all():
                W_a = np.linalg.solve(L_a[~degenerate], U_a[~degenerate])
                stacks.append((stack[~degenerate], W_a.transpose(0, 2, 1)[:, None]))
    starts = index._offsets[rows]
    groups = [(k, pos) for k, pos in _rank_groups(index._offsets[rows + 1] - starts)
              if k <= index.T]
    if not stacks or not groups:
        return keys

    def score(part: list[tuple[int, np.ndarray]]) -> None:
        for k, pos in part:
            step = max(1, _CHUNK_ROWS // k)  # bounds the temporaries of a full scan
            for chunk in (pos[i:i + step] for i in range(0, pos.size, step)):
                U_b = index._gather(kind, rows[chunk], k)
                L_b, degenerate = _whitener(U_b)
                for query_rows, W_t in stacks:
                    Y = np.linalg.solve(L_b, U_b @ W_t)
                    top = np.linalg.eigvalsh(np.swapaxes(Y, -1, -2) @ Y)[..., -1]
                    angles = np.arccos(np.sqrt(np.clip(top, 0.0, 1.0)))
                    keys[np.ix_(query_rows, chunk)] = np.where(degenerate, WORST_ANGLE, angles)

    # the multiply-adds of the U_b W_aᵀ products, split only where one
    # image's product holds _SPLIT_PRODUCT of them on average
    work = (sum(W_t.shape[0] * W_t.shape[-1] for _, W_t in stacks)
            * sum(k * pos.size for k, pos in groups) * index.T)
    pairs = sum(query_rows.size for query_rows, _ in stacks) * sum(pos.size for _, pos in groups)
    parts = _part_count(work, _PART_ANGLE, max(pos.size for _, pos in groups)
                        if work >= pairs * _SPLIT_PRODUCT else 1)
    splits = [(k, np.array_split(pos, parts)) for k, pos in groups]
    _in_parts(score, [[(k, split[p]) for k, split in splits] for p in range(parts)])
    return keys


_KERNELS = {METRIC_ANGLE: _angle_keys, METRIC_CORRELATION: _correlation_keys}


def _top_eta(index: ObjectIndex, rows: np.ndarray, keys: np.ndarray, metric: str,
             eta: int) -> RankedList:
    """The top-eta objects of the images of ``rows`` by their ``keys`` (for
    correlation, the negated scores): best-first by (key, image id), each
    object at its best view, with the scores the metric reports."""
    order = np.lexsort((index._id_rank[rows], keys))
    _, first = np.unique(index._object_code[rows[order]], return_index=True)
    best = order[np.sort(first)[:eta]]
    sign = -1.0 if metric == METRIC_CORRELATION else 1.0
    return RankedList(entries=tuple(
        RankedEntry(index._object_ids[r], index._image_ids[r], sign * key)
        for r, key in zip(rows[best].tolist(), keys[best].tolist())
    ), eta=eta)


def rank_database(
    query: FactorLoadings | QuantizedLoadings,
    index: ObjectIndex,
    metric: str,
    eta: int,
    candidates: set[str] | None = None,
) -> RankedList:
    """Score the query against database images and return the top-eta objects.

    The query is quantized loadings as uploaded, or float loadings (full
    precision); database loadings of its kind are used. Ordering is
    best-first (ascending angle / descending correlation) with
    lexicographic image-id tie-breaking; multiple views of one object
    collapse to the best view. Images whose loadings are degenerate under
    the angle metric sort last (angle pi/2) rather than aborting the query.
    This is the one-query call of the kernels that score many queries.
    """
    if metric not in (METRIC_ANGLE, METRIC_CORRELATION):
        raise ValueError(f"unknown metric {metric!r}")
    _check_eta(eta)
    _check_dims(query.T, index.T)
    rows = index._rows(candidates)
    if rows.size == 0:
        raise ValueError("no candidate images to rank")
    return _top_eta(index, rows, _KERNELS[metric]([query], index, rows)[0], metric, eta)


def _candidates(index: ObjectIndex, v_sec: RankedList) -> set[str]:
    """The images that the combined pipeline's angle pass re-scores: every
    view of the objects of its correlation pass's list ``v_sec``."""
    return index.images_of_objects(v_sec.object_ids())


class QueryBatch:
    """A list of query images scored at once against every image of an
    index, each given the lists that :func:`rank_database` gives it alone
    and the two that :func:`retrieve_combined` fuses for it alone.

    Each kind and metric's key matrix is scored once, when a list first
    reads it, and serves every list that reads it: the PCA correlation
    gives both the ``(PCA, correlation)`` lists and the combined pipeline's
    ``v_sec``, and the NMF angles to every image both the ``(NMF, angle)``
    lists and the combined pipeline's angle pass, each query's candidates'
    angles read from its row. No key depends on the queries or images
    scored beside it.
    """

    def __init__(self, queries: Iterable[IndexRecord], index: ObjectIndex, eta: int):
        _check_eta(eta)
        self._loadings: dict[str, list[FactorLoadings | QuantizedLoadings]] = {
            KIND_PCA: [], KIND_NMF: []}
        for _, pca, nmf in queries:
            for kind, loadings in ((KIND_PCA, pca), (KIND_NMF, nmf)):
                _check_dims(loadings.T, index.T)
                self._loadings[kind].append(loadings)
        if not self._loadings[KIND_PCA]:  # the kernels read the first query's kind
            raise ValueError("a batch holds at least one query")
        self._index = index
        self._eta = eta
        self._every = np.arange(index.num_images)
        self._keys: dict[tuple[str, str], np.ndarray] = {}
        self._ranked: dict[tuple[str, str], list[RankedList]] = {}

    def _keys_of(self, kind: str, metric: str) -> np.ndarray:
        if (kind, metric) not in self._keys:
            self._keys[kind, metric] = _KERNELS[metric](self._loadings[kind], self._index,
                                                        self._every)
        return self._keys[kind, metric]

    def ranked(self, kind: str, metric: str) -> list[RankedList]:
        """Each query's ``rank_database`` list by its ``kind`` loadings."""
        if (kind, metric) not in self._ranked:
            self._ranked[kind, metric] = [
                _top_eta(self._index, self._every, row, metric, self._eta)
                for row in self._keys_of(kind, metric)]
        return self._ranked[kind, metric]

    def hypotheses(self) -> list[tuple[RankedList, RankedList]]:
        """Each query's two combined-pipeline lists, ``(v_pri, v_sec)``, the
        ones ``retrieve_combined`` fuses."""
        index, pairs = self._index, []
        angles = self._keys_of(KIND_NMF, METRIC_ANGLE)
        for v_sec, row in zip(self.ranked(KIND_PCA, METRIC_CORRELATION), angles):
            rows = index._rows(_candidates(index, v_sec))
            pairs.append((_top_eta(index, rows, row[rows], METRIC_ANGLE, self._eta), v_sec))
        return pairs


def retrieve_combined(
    query_pca: FactorLoadings | QuantizedLoadings,
    query_nmf: FactorLoadings | QuantizedLoadings,
    index: ObjectIndex,
    eta: int,
    alpha: int,
) -> RankedList:
    """The combined pipeline for one query: the correlation pass over PCA
    loadings picks eta candidate objects (``v_sec``), the angle pass over
    NMF loadings re-scores every view of those objects (``v_pri``,
    :func:`_candidates`), and fusion reorders ``v_pri`` by ``v_sec``."""
    params = FusionParams(alpha=alpha, eta=eta)  # checked before any scoring
    v_sec = rank_database(query_pca, index, METRIC_CORRELATION, eta)
    v_pri = rank_database(query_nmf, index, METRIC_ANGLE, eta,
                          candidates=_candidates(index, v_sec))
    return fuse(v_pri, v_sec, params)
