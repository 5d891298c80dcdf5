import copy
import dataclasses
import functools
import gc
import math
import re
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch import codec, matcher
from factormatch.factorization import FactorLoadings
from factormatch.fusion import FusionParams, fuse
from factormatch.matcher import (
    _CHUNK_ROWS,
    _PART_ANGLE,
    _PART_GEMM,
    WORST_ANGLE,
    DimensionMismatchError,
    ObjectIndex,
    QueryBatch,
    RankedEntry,
    RankedList,
    _angle_keys,
    _candidates,
    _correlation_keys,
    _correlations,
    _gemm_dtype,
    _in_parts,
    _part_count,
    _query_lattice,
    rank_database,
    retrieve_combined,
)
from factormatch.service import answer_query, encode_query

from conftest import combined_hypotheses, correlation_score, random_unit_columns, subspace_angle


def angle_keys(query, index, rows):
    """The angle kernel's keys of one query."""
    return _angle_keys([query], index, rows)[0]


def correlation_keys(query, index, rows):
    """The correlation kernel's keys of one query."""
    return _correlation_keys([query], index, rows)[0]


def pca_of(columns, image_id="q"):
    return FactorLoadings(image_id=image_id, kind="pca", columns=np.array(columns, dtype=float))


def nmf_of(columns, image_id="q"):
    return FactorLoadings(image_id=image_id, kind="nmf", columns=np.array(columns, dtype=float))


def projection_angle(A: np.ndarray, B: np.ndarray) -> float:
    """Oracle: arccos(||P_A P_B||_2) with explicit projection matrices."""
    P_a = A @ np.linalg.inv(A.T @ A) @ A.T
    P_b = B @ np.linalg.inv(B.T @ B) @ B.T
    top = np.linalg.svd(P_a @ P_b, compute_uv=False)[0]
    return float(np.arccos(np.clip(top, 0.0, 1.0)))


def toy_index(entries):
    """entries: list of (image_id, object_id, pca_cols, nmf_cols)."""
    return ObjectIndex((object_id, pca_of(pca_cols, image_id), nmf_of(nmf_cols, image_id))
                       for image_id, object_id, pca_cols, nmf_cols in entries)


def unit(vec):
    vec = np.array(vec, dtype=float)
    return (vec / np.linalg.norm(vec)).reshape(-1, 1)


class TestSubspaceAngle:
    def test_self_angle_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = pca_of(np.linalg.qr(rng.standard_normal((10, 3)))[0])
            assert subspace_angle(a, a) < 1e-6

    def test_orthogonal_lines(self):
        a = pca_of([[1.0], [0.0], [0.0]])
        b = pca_of([[0.0], [1.0], [0.0]])
        assert subspace_angle(a, b) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_forty_five_degrees_matches_projection_oracle(self):
        a = pca_of([[1.0], [0.0], [0.0]])
        b = pca_of(unit([1.0, 1.0, 0.0]))
        angle = subspace_angle(a, b)
        assert angle == pytest.approx(math.pi / 4, abs=1e-12)
        assert angle == pytest.approx(projection_angle(a.columns, b.columns), abs=1e-10)

    def test_equals_projection_formula_on_random_shapes(self):
        # ka + kb < T keeps the spans in general position; overlapping spans
        # pin the angle at exactly 0 where arccos conditioning blows up and
        # both formulas only agree to ~2e-8
        rng = np.random.default_rng(1)
        for _ in range(100):
            ka = int(rng.integers(1, 9))
            kb = int(rng.integers(1, 9))
            T = int(rng.integers(ka + kb + 1, 33))
            A = random_unit_columns(rng, T, ka)
            B = random_unit_columns(rng, T, kb)
            fast = subspace_angle(pca_of(A), pca_of(B))
            assert abs(fast - projection_angle(A, B)) <= 1e-8

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = pca_of(random_unit_columns(rng, 12, 3))
            b = pca_of(random_unit_columns(rng, 12, 4))
            assert abs(subspace_angle(a, b) - subspace_angle(b, a)) <= 1e-10

    def test_invariant_to_column_recombination(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cols = random_unit_columns(rng, 10, 3)
            mix = rng.standard_normal((3, 3))
            while abs(np.linalg.det(mix)) < 1e-3:
                mix = rng.standard_normal((3, 3))
            mixed = cols @ mix
            mixed /= np.linalg.norm(mixed, axis=0)
            b = pca_of(random_unit_columns(rng, 10, 2))
            assert subspace_angle(pca_of(cols), b) == pytest.approx(
                subspace_angle(pca_of(mixed), b), abs=1e-9
            )

    def test_rank_deficient_scores_worst_angle(self):
        dup = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        line = pca_of([[1.0], [0.0], [0.0]])
        assert subspace_angle(pca_of(dup), line) == WORST_ANGLE
        assert subspace_angle(line, pca_of(dup)) == WORST_ANGLE

    def test_zero_column_scores_worst_angle(self):
        z = nmf_of([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        line = nmf_of([[1.0], [0.0], [0.0]])
        assert subspace_angle(z, line) == WORST_ANGLE
        assert subspace_angle(line, z) == WORST_ANGLE

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims differ"):
            subspace_angle(pca_of([[1.0], [0.0]]), pca_of([[1.0], [0.0], [0.0]]))


class TestCorrelationScore:
    def test_identity_loadings(self):
        a = pca_of(np.eye(3))
        assert correlation_score(a, a) == pytest.approx(3.0, abs=1e-12)

    def test_hand_evaluation(self):
        a = pca_of([[1.0], [0.0], [0.0]])
        b = pca_of(np.eye(3)[:, :2])
        # s_max = (1, 0) over b's two columns
        assert correlation_score(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(4)
        a = pca_of(random_unit_columns(rng, 4, 2))
        b = pca_of(random_unit_columns(rng, 4, 3))
        total = 0.0
        for j in range(3):
            best = -np.inf
            for i in range(2):
                best = max(best, float(a.columns[:, i] @ b.columns[:, j]))
            total += best
        assert correlation_score(a, b) == pytest.approx(total, abs=1e-12)

    def test_bounded_by_database_column_count(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = pca_of(random_unit_columns(rng, 9, int(rng.integers(1, 5))))
            kb = int(rng.integers(1, 5))
            b = pca_of(random_unit_columns(rng, 9, kb))
            assert correlation_score(a, b) <= kb + 1e-12


class TestRankDatabase:
    def test_exact_copy_ranks_first_with_zero_angle(self):
        rng = np.random.default_rng(6)
        target = random_unit_columns(rng, 8, 2)
        index = toy_index([
            ("a_v1", "a", target, np.abs(target) / np.linalg.norm(np.abs(target), axis=0)),
            ("b_v1", "b", random_unit_columns(rng, 8, 2),
             np.abs(random_unit_columns(rng, 8, 2))
             / np.linalg.norm(np.abs(random_unit_columns(rng, 8, 2)), axis=0)),
        ])
        ranked = rank_database(pca_of(target), index, "angle", eta=2)
        assert ranked.entries[0].object_id == "a"
        assert ranked.entries[0].score < 1e-6

    def test_object_dedup_keeps_best_image(self):
        query = pca_of([[1.0], [0.0], [0.0]])

        def col(score):
            return unit([score, math.sqrt(1 - score**2), 0.0])

        nmf_cols = unit([1.0, 1.0, 0.0])
        index = toy_index([
            ("x_v1", "X", col(0.9), nmf_cols),
            ("x_v2", "X", col(0.7), nmf_cols),
            ("y_v1", "Y", col(0.8), nmf_cols),
        ])
        ranked = rank_database(query, index, "correlation", eta=3)
        assert [(e.object_id, e.image_id) for e in ranked.entries] == [
            ("X", "x_v1"), ("Y", "y_v1"),
        ]
        assert ranked.entries[0].score == pytest.approx(0.9, abs=1e-12)
        assert ranked.entries[1].score == pytest.approx(0.8, abs=1e-12)

    def test_matches_brute_force_table(self):
        rng = np.random.default_rng(7)
        entries = []
        for obj in ("a", "b", "c"):
            for view in (1, 2):
                cols = random_unit_columns(rng, 6, 2)
                nmf = np.abs(cols)
                nmf /= np.linalg.norm(nmf, axis=0)
                entries.append((f"{obj}_v{view}", obj, cols, nmf))
        index = toy_index(entries)
        query = pca_of(random_unit_columns(rng, 6, 2), image_id="query")

        for metric in ("correlation", "angle"):
            table = []
            for image_id, obj, cols, nmf in entries:
                db = pca_of(cols, image_id)
                score = (correlation_score(query, db) if metric == "correlation"
                         else subspace_angle(query, db))
                table.append((score, image_id, obj))
            reverse = metric == "correlation"
            table.sort(key=lambda t: (-t[0] if reverse else t[0], t[1]))
            expected, seen = [], set()
            for score, image_id, obj in table:
                if obj not in seen:
                    seen.add(obj)
                    expected.append(obj)
            ranked = rank_database(query, index, metric, eta=3)
            assert ranked.object_ids() == expected

    def test_tie_break_by_image_id(self):
        cols = unit([1.0, 0.0, 0.0])
        nmf = unit([1.0, 1.0, 0.0])
        index = toy_index([
            ("zeta_v1", "zeta", cols, nmf),
            ("alpha_v1", "alpha", cols, nmf),
        ])
        ranked = rank_database(pca_of(cols), index, "correlation", eta=2)
        assert ranked.object_ids() == ["alpha", "zeta"]

    def test_degenerate_database_image_sorts_last(self):
        good = unit([1.0, 0.0, 0.0])
        zero = np.zeros((3, 1))
        index = toy_index([
            ("good_v1", "good", good, good),
            ("dead_v1", "dead", good, zero),
        ])
        ranked = rank_database(nmf_of(good), index, "angle", eta=2)
        assert ranked.object_ids() == ["good", "dead"]
        assert ranked.entries[1].score == pytest.approx(math.pi / 2)

    def test_eta_truncation_and_validation(self):
        rng = np.random.default_rng(8)
        entries = []
        for i in range(5):
            cols = random_unit_columns(rng, 6, 2)
            nmf = np.abs(cols)
            nmf /= np.linalg.norm(nmf, axis=0)
            entries.append((f"o{i}_v1", f"o{i}", cols, nmf))
        index = toy_index(entries)
        query = pca_of(random_unit_columns(rng, 6, 2))
        assert len(rank_database(query, index, "correlation", eta=3)) == 3
        with pytest.raises(ValueError, match="eta"):
            rank_database(query, index, "correlation", eta=0)
        with pytest.raises(ValueError, match="metric"):
            rank_database(query, index, "cosine", eta=3)

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError, match="at least one image"):
            ObjectIndex([])


def per_pair_ranking(query, entries, metric, eta, candidates=None):
    """The ranking as a loop over the one-image metrics: (object, image, score)
    best-first by (key, image id), one entry per object, top eta."""
    make = pca_of if query.kind == "pca" else nmf_of
    scored = []
    for image_id, obj, pca_cols, nmf_cols in entries:
        if candidates is not None and image_id not in candidates:
            continue
        db = make(pca_cols if query.kind == "pca" else nmf_cols, image_id)
        key = (subspace_angle(query, db) if metric == "angle"
               else -correlation_score(query, db))
        scored.append((key, image_id, obj))
    scored.sort(key=lambda t: (t[0], t[1]))
    ranked, seen = [], set()
    for key, image_id, obj in scored:
        if obj not in seen:
            seen.add(obj)
            ranked.append((obj, image_id, -key if metric == "correlation" else key))
    return ranked[:eta]


def random_nmf_columns(rng, T, k):
    cols = np.abs(random_unit_columns(rng, T, k))
    return cols / np.linalg.norm(cols, axis=0)


def mixed_case(seed, T=12):
    """Objects with 1-3 views of mixed rank k in 1..5, listed out of id order;
    one image duplicates another's loadings under a smaller id, and one NMF
    matrix has an all-zero column."""
    rng = np.random.default_rng(seed)
    entries = []
    for o in range(8):
        for v in range(1, int(rng.integers(1, 4)) + 1):
            k = int(rng.integers(1, 6))
            entries.append((f"o{o}_v{v}", f"o{o}", random_unit_columns(rng, T, k),
                            random_nmf_columns(rng, T, k)))
    zeroed = entries[1][3].copy()
    zeroed[:, 0] = 0.0
    entries[1] = (*entries[1][:3], zeroed)
    entries.append(("a_dup", "dup", entries[2][2], entries[2][3]))
    order = rng.permutation(len(entries))
    return rng, [entries[i] for i in order]


class TestColumnarRanking:
    """rank_database on the columnar index against a per-pair loop."""

    @staticmethod
    def assert_same(ranked, expected):
        assert [(e.object_id, e.image_id) for e in ranked.entries] == [
            (obj, image_id) for obj, image_id, _ in expected]
        for entry, (_, _, score) in zip(ranked.entries, expected):
            assert entry.score == pytest.approx(score, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_per_pair_loop(self, seed):
        rng, entries = mixed_case(seed)
        index = toy_index(entries)
        ids = [e[0] for e in entries]
        subset = set(rng.choice(ids, size=len(ids) // 2, replace=False)) | {"not_indexed"}
        for kind in ("pca", "nmf"):
            k = int(rng.integers(1, 5))
            query = (pca_of(random_unit_columns(rng, 12, k)) if kind == "pca"
                     else nmf_of(random_nmf_columns(rng, 12, k)))
            for metric in ("correlation", "angle"):
                for candidates in (None, subset):
                    self.assert_same(
                        rank_database(query, index, metric, eta=5, candidates=candidates),
                        per_pair_ranking(query, entries, metric, 5, candidates))

    @pytest.mark.parametrize("metric", ["correlation", "angle"])
    def test_duplicate_loadings_tie_by_image_id(self, metric):
        rng, entries = mixed_case(0)
        index = toy_index(entries)
        (_, _, pca_cols, _), = [e for e in entries if e[0] == "a_dup"]
        twin = next(e[0] for e in entries if e[0] != "a_dup" and e[2] is pca_cols)
        for kind in ("pca", "nmf"):
            query = (pca_of(random_unit_columns(rng, 12, 3)) if kind == "pca"
                     else nmf_of(random_nmf_columns(rng, 12, 3)))
            ranked = rank_database(query, index, metric, eta=2, candidates={twin, "a_dup"})
            assert [e.image_id for e in ranked.entries] == ["a_dup", twin]
            assert ranked.entries[0].score == ranked.entries[1].score

    def test_all_zero_nmf_column_scores_worst_angle(self):
        rng, entries = mixed_case(1)
        index = toy_index(entries)
        dead, dead_obj = next(e[:2] for e in entries if not e[3].any(axis=0).all())
        others = {e[0] for e in entries if e[1] != dead_obj}
        query = nmf_of(random_nmf_columns(rng, 12, 2))
        ranked = rank_database(query, index, "angle", eta=20, candidates=others | {dead})
        assert ranked.entries[-1].image_id == dead
        assert ranked.entries[-1].score == WORST_ANGLE

    def test_degenerate_query_gives_every_image_worst_angle(self):
        _, entries = mixed_case(2)
        index = toy_index(entries)
        query = nmf_of(np.zeros((12, 3)))
        ranked = rank_database(query, index, "angle", eta=20)
        assert all(e.score == WORST_ANGLE for e in ranked.entries)
        # all tie, so each object's smallest image id represents it, in id order
        best: dict[str, str] = {}
        for image_id, obj, _, _ in entries:
            best[obj] = min(best.get(obj, image_id), image_id)
        assert [e.image_id for e in ranked.entries] == sorted(best.values())
        self.assert_same(ranked, per_pair_ranking(query, entries, "angle", 20))

    def test_images_view_rebuilds_the_records(self):
        _, entries = mixed_case(3)
        index = toy_index(entries)
        assert list(index.images) == [e[0] for e in entries]
        assert len(index.images) == index.num_images == len(entries)
        for image_id, obj, pca_cols, nmf_cols in entries:
            rec = index.images[image_id]
            assert (rec.pca.image_id, rec.nmf.image_id, rec.object_id) == (image_id, image_id, obj)
            assert np.array_equal(rec.pca.columns, pca_cols)
            assert np.array_equal(rec.nmf.columns, nmf_cols)
        assert index.images.get("missing") is None
        with pytest.raises(TypeError):
            index.images["o0_v1"] = None

    def test_index_keeps_no_record(self):
        _, entries = mixed_case(4)
        images = [(e[1], pca_of(e[2], e[0]), nmf_of(e[3], e[0])) for e in entries]
        refs = [weakref.ref(pca) for _, pca, _ in images]
        index = ObjectIndex(images)
        del images
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert index.num_images == len(entries)

    def test_images_of_objects(self):
        _, entries = mixed_case(5)
        index = toy_index(entries)
        wanted = ["o1", "o3", "nobody"]
        assert index.images_of_objects(wanted) == {e[0] for e in entries if e[1] in wanted}
        assert index.num_objects == len({e[1] for e in entries})


def angle_case(seed, T=12):
    """mixed_case plus an all-zero image and one with more columns than T."""
    rng, entries = mixed_case(seed, T)
    entries.append(("z_zero", "zero", random_unit_columns(rng, T, 2), np.zeros((T, 2))))
    entries.append(("z_wide", "wide", random_unit_columns(rng, T, T + 1),
                    random_nmf_columns(rng, T, T + 1)))
    return rng, entries


def assert_same_state(got, want):
    """Equal index state: the same keys, dtypes and values, all the way down."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(want, dict) or dataclasses.is_dataclass(want):
        got, want = (vars(got), vars(want)) if dataclasses.is_dataclass(want) else (got, want)
        assert list(got) == list(want)
        for key in want:
            assert_same_state(got[key], want[key])
    else:
        assert got == want


BATCH_IMAGES = 300


# ranks of the batch case's queries: mixed, then two degenerate ones, each
# with a duplicated column, one alone in its rank (3) and one (24) whitened
# in one stack with the healthy query of its rank, and one with more columns
# than T = 32
BATCH_QUERY_RANKS = (20, 24, 28, 3, 24, 33)


@functools.cache
def batch_case(bits):
    """An index of ``BATCH_IMAGES`` images at T = 32 and ranks 24 and 28,
    more than one kernel chunk of each rank, quantized at ``bits`` (None:
    the 5-bit images dequantized), every 50th with a duplicated NMF column;
    per kind, 5-bit queries of ``BATCH_QUERY_RANKS`` (dequantized at None)
    and each one's angle to each image scored alone."""
    rng = np.random.default_rng(31)
    images = []
    for i in range(BATCH_IMAGES):
        k, image_id = (24, 28)[i % 2], f"o{i // 2}_v{i % 2}"
        pca, nmf = random_unit_columns(rng, 32, k), random_nmf_columns(rng, 32, k)
        if i % 50 == 7:
            nmf[:, 1] = nmf[:, 0]
        images.append((f"o{i // 2}", codec.quantize(pca_of(pca, image_id), 5),
                       codec.quantize(nmf_of(nmf, image_id), 5)))
    queries = {kind: [random_query(rng, kind, k, 5, T=32) for k in BATCH_QUERY_RANKS]
               for kind in ("pca", "nmf")}
    for kind_queries in queries.values():
        for degenerate in (3, 4):
            levels = kind_queries[degenerate].levels.copy()
            levels[:, 2] = levels[:, 0]
            kind_queries[degenerate] = dataclasses.replace(kind_queries[degenerate],
                                                           levels=levels)
    if bits is None:
        images = [(obj, codec.dequantize(pca), codec.dequantize(nmf))
                  for obj, pca, nmf in images]
        queries = {kind: [codec.dequantize(q) for q in kind_queries]
                   for kind, kind_queries in queries.items()}
    index = ObjectIndex(images)
    alone = {kind: np.array([[angle_keys(query, index, np.array([r]))[0]
                              for r in range(BATCH_IMAGES)] for query in kind_queries])
             for kind, kind_queries in queries.items()}
    return index, queries, alone


def angles(index, query, candidates):
    """The angle keys of the candidates' rows, and the ranking."""
    rows = index._rows(candidates)
    return (angle_keys(query, index, rows),
            rank_database(query, index, "angle", eta=50, candidates=candidates))


def angle_queries(rng, kind, T=12):
    make, cols = ((pca_of, random_unit_columns) if kind == "pca"
                  else (nmf_of, random_nmf_columns))
    return [make(cols(rng, T, k)) for k in (1, 2, 3, 5)]


class TestBasisCache:
    """No basis is cached: an index that has answered angle queries, of
    either kind and over any candidates, scores like a fresh one, bit for
    bit, whatever the order of the queries."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("warm_up", ["subset", "full", "other_kind", "subset_then_full"])
    def test_warm_index_scores_like_a_cold_one(self, seed, warm_up):
        rng, entries = angle_case(seed)
        ids = [e[0] for e in entries]
        subset = set(rng.choice(ids, size=len(ids) // 3, replace=False)) | {"z_zero"}
        for kind in ("pca", "nmf"):
            other = "nmf" if kind == "pca" else "pca"
            warmed = toy_index(entries)
            warmer = angle_queries(rng, other if warm_up == "other_kind" else kind)[2]
            if warm_up in ("subset", "subset_then_full"):
                rank_database(warmer, warmed, "angle", 20, candidates=subset)
            if warm_up in ("full", "subset_then_full", "other_kind"):
                rank_database(warmer, warmed, "angle", 20)
            for query in angle_queries(rng, kind):
                for candidates in (None, subset):
                    cold_keys, cold_ranked = angles(toy_index(entries), query, candidates)
                    keys, ranked = angles(warmed, query, candidates)
                    assert np.array_equal(keys, cold_keys)
                    assert ranked == cold_ranked


class TestAngleKernel:
    """Angles come from the stored lattice on each query: a candidate's
    angle is the same bit for bit whatever candidates share its batch,
    degenerate images score ``WORST_ANGLE`` at every width, and the index
    does not change."""

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_order_does_not_matter(self, seed):
        rng, entries = angle_case(seed)
        ids = [e[0] for e in entries]
        subset = set(rng.choice(ids, size=len(ids) // 3, replace=False)) | {"z_zero"}
        order = rng.permutation(len(entries))
        index, shuffled = toy_index(entries), toy_index([entries[i] for i in order])
        every = index._rows(None)
        for kind in ("pca", "nmf"):
            for query in angle_queries(rng, kind):
                alone = np.array([angle_keys(query, index, np.array([r]))[0] for r in every])
                assert np.array_equal(angle_keys(query, index, every), alone)
                assert np.array_equal(angle_keys(query, index, index._rows(subset)),
                                      alone[index._rows(subset)])
                assert np.array_equal(angle_keys(query, index, every[::-1]), alone[::-1])
                assert np.array_equal(angle_keys(query, shuffled, every), alone[order])

    def test_degenerate_images_score_worst_angle(self):
        rng, entries = angle_case(1)
        index = toy_index(entries)
        dead = next(e[0] for e in entries if e[0] != "z_zero" and not e[3].any(axis=0).all())
        query = nmf_of(random_nmf_columns(rng, 12, 2))
        keys, _ = angles(index, query, None)
        by_id = dict(zip(index.images, keys))
        assert by_id["z_zero"] == by_id[dead] == by_id["z_wide"] == WORST_ANGLE
        assert all(key < WORST_ANGLE for i, key in by_id.items()
                   if i not in ("z_zero", "z_wide", dead))

    def test_duplicate_loadings_tie(self):
        rng, entries = angle_case(0)
        index = toy_index(entries)
        (_, _, _, nmf_cols), = [e for e in entries if e[0] == "a_dup"]
        twin = next(e[0] for e in entries if e[0] != "a_dup" and e[3] is nmf_cols)
        query = nmf_of(random_nmf_columns(rng, 12, 3))
        keys = dict(zip(index.images, angle_keys(query, index, index._rows(None))))
        assert keys["a_dup"] == keys[twin]
        ranked = rank_database(query, index, "angle", eta=2, candidates={twin, "a_dup"})
        assert [e.image_id for e in ranked.entries] == ["a_dup", twin]
        assert ranked.entries[0].score == ranked.entries[1].score

    @pytest.mark.parametrize("bits", [None, 5])
    def test_angle_queries_leave_the_index_unchanged(self, bits):
        rng, entries = angle_case(2)
        images = [(obj, pca_of(p, i), nmf_of(n, i)) for i, obj, p, n in entries]
        if bits is not None:
            images = [(obj, codec.quantize(pca, bits), codec.quantize(nmf, bits))
                      for obj, pca, nmf in images]
        index = ObjectIndex(images)
        view = index.images

        def state():
            return {name: value for name, value in vars(index).items() if name != "images"}

        before = copy.deepcopy(state())
        for kind in ("pca", "nmf"):
            for query in angle_queries(rng, kind):
                rank_database(query, index, "angle", 20)
                rank_database(query, index, "angle", 20, candidates=set(list(index.images)[:3]))
                rank_database(codec.quantize(query, 5), index, "angle", 20)
        rank_database(nmf_of(np.zeros((12, 2))), index, "angle", 20)  # degenerate query
        assert index.images is view
        assert_same_state(state(), before)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(bits=st.sampled_from([None, 5]), kind=st.sampled_from(["pca", "nmf"]),
           rows=st.lists(st.integers(0, BATCH_IMAGES - 1), min_size=1, unique=True),
           queries=st.lists(st.integers(0, len(BATCH_QUERY_RANKS) - 1), min_size=1))
    def test_an_angle_alone_equals_it_in_any_batch(self, bits, kind, rows, queries):
        """Each angle of a batch of queries and rows is the one of its query
        scored alone against its row alone."""
        index, pool, alone = batch_case(bits)
        keys = _angle_keys([pool[kind][q] for q in queries], index, np.array(rows))
        assert np.array_equal(keys, alone[kind][np.ix_(queries, rows)])

    def test_levels_and_float_indexes_agree_bit_for_bit(self):
        for kind in ("pca", "nmf"):
            assert np.array_equal(batch_case(5)[2][kind], batch_case(None)[2][kind])
            every = np.arange(BATCH_IMAGES)
            for bits in (5, None):  # the whole pool over every row, in one call
                index, pool, alone = batch_case(bits)
                assert np.array_equal(_angle_keys(pool[kind], index, every), alone[kind])
        keys = batch_case(5)[2]["nmf"]
        assert np.sum(keys[0] == WORST_ANGLE) == BATCH_IMAGES // 50  # the duplicated columns
        assert np.all(keys[:3][keys[:3] < WORST_ANGLE] > 0)
        assert np.all(keys[3:] == WORST_ANGLE)  # the degenerate and the wide queries

    @pytest.mark.parametrize("bits", [5, None])
    def test_a_degenerate_query_leaves_its_stack_mates_alone(self, bits):
        """Queries of one rank are whitened as one stack: a degenerate query
        in it scores ``WORST_ANGLE`` against every image, and each of its
        stack-mates, before and after it, exactly its keys alone."""
        index, pool, alone = batch_case(bits)
        healthy, degenerate = 1, 4  # both of rank 24
        assert BATCH_QUERY_RANKS[healthy] == BATCH_QUERY_RANKS[degenerate]
        order = [healthy, degenerate, healthy, 0, degenerate, healthy]
        for kind in ("pca", "nmf"):
            keys = _angle_keys([pool[kind][q] for q in order], index, np.arange(BATCH_IMAGES))
            assert np.all(keys[[1, 4]] == WORST_ANGLE)
            assert np.array_equal(keys, alone[kind][order])
            # the healthy query's angles are real but to the degenerate NMF images
            assert np.sum(alone[kind][healthy] == WORST_ANGLE) == (
                0 if kind == "pca" else BATCH_IMAGES // 50)

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_degenerate_images_at_every_width(self, bits):
        """At T = 8: a duplicate column, a zero NMF column, a column that is
        a combination of two others, and more columns than T all score
        ``WORST_ANGLE``; ``k == T`` at full rank and a good ``k = 3`` image
        do not; a degenerate query gives every image ``WORST_ANGLE``."""
        T, top = 8, (1 << bits) - 1
        rng = np.random.default_rng(bits)
        hadamard = np.ones((1, 1), dtype=np.int64)
        while len(hadamard) < T:
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        odd = 2 * rng.integers(0, top + 1, size=(T, 3)) - top  # PCA lattice vectors
        duplicate = odd.copy()
        duplicate[:, 2] = duplicate[:, 0]
        # (x + y) and (x - y) for x odd and y even, whose half sum is x
        x = (rng.choice(np.arange(2 - top, top - 1, 2), size=T) if top > 1
             else rng.choice([-1, 1], size=T))
        spare = (top - np.abs(x)) // 2
        y = 2 * rng.integers(-spare, spare + 1)
        combination = np.stack([x + y, x - y, x], axis=1)
        disjoint = np.zeros((T, 3), dtype=np.int64)  # NMF levels: column 2 = column 0 + column 1
        disjoint[:T // 2, 0] = rng.integers(1, top + 1, size=T // 2)
        disjoint[T // 2:, 1] = rng.integers(1, top + 1, size=T // 2)
        disjoint[:, 2] = disjoint[:, 0] + disjoint[:, 1]
        positive = rng.integers(1, top + 1, size=(T, 3))
        nmf_duplicate, nmf_zero = positive.copy(), positive.copy()
        nmf_duplicate[:, 2] = nmf_duplicate[:, 0]
        nmf_zero[:, 1] = 0
        good, wide = [0, 3, 5], 2 * rng.integers(0, top + 1, size=(T, T + 1)) - top
        cases = {  # image id -> (PCA lattice vectors, NMF levels)
            "full": (hadamard, top * np.eye(T, dtype=np.int64)),
            "good": (hadamard[:, good], top * np.eye(T, dtype=np.int64)[:, good]),
            "duplicate": (duplicate, nmf_duplicate),
            "combination": (combination, disjoint),
            "zero": (hadamard[:, :3], nmf_zero),
            "wide": (wide, rng.integers(0, top + 1, size=(T, T + 1))),
        }
        images = [(image_id, levels_of("pca", bits, (pca + top) // 2, image_id),
                   levels_of("nmf", bits, nmf, image_id))
                  for image_id, (pca, nmf) in cases.items()]
        degenerate = {"pca": {"duplicate", "combination", "wide"},
                      "nmf": {"duplicate", "combination", "zero", "wide"}}
        queries = {"pca": levels_of("pca", bits, (hadamard[:, :2] + top) // 2, "q"),
                   "nmf": levels_of("nmf", bits, top * np.eye(T, dtype=np.int64)[:, :2], "q")}
        dead = {"pca": levels_of("pca", bits, (duplicate + top) // 2, "q"),
                "nmf": levels_of("nmf", bits, nmf_zero, "q")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for index in (ObjectIndex(images), ObjectIndex(
                    (obj, codec.dequantize(pca), codec.dequantize(nmf)) for obj, pca, nmf in images)):
                every = index._rows(None)
                for kind in ("pca", "nmf"):
                    keys = dict(zip(index.images, angle_keys(queries[kind], index, every)))
                    assert {i for i, key in keys.items() if key == WORST_ANGLE} == degenerate[kind]
                    assert keys["full"] < 1e-6 and keys["good"] < 1e-6
                    assert np.all(angle_keys(dead[kind], index, every) == WORST_ANGLE)

    def test_full_scan_temporaries_are_bounded(self):
        """A full angle scan of 1000 random 5-bit images at T=128, k=24
        allocates at its peak no more than the index holds plus a fixed
        8 MiB: it works in chunks of images."""
        rng = np.random.default_rng(72)
        index = ObjectIndex((f"o{i}", *(levels_of(kind, 5, rng.integers(0, 32, size=(128, 24)),
                                                  f"o{i}_v1") for kind in ("pca", "nmf")))
                            for i in range(1000))
        size = sum(lattice.vectors.nbytes + lattice.norms.nbytes
                   for lattice in index._lattices.values())
        query = random_query(rng, "nmf", 24, 5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keys = angle_keys(query, index, index._rows(None))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.all(keys < WORST_ANGLE)
        assert peak < size + (8 << 20)


LEVEL_BITS = (2, 5, 8, 12)


def levels_case(seed, T=12):
    """mixed_case's images with their NMF loadings quantized at 2, 5, 8 and
    12 bits in turn, plus a k = 1 image and a 1-bit image with an all-zero
    NMF column: ``(object_id, pca, quantized nmf)`` triples."""
    rng, entries = mixed_case(seed, T)
    entries.append(("k_one", "single", random_unit_columns(rng, T, 1),
                    random_nmf_columns(rng, T, 1)))
    images = [(obj, pca_of(pca_cols, image_id),
               codec.quantize(nmf_of(nmf_cols, image_id), LEVEL_BITS[i % len(LEVEL_BITS)]))
              for i, (image_id, obj, pca_cols, nmf_cols) in enumerate(entries)]
    zeroed = random_nmf_columns(rng, T, 3)
    zeroed[:, 1] = 0.0
    images.append(("one_bit", pca_of(random_unit_columns(rng, T, 3), "z_one_bit"),
                   codec.quantize(nmf_of(zeroed, "z_one_bit"), 1)))
    return rng, images


def assert_same_correlation_ranking(got, want):
    """The same objects and views in the same order, with correlation keys
    within 1e-13: lattice cosines and float64 dot products of the
    dequantized columns differ only by rounding."""
    assert [(e.object_id, e.image_id) for e in got.entries] == [
        (e.object_id, e.image_id) for e in want.entries]
    for ours, theirs in zip(got.entries, want.entries):
        assert abs(ours.score - theirs.score) <= 1e-13


def dequantized(images):
    """The same images with their NMF loadings dequantized to float64."""
    return [(obj, pca, codec.dequantize(nmf)) for obj, pca, nmf in images]


class TestLevelsBackedNmf:
    """An index that keeps NMF loadings quantized gives the angles and
    records of one given the same loadings dequantized to float64 bit for
    bit, and its correlation ranking up to rounding."""

    @pytest.mark.parametrize("seed", range(8))
    def test_scores_like_the_float_index(self, seed):
        rng, images = levels_case(seed)
        levels, floats = ObjectIndex(images), ObjectIndex(dequantized(images))
        ids = [pca.image_id for _, pca, _ in images]
        subset = set(rng.choice(ids, size=len(ids) // 2, replace=False)) | {"z_one_bit"}
        queries = [nmf_of(random_nmf_columns(rng, 12, k)) for k in (1, 2, 3, 5)]
        for query in queries:
            for candidates in (subset, None):
                rows = levels._rows(candidates)
                assert np.array_equal(angle_keys(query, levels, rows),
                                      angle_keys(query, floats, rows))
                assert (rank_database(query, levels, "angle", eta=50, candidates=candidates)
                        == rank_database(query, floats, "angle", eta=50, candidates=candidates))
        assert not images[-1][2].levels[:, 1].any()
        one_bit = np.array([levels._row["z_one_bit"]])
        assert angle_keys(queries[2], levels, one_bit)[0] == WORST_ANGLE
        for query in queries:  # lattice cosines against float64 dot products
            for candidates in (None, subset):
                assert_same_correlation_ranking(
                    rank_database(query, levels, "correlation", eta=50, candidates=candidates),
                    rank_database(query, floats, "correlation", eta=50, candidates=candidates))
        for image_id in ids:
            assert np.array_equal(levels.images[image_id].nmf.columns,
                                  floats.images[image_id].nmf.columns)
            assert np.array_equal(levels.images[image_id].pca.columns,
                                  floats.images[image_id].pca.columns)
        q_pca = pca_of(random_unit_columns(rng, 12, 3))
        assert (retrieve_combined(q_pca, queries[2], levels, eta=4, alpha=1)
                == retrieve_combined(q_pca, queries[2], floats, eta=4, alpha=1))

    # the PCA lattice spans [-(2^b - 1), 2^b - 1], the NMF one [0, 2^b - 1];
    # at T = 12, (2^b - 1)^2 * T < 2^24 holds up to b = 10
    @pytest.mark.parametrize("bits, pca_dtype, nmf_dtype, gemm_dtype", [
        ((1, 5, 7), np.int8, np.uint8, np.float32), ((5, 8), np.int16, np.uint8, np.float32),
        ((8, 10), np.int16, np.uint16, np.float32), ((2, 11, 16), np.int32, np.uint16, np.float64)])
    def test_stack_in_the_narrowest_integer_dtype(self, bits, pca_dtype, nmf_dtype, gemm_dtype):
        rng = np.random.default_rng(21)
        images = [(f"o{i}",
                   codec.quantize(pca_of(random_unit_columns(rng, 12, 2), f"o{i}_v1"), b),
                   codec.quantize(nmf_of(random_nmf_columns(rng, 12, 2), f"o{i}_v1"), b))
                  for i, b in enumerate(bits)]
        index = ObjectIndex(images)
        for kind, dtype in (("pca", pca_dtype), ("nmf", nmf_dtype)):
            lattice = index._lattices[kind]
            assert lattice.vectors.dtype == dtype
            assert _gemm_dtype(index.T, lattice.bits, lattice.bits) is gemm_dtype
        for _, pca, nmf in images:
            record = index.images[pca.image_id]
            assert np.array_equal(record.pca.columns, codec.dequantize(pca).columns)
            assert np.array_equal(record.nmf.columns, codec.dequantize(nmf).columns)

    @pytest.mark.parametrize("first_quantized", [True, False])
    def test_quantized_and_float_nmf_rejected(self, first_quantized):
        _, images = levels_case(0)
        mixed = [images[0], *dequantized(images[1:3])]
        if not first_quantized:
            mixed = [*dequantized(images[:1]), *images[1:3]]
        with pytest.raises(ValueError, match="quantized or float NMF loadings, not both"):
            ObjectIndex(mixed)

    def test_index_keeps_no_quantized_record(self):
        _, images = levels_case(4)
        refs = [weakref.ref(nmf) for _, _, nmf in images]
        refs += [weakref.ref(nmf.levels) for _, _, nmf in images]
        index = ObjectIndex(images)
        n = len(images)
        del images
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert index.num_images == n

def lattice_case(seed, n=180, T=128, bits=5):
    """``n`` images quantized at ``bits``, of ranks 20-28 at T = 128, so that
    their ``Σk`` rows span more than two 2048-row chunks of the kernel."""
    rng = np.random.default_rng(seed)
    images = []
    for i in range(n):
        k, image_id = int(rng.integers(20, 29)), f"o{i // 3}_v{i % 3}"
        images.append((f"o{i // 3}",
                       codec.quantize(pca_of(random_unit_columns(rng, T, k), image_id), bits),
                       codec.quantize(nmf_of(random_nmf_columns(rng, T, k), image_id), bits)))
    return rng, images


def random_query(rng, kind, k, bits, T=128):
    make, cols = (pca_of, random_unit_columns) if kind == "pca" else (nmf_of, random_nmf_columns)
    return codec.quantize(make(cols(rng, T, k)), bits)


class TestLatticeKernel:
    """Correlation is one GEMM of integer lattice vectors, exact in float32
    at these widths, so no score depends on the rows or queries it shares
    the GEMM with."""

    @pytest.mark.parametrize("kind", ["pca", "nmf"])
    def test_subset_shuffle_and_batch_score_bit_for_bit(self, kind):
        rng, images = lattice_case(0)
        index = ObjectIndex(images)
        stored = index._lattices[kind]
        assert stored.vectors.dtype == {"pca": np.int8, "nmf": np.uint8}[kind]
        assert len(stored.vectors) > 2 * _CHUNK_ROWS
        every = index._rows(None)
        queries = [random_query(rng, kind, 24, 5) for _ in range(4)]
        full = np.stack([correlation_keys(q, index, every) for q in queries])
        subset = np.sort(rng.choice(every, size=every.size // 3, replace=False))
        order = rng.permutation(every.size)
        shuffled = ObjectIndex([images[i] for i in order])
        for q, keys in zip(queries, full):
            assert np.array_equal(correlation_keys(q, index, subset), keys[subset])
            assert np.array_equal(correlation_keys(q, shuffled, every), keys[order])
        assert np.array_equal(_correlation_keys(queries, index, every), full)
        assert np.array_equal(_correlation_keys(queries, index, subset), full[:, subset])
        lattices = [_query_lattice(q) for q in queries]
        for dtype in (np.float32, np.float64):
            batch = _correlations(np.stack([lattice.vectors for lattice in lattices]),
                                  np.stack([lattice.norms for lattice in lattices]),
                                  stored.vectors, stored.norms, np.diff(index._offsets), dtype)
            assert np.array_equal(-batch, full)

    @pytest.mark.parametrize("kind", ["pca", "nmf"])
    def test_mixed_rank_and_float_query_lists_score_each_query_alone(self, kind):
        """Lists of queries of mixed ranks, quantized and float, against a
        lattice index and its dequantized float index, give each query the
        keys it gets alone."""
        rng, images = lattice_case(2, n=60)
        index = ObjectIndex(images)
        floats = ObjectIndex((obj, codec.dequantize(pca), codec.dequantize(nmf))
                             for obj, pca, nmf in images)
        quantized = [random_query(rng, kind, k, bits)
                     for k, bits in ((4, 5), (20, 5), (4, 5), (28, 8), (2, 5), (4, 12), (24, 5),
                                     (2, 5))]
        lists = [quantized, [codec.dequantize(q) for q in quantized],
                 [q if i % 2 else codec.dequantize(q) for i, q in enumerate(quantized)]]
        for db in (index, floats):
            every = db._rows(None)
            subset = np.sort(rng.choice(every, size=every.size // 3, replace=False))
            for queries in lists:
                for rows in (every, subset, every[::-1]):
                    alone = np.stack([correlation_keys(q, db, rows) for q in queries])
                    assert np.array_equal(_correlation_keys(queries, db, rows), alone)

    def test_all_zero_nmf_columns_add_zero(self):
        rng = np.random.default_rng(14)
        T, k, bits = 16, 4, 3

        def zeroed(f, column):
            levels = f.levels.copy()
            levels[:, column] = 0
            return dataclasses.replace(f, levels=levels)

        pca = codec.quantize(pca_of(random_unit_columns(rng, T, k), "d_v1"), bits)
        nmf = zeroed(codec.quantize(nmf_of(random_nmf_columns(rng, T, k), "d_v1"), bits), 1)
        index = ObjectIndex([("d", pca, nmf)])
        query = zeroed(random_query(rng, "nmf", 3, bits, T), 2)
        without = dataclasses.replace(query, levels=query.levels[:, :2])
        stored = index._lattices["nmf"]
        per_column = [_correlations(lattice.vectors[None], lattice.norms[None], stored.vectors,
                                    stored.norms, np.ones(k, dtype=np.intp), np.float32)[0]
                      for lattice in (_query_lattice(query), _query_lattice(without))]
        assert per_column[0][1] == 0.0
        assert np.array_equal(per_column[0], per_column[1])
        score = -correlation_keys(query, index, index._rows(None))[0]
        assert np.isfinite(score)
        # the float64 dot products of the dequantized columns, zeros where a column is zero
        assert abs(score - correlation_score(codec.dequantize(query), codec.dequantize(nmf))) <= 1e-13
        ranked = rank_database(query, index, "correlation", eta=1)
        assert ranked.entries[0].score == score

    @pytest.mark.parametrize("query_bits, dtype", [(12, np.float32), (16, np.float64)])
    def test_wide_queries_and_float_indexes_match_the_float64_oracle(self, query_bits, dtype):
        rng, images = lattice_case(1, n=30)
        floats = ObjectIndex((obj, codec.dequantize(pca), codec.dequantize(nmf))
                             for obj, pca, nmf in images)
        index = ObjectIndex(images)
        every = index._rows(None)
        for kind in ("pca", "nmf"):
            query = random_query(rng, kind, 24, query_bits)
            query_lattice = _query_lattice(query)
            assert _gemm_dtype(index.T, query_lattice.bits, index._lattices[kind].bits) is dtype
            assert _gemm_dtype(index.T, query_lattice.bits, floats._lattices[kind].bits) is np.float64
            for db, q in ((index, query), (floats, query), (floats, codec.dequantize(query))):
                keys = correlation_keys(q, db, every)
                for key, image_id in zip(keys, db.images):
                    oracle = correlation_score(codec.dequantize(query),
                                               getattr(db.images[image_id], kind))
                    assert abs(-key - oracle) <= 1e-13


def levels_of(kind, bits, levels, image_id):
    return codec.QuantizedLoadings(image_id, kind, bits, levels)


class TestIntegerStack:
    """The stack of lattice vectors is stored in a narrow integer dtype, in
    which numpy wraps silently: forming it, its norms and the levels read
    back from it are checked at the edges of every width, and its
    correlation keys against the same vectors stored as floats."""

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_edge_levels_at_every_width(self, bits):
        """All-zero and all-``(2^b - 1)`` levels at ``b``, beside a 1-bit
        image that the stack's dtype, set by ``b``, must hold too."""
        T, k = 128, 2
        images = [(f"o{i}", *(levels_of(kind, b, np.full((T, k), level), f"o{i}_v1")
                              for kind in ("pca", "nmf")))
                  for i, (b, level) in enumerate(((bits, 0), (bits, (1 << bits) - 1), (1, 1)))]
        index = ObjectIndex(images)
        for kind, position in (("pca", 1), ("nmf", 2)):
            lattice = index._lattices[kind]
            want = np.concatenate([
                2 * q.levels.T.astype(np.int64) - ((1 << q.bits) - 1) if kind == "pca"
                else q.levels.T.astype(np.int64) for q in (image[position] for image in images)])
            assert np.array_equal(lattice.vectors.astype(np.int64), want)
            squares = np.sum(want * want, axis=1)
            assert np.array_equal(lattice.norms, np.where(squares > 0, np.sqrt(squares), 1.0))
            gathered = index._gather(kind, index._rows(None), k)
            for stack, image in zip(gathered, images):
                assert np.array_equal(stack, codec.dequantize(image[position]).columns.T)

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(kind=st.sampled_from(["pca", "nmf"]), query_bits=st.integers(1, 16),
           stored_bits=st.lists(st.integers(1, 16), min_size=1, max_size=3),
           T=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_keys_equal_those_of_float_stacks(self, kind, query_bits, stored_bits, T, seed):
        rng = np.random.default_rng(seed)

        def random_levels(kind, bits, k, image_id):
            return levels_of(kind, bits, rng.integers(0, 1 << bits, size=(T, k)), image_id)

        images = []
        for i, bits in enumerate(stored_bits):
            k = int(rng.integers(1, 4))
            images.append((f"o{i}", random_levels("pca", bits, k, f"o{i}_v1"),
                           random_levels("nmf", bits, k, f"o{i}_v1")))
        index = ObjectIndex(images)
        query = random_levels(kind, query_bits, int(rng.integers(1, 4)), "q")
        lattice, stored = _query_lattice(query), index._lattices[kind]
        assert np.issubdtype(stored.vectors.dtype, np.integer)
        keys = correlation_keys(query, index, index._rows(None))
        dtype = _gemm_dtype(T, lattice.bits, stored.bits)
        for float_dtype in dict.fromkeys((dtype, np.float64)):  # float32 only where exact
            floats = -_correlations(lattice.vectors[None], lattice.norms[None],
                                    stored.vectors.astype(float_dtype), stored.norms,
                                    np.diff(index._offsets), float_dtype)[0]
            assert np.array_equal(keys, floats)


class TestOneDimensionPerIndex:
    def test_mixed_T_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DimensionMismatchError, match="descriptor dims"):
            toy_index([
                ("a_v1", "a", random_unit_columns(rng, 6, 2), random_nmf_columns(rng, 6, 2)),
                ("b_v1", "b", random_unit_columns(rng, 5, 2), random_nmf_columns(rng, 5, 2)),
            ])

    def test_query_of_another_T_rejected(self):
        rng = np.random.default_rng(12)
        index = toy_index([
            ("a_v1", "a", random_unit_columns(rng, 6, 2), random_nmf_columns(rng, 6, 2))])
        assert index.T == 6
        for metric in ("correlation", "angle"):
            with pytest.raises(DimensionMismatchError, match="dims differ: 5 vs 6"):
                rank_database(pca_of(random_unit_columns(rng, 5, 2)), index, metric, 20)


@pytest.mark.parametrize("case, message", [
    ("duplicate", "duplicate image id 'a_v1'"),
    ("nmf_of_another_image", "image 'b_v1': NMF loadings are of image 'a_v1'"),
    ("mistagged", "image 'b_v1' has mistagged loadings"),
    ("ranks_differ", r"image 'b_v1': loadings ranks \(2, 3\) differ"),
], ids=["duplicate", "nmf_of_another_image", "mistagged", "ranks_differ"])
def test_index_rejects_a_bad_image(case, message):
    rng = np.random.default_rng(13)
    cols, nmf_cols = random_unit_columns(rng, 6, 2), random_nmf_columns(rng, 6, 2)
    first = ("a", pca_of(cols, "a_v1"), nmf_of(nmf_cols, "a_v1"))
    second = {
        "duplicate": ("b", pca_of(cols, "a_v1"), nmf_of(nmf_cols, "a_v1")),
        "nmf_of_another_image": ("b", pca_of(cols, "b_v1"), nmf_of(nmf_cols, "a_v1")),
        "mistagged": ("b", nmf_of(nmf_cols, "b_v1"), pca_of(cols, "b_v1")),
        "ranks_differ": ("b", pca_of(cols, "b_v1"),
                         nmf_of(random_nmf_columns(rng, 6, 3), "b_v1")),
    }[case]
    with pytest.raises(ValueError, match=message):
        ObjectIndex([first, second])


class TestRetrieveCombined:
    @staticmethod
    def _index(rng, objects=6, views=2):
        entries = []
        for i in range(objects):
            base = random_unit_columns(rng, 8, 2)
            for v in range(1, views + 1):
                cols = base + 0.05 * rng.standard_normal(base.shape)
                cols /= np.linalg.norm(cols, axis=0)
                nmf = np.abs(cols)
                nmf /= np.linalg.norm(nmf, axis=0)
                entries.append((f"o{i}_v{v}", f"o{i}", cols, nmf))
        return toy_index(entries), entries

    def test_alpha_eta_reduces_to_primary(self):
        rng = np.random.default_rng(9)
        index, entries = self._index(rng)
        q_pca = pca_of(entries[0][2], "q")
        q_nmf = nmf_of(entries[0][3], "q")
        v_pri, _ = combined_hypotheses(q_pca, q_nmf, index, eta=4)
        fused = retrieve_combined(q_pca, q_nmf, index, eta=4, alpha=4)
        assert fused.entries == v_pri.entries

    def test_consensus_order_preserved(self):
        # same loadings drive both metrics toward the same object ordering
        query = unit([1.0, 0.2, 0.0])
        entries = []
        for i, mix in enumerate((0.0, 0.5, 1.0)):
            cols = unit([1.0, mix, mix])
            entries.append((f"o{i}_v1", f"o{i}", cols, cols))
        index = toy_index(entries)
        fused = retrieve_combined(pca_of(query), nmf_of(query), index, eta=3, alpha=1)
        v_pri, v_sec = combined_hypotheses(pca_of(query), nmf_of(query), index, eta=3)
        assert v_pri.object_ids() == v_sec.object_ids()
        assert fused.object_ids() == v_pri.object_ids()

    def test_alpha_out_of_range(self):
        rng = np.random.default_rng(10)
        index, entries = self._index(rng)
        q_pca = pca_of(entries[0][2])
        q_nmf = nmf_of(entries[0][3])
        with pytest.raises(ValueError, match="alpha"):
            retrieve_combined(q_pca, q_nmf, index, eta=4, alpha=5)


class TestQueryBatch:
    """A batch gives each query the lists that rank_database and
    retrieve_combined's two passes give it alone."""

    @staticmethod
    def case(seed, bits):
        """mixed_case's images and, of ranks 1 to 5 and a degenerate rank 3,
        queries, all quantized at ``bits`` (None: float)."""
        rng, entries = mixed_case(seed)
        images = [(obj, pca_of(pca_cols, image_id), nmf_of(nmf_cols, image_id))
                  for image_id, obj, pca_cols, nmf_cols in entries]
        queries = [(f"q{k}", pca_of(random_unit_columns(rng, 12, k), f"q{k}"),
                    nmf_of(random_nmf_columns(rng, 12, k), f"q{k}")) for k in (1, 2, 3, 4, 5)]
        twin = random_nmf_columns(rng, 12, 3)
        twin[:, 2] = twin[:, 0]
        queries.append(("qd", pca_of(random_unit_columns(rng, 12, 3), "qd"), nmf_of(twin, "qd")))
        if bits is not None:
            images, queries = ([(obj, codec.quantize(pca, bits), codec.quantize(nmf, bits))
                                for obj, pca, nmf in records] for records in (images, queries))
        return ObjectIndex(images), queries

    @pytest.mark.parametrize("bits", [None, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_lists_equal_each_query_alone(self, seed, bits):
        index, queries = self.case(seed, bits)
        for eta in (2, 20):  # candidates a subset of the images, and every image
            batch = QueryBatch(queries, index, eta)
            for metric in ("correlation", "angle"):
                assert batch.ranked("pca", metric) == [
                    rank_database(pca, index, metric, eta) for _, pca, _ in queries]
                assert batch.ranked("nmf", metric) == [
                    rank_database(nmf, index, metric, eta) for _, _, nmf in queries]
            assert batch.hypotheses() == [combined_hypotheses(pca, nmf, index, eta)
                                          for _, pca, nmf in queries]

    @pytest.mark.parametrize("bits", [None, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_query_front_door_fuses_the_batch_lists(self, seed, bits):
        """``retrieve_combined`` on one query gives what fusing its
        ``QueryBatch.hypotheses`` pair gives."""
        index, queries = self.case(seed, bits)
        for eta in (2, 20):
            pairs = QueryBatch(queries, index, eta).hypotheses()
            for alpha in (0, 1, eta):
                for (_, pca, nmf), pair in zip(queries, pairs):
                    assert (retrieve_combined(pca, nmf, index, eta, alpha)
                            == fuse(*pair, FusionParams(alpha, eta)))

    def test_bad_eta_and_dims_rejected(self, monkeypatch):
        index, queries = self.case(0, None)
        with pytest.raises(ValueError, match="eta"):
            QueryBatch(queries, index, eta=0)
        # a non-integer or bool eta or alpha is a ValueError before any scoring
        monkeypatch.setattr(matcher, "_KERNELS", {})
        _, pca, nmf = queries[0]
        for eta in (2.5, 3.0, True):
            message = f"eta must be >= 1 and an integer, got {eta!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                QueryBatch(queries, index, eta=eta)
            with pytest.raises(ValueError, match=re.escape(message)):
                rank_database(pca, index, "correlation", eta=eta)
            with pytest.raises(ValueError, match=re.escape(message)):
                retrieve_combined(pca, nmf, index, eta=eta, alpha=0)
        for alpha in (1.5, 2.0, True):
            with pytest.raises(ValueError, match=re.escape(
                    f"alpha={alpha!r} out of range: an integer in [0, 3]")):
                retrieve_combined(pca, nmf, index, eta=3, alpha=alpha)
        other_T = [("w", pca_of(np.eye(13, 2), "w"), nmf_of(np.eye(13, 2), "w"))]
        with pytest.raises(DimensionMismatchError, match="dims differ: 13 vs 12"):
            QueryBatch(other_T, index, 20)
        with pytest.raises(ValueError, match="at least one query"):
            QueryBatch([], index, 20)


class TestWorkerSplit:
    """A kernel call split across 1, 2 or 3 workers gives the same bytes:
    each part scores its own chunks of rows or its own images."""

    DEGENERATE = 5  # the image whose NMF columns 0 and 1 are equal

    @staticmethod
    @functools.cache
    def case():
        """lattice_case's index, more than two chunks of rows with a ragged
        last one and one degenerate NMF image, and IndexRecord queries:
        that image's own loadings and random 5-bit ones of mixed ranks, and
        two float ones."""
        rng, images = lattice_case(4)
        obj, pca, nmf = images[TestWorkerSplit.DEGENERATE]
        levels = nmf.levels.copy()
        levels[:, 1] = levels[:, 0]
        images[TestWorkerSplit.DEGENERATE] = (obj, pca, dataclasses.replace(nmf, levels=levels))
        queries = [(obj, pca, images[TestWorkerSplit.DEGENERATE][2])]
        for i, k in enumerate((4, 20, 24, 28, 4, 24)):
            queries.append((f"q{i}", random_query(rng, "pca", k, 5), random_query(rng, "nmf", k, 5)))
        floats = [("f", codec.dequantize(pca), codec.dequantize(nmf)) for _, pca, nmf in queries[2:4]]
        return ObjectIndex(images), queries, floats

    def outputs(self):
        """The key matrices of one batch of every query, the degenerate
        image's query's rerank keys, and each quantized query's response."""
        index, queries, floats = self.case()
        batch = QueryBatch(queries + floats, index, eta=8)
        keys = {(kind, metric): batch._keys_of(kind, metric)
                for kind in ("pca", "nmf") for metric in ("angle", "correlation")}
        keys["rerank"] = _angle_keys([queries[0][2]], index, self.reranked())
        responses = [answer_query(index, encode_query(8, 2, codec.encode(pca), codec.encode(nmf)))
                     for _, pca, nmf in queries]
        return keys, responses

    def reranked(self):
        """The rows that the degenerate image's query reranks at eta 8."""
        index, queries, _ = self.case()
        v_sec = rank_database(queries[0][1], index, "correlation", eta=8)
        return index._rows(_candidates(index, v_sec))

    def test_one_two_and_three_workers_give_the_same_bytes(self, workers):
        index, queries, _ = self.case()
        rows = len(index._lattices["pca"].vectors)
        assert rows > 2 * _CHUNK_ROWS and rows % _CHUNK_ROWS
        assert len({q.k for _, q, _ in queries}) > 2
        reranked = list(self.reranked())
        assert len(reranked) > 3 and self.DEGENERATE in reranked
        got = []
        for n in (1, 2, 3):
            workers(n)
            got.append(self.outputs())
        for keys, responses in got[1:]:
            assert responses == got[0][1]
            for which, matrix in keys.items():
                assert matrix.tobytes() == got[0][0][which].tobytes(), which
        assert got[0][0]["rerank"][0, reranked.index(self.DEGENERATE)] == WORST_ANGLE

    def test_calls_split_by_their_work(self, monkeypatch):
        """Each part carries at least the least work, and there are at most
        as many parts as workers and as the call divides into."""
        monkeypatch.setattr(matcher, "_workers", 3)
        assert [_part_count(work, 100, 10) for work in (0, 199, 200, 299, 300, 10**6)] == [
            1, 1, 2, 2, 3, 3]
        assert _part_count(10**6, 100, 2) == 2
        # the serve-k24 operating point splits both kernels on 2 CPUs
        monkeypatch.setattr(matcher, "_workers", 2)
        assert _part_count(1000 * 24 * 128 * 24, _PART_GEMM, 12) == 2
        assert _part_count(80 * 24 * 128 * 24, _PART_ANGLE, 80) == 2

    def test_angles_of_small_products_stay_whole(self, monkeypatch):
        """T=128 images of rank 20-28 split their angles on 2 workers; the
        products of T=12 images of rank 1-5 are too small to split, whatever
        the call's work."""
        monkeypatch.setattr(matcher, "_workers", 2)
        monkeypatch.setattr(matcher, "_pool", None)
        splits = []
        run = matcher._in_parts
        monkeypatch.setattr(matcher, "_in_parts",
                            lambda task, parts: splits.append(len(parts)) or run(task, parts))
        rng, images = lattice_case(4)
        index = ObjectIndex(images)
        _angle_keys([random_query(rng, "nmf", 24, 5)], index, index._rows(None))
        small, queries = TestQueryBatch.case(0, 5)
        monkeypatch.setattr(matcher, "_PART_ANGLE", 1)  # as if the call had work enough
        _angle_keys([nmf for _, _, nmf in queries], small, small._rows(None))
        monkeypatch.setattr(matcher, "_SPLIT_PRODUCT", 0)
        _angle_keys([nmf for _, _, nmf in queries], small, small._rows(None))
        assert splits == [2, 1, 2]

    def test_a_caller_splits_only_while_no_other_caller_is_inside(self, workers):
        """Alone, a caller runs its first part and the pool the others;
        beside another caller's parts, it runs all its parts itself."""
        workers(3)
        threads = []
        inside, release = threading.Event(), threading.Event()

        def hold(part):
            if part == 0:
                inside.set()
                assert release.wait(timeout=30)

        def record(part):
            threads.append((part, threading.current_thread()))

        _in_parts(record, [0, 1, 2])
        ran_on = dict(threads)
        assert ran_on[0] is threading.current_thread()
        assert all(ran_on[part].name.startswith("matcher") for part in (1, 2))
        holder = threading.Thread(target=_in_parts, args=(hold, [0, 1]))
        holder.start()
        try:
            assert inside.wait(timeout=30)
            threads.clear()
            _in_parts(record, [0, 1, 2])
            assert threads == [(part, threading.current_thread()) for part in (0, 1, 2)]
        finally:
            release.set()
            holder.join(timeout=30)
        assert not holder.is_alive()

    def test_a_failing_part_is_raised_once_every_part_has_finished(self, workers):
        workers(3)
        for failing in ({0}, {1}, {2}, {1, 2}):
            finished = []

            def task(part):
                if part in failing:
                    raise RuntimeError(f"part {part}")
                time.sleep(0.05)
                finished.append(part)

            with pytest.raises(RuntimeError, match=f"part {min(failing)}"):
                _in_parts(task, [0, 1, 2])
            assert sorted(finished) == sorted({0, 1, 2} - failing)


def test_ranked_list_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        RankedList(entries=(RankedEntry("a", "a_v1", 0.1), RankedEntry("a", "a_v2", 0.2)), eta=5)


def test_ranked_list_rejects_overflow():
    with pytest.raises(ValueError, match="exceed"):
        RankedList(entries=(RankedEntry("a", "a_v1", 0.1), RankedEntry("b", "b_v1", 0.2)), eta=1)
