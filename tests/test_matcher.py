import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch import codec
from factormatch.factorization import FactorLoadings
from factormatch.matcher import (
    _CHUNK_ROWS,
    WORST_ANGLE,
    DegenerateLoadingsError,
    DimensionMismatchError,
    ObjectIndex,
    RankedEntry,
    RankedList,
    _angle_keys,
    _correlation_keys,
    _correlations,
    _gemm_dtype,
    _query_lattice,
    combined_hypotheses,
    rank_database,
    retrieve_combined,
)

from conftest import correlation_score, random_unit_columns, subspace_angle


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

    def test_rank_deficient_raises(self):
        dup = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateLoadingsError, match="rank"):
            subspace_angle(pca_of(dup), pca_of([[1.0], [0.0], [0.0]]))

    def test_zero_column_raises(self):
        z = nmf_of([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateLoadingsError):
            subspace_angle(z, nmf_of([[1.0], [0.0], [0.0]]))

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
        if metric == "angle":
            try:
                key = subspace_angle(query, db)
            except DegenerateLoadingsError:
                key = WORST_ANGLE
        else:
            key = -correlation_score(query, db)
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


def cache_case(seed, T=12):
    """mixed_case plus an all-zero image and one with more columns than T."""
    rng, entries = mixed_case(seed, T)
    entries.append(("z_zero", "zero", random_unit_columns(rng, T, 2), np.zeros((T, 2))))
    entries.append(("z_wide", "wide", random_unit_columns(rng, T, T + 1),
                    random_nmf_columns(rng, T, T + 1)))
    return rng, entries


class TestBasisCache:
    """Angles from cached database bases equal those of a cold index, bit for bit."""

    @staticmethod
    def angles(index, query, candidates):
        rows = index._rows(candidates)
        return (_angle_keys(query, index, rows),
                rank_database(query, index, "angle", eta=50, candidates=candidates))

    def queries(self, rng, kind):
        make, cols = ((pca_of, random_unit_columns) if kind == "pca"
                      else (nmf_of, random_nmf_columns))
        return [make(cols(rng, 12, k)) for k in (1, 2, 3, 5)]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("warm_up", ["subset", "full", "other_kind", "subset_then_full"])
    def test_warm_index_scores_like_a_cold_one(self, seed, warm_up):
        rng, entries = cache_case(seed)
        ids = [e[0] for e in entries]
        subset = set(rng.choice(ids, size=len(ids) // 3, replace=False)) | {"z_zero"}
        for kind in ("pca", "nmf"):
            other = "nmf" if kind == "pca" else "pca"
            warmed = toy_index(entries)
            warmer = self.queries(rng, other if warm_up == "other_kind" else kind)[2]
            if warm_up in ("subset", "subset_then_full"):
                rank_database(warmer, warmed, "angle", candidates=subset)
            if warm_up in ("full", "subset_then_full", "other_kind"):
                rank_database(warmer, warmed, "angle")
            for query in self.queries(rng, kind):
                for candidates in (None, subset):
                    cold_keys, cold_ranked = self.angles(toy_index(entries), query, candidates)
                    keys, ranked = self.angles(warmed, query, candidates)
                    assert np.array_equal(keys, cold_keys)
                    assert ranked == cold_ranked
            assert set(warmed._basis_caches) == (
                {kind, other} if warm_up == "other_kind" else {kind})

    def test_degenerate_images_keep_worst_angle_once_cached(self):
        rng, entries = cache_case(1)
        index = toy_index(entries)
        dead = next(e[0] for e in entries if e[0] != "z_zero" and not e[3].any(axis=0).all())
        query = nmf_of(random_nmf_columns(rng, 12, 2))
        for _ in range(2):  # the first scan fills the cache, the second reads it
            keys, _ = self.angles(index, query, None)
            by_id = dict(zip(index.images, keys))
            assert by_id["z_zero"] == by_id[dead] == by_id["z_wide"] == WORST_ANGLE
        _, ranks = index._basis_cache("nmf")
        rank_of = dict(zip(index.images, ranks))
        assert rank_of["z_zero"] == 0
        assert 0 < rank_of[dead] < index.images[dead].nmf.k
        assert rank_of["z_wide"] == -1  # never needs a basis
        assert all(r > 0 for i, r in rank_of.items() if i not in ("z_zero", "z_wide"))

    def test_duplicate_loadings_share_cached_bases(self):
        rng, entries = cache_case(0)
        index = toy_index(entries)
        (_, _, _, nmf_cols), = [e for e in entries if e[0] == "a_dup"]
        twin = next(e[0] for e in entries if e[0] != "a_dup" and e[3] is nmf_cols)
        query = nmf_of(random_nmf_columns(rng, 12, 3))
        rank_database(query, index, "angle")
        bases, _ = index._basis_cache("nmf")
        T, offsets = index.T, index._offsets
        dup, tw = index._row["a_dup"], index._row[twin]
        assert np.array_equal(bases[T * offsets[dup]:T * offsets[dup + 1]],
                              bases[T * offsets[tw]:T * offsets[tw + 1]])
        ranked = rank_database(query, index, "angle", eta=2, candidates={twin, "a_dup"})
        assert [e.image_id for e in ranked.entries] == ["a_dup", twin]
        assert ranked.entries[0].score == ranked.entries[1].score

    def test_cache_allocated_at_the_first_angle_query_of_a_kind(self):
        rng, entries = cache_case(2)
        index = toy_index(entries)
        assert index._basis_caches == {}
        rank_database(pca_of(random_unit_columns(rng, 12, 2)), index, "correlation")
        rank_database(nmf_of(np.zeros((12, 2))), index, "angle")  # degenerate query
        assert index._basis_caches == {}
        rank_database(nmf_of(random_nmf_columns(rng, 12, 2)), index, "angle")
        bases, ranks = index._basis_caches["nmf"]
        # at most one mirror of the kind's float64 loadings stack
        assert bases.nbytes == index._lattices["nmf"].vectors.nbytes
        assert ranks.shape == (index.num_images,)
        assert list(index._basis_caches) == ["nmf"]


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
    """An index that keeps NMF loadings quantized gives the angles, bases and
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
                assert np.array_equal(_angle_keys(query, levels, rows),
                                      _angle_keys(query, floats, rows))
                assert (rank_database(query, levels, "angle", eta=50, candidates=candidates)
                        == rank_database(query, floats, "angle", eta=50, candidates=candidates))
        for got, want in zip(levels._basis_cache("nmf"), floats._basis_cache("nmf")):
            assert np.array_equal(got, want)
        _, ranks = levels._basis_cache("nmf")
        assert not images[-1][2].levels[:, 1].any()
        assert ranks[levels._row["z_one_bit"]] < 3
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
        full = np.stack([_correlation_keys(q, index, every) for q in queries])
        subset = np.sort(rng.choice(every, size=every.size // 3, replace=False))
        order = rng.permutation(every.size)
        shuffled = ObjectIndex([images[i] for i in order])
        for q, keys in zip(queries, full):
            assert np.array_equal(_correlation_keys(q, index, subset), keys[subset])
            assert np.array_equal(_correlation_keys(q, shuffled, every), keys[order])
        lattices = [_query_lattice(q) for q in queries]
        for dtype in (np.float32, np.float64):
            batch = _correlations(np.stack([lattice.vectors for lattice in lattices]),
                                  np.stack([lattice.norms for lattice in lattices]),
                                  stored.vectors, stored.norms, np.diff(index._offsets), dtype)
            assert np.array_equal(-batch, full)

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
        score = -_correlation_keys(query, index, index._rows(None))[0]
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
                keys = _correlation_keys(q, db, every)
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
                assert np.array_equal(stack, codec.dequantize(image[position]).columns)

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
        keys = _correlation_keys(query, index, index._rows(None))
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
                rank_database(pca_of(random_unit_columns(rng, 5, 2)), index, metric)


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


def test_ranked_list_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        RankedList(entries=(RankedEntry("a", "a_v1", 0.1), RankedEntry("a", "a_v2", 0.2)), eta=5)


def test_ranked_list_rejects_overflow():
    with pytest.raises(ValueError, match="exceed"):
        RankedList(entries=(RankedEntry("a", "a_v1", 0.1), RankedEntry("b", "b_v1", 0.2)), eta=1)
