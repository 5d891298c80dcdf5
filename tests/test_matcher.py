import math

import numpy as np
import pytest

from factormatch.factorization import FactorLoadings
from factormatch.matcher import (
    DegenerateLoadingsError,
    IndexedImage,
    ObjectIndex,
    RankedEntry,
    RankedList,
    combined_hypotheses,
    correlation_score,
    rank_database,
    retrieve_combined,
    subspace_angle,
)

from conftest import random_unit_columns


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
    images = {}
    for image_id, object_id, pca_cols, nmf_cols in entries:
        pca = pca_of(pca_cols, image_id)
        nmf = nmf_of(nmf_cols, image_id)
        images[image_id] = IndexedImage(
            image_id=image_id, object_id=object_id, pca=pca, nmf=nmf
        )
    return ObjectIndex(images=images)


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
            ObjectIndex(images={})


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
