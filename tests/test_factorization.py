import numpy as np
import pytest

from factormatch.descriptors import DescriptorMatrix
from factormatch.factorization import (
    FactorAssignment,
    FactorLoadings,
    compute_svd,
    nmf_loadings,
    pca_loadings,
)

from conftest import nmf_objective, to_matrix, validate_loadings


def matrix_of(values, image_id="m"):
    return DescriptorMatrix(image_id=image_id, object_id="o", values=np.array(values))


def random_matrix(rng, T, N):
    return matrix_of(rng.random((T, N)) + 1e-3)


class TestPcaLoadings:
    def test_rank_one_sign_canonicalization(self):
        m = matrix_of([[1.0, 1.0], [0.0, 0.0]])
        loadings = pca_loadings(m, 1)
        assert np.allclose(loadings.columns, [[1.0], [0.0]], atol=1e-12)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = random_matrix(rng, int(rng.integers(3, 20)), int(rng.integers(5, 40)))
            k = int(rng.integers(1, min(m.T, m.N) + 1))
            loadings = pca_loadings(m, k)
            gram = loadings.columns.T @ loadings.columns
            assert np.allclose(gram, np.eye(k), atol=1e-8)
            validate_loadings(loadings)

    def test_matches_eigendecomposition_oracle(self):
        # top-2 eigenvectors of M M^T computed independently must span the
        # same subspace as the loadings
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 3, 6)
        loadings = pca_loadings(m, 2)
        values = m.values.astype(np.float64)
        eigvals, eigvecs = np.linalg.eigh(values @ values.T)
        top2 = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
        overlap = np.linalg.svd(top2.T @ loadings.columns, compute_uv=False)
        angle = np.arccos(np.clip(overlap.min(), -1, 1))
        assert angle < 1e-7

    def test_reconstruction_error_equals_tail_energy(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 10, 25)
        svd = compute_svd(m)
        values = m.values.astype(np.float64)
        previous = np.inf
        for k in range(1, 11):
            loadings = pca_loadings(m, k, svd=svd)
            H = loadings.columns
            err = np.linalg.norm(values - H @ (H.T @ values))
            tail = np.sqrt(np.sum(svd.singular_values[k:] ** 2))
            assert err <= previous + 1e-12
            assert err == pytest.approx(tail, rel=1e-6, abs=1e-9)
            previous = err

    def test_k_out_of_range(self):
        m = matrix_of([[1.0, 2.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="out of range"):
            pca_loadings(m, 3)
        with pytest.raises(ValueError, match="out of range"):
            pca_loadings(m, 0)

    def test_svd_reconstructs(self):
        rng = np.random.default_rng(3)
        for T, N in [(4, 9), (9, 4)]:
            m = random_matrix(rng, T, N)
            svd = compute_svd(m)
            assert svd.U.shape == (T, T)
            k = svd.singular_values.size
            reconstructed = (svd.U[:, :k] * svd.singular_values) @ svd.Vt[:k, :]
            rel = np.linalg.norm(reconstructed - m.values) / np.linalg.norm(m.values)
            assert rel < 1e-6
            assert np.all(np.diff(svd.singular_values) <= 1e-12)


class TestNmfLoadings:
    def test_two_exact_point_clusters(self):
        values = np.zeros((4, 20))
        values[0, :10] = 1.0
        values[1, 10:] = 1.0
        m = matrix_of(values)
        loadings, assign, trace = nmf_loadings(m, 2, seed=3)
        cols = {tuple(np.round(loadings.columns[:, j], 12)) for j in range(2)}
        assert cols == {(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)}
        assert trace[-1] == pytest.approx(0.0, abs=1e-20)

    def test_assignment_is_one_sparse(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 6, 30)
        _, assign, _ = nmf_loadings(m, 4, seed=0)
        R = to_matrix(assign)
        assert R.shape == (4, 30)
        assert np.all(np.count_nonzero(R, axis=0) <= 1)
        assert assign.cluster_of.shape == (30,)
        assert (assign.scale_of >= 0).all()

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(11)
        m = matrix_of(rng.random((5, 30)) + 1e-3)
        _, _, trace = nmf_loadings(m, 3, seed=11)
        assert np.all(np.diff(trace) <= 0)
        assert trace[-1] <= trace[0]

    def test_unit_norm_non_negative_loadings(self):
        rng = np.random.default_rng(6)
        for seed in range(4):
            m = random_matrix(rng, 8, 25)
            loadings, _, _ = nmf_loadings(m, 5, seed=seed)
            validate_loadings(loadings)
            assert (loadings.columns >= 0).all()
            assert np.allclose(np.linalg.norm(loadings.columns, axis=0), 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 7, 40)
        a = nmf_loadings(m, 4, seed=123)
        b = nmf_loadings(m, 4, seed=123)
        assert np.array_equal(a[0].columns, b[0].columns)
        assert np.array_equal(a[1].cluster_of, b[1].cluster_of)
        assert np.array_equal(a[1].scale_of, b[1].scale_of)
        assert np.array_equal(a[2], b[2])

    def test_full_capacity_beats_single_cluster(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, 6, 12)
        _, _, trace_full = nmf_loadings(m, 12, seed=0)
        _, _, trace_one = nmf_loadings(m, 1, seed=0)
        assert trace_full[-1] <= trace_one[-1]

    def test_k_larger_than_n_rejected(self):
        m = matrix_of([[1.0, 2.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="out of range"):
            nmf_loadings(m, 3, seed=0)


class TestNmfObjective:
    def test_exact_reconstruction_is_zero(self):
        values = np.zeros((4, 20))
        values[0, :10] = 1.0
        values[1, 10:] = 1.0
        m = matrix_of(values)
        loadings, assign, _ = nmf_loadings(m, 2, seed=3)
        assert nmf_objective(m, loadings, assign) == pytest.approx(0.0, abs=1e-20)

    def test_single_descriptor_identity(self):
        d = np.array([[3.0], [4.0]])
        m = matrix_of(d)
        loadings = FactorLoadings(image_id="m", kind="nmf", columns=d / 5.0)
        assign = FactorAssignment(k=1, cluster_of=[0], scale_of=[5.0])
        assert nmf_objective(m, loadings, assign) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 4, 8)
        loadings, assign, _ = nmf_loadings(m, 3, seed=1)
        # naive: accumulate squared residuals entry by entry
        total = 0.0
        for j in range(m.N):
            approx = loadings.columns[:, assign.cluster_of[j]] * assign.scale_of[j]
            for i in range(m.T):
                total += (float(m.values[i, j]) - approx[i]) ** 2
        assert nmf_objective(m, loadings, assign) == pytest.approx(0.5 * total, abs=1e-10)

    @pytest.mark.parametrize("k", [4, 6])
    def test_dead_cluster_reseed(self, k):
        """Three distinct descriptors, each repeated 20 times: k > 3 leaves
        a cluster with no members, which the update step re-seeds."""
        base = np.random.default_rng(8).random((16, 3)) + 1e-3
        m = matrix_of(np.repeat(base, 20, axis=1))
        loadings, assign, trace = nmf_loadings(m, k, seed=0)
        assert np.unique(assign.cluster_of).size < k
        assert np.all(np.diff(trace) <= 0)
        assert nmf_objective(m, loadings, assign) == pytest.approx(trace[-1], abs=1e-10)
        assert np.allclose(np.linalg.norm(loadings.columns, axis=0), 1.0, atol=1e-12)
        assert (loadings.columns >= 0).all()

    def test_reseeded_iterates_kept(self):
        """Seven distinct descriptors for eight clusters: every update
        re-seeds a dead cluster, and the objective still falls."""
        rng = np.random.default_rng(22)
        base = rng.random((16, 3)) + 1e-3
        clumps = np.repeat(base, rng.integers(1, 30, size=3), axis=1)
        near = rng.random((16, 4)) * 0.05 + base[:, [0]]
        m = matrix_of(np.concatenate([clumps, near], axis=1))
        loadings, assign, trace = nmf_loadings(m, 8, seed=22)
        assert len(trace) > 1
        assert np.all(np.diff(trace) <= 0)
        assert nmf_objective(m, loadings, assign) == pytest.approx(trace[-1], abs=1e-10)
        assert np.allclose(np.linalg.norm(loadings.columns, axis=0), 1.0, atol=1e-12)
        assert (loadings.columns >= 0).all()

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, 4, 8)
        loadings, assign, _ = nmf_loadings(m, 2, seed=0)
        other = random_matrix(rng, 5, 8)
        with pytest.raises(ValueError, match="shape mismatch"):
            nmf_objective(other, loadings, assign)


def test_loadings_kind_checked():
    with pytest.raises(ValueError, match="kind"):
        FactorLoadings(image_id="x", kind="svd", columns=np.eye(2))
