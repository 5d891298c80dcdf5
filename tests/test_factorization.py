import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factormatch import SynthCorpusSpec, codec, generate_corpus
from factormatch.descriptors import DescriptorMatrix
from factormatch.factorization import (
    KIND_NMF,
    KIND_PCA,
    FactorAssignment,
    FactorLoadings,
    SvdResult,
    _farthest_point_init,
    compute_svd,
    nmf_loadings,
    pca_loadings,
)
from factormatch.model_order import estimate_order
from factormatch.service import factorize_image

from conftest import (explicit_nmf, farthest_point_init, gesdd_svd, nmf_objective, to_matrix,
                      validate_loadings)


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
        """``U`` is ``T x min(T, N)`` with orthonormal columns, and
        ``Uᵀ M Mᵀ U = diag(s²)``: the left half of ``M``'s SVD."""
        rng = np.random.default_rng(3)
        for T, N in [(4, 9), (9, 4)]:
            m = random_matrix(rng, T, N)
            svd = compute_svd(m)
            r = min(T, N)
            assert svd.U.shape == (T, r)
            assert svd.singular_values.shape == (r,)
            assert np.allclose(svd.U.T @ svd.U, np.eye(r), atol=1e-12)
            gram = svd.U.T @ m.values @ m.values.T @ svd.U
            s2 = svd.singular_values ** 2
            assert np.allclose(gram, np.diag(s2), rtol=0, atol=1e-12 * s2[0])
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


# --- against the explicit algorithms (conftest oracles) ----------------------


@st.composite
def descriptor_matrices(draw):
    """``T`` in 2..40 and ``N`` in 1..60 (``T > N`` included), with uniform,
    exactly low-rank, small-integer or repeated columns."""
    T, N = draw(st.integers(2, 40)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    form = draw(st.sampled_from(["uniform", "low_rank", "integers", "repeated"]))
    if form == "uniform":
        values = rng.random((T, N)) + 1e-3
    elif form == "low_rank":
        r = int(rng.integers(1, 4))
        values = rng.random((T, r)) @ rng.random((r, N)) + 1e-6
    elif form == "integers":
        values = rng.integers(0, 3, (T, N)).astype(float)
        values[0, ~values.any(axis=0)] = 1.0  # descriptors are never all-zero
    else:
        base = rng.random((T, int(rng.integers(1, 6)))) + 1e-3
        values = base[:, rng.integers(0, base.shape[1], N)]
    return matrix_of(values)


ORACLE_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def canonical_signs(H: np.ndarray) -> np.ndarray:
    """Column by column: flip so the largest-|entry| (first on ties) is positive."""
    H = H.copy()
    for j in range(H.shape[1]):
        if H[int(np.argmax(np.abs(H[:, j]))), j] < 0:
            H[:, j] = -H[:, j]
    return H


class TestAgainstExplicitAlgorithms:
    @ORACLE_SETTINGS
    @given(descriptor_matrices())
    def test_singular_values(self, m):
        _, s_ref = gesdd_svd(m)
        s = compute_svd(m).singular_values
        assert s.shape == s_ref.shape
        assert np.allclose(s, s_ref, rtol=0, atol=1e-12 * s_ref[0])

    @ORACLE_SETTINGS
    @given(descriptor_matrices())
    def test_pca_subspaces_where_the_gap_is_clear(self, m):
        U_ref, s = gesdd_svd(m)
        U = compute_svd(m).U
        r = s.size
        for k in range(1, r + 1):
            gap = s[k - 1] - (s[k] if k < r else 0.0)
            if gap <= 1e-6 * s[0]:
                continue
            P = U[:, :k]
            off = U_ref[:, :k] - P @ (P.T @ U_ref[:, :k])  # sin of the principal angles
            assert np.linalg.norm(off, 2) < 1e-8, k

    @ORACLE_SETTINGS
    @given(descriptor_matrices(), st.data())
    def test_nmf(self, m, data):
        k = data.draw(st.integers(1, m.N), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        L_ref, cluster_ref, scale_ref, trace_ref = explicit_nmf(m, k, seed)
        loadings, assign, trace = nmf_loadings(m, k, seed=seed)
        total = float(np.sum(m.values.astype(np.float64) ** 2))
        # The objective 0.5 * (||M||² - s·s) carries an absolute rounding
        # error near eps * ||M||²; a step that moves the explicit objective by
        # less than that (an exact fit, or a last sub-rounding decrease) may
        # stop either way, so there only the final objectives must agree.
        resolved = all((np.diff(t) < -1e-12 * total).all() and t[-1] > 1e-12 * total
                       for t in (trace, trace_ref))
        assert trace[-1] == pytest.approx(trace_ref[-1], abs=1e-10 * max(1.0, total))
        if resolved:
            assert len(trace) == len(trace_ref)
            assert np.array_equal(assign.cluster_of, cluster_ref)
            assert np.allclose(loadings.columns, L_ref, rtol=0, atol=1e-10)
            assert np.allclose(assign.scale_of, scale_ref, rtol=0, atol=1e-10)
            assert np.allclose(trace, trace_ref, rtol=0, atol=1e-10)

    @ORACLE_SETTINGS
    @given(st.integers(2, 160), st.integers(1, 6), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_init_picks_every_distinct_descriptor_first(self, T, d, extra, seed):
        """``d`` distinct descriptors, repeated, for ``k > d`` clusters: the
        first ``d`` picks are the ``d`` distinct descriptors, and the repeats
        picked after them are the explicit algorithm's, not rounding noise."""
        rng = np.random.default_rng(seed)
        base = rng.random((T, d)) + 1e-3
        m = matrix_of(base[:, np.concatenate([np.arange(d), rng.integers(0, d, extra)])])
        values = m.values.astype(np.float64)  # float32 descriptors, as nmf_loadings sees them
        k = min(m.N, d + 1 + extra // 2)
        L = _farthest_point_init(values, k, seed)
        assert np.array_equal(L, farthest_point_init(values, k, seed))
        unit = base / np.linalg.norm(base, axis=0)
        matched = np.argmax(unit.T @ L[:, :d], axis=0)
        assert sorted(matched) == list(range(d))

    @pytest.mark.parametrize("form", ["zero_scales", "duplicates"])
    def test_trace_ends_at_the_objective(self, form):
        """Descriptors with zero scale (zero columns of ``R``) or repeated
        descriptors: the last trace value is the explicit objective. On an
        exact fit it is rounding error of ``||M||_F^2``, of either sign."""
        rng = np.random.default_rng(12)
        if form == "zero_scales":
            values = np.eye(12)[:, rng.integers(0, 12, 40)]  # disjoint one-hot supports
        else:
            values = (rng.random((12, 4)) + 1e-3)[:, rng.integers(0, 4, 40)]
        m = matrix_of(values)
        for k in (2, 5, 8):
            loadings, assign, trace = nmf_loadings(m, k, seed=k)
            if form == "zero_scales":
                assert (assign.scale_of == 0).any()
            assert trace[-1] == pytest.approx(nmf_objective(m, loadings, assign), abs=1e-10)
            if form == "duplicates" and k > 4:  # the 4 distinct descriptors are loadings
                total = float(np.sum(m.values.astype(np.float64) ** 2))
                assert abs(trace[-1]) <= 16 * np.finfo(np.float64).eps * total

    def test_paper_scale_levels_equal_the_explicit_path(self):
        """T=128, N=800, k*=24: the 5-bit levels of the first 8 ingest-shape
        images equal those from the gesdd SVD, loop sign fix and explicit NMF."""
        spec = SynthCorpusSpec.from_string(
            "objects=48,views=4,T=128,N=800,r=24,sigma=0.002,seed=1")
        for m in generate_corpus(spec)[:8]:
            U_ref, s_ref = gesdd_svd(m)
            k = estimate_order(m, svd=SvdResult(U_ref, s_ref)).k_star
            assert k == estimate_order(m).k_star == 24
            seed = zlib.crc32(m.image_id.encode("utf-8"))
            pca_ref = FactorLoadings(m.image_id, KIND_PCA, canonical_signs(U_ref[:, :k]))
            nmf_ref = FactorLoadings(m.image_id, KIND_NMF, explicit_nmf(m, k, seed)[0])
            pca, nmf, _ = factorize_image(m)
            for got, ref in ((pca, pca_ref), (nmf, nmf_ref)):
                assert np.array_equal(codec.quantize(got, 5).levels,
                                      codec.quantize(ref, 5).levels)
