import numpy as np
import pytest

from factormatch.descriptors import DescriptorMatrix, SynthCorpusSpec, generate_corpus
from factormatch.factorization import compute_svd, pca_loadings
from factormatch.model_order import (
    RESIDUAL_FLOOR,
    default_k_max,
    estimate_order,
)

from conftest import information_content, residual_variance


def planted_view(T, N, r, sigma, seed):
    spec = SynthCorpusSpec(1, 1, T=T, descriptors_per_view=N,
                           planted_rank=r, view_noise_sigma=sigma, seed=seed)
    return generate_corpus(spec)[0]


class TestResidualVariance:
    def test_exact_rank_hits_floor(self):
        m = planted_view(8, 30, 2, 0.0, 7)
        svd = compute_svd(m)
        assert residual_variance(m, svd, 2) == RESIDUAL_FLOOR

    def test_full_rank_hits_floor(self):
        m = planted_view(6, 20, 3, 0.05, 1)
        svd = compute_svd(m)
        assert residual_variance(m, svd, 6) == RESIDUAL_FLOOR

    def test_matches_explicit_projection_residual(self):
        m = planted_view(12, 60, 4, 0.1, 3)
        svd = compute_svd(m)
        values = m.values.astype(np.float64)
        for k in (1, 2, 5, 9):
            loadings = pca_loadings(m, k, svd=svd)
            H = loadings.columns
            explicit = np.linalg.norm(values - H @ (H.T @ values)) ** 2 / (m.T * m.N)
            assert residual_variance(m, svd, k) == pytest.approx(explicit, rel=1e-9)

    def test_k_out_of_range(self):
        m = planted_view(6, 20, 2, 0.0, 0)
        svd = compute_svd(m)
        with pytest.raises(ValueError):
            residual_variance(m, svd, 0)
        with pytest.raises(ValueError):
            residual_variance(m, svd, 7)


class TestInformationContent:
    def test_unit_variance_leaves_only_penalty(self):
        for k, T, N in [(1, 16, 200), (3, 8, 50), (7, 128, 2000)]:
            expected = k * ((T + N) / (T * N)) * np.log((T * N) / (T + N))
            assert information_content(1.0, k, T, N) == pytest.approx(expected, rel=1e-12)

    def test_frozen_high_precision_value(self):
        # ln(0.01) + 3*(216/3200)*ln(3200/216), evaluated at 50 digits
        assert information_content(0.01, 3, 16, 200) == pytest.approx(
            -4.059305580564602, abs=1e-12
        )

    def test_penalty_strictly_increasing_in_k(self):
        values = [information_content(1.0, k, 16, 200) for k in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_non_positive_variance(self):
        with pytest.raises(ValueError):
            information_content(0.0, 1, 8, 10)


class TestEstimateOrder:
    def test_recovers_planted_rank_four(self):
        m = planted_view(16, 200, 4, 0.01, 21)
        profile = estimate_order(m, k_max=10)
        assert profile.k_star == 4
        # brute-force argmin over the profile agrees
        assert profile.k_star == int(np.argmin(profile.I)) + 1

    def test_recovers_planted_rank_one(self):
        m = planted_view(16, 200, 1, 0.01, 22)
        assert estimate_order(m, k_max=10).k_star == 1

    def test_v_non_increasing(self):
        m = planted_view(12, 80, 3, 0.05, 5)
        profile = estimate_order(m, k_max=11)
        assert np.all(np.diff(profile.V) <= 0)

    def test_invariant_to_column_permutation(self):
        m = planted_view(10, 50, 3, 0.05, 9)
        rng = np.random.default_rng(0)
        shuffled = DescriptorMatrix(
            image_id=m.image_id, object_id=m.object_id,
            values=m.values[:, rng.permutation(m.N)],
        )
        assert estimate_order(m, k_max=9).k_star == estimate_order(shuffled, k_max=9).k_star

    def test_noiseless_never_overshoots_rank(self):
        for r in (1, 2, 4):
            m = planted_view(12, 60, r, 0.0, 100 + r)
            assert estimate_order(m, k_max=11).k_star <= r

    def test_k_max_out_of_range(self):
        m = planted_view(6, 20, 2, 0.0, 0)
        with pytest.raises(ValueError):
            estimate_order(m, k_max=7)

    def test_profile_matches_pointwise_evaluation(self):
        m = planted_view(12, 80, 3, 0.05, 5)
        svd = compute_svd(m)
        profile = estimate_order(m, k_max=10, svd=svd)
        for k in range(1, 11):
            v = residual_variance(m, svd, k)
            assert profile.V[k - 1] == pytest.approx(v, rel=1e-12)
            assert profile.I[k - 1] == pytest.approx(
                information_content(v, k, m.T, m.N), rel=1e-12
            )


def test_default_k_max():
    assert default_k_max(128, 2000) == 64
    assert default_k_max(32, 400) == 31
    assert default_k_max(8, 4) == 3
