import itertools

import numpy as np
import pytest

from netreduce import (
    DegenerateEmbedding,
    KTooLarge,
    NotOrthonormal,
    NotSymmetric,
    Partition,
    TiedSpectrumWarning,
    bottom_k_eig,
    block_spectrum_oracle,
    cluster_embedding,
    expected_laplacian,
    laplacian,
    sample_adjacency,
    sin_theta,
    spectral_norm,
)
from netreduce import _kernels

from conftest import random_wsbm


class TestBottomKEig:
    def test_two_node_path(self):
        data = bottom_k_eig([[1.0, -1.0], [-1.0, 1.0]], 2)
        np.testing.assert_allclose(data.lambda_k, [0.0, 2.0], atol=1e-12)
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(data.v_k[:, 0], [r, r], atol=1e-12)
        np.testing.assert_allclose(data.v_k[:, 1], [r, -r], atol=1e-12)

    def test_zero_matrix_deterministic_kernel_vector(self):
        with pytest.warns(TiedSpectrumWarning):
            data = bottom_k_eig(np.zeros((4, 4)), 1)
        assert data.lambda_k[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(np.zeros((4, 4)) @ data.v_k[:, 0], 0.0, atol=1e-12)
        lead = np.argmax(np.abs(data.v_k[:, 0]))
        assert data.v_k[lead, 0] > 0

    def test_block_laplacian_matches_oracle(self, eq15_params):
        l_blk, _ = expected_laplacian(eq15_params)
        data = bottom_k_eig(l_blk, 3)
        oracle = block_spectrum_oracle(eq15_params)
        np.testing.assert_allclose(data.lambda_k, oracle.eigenvalues_clustered, atol=1e-8)
        assert data.lambda_next == pytest.approx(oracle.full_spectrum()[3], abs=1e-8)

    def test_first_column_is_kernel_direction(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 3))
        data = bottom_k_eig(lap, 3)
        n = eq15_params.n
        np.testing.assert_allclose(data.v_k[:, 0], np.full(n, 1 / np.sqrt(n)), atol=1e-8)
        assert data.lambda_k[0] >= -1e-9
        assert data.lambda_k[0] <= 1e-6 * (1 + abs(data.lambda_k[-1]))

    def test_reconstruction_residual(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 11))
        data = bottom_k_eig(lap, 4)
        resid = np.linalg.norm(lap @ data.v_k - data.v_k * data.lambda_k[None, :])
        assert resid <= 1e-8 * (1 + np.linalg.norm(lap))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            bottom_k_eig([[0.0, 1.0], [0.0, 0.0]], 1)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(KTooLarge):
            bottom_k_eig(np.eye(3), 4)
        with pytest.raises(KTooLarge):
            bottom_k_eig(np.eye(3), 0)

    @pytest.mark.parametrize("k", [1, 39, 40])
    def test_partial_solve_matches_full_eigh(self, k):
        # k = n - 1 still computes lambda_next; k = n has none
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 40))
        m = m + m.T
        lam, vec = np.linalg.eigh(m)
        data = bottom_k_eig(m, k)
        np.testing.assert_allclose(data.lambda_k, lam[:k], rtol=1e-10, atol=1e-10 * np.abs(lam).max())
        if k < 40:
            assert data.lambda_next == pytest.approx(lam[k], rel=1e-10)
        else:
            assert data.lambda_next is None
        ref = vec[:, :k] * np.sign(vec[np.argmax(np.abs(vec[:, :k]), axis=0), np.arange(k)])
        np.testing.assert_allclose(data.v_k, ref, atol=1e-10)

    def test_tied_k_and_next_eigenvalues_warn(self):
        # the complete graph K4 has spectrum {0, 4, 4, 4}
        lap = 4.0 * np.eye(4) - np.ones((4, 4))
        with pytest.warns(TiedSpectrumWarning, match="eigenvalues 2 and 3"):
            data = bottom_k_eig(lap, 2)
        np.testing.assert_allclose(data.lambda_k, [0.0, 4.0], atol=1e-12)
        assert data.lambda_next == pytest.approx(4.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bottom_k_eig([[np.nan, 0.0], [0.0, 1.0]], 1)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        m = m + m.T
        a = bottom_k_eig(m, 3)
        b = bottom_k_eig(m.copy(), 3)
        assert a.v_k.tobytes() == b.v_k.tobytes()


def _block_constant_embedding(sizes, seed=0):
    # orthonormal, exactly block-constant embedding: P_tilde has orthonormal
    # columns, and any k x k orthogonal factor keeps them orthonormal
    k = len(sizes)
    part = Partition(np.repeat(np.arange(k), sizes), k)
    p_tilde = part.indicator() / np.sqrt(np.asarray(sizes, float))[None, :]
    o, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))
    return part, p_tilde @ o


class TestClusterEmbedding:
    def test_exact_recovery_on_block_constant_rows(self):
        sizes = (5, 7, 4)
        part, v = _block_constant_embedding(sizes)
        for seed in (0, 1, 99):
            found = cluster_embedding(v, 3, restarts=5, seed=seed)
            assert found.same_blocks(part)

    def test_two_points_two_clusters(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        found = cluster_embedding(v, 2, restarts=3, seed=0)
        assert found.k == 2
        assert found.assignment[0] != found.assignment[1]

    def test_degenerate_embedding_raises(self):
        v = np.ones((6, 2)) * 0.3
        with pytest.raises(DegenerateEmbedding):
            cluster_embedding(v, 2, restarts=4, seed=1)

    def test_label_permutation_covariance(self):
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [
                rng.normal(c, 0.05, size=(10, 3))
                for c in ((0.0, 0.0, 0.0), (3.0, 0.0, 1.0), (0.0, 3.0, -1.0))
            ]
        )
        base = cluster_embedding(x, 3, restarts=10, seed=7)
        perm = rng.permutation(x.shape[0])
        permuted = cluster_embedding(x[perm], 3, restarts=10, seed=7)
        np.testing.assert_array_equal(permuted.assignment, base.assignment[perm])

    def test_labels_ignore_roundoff_in_the_kernel_column(self):
        # a Laplacian embedding has a constant first column; roundoff of
        # +-1e-16 in it per cluster must not permute the labels
        rng = np.random.default_rng(3)
        sizes = (10, 20, 10)
        centers = ((-0.2, 0.1), (0.0, -0.15), (0.2, 0.1))
        blocks = [rng.normal(c, 0.01, size=(m, 2)) for m, c in zip(sizes, centers)]
        x = np.column_stack([np.full(sum(sizes), 1.0 / np.sqrt(sum(sizes))), np.vstack(blocks)])
        base = cluster_embedding(x, 3, restarts=10, seed=0)
        truth = np.repeat(np.arange(3), sizes)
        for signs in itertools.product((-1, 0, 1), repeat=3):
            y = x.copy()
            y[:, 0] += np.array(signs)[truth] * 1e-16
            found = cluster_embedding(y, 3, restarts=10, seed=0)
            np.testing.assert_array_equal(found.assignment, base.assignment)

    def test_recovery_rate_on_sampled_graphs(self, eq15_params):
        true = eq15_params.true_partition()
        hits = 0
        for seed in range(20):
            lap = laplacian(sample_adjacency(eq15_params, seed))
            data = bottom_k_eig(lap, 3)
            found = cluster_embedding(data, 3, restarts=50, seed=seed)
            hits += found.same_blocks(true)
        assert hits / 20 >= 0.8

    def test_requires_enough_columns(self):
        with pytest.raises(KTooLarge):
            cluster_embedding(np.ones((4, 2)), 3, restarts=1, seed=0)


class TestLloyd:
    def test_empty_cluster_repair(self):
        # both initial centroids inside the same cloud: one cluster would
        # start empty-prone; repair must keep every cluster nonempty
        x = np.vstack([np.zeros((5, 2)), np.full((5, 2), 10.0), np.array([[30.0, 30.0]])])
        init = np.array([[30.0, 30.0], [29.0, 30.0], [0.0, 0.0]])
        labels, cent, wcss, _ = _kernels.lloyd(x, init, 300)
        assert np.bincount(labels, minlength=3).min() >= 1

    def test_converges_and_reports_iterations(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 2))
        init = x[:4].copy()
        labels, cent, wcss, n_iter = _kernels.lloyd(x, init, 300)
        assert 1 <= n_iter <= 300
        # assignment is a fixed point: one more sweep changes nothing
        labels2, _, wcss2, n2 = _kernels.lloyd(x, cent.copy(), 300)
        np.testing.assert_array_equal(labels2, labels)
        assert wcss2 == pytest.approx(wcss, rel=1e-12)


class TestSinTheta:
    def test_identical_subspaces(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))
        rep = sin_theta(q, q)
        np.testing.assert_allclose(rep.angles, 0.0, atol=1e-7)
        assert rep.frobenius == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_complements(self):
        v_a = np.eye(4)[:, :2]
        v_b = np.eye(4)[:, 2:]
        rep = sin_theta(v_a, v_b)
        np.testing.assert_allclose(rep.angles, np.pi / 2, atol=1e-12)
        assert rep.frobenius == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_single_vector_angle(self):
        # cos(theta) = <e1, (1,1)/sqrt(2)> = 1/sqrt(2): angle pi/4
        v_a = np.array([[1.0], [0.0]])
        v_b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        rep = sin_theta(v_a, v_b)
        assert rep.angles[0] == pytest.approx(np.pi / 4, rel=1e-12)
        assert rep.frobenius == pytest.approx(1 / np.sqrt(2.0), rel=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            sin_theta(np.ones((4, 2)), np.eye(4)[:, :2])

    def test_shared_kernel_column_gives_zero_first_angle(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 2))
        l_blk, _ = expected_laplacian(eq15_params)
        v = bottom_k_eig(lap, 3).v_k
        v_blk = bottom_k_eig(l_blk, 3).v_k
        rep = sin_theta(v, v_blk)
        assert rep.angles[0] <= 1e-6
        assert rep.frobenius**2 == pytest.approx(np.sum(np.sin(rep.angles) ** 2), abs=1e-9)


class TestPerturbationChecks:
    @pytest.mark.parametrize("seed", range(3))
    def test_davis_kahan_and_weyl_on_draws(self, seed, eq15_params):
        l_blk, _ = expected_laplacian(eq15_params)
        dense_blk = np.linalg.eigvalsh(l_blk)
        k = 3
        gap = dense_blk[k] - dense_blk[k - 1]
        lap = laplacian(sample_adjacency(eq15_params, seed))
        err = spectral_norm(lap - l_blk)
        v = bottom_k_eig(lap, k).v_k
        v_blk = bottom_k_eig(l_blk, k).v_k
        rep = sin_theta(v, v_blk)
        assert rep.frobenius <= 2 * np.sqrt(k) * err / gap + 1e-6
        dense = np.linalg.eigvalsh(lap)
        for i in range(k + 1):
            assert abs(dense[i] - dense_blk[i]) <= err + 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_random_wsbm_davis_kahan(self, seed):
        rng = np.random.default_rng(300 + seed)
        params = random_wsbm(rng)
        k = params.k
        l_blk, _ = expected_laplacian(params)
        dense_blk = np.linalg.eigvalsh(l_blk)
        gap = dense_blk[k] - dense_blk[k - 1]
        lap = laplacian(sample_adjacency(params, seed))
        err = spectral_norm(lap - l_blk)
        rep = sin_theta(bottom_k_eig(lap, k).v_k, bottom_k_eig(l_blk, k).v_k)
        assert rep.frobenius <= 2 * np.sqrt(k) * err / gap + 1e-6
