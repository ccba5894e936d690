import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from netreduce import (
    DegenerateEmbedding,
    KTooLarge,
    NonFinite,
    NotOrthonormal,
    NotSymmetric,
    Partition,
    TiedSpectrumWarning,
    WsbmParams,
    bottom_k_eig,
    block_spectrum_oracle,
    cluster_embedding,
    expected_laplacian,
    laplacian,
    sample_adjacency,
    sin_theta,
    spectral_norm,
)
from netreduce import run_algorithm_1, spectral
from netreduce.config import build_model, config_from_dict
from netreduce.spectral import _DENSE_MAX_N

from conftest import EQ15_Q, EQ15_W, random_wsbm


def _three_group_laplacian_above_dense_max_n():
    lap = laplacian(sample_adjacency(WsbmParams((256, 512, 258), EQ15_Q, EQ15_W), 0))
    assert lap.shape[0] > _DENSE_MAX_N
    return lap


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
        l_blk = expected_laplacian(eq15_params)
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

    @pytest.mark.parametrize(
        "n,k",
        [
            pytest.param(40, 1, id="1"),
            pytest.param(40, 39, id="39"),
            pytest.param(40, 40, id="40"),
            pytest.param(_DENSE_MAX_N, 3, id="dense-max-n"),
            pytest.param(_DENSE_MAX_N + 1, 3, id="above-dense-max-n"),
            pytest.param(_DENSE_MAX_N + 1, _DENSE_MAX_N + 1, id="above-dense-max-n-all"),
        ],
    )
    def test_partial_solve_matches_full_eigh(self, n, k):
        # k = n - 1 still computes lambda_next; k = n has none. The last two
        # sizes sit on either side of the switch from the full numpy solve
        # to eigvalsh and the Chebyshev filter; this spectrum has no gap at
        # k = 3, so the larger one falls back to the full solve.
        rng = np.random.default_rng(7)
        m = rng.standard_normal((n, n))
        m = m + m.T
        lam, vec = np.linalg.eigh(m)
        data = bottom_k_eig(m, k)
        np.testing.assert_allclose(data.lambda_k, lam[:k], rtol=1e-10, atol=1e-10 * np.abs(lam).max())
        if k < n:
            assert data.lambda_next == pytest.approx(lam[k], rel=1e-10)
        else:
            assert data.lambda_next is None
        ref = vec[:, :k] * np.sign(vec[np.argmax(np.abs(vec[:, :k]), axis=0), np.arange(k)])
        np.testing.assert_allclose(data.v_k, ref, atol=1e-10)

    @pytest.mark.parametrize(
        "k,damping,full_solves",
        [
            pytest.param(3, None, 0, id="filtered"),
            # lambda_4 = 3713 against lambda_5 = 3741 needs a degree above
            # the cost limit
            pytest.param(4, None, 1, id="small-gap"),
            # a filter this weak leaves residuals far above the check's bound,
            # while its Ritz values already match to roundoff
            pytest.param(3, 1e-9, 1, id="failed-check"),
        ],
    )
    def test_above_dense_max_n_matches_full_eigh(self, monkeypatch, k, damping, full_solves):
        lap = _three_group_laplacian_above_dense_max_n()
        n = lap.shape[0]
        lam, vec = np.linalg.eigh(lap, UPLO="L")
        if damping is not None:
            monkeypatch.setattr(spectral, "_FILTER_DAMPING", damping)
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        data = bottom_k_eig(lap, k)
        again = bottom_k_eig(lap, k)
        assert calls.count(n) == 2 * full_solves
        norm = np.abs(lam).max()
        np.testing.assert_allclose(data.lambda_k, lam[:k], rtol=0, atol=1e-12 * norm)
        assert data.lambda_next == pytest.approx(lam[k], rel=1e-12)
        ref = vec[:, :k] * np.sign(vec[np.argmax(np.abs(vec[:, :k]), axis=0), np.arange(k)])
        np.testing.assert_allclose(data.v_k, ref, rtol=0, atol=1e-10)
        assert again.v_k.tobytes() == data.v_k.tobytes()

    def test_filter_restarts_keep_a_low_lambda_1_from_swamping_lambda_k(self, monkeypatch):
        # eigenvalues 0, 40 and 50 below an unwanted interval [200, 1000]:
        # over the whole degree (51) the filter grows the lambda_1 component
        # about 490 times more than the lambda_3 one; without the
        # Rayleigh-Ritz restarts every column turns toward v_1 and the
        # residual check sends the solve to the full eigh
        n = _DENSE_MAX_N + 1
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))
        lam = np.concatenate([[0.0, 40.0, 50.0], np.linspace(200.0, 1000.0, n - 3)])
        m = (q * lam) @ q.T
        m = (m + m.T) / 2
        eigh = np.linalg.eigh
        calls = []

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a)[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        data = bottom_k_eig(m, 3)
        assert n not in calls
        np.testing.assert_allclose(data.lambda_k, lam[:3], rtol=0, atol=1e-12 * lam[-1])
        ref = q[:, :3] * np.sign(q[np.argmax(np.abs(q[:, :3]), axis=0), np.arange(3)])
        np.testing.assert_allclose(data.v_k, ref, rtol=0, atol=1e-10)

    def test_filter_rejects_ritz_values_off_the_given_spectrum(self):
        # the block converges whatever eigenvalues it is given; only the
        # check that its Ritz values match them catches a wrong spectrum
        lap = _three_group_laplacian_above_dense_max_n()
        lam = np.linalg.eigvalsh(lap, UPLO="L")
        assert spectral._filtered_bottom_k(lap, lam, 3) is not None
        assert spectral._filtered_bottom_k(lap, lam * (1 + 1e-9), 3) is None

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises_typed_error(self, bad):
        with pytest.raises(NonFinite):
            bottom_k_eig([[1.0, bad], [bad, 1.0]], 1)

    def test_leaves_input_unchanged(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 2))
        before = lap.tobytes()
        bottom_k_eig(lap, 3)
        assert lap.tobytes() == before

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        m = m + m.T
        a = bottom_k_eig(m, 3)
        b = bottom_k_eig(m.copy(), 3)
        assert a.v_k.tobytes() == b.v_k.tobytes()


class TestMemoryBudget:
    def test_build_and_reduce_hold_few_n_by_n_arrays(self):
        # graph, Laplacian, model and eigensolve together may hold at most
        # 2.5 n x n float64 arrays at once (7.0 when the sampler built the
        # triangle from pair-length index arrays)
        doc = {
            "wsbm": {"sizes": [160, 320, 160], "q": EQ15_Q, "w": EQ15_W},
            "nodes": {"preset": "swing"},
            "coupling": {"num": [1.0], "den": [0.0, 1.0]},
            "k": 3,
            "eta": 10.0,
            "omega_min": 1e-3,
            "grid_size": 20,
            "seeds": [0],
            "scales": [1],
            "restarts": 5,
            "sim": {"dt": 1e-3, "t_end": 1.0, "input_node": 1},
        }
        config = config_from_dict(doc)
        n = config.wsbm.n
        tracemalloc.start()
        try:
            model, _, _ = build_model(config, 0)
            run_algorithm_1(model, config.k, seed=0, restarts=config.restarts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / (8.0 * n * n)
        print(f"[memory] peak {ratio:.2f} n^2 float64 at n = {n}; budget 2.5, margin {2.5 - ratio:.2f}")
        assert ratio <= 2.5


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
            found = cluster_embedding(data.v_k, 3, restarts=50, seed=seed)
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
        labels, cent, wcss, _ = spectral.lloyd(x, init[None], 300)
        assert np.bincount(labels[0], minlength=3).min() >= 1

    def test_converges_and_reports_iterations(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 2))
        init = x[:4].copy()
        labels, cent, wcss, n_iter = spectral.lloyd(x, init[None], 300)
        assert 1 <= n_iter[0] <= 300
        # assignment is a fixed point: one more sweep changes nothing
        labels2, _, wcss2, n2 = spectral.lloyd(x, cent.copy(), 300)
        np.testing.assert_array_equal(labels2, labels)
        assert wcss2[0] == pytest.approx(wcss[0], rel=1e-12)


def _sequential_kmeans_pp(x, k, rng):
    # k-means++ of one restart, drawing with rng.choice: the reference the
    # lockstep initialization must reproduce draw for draw
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a chosen center
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _sequential_lloyd(x, centroids, max_iter):
    # Lloyd iterations of one run with np.add.at: the per-run reference
    n = x.shape[0]
    k = centroids.shape[0]
    cent = centroids.copy()
    labels = np.full(n, -1, dtype=np.int64)
    n_iter = 0
    repaired = False
    for _ in range(max_iter):
        n_iter += 1
        d2 = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        dist_own = d2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                repaired = True
                movable = counts[new_labels] > 1
                far = int(np.argmax(np.where(movable, dist_own, -1.0)))
                counts[new_labels[far]] -= 1
                new_labels[far] = j
                counts[j] = 1
                dist_own[far] = 0.0
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        cent = np.zeros_like(cent)
        np.add.at(cent, labels, x)
        cent /= counts[:, None]
    wcss = float(((x - cent[labels]) ** 2).sum())
    return labels, cent, wcss, n_iter, repaired


def _sequential_cluster(x, k, restarts, seed, max_iter):
    # the restarts one after another; the best is the first of least WCSS
    # whose centroids are pairwise more than 1e-12 apart
    rng = np.random.default_rng(seed)
    runs = [_sequential_lloyd(x, _sequential_kmeans_pp(x, k, rng), max_iter) for _ in range(restarts)]
    best = None
    for labels, cent, wcss, _, _ in runs:
        sep = min(
            (float(np.linalg.norm(cent[i] - cent[j])) for i in range(k) for j in range(i + 1, k)),
            default=np.inf,
        )
        if sep > 1e-12 and (best is None or wcss < best[0]):
            best = (wcss, labels, cent)
    return runs, best


# values whose nonzero differences have squares far above the underflow
# threshold; a small pool of repeated values makes duplicate rows likely
_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -2.5, 0.125]),
    st.floats(-100.0, 100.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
)


@st.composite
def _embeddings(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 10))
    distinct = draw(st.integers(1, n))
    base = draw(arrays(float, (distinct, d), elements=_VALUES))
    rows = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    return base[np.array(rows)]


class TestLockstepKMeans:
    @given(
        x=_embeddings(),
        k=st.integers(1, 6),
        restarts=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 2, 300]),
    )
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_restarts_match_sequential_runs_bit_for_bit(self, x, k, restarts, seed, max_iter):
        k = min(k, x.shape[0])
        runs, best = _sequential_cluster(x, k, restarts, seed, max_iter)
        init = spectral._kmeans_pp(x, k, restarts, np.random.default_rng(seed))
        labels, cent, wcss, n_iter = spectral.lloyd(x, init, max_iter)
        for r, (ref_labels, ref_cent, ref_wcss, ref_iter, _) in enumerate(runs):
            np.testing.assert_array_equal(labels[r], ref_labels)
            np.testing.assert_array_equal(cent[r], ref_cent)
            assert wcss[r] == ref_wcss
            assert n_iter[r] == ref_iter
        if x.shape[1] >= k:
            if best is None:
                with pytest.raises(DegenerateEmbedding):
                    cluster_embedding(x, k, restarts=restarts, seed=seed, max_iter=max_iter)
            else:
                found = cluster_embedding(x, k, restarts=restarts, seed=seed, max_iter=max_iter)
                assert found.same_blocks(Partition(best[1], k))

    @pytest.mark.parametrize("d", [1, 3, 7, 8, 9, 16, 17, 40, 300])
    def test_distances_add_columns_in_numpy_order(self, d):
        # a one-ulp change in a distance rarely moves a label, so the
        # summation order is checked on the distances themselves
        rng = np.random.default_rng(d)
        x = rng.standard_normal((30, d)) * np.exp(rng.uniform(-8.0, 8.0, d))
        c = rng.standard_normal((5, 1, 4, d))
        want = ((x[:, None, :] - c) ** 2).sum(axis=-1)
        np.testing.assert_array_equal(spectral._sq_dist(x[:, None, :], c), want)

    def test_inputs_reach_the_repair_and_the_uniform_draw(self):
        # fewer distinct rows than k: k-means++ falls back to rng.integers
        # and coinciding centroids leave a cluster empty, so the repair runs
        x = np.repeat(np.array([[0.0, 1.0], [3.0, -1.0]]), [4, 3], axis=0)
        runs, _ = _sequential_cluster(x, 4, 6, 11, 300)
        assert any(repaired for *_, repaired in runs)
        init = spectral._kmeans_pp(x, 4, 6, np.random.default_rng(11))
        labels, cent, wcss, _ = spectral.lloyd(x, init, 300)
        for r, (ref_labels, ref_cent, ref_wcss, _, _) in enumerate(runs):
            np.testing.assert_array_equal(labels[r], ref_labels)
            np.testing.assert_array_equal(cent[r], ref_cent)
            assert wcss[r] == ref_wcss

    @pytest.mark.parametrize("seed", range(5))
    def test_cdf_draw_is_what_choice_draws(self, seed):
        # the contract with numpy: choice(n, p) maps one rng.random() through
        # the normalized CDF of p and leaves the stream where random() does
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        w = rng.random(n) * (rng.random(n) < 0.7)
        w[rng.integers(n)] = rng.random() + 0.1
        total = np.array([w.sum()])
        for draw_seed in range(20):
            a, b = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
            picked = a.choice(n, p=w / total[0])
            assert spectral._cdf_pick(w[None], total, np.array([b.random()]))[0] == picked
            assert a.random() == b.random()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_non_finite_embedding_raises(self, bad, k):
        x = np.random.default_rng(0).standard_normal((12, 3))
        x[5, 1] = bad
        with pytest.raises(ValueError):
            cluster_embedding(x, k, restarts=4, seed=0)
        with pytest.raises(NonFinite):
            cluster_embedding(x, k, restarts=4, seed=0)

    def test_squared_distances_that_underflow_raise(self):
        # rows 0 and 1 differ, but the square of their difference is zero:
        # the distinct rows cannot all be told apart by distance
        x = np.array([[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateEmbedding):
            cluster_embedding(x, 3, restarts=3, seed=0)


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
        l_blk = expected_laplacian(eq15_params)
        v = bottom_k_eig(lap, 3).v_k
        v_blk = bottom_k_eig(l_blk, 3).v_k
        rep = sin_theta(v, v_blk)
        assert rep.angles[0] <= 1e-6
        assert rep.frobenius**2 == pytest.approx(np.sum(np.sin(rep.angles) ** 2), abs=1e-9)


class TestPerturbationChecks:
    @pytest.mark.parametrize("seed", range(3))
    def test_davis_kahan_and_weyl_on_draws(self, seed, eq15_params):
        l_blk = expected_laplacian(eq15_params)
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
        l_blk = expected_laplacian(params)
        dense_blk = np.linalg.eigvalsh(l_blk)
        gap = dense_blk[k] - dense_blk[k - 1]
        lap = laplacian(sample_adjacency(params, seed))
        err = spectral_norm(lap - l_blk)
        rep = sin_theta(bottom_k_eig(lap, k).v_k, bottom_k_eig(l_blk, k).v_k)
        assert rep.frobenius <= 2 * np.sqrt(k) * err / gap + 1e-6
