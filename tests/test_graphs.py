import numpy as np
import pytest

from netreduce import (
    EmptyBlock,
    NonFinite,
    NotSymmetric,
    Partition,
    WsbmParams,
    block_spectrum_oracle,
    concentration_stat,
    expected_laplacian,
    laplacian,
    sample_adjacency,
)

from netreduce.graphs import check_symmetric

from conftest import EQ15_SIZES, EQ15_W, random_wsbm


def _vectorized_adjacency(params, seed):
    # the sampler as one draw over the whole lower triangle, kept as the
    # bit-exact reference for the row-by-row fill
    rng = np.random.Generator(np.random.PCG64(seed))
    n = params.n
    labels = params.labels()
    rows, cols = np.tril_indices(n)
    u = rng.random(rows.size)
    q_pair = params.q[labels[rows], labels[cols]]
    w_pair = params.w[labels[rows], labels[cols]]
    vals = np.where(u < q_pair, w_pair, 0.0)
    a = np.zeros((n, n))
    a[rows, cols] = vals
    strict = np.tril(a, -1)
    return strict + strict.T + np.diag(np.diag(a))


class TestLaplacian:
    def test_single_edge(self):
        np.testing.assert_allclose(
            laplacian([[0.0, 1.0], [1.0, 0.0]]), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_empty_graph(self):
        np.testing.assert_allclose(laplacian(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_weighted_path(self):
        # row-sum arithmetic by hand: degrees are 2, 5, 3
        a = [[0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 0.0]]
        expected = [[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]]
        np.testing.assert_allclose(laplacian(a), expected)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            laplacian([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            laplacian([[0.0, -1.0], [-1.0, 0.0]])

    def test_equals_degree_matrix_minus_adjacency_bitwise(self, eq15_params):
        a = sample_adjacency(eq15_params, 3)
        assert laplacian(a).tobytes() == (np.diag(a.sum(axis=1)) - a).tobytes()

    def test_no_negative_zero_off_diagonal(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 3))
        off = ~np.eye(lap.shape[0], dtype=bool)
        assert not np.any(np.signbit(lap[off]) & (lap[off] == 0.0))

    def test_leaves_input_unchanged(self, eq15_params):
        a = sample_adjacency(eq15_params, 3)
        before = a.tobytes()
        laplacian(a)
        assert a.tobytes() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.ones((3, 3))
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(NonFinite):
            laplacian(a)

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_properties(self, seed):
        rng = np.random.default_rng(seed)
        params = random_wsbm(rng)
        lap = laplacian(sample_adjacency(params, seed))
        n = params.n
        scale = max(1.0, np.abs(lap).max())
        assert np.abs(lap - lap.T).max() == 0.0
        assert np.abs(lap.sum(axis=1)).max() <= 1e-10 * n * scale
        off = lap - np.diag(np.diag(lap))
        assert off.max() <= 0.0
        assert np.linalg.eigvalsh(lap).min() >= -1e-9 * scale


class TestSampling:
    def test_all_edges_present_when_q_is_one(self, eq15_params):
        params = WsbmParams(EQ15_SIZES, np.ones((3, 3)), EQ15_W)
        a = sample_adjacency(params, 123)
        labels = params.labels()
        expected = np.asarray(EQ15_W)[labels[:, None], labels[None, :]]
        np.testing.assert_array_equal(a, expected)

    def test_no_edges_when_q_is_zero(self):
        params = WsbmParams(EQ15_SIZES, np.zeros((3, 3)), EQ15_W)
        np.testing.assert_array_equal(sample_adjacency(params, 7), np.zeros((80, 80)))

    def test_reproducible_byte_exact(self, eq15_params):
        a1 = sample_adjacency(eq15_params, 42)
        a2 = sample_adjacency(eq15_params, 42)
        assert a1.tobytes() == a2.tobytes()
        a3 = sample_adjacency(eq15_params, 43)
        assert a1.tobytes() != a3.tobytes()

    def test_within_block_edge_frequency(self, eq15_params):
        # Monte-Carlo binomial check: off-diagonal entries inside block 1
        # appear with probability 0.8; over 500 seeds the frequency lands
        # well inside 0.8 +/- 0.06
        hits = 0
        total = 0
        for seed in range(500):
            a = sample_adjacency(eq15_params, seed)
            block = a[:20, :20]
            off = block[np.triu_indices(20, k=1)]
            hits += np.count_nonzero(off)
            total += off.size
        freq = hits / total
        assert 0.74 <= freq <= 0.86

    @pytest.mark.parametrize("seed", range(4))
    def test_row_fill_equals_vectorized_draw(self, seed):
        rng = np.random.default_rng(100 + seed)
        cases = [random_wsbm(rng), random_wsbm(rng, strong=False)]
        cases += [
            WsbmParams((9,), [[0.5]], [[3.0]]),
            WsbmParams((2,), [[0.5]], [[3.0]]),
            WsbmParams((1, 1), [[0.5, 0.5], [0.5, 0.5]], [[1.0, 2.0], [2.0, 1.0]]),
        ]
        for params in cases:
            for graph_seed in (seed, 1000 + seed):
                expected = _vectorized_adjacency(params, graph_seed)
                assert sample_adjacency(params, graph_seed).tobytes() == expected.tobytes()

    def test_negative_zero_weight_samples_as_zero(self):
        params = WsbmParams((3, 4), np.ones((2, 2)), [[1.0, -0.0], [-0.0, 2.0]])
        a = sample_adjacency(params, 0)
        assert a.tobytes() == _vectorized_adjacency(params, 0).tobytes()
        assert not np.any(np.signbit(a))

    def test_diagonal_cancels_in_laplacian(self, eq15_params):
        # self-loops are sampled but provably cancel in L = D - A
        a = sample_adjacency(eq15_params, 5)
        lap = laplacian(a)
        a_noloop = a - np.diag(np.diag(a))
        np.testing.assert_allclose(lap, laplacian(a_noloop), atol=1e-12)


class TestExpectedLaplacian:
    def test_single_block_complete_expectation(self):
        w = 2.5
        n = 6
        params = WsbmParams((n,), [[1.0]], [[w]])
        l_blk = expected_laplacian(params)
        np.testing.assert_allclose(params.b, [[w]])
        np.testing.assert_allclose(l_blk, w * n * np.eye(n) - w * np.ones((n, n)))

    def test_two_block_explicit(self):
        # B = [[3,1],[1,3]] with sizes (2,2): diagonal blocks all 3,
        # off-diagonal blocks all 1, self-weight cancels on the diagonal
        params = WsbmParams((2, 2), np.ones((2, 2)), [[3.0, 1.0], [1.0, 3.0]])
        l_blk = expected_laplacian(params)
        expected = np.array(
            [
                [5.0, -3.0, -1.0, -1.0],
                [-3.0, 5.0, -1.0, -1.0],
                [-1.0, -1.0, 5.0, -3.0],
                [-1.0, -1.0, -3.0, 5.0],
            ]
        )
        np.testing.assert_allclose(l_blk, expected, atol=1e-12)
        assert np.abs(l_blk.sum(axis=1)).max() < 1e-12

    def test_eq15_block_matrix_entry(self, eq15_params):
        assert eq15_params.b[0, 0] == pytest.approx(0.8 * 20.0)


class TestBlockSpectrumOracle:
    def test_two_block_example(self):
        params = WsbmParams((2, 2), np.ones((2, 2)), [[3.0, 1.0], [1.0, 3.0]])
        spec = block_spectrum_oracle(params)
        np.testing.assert_allclose(spec.eigenvalues_clustered, [0.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(spec.eigenvalue_bulk, [8.0, 8.0], atol=1e-12)
        assert spec.lambda_k1_lower == pytest.approx(8.0)
        assert spec.delta * min(params.sizes) == pytest.approx(2.0)
        # oracle must agree with a dense eigendecomposition of the 4x4 L_blk
        l_blk = expected_laplacian(params)
        np.testing.assert_allclose(
            spec.full_spectrum(), np.linalg.eigvalsh(l_blk), atol=1e-9
        )

    def test_single_block_complete_graph(self):
        w, n = 1.5, 7
        params = WsbmParams((n,), [[1.0]], [[w]])
        spec = block_spectrum_oracle(params)
        np.testing.assert_allclose(spec.eigenvalues_clustered, [0.0], atol=1e-12)
        np.testing.assert_allclose(spec.eigenvalue_bulk, [n * w])
        full = spec.full_spectrum()
        assert full.size == n
        np.testing.assert_allclose(full[1:], n * w)

    def test_eq15_matches_dense_eigendecomposition(self, eq15_params):
        spec = block_spectrum_oracle(eq15_params)
        l_blk = expected_laplacian(eq15_params)
        dense = np.linalg.eigvalsh(l_blk)
        np.testing.assert_allclose(spec.full_spectrum(), dense, atol=1e-8)
        assert spec.delta > 0
        assert dense[3] >= spec.lambda_k1_lower - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_random_params_multiset_equivalence(self, seed):
        rng = np.random.default_rng(1000 + seed)
        params = random_wsbm(rng)
        spec = block_spectrum_oracle(params)
        assert spec.delta > 0
        l_blk = expected_laplacian(params)
        np.testing.assert_allclose(
            spec.full_spectrum(), np.linalg.eigvalsh(l_blk), atol=1e-8
        )


class TestConcentration:
    def test_deterministic_graph_matches_expectation(self):
        params = WsbmParams((3, 3), np.ones((2, 2)), [[2.0, 0.5], [0.5, 2.0]])
        stats = concentration_stat(params, seeds=[0, 1, 2])
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in stats)

    def test_empty_graph_matches_expectation(self):
        params = WsbmParams((3, 3), np.zeros((2, 2)), [[2.0, 0.5], [0.5, 2.0]])
        stats = concentration_stat(params, seeds=[0, 1])
        assert all(s == 0.0 for s in stats)

    def test_requires_a_seed(self, eq15_params):
        with pytest.raises(ValueError):
            concentration_stat(eq15_params, seeds=[])


class TestPartition:
    def test_rejects_empty_blocks(self):
        with pytest.raises(EmptyBlock):
            Partition([0, 0, 2, 2], 3)

    def test_balance_ratio(self):
        part = Partition([0] * 6 + [1] * 2, 2)
        assert part.n_min == 2 and part.n_max == 6
        assert part.rho == pytest.approx(3.0)

    def test_indicator_columns(self):
        part = Partition([0, 1, 1, 0], 2)
        p = part.indicator()
        np.testing.assert_allclose(p.sum(axis=0), [2.0, 2.0])
        np.testing.assert_allclose(p @ np.ones(2), np.ones(4))

    def test_same_blocks_is_label_invariant(self):
        a = Partition([0, 0, 1, 1, 2], 3)
        b = Partition([2, 2, 0, 0, 1], 3)
        c = Partition([0, 1, 1, 0, 2], 3)
        assert a.same_blocks(b)
        assert not a.same_blocks(c)


class TestWsbmParams:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(NotSymmetric):
            WsbmParams((2, 2), [[0.5, 0.1], [0.2, 0.5]], np.ones((2, 2)))

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            WsbmParams((2, 2), [[1.5, 0.1], [0.1, 0.5]], np.ones((2, 2)))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WsbmParams((2, 2), np.ones((2, 2)), [[-1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "q,w",
        [
            ([[np.nan, 0.1], [0.1, 0.8]], np.ones((2, 2))),
            (np.full((2, 2), 0.5), [[1.0, np.nan], [np.nan, 1.0]]),
            (np.full((2, 2), 0.5), [[np.inf, 1.0], [1.0, 1.0]]),
        ],
    )
    def test_rejects_non_finite_q_and_w(self, q, w):
        # NaN compares false against every bound, and q = NaN used to
        # sample an empty first block
        with pytest.raises(NonFinite, match="finite"):
            WsbmParams((3, 3), q, w)

    def test_scaled_multiplies_sizes(self, eq15_params):
        big = eq15_params.scaled(4)
        assert big.sizes == (80, 160, 80)
        np.testing.assert_array_equal(big.q, eq15_params.q)


class TestCheckSymmetric:
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 200])
    def test_finds_asymmetry_in_every_block_position(self, n):
        # asymmetric pairs in the first and last row blocks and across a
        # block boundary; the check passes just above their size
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        m = m + m.T
        assert check_symmetric(m, 0.0, "m") == (m.min(), m.max())
        for i, j in ((n - 1, 0), (0, n - 1), (n - 1, n - 2), (n // 2, n // 2 - 1)):
            bad = m.copy()
            bad[i, j] += 1e-6
            with pytest.raises(NotSymmetric):
                check_symmetric(bad, 1e-8, "m")
            check_symmetric(bad, 1.1e-6 / np.abs(bad).max(), "m")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_symmetric(np.zeros((2, 3)), 1e-12, "m")
