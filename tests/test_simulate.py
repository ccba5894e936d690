import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreduce import (
    Diverged,
    GridMismatch,
    IllPosed,
    NetworkModel,
    Partition,
    RationalTF,
    ReducedModel,
    ReductionFailed,
    close_loop,
    eval_t_hat_k,
    eval_t_yu,
    first_order_swing,
    laplacian,
    lockstep,
    realize,
    realize_aggregate,
    realize_reduced,
    run_algorithm_1,
    step_chunks,
    tf_eval,
)
from netreduce import simulate
from netreduce.config import build_model, config_from_dict
from netreduce.simulate import (
    _BLOCK_MAX,
    ResponseDeviation,
    StateSpace,
    _block_length,
    _expm,
    _run_length,
    _split_inverse,
)
from netreduce.transfer import checked_inverse

from conftest import COUPLING_INTEGRATOR, make_swing_model, step_outputs

UNIT_GAIN = RationalTF((1.0,), (1.0,))
PATH2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestRealize:
    def test_first_order_canonical(self):
        ss = realize(RationalTF((1.0,), (1.0, 1.0)))
        np.testing.assert_allclose(ss.a, [[-1.0]])
        np.testing.assert_allclose(ss.b, [[1.0]])
        np.testing.assert_allclose(ss.c, [[1.0]])
        np.testing.assert_allclose(ss.d, [[0.0]])
        for w in np.logspace(-2, 1, 10):
            assert ss.freq_response(1j * w)[0, 0] == pytest.approx(
                tf_eval(RationalTF((1.0,), (1.0, 1.0)), 1j * w), rel=1e-10
            )

    def test_constant_gain_has_empty_state(self):
        ss = realize(RationalTF((2.0,), (1.0,)))
        assert ss.dims == (0, 1, 1)
        np.testing.assert_allclose(ss.d, [[2.0]])

    def test_second_order_frequency_response(self):
        g = RationalTF((2.0, 1.0), (2.0, 3.0, 1.0))
        ss = realize(g)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(0.01, 20.0)
            assert ss.freq_response(1j * w)[0, 0] == pytest.approx(
                tf_eval(g, 1j * w), rel=1e-9
            )

    def test_biproper_feedthrough(self):
        g = RationalTF((1.0, 2.0), (3.0, 4.0))  # (2s+1)/(4s+3)
        ss = realize(g)
        assert ss.d[0, 0] == pytest.approx(0.5)
        for w in (0.1, 1.0, 10.0):
            assert ss.freq_response(1j * w)[0, 0] == pytest.approx(
                tf_eval(g, 1j * w), rel=1e-10
            )


class TestCloseLoop:
    def test_zero_laplacian_is_open_loop(self):
        nodes = [first_order_swing(1.0, 1.0), first_order_swing(2.0, 0.5)]
        loop = close_loop(nodes, COUPLING_INTEGRATOR, np.zeros((2, 2)))
        s = 0.5j
        resp = loop.freq_response(s)
        np.testing.assert_allclose(
            np.diag(resp), [tf_eval(g, s) for g in nodes], rtol=1e-10
        )
        assert abs(resp[0, 1]) < 1e-12

    def test_static_loop_matches_matrix_inverse(self):
        loop = close_loop([UNIT_GAIN, UNIT_GAIN], UNIT_GAIN, PATH2)
        np.testing.assert_allclose(
            loop.freq_response(0.3j).real, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12
        )
        assert loop.dims[0] == 0

    def test_integrator_coupling_adds_one_state_per_node(self):
        # f = 1/s: one coupling state per node, x_h' = L y, and the
        # coupling feeds no output or input through D
        l = np.array([[2.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]])
        nodes = [first_order_swing(1.0, 0.5), first_order_swing(2.0, 1.0), first_order_swing(1.5, 1.5)]
        loop = close_loop(nodes, COUPLING_INTEGRATOR, l)
        assert loop.dims == (6, 3, 3)
        np.testing.assert_array_equal(loop.a[3:, 3:], np.zeros((3, 3)))
        np.testing.assert_array_equal(loop.a[3:, :3], l @ loop.c[:, :3])
        np.testing.assert_array_equal(loop.b[3:], np.zeros((3, 3)))
        np.testing.assert_array_equal(loop.c[:, 3:], np.zeros((3, 3)))
        np.testing.assert_array_equal(loop.d, np.zeros((3, 3)))

    def test_closed_loop_matches_frequency_domain(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        loop = close_loop(model.nodes, model.coupling, model.laplacian)
        for w in (0.01, 0.1, 1.0, 10.0):
            s = 1j * w
            resp = loop.freq_response(s)
            oracle = eval_t_yu(model, s)
            assert np.abs(resp - oracle).max() <= 1e-7 * np.abs(oracle).max()

    def test_algebraic_loop_detected(self):
        # unit-gain nodes with unit-gain coupling and L = -I... not a valid
        # Laplacian, so drive the feedthrough singularity directly
        with pytest.raises(IllPosed):
            close_loop([UNIT_GAIN, UNIT_GAIN], UNIT_GAIN, -np.eye(2))

    @pytest.mark.parametrize("eps,ill_posed", [(0.9e-12, True), (1.1e-12, False)])
    def test_feedthrough_rcond_boundary(self, eps, ill_posed):
        # static nodes of gain g and f = 1 on PATH2: W = I + g PATH2 has the
        # eigenvalues 1 and 1 + 2g = eps, and a 1-norm rcond of eps within 1e-3
        g = RationalTF(((eps - 1.0) / 2.0,), (1.0,))
        if ill_posed:
            with pytest.raises(IllPosed, match=r"rcond=9\.0\de-13"):
                close_loop([g, g], UNIT_GAIN, PATH2)
        else:
            loop = close_loop([g, g], UNIT_GAIN, PATH2)
            assert np.all(np.isfinite(loop.d))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [np.zeros((2, 2)), np.full((2, 2), np.nan)], ids=["singular", "nan"])
    def test_checked_inverse_fails_singular_and_nan_quietly(self, w):
        with pytest.raises(IllPosed, match="rcond="):
            checked_inverse(w, IllPosed, "w")

    def test_biproper_loop_with_feedthrough_matches_frequency_domain(self):
        # D_G and d_f nonzero: W = I + D_G d_f L is not the identity
        nodes = [RationalTF((1.0, 2.0), (3.0, 1.0)), RationalTF((0.5, 1.0), (1.0, 1.0)), RationalTF((0.4,), (1.0,))]
        coupling = RationalTF((1.0, 0.5), (2.0, 1.0))
        l = np.array([[1.0, -1.0, 0.0], [-1.0, 3.0, -2.0], [0.0, -2.0, 2.0]])
        loop = close_loop(nodes, coupling, l)
        assert loop.dims == (5, 3, 3)
        assert not np.allclose(loop.d, np.diag([2.0, 0.5, 0.4]))
        for s in (0.1j, 1.0 + 1.0j, 10.0j):
            ginv = np.diag([1.0 / tf_eval(g, s) for g in nodes])
            want = np.linalg.inv(ginv + tf_eval(coupling, s) * l)
            np.testing.assert_allclose(loop.freq_response(s), want, rtol=1e-12, atol=1e-13)


def _dense_block_diag(systems):
    """Dense (A, B, C, D) of SISO systems side by side: the MIMO plant of the reference."""
    systems = [realize(g) if isinstance(g, RationalTF) else g for g in systems]
    n = len(systems)
    ns = sum(s.a.shape[0] for s in systems)
    a, b, c, d = np.zeros((ns, ns)), np.zeros((ns, n)), np.zeros((n, ns)), np.zeros((n, n))
    pos = 0
    for i, s in enumerate(systems):
        r = s.a.shape[0]
        a[pos : pos + r, pos : pos + r] = s.a
        b[pos : pos + r, i] = s.b[:, 0]
        c[i, pos : pos + r] = s.c[0]
        d[i, i] = s.d[0, 0]
        pos += r
    return a, b, c, d


def _dense_close_loop(nodes, coupling, l):
    """``close_loop`` by dense MIMO formulas: the reference of its gathers.

    The plant is the dense block-diagonal system of the nodes, the coupling
    n dense copies (I kron f) acting on L y, and every product is a matrix
    product. W is inverted by solve(W, I) under the rcond rule of
    ``transfer.checked_inverse``.
    """
    ag, bg, cg, dg = _dense_block_diag(nodes)
    f = realize(coupling) if isinstance(coupling, RationalTF) else coupling
    l = np.asarray(l, dtype=float)
    eye = np.eye(len(nodes))
    ah, bh, ch, dh = np.kron(eye, f.a), np.kron(eye, f.b) @ l, np.kron(eye, f.c), float(f.d[0, 0]) * l
    w = eye + dg @ dh
    try:
        w_inv = np.linalg.solve(w, eye)
    except np.linalg.LinAlgError as exc:
        raise IllPosed("singular") from exc
    if not 1.0 / (np.abs(w).sum(axis=0).max() * np.abs(w_inv).sum(axis=0).max()) >= 1e-12:
        raise IllPosed("ill-conditioned")
    c_g = w_inv @ cg
    c_h = -w_inv @ (dg @ ch)
    d_u = w_inv @ dg
    a = np.block([[ag - bg @ dh @ c_g, -bg @ ch - bg @ dh @ c_h], [bh @ c_g, ah + bh @ c_h]])
    b = np.vstack([bg - bg @ dh @ d_u, bh @ d_u])
    return StateSpace(a=a, b=b, c=np.hstack([c_g, c_h]), d=d_u)


def _dense_realize_aggregate(members):
    """``realize_aggregate`` with its remainders summed from dense MIMO matrices."""
    parts = [_split_inverse(g) for g in members]
    q_sum = np.zeros(max(q.size for q, _ in parts))
    for q, _ in parts:
        q_sum[: q.size] += q
    a, b, c, _ = _dense_block_diag([r for _, r in parts])
    r_sum = StateSpace(a, b.sum(1, keepdims=True), c.sum(0, keepdims=True), 0.0)
    return _dense_close_loop([RationalTF((1.0,), q_sum)], r_sum, [[1.0]])


# coefficients with exact zeros, signs and ties, so that signed zeros and
# exactly singular loops occur; none so small that a gathered product
# underflows to zero (see test_underflowing_product_may_differ_in_the_sign_of_zero)
_COEF = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0).filter(
    lambda x: x == 0.0 or abs(x) >= 1e-100
)
_LEAD = st.sampled_from([-1.0, 0.5, 2.0])


@st.composite
def _node_tf(draw, kinds=("strictly proper", "biproper", "static")):
    kind = draw(st.sampled_from(kinds))
    if kind == "static":
        return RationalTF((draw(_COEF),), (1.0,))
    order = draw(st.integers(1, 3))
    den = [*draw(st.lists(_COEF, min_size=order, max_size=order)), 1.0]
    num = draw(st.lists(_COEF, min_size=order, max_size=order))
    return RationalTF(num + [draw(_LEAD)] if kind == "biproper" else num, den)


# 1/s, two static gains, a biproper first order, and second orders
# strictly proper and biproper
_COUPLINGS = st.sampled_from([
    COUPLING_INTEGRATOR,
    RationalTF((0.7,), (1.0,)),
    RationalTF((-1.0,), (1.0,)),
    RationalTF((1.0, 0.5), (2.0, 1.0)),
    RationalTF((1.0, -0.5), (1.0, 0.3, 1.0)),
    RationalTF((0.0, 2.0, 1.0), (4.0, 0.0, 1.0)),
])
_NETWORK_NODES = st.integers(2, 30).flatmap(lambda n: st.lists(_node_tf(), min_size=n, max_size=n))


def _assert_same_bytes(got, want):
    for name in ("a", "b", "c", "d"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestCloseLoopGathers:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_NETWORK_NODES, _COUPLINGS, st.integers(0, 2**32 - 1))
    def test_bytes_equal_the_dense_formulas(self, nodes, coupling, seed):
        # edge weights with ties, so that exactly singular loops occur
        n = len(nodes)
        rng = np.random.default_rng(seed)
        adj = np.triu(rng.choice([0.0, 0.5, 1.0, 2.0, 0.3], (n, n)) * (rng.random((n, n)) < 0.5), 1)
        l = laplacian(adj + adj.T)
        try:
            want = _dense_close_loop(nodes, coupling, l)
        except IllPosed:
            with pytest.raises(IllPosed):
                close_loop(nodes, coupling, l)
            return
        _assert_same_bytes(close_loop(nodes, coupling, l), want)

    def test_underflowing_product_may_differ_in_the_sign_of_zero(self):
        # c = -5e-324: the gather rounds the product w_inv c to -0.0 before
        # it adds 0.0, while BLAS fuses the product into its sum and keeps
        # the sign of the exact tiny value when that term comes last
        lap = laplacian(np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 2.0], [0.5, 2.0, 0.0]]))
        nodes = [RationalTF((-2.0,), (1.0,)), RationalTF((-2.0,), (-2.0, 1.0)), RationalTF((-5e-324,), (-2.0, 1.0))]
        coupling = RationalTF((0.7,), (1.0,))
        got, want = close_loop(nodes, coupling, lap), _dense_close_loop(nodes, coupling, lap)
        for name in ("a", "b", "c", "d"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        differ = got.c.view(np.int64) != want.c.view(np.int64)
        assert np.all(got.c[differ] == 0.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(_node_tf(("strictly proper", "biproper")).filter(lambda g: any(g.num)), min_size=1, max_size=8))
    def test_aggregate_bytes_equal_the_dense_formulas(self, members):
        try:
            got = realize_aggregate(members)
        except ReductionFailed:
            return  # the leading coefficients cancel before any loop is formed
        _assert_same_bytes(got, _dense_realize_aggregate(members))


class TestStepResponse:
    def test_first_order_closed_form(self):
        ss = realize(RationalTF((1.0,), (1.0, 1.0)))
        t, y = step_outputs(ss, 0, t_end=5.0, dt=1e-3)
        assert np.abs(y[:, 0] - (1.0 - np.exp(-t))).max() <= 1e-12

    def test_static_gain_constant_output(self):
        ss = realize(RationalTF((2.0,), (1.0,)))
        _, y = step_outputs(ss, 0, t_end=1.0, dt=0.01)
        # the 1 x 1 Van Loan exponential of a loop without states is exactly
        # [[1]], so each sample is 1.0 * 2.0 or 2.0 + 2.0 * 0.0: exact
        np.testing.assert_array_equal(y, 2.0)

    def test_static_negative_zero_gain(self):
        # the sample at t = 0 is D u; the later ones come out of the block
        # products, whose sums turn D = -0.0 into +0.0, as for a system with
        # states (see step_chunks)
        ss = StateSpace(a=np.zeros((0, 0)), b=np.zeros((0, 1)), c=np.zeros((1, 0)), d=[[-0.0]])
        _, y = step_outputs(ss, 0, t_end=0.05, dt=0.01)
        np.testing.assert_array_equal(np.signbit(y[:, 0]), [True] + [False] * 5)

    def test_divergence_detected(self):
        ss = StateSpace(a=[[1.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        with pytest.raises(Diverged):
            step_outputs(ss, 0, t_end=80.0, dt=0.01, state_limit=1e6)

    def test_divergence_reported_at_first_step_past_limit(self):
        # x' = 5x + 1 from rest: x(t) = (e^{5t} - 1) / 5 first exceeds 1e6
        # between t = 3.08 and t = 3.09
        ss = StateSpace(a=[[5.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        with pytest.raises(Diverged, match=r"at t=3\.09$"):
            step_outputs(ss, 0, t_end=5.0, dt=0.01, state_limit=1e6)

    # 500 samples in blocks of 16: the last block holds samples 497-500
    @pytest.mark.parametrize(
        "first_bad",
        [1, 17, 32, 309, 498, 500],
        ids=["sample-1", "first-of-block", "last-of-block", "mid-run", "in-last-block", "last-sample"],
    )
    def test_divergence_names_the_per_sample_recurrence_sample(self, first_bad):
        ss = StateSpace(a=[[5.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        assert _block_length(500, 1) == 16
        _, peaks = _per_sample(ss, 0, 500, 0.01)
        limit = (peaks[first_bad - 1] + peaks[first_bad]) / 2
        with pytest.raises(Diverged, match=rf"at t={first_bad * 0.01:g}$"):
            step_outputs(ss, 0, t_end=5.0, dt=0.01, state_limit=limit)

    def test_divergence_on_network_names_the_per_sample_recurrence_sample(self, eq15_loops):
        # the eq15 loop shifted to grow as e^{2t}
        full, _, _ = eq15_loops
        ss = StateSpace(a=full.a + 2.0 * np.eye(full.dims[0]), b=full.b, c=full.c, d=full.d)
        _, peaks = _per_sample(ss, 1, 1000, 0.01)
        # the first new running maximum from sample 500 on; the states
        # oscillate as they grow
        first_bad = 500 + int(np.argmax(peaks[500:] > peaks[:500].max()))
        limit = (peaks[:first_bad].max() + peaks[first_bad]) / 2
        block = _block_length(1000, ss.dims[0])
        print(f"first bad sample {first_bad}: sample {(first_bad - 1) % block + 1} of a block of {block}")
        with pytest.raises(Diverged, match=rf"at t={first_bad * 0.01:g}$"):
            step_outputs(ss, 1, t_end=10.0, dt=0.01, state_limit=limit)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fast_divergence_raises_no_runtime_warning(self):
        # Phi = e^50: sixteen samples of growth would overflow, the first
        # sample already exceeds the limit
        ss = StateSpace(a=[[50.0]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
        with pytest.raises(Diverged, match=r"at t=1$"):
            step_outputs(ss, 0, t_end=40.0, dt=1.0)

    def test_blocks_stepped_one_sample_at_a_time_keep_their_outputs(self):
        # 1 - e^{-t} ends just below the limit, so the state bound of the
        # blocks after t = 3.8 exceeds it and they are stepped sample by sample
        ss = realize(RationalTF((1.0,), (1.0, 1.0)))
        t, y = step_outputs(ss, 0, t_end=5.0, dt=1e-3, state_limit=1.0 - np.exp(-5.0) + 1e-9)
        assert np.abs(y[:, 0] - (1.0 - np.exp(-t))).max() <= 1e-12

    def test_exact_at_every_step_size(self):
        # (s + 2) / ((s + 1)(s + 2)) has the step response 1 - e^{-t}
        # whatever dt samples it
        ss = realize(RationalTF((2.0, 1.0), (2.0, 3.0, 1.0)))
        sims = {dt: step_outputs(ss, 0, t_end=2.0, dt=dt) for dt in (0.08, 0.04, 0.02)}
        for t, y in sims.values():
            assert np.abs(y[:, 0] - (1.0 - np.exp(-t))).max() <= 1e-12
        assert np.abs(sims[0.08][1] - sims[0.02][1][::4]).max() <= 1e-12

    def test_step_size_convergence_on_network(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        loop = close_loop(model.nodes, model.coupling, model.laplacian)
        _, a = step_outputs(loop, 1, t_end=2.0, dt=2e-3)
        _, b = step_outputs(loop, 1, t_end=2.0, dt=1e-3)
        assert np.abs(a - b[::2]).max() <= 1e-10

    def test_input_node_out_of_range(self):
        ss = realize(RationalTF((1.0,), (1.0, 1.0)))
        with pytest.raises(ValueError):
            step_outputs(ss, 3, t_end=1.0, dt=0.01)

    @pytest.mark.parametrize("dt", [0.4, 0.3])
    def test_horizon_must_be_whole_steps(self, dt):
        ss = realize(RationalTF((1.0,), (1.0, 1.0)))
        with pytest.raises(ValueError, match="does not divide"):
            step_outputs(ss, 0, t_end=1.0, dt=dt)

    def test_horizon_within_roundoff_reaches_t_end(self):
        # 0.3 / 0.1 = 2.9999999999999996: three steps, ending at t_end
        ss = realize(RationalTF((1.0,), (1.0, 1.0)))
        t, _ = step_outputs(ss, 0, t_end=0.3, dt=0.1)
        assert t.size == 4
        assert t[-1] == pytest.approx(0.3, rel=1e-12)


def _per_sample(loop, node, steps, dt, dtype=np.float64):
    """Outputs and largest state magnitudes of x = Phi x + Gamma, one sample at a time.

    Phi and Gamma are the float64 blocks of the Van Loan exponential that
    ``step_chunks`` takes; the recurrence runs in ``dtype``.
    """
    ns = loop.dims[0]
    aug = np.zeros((ns + 1, ns + 1))
    aug[:ns, :ns] = loop.a
    aug[:ns, ns] = loop.b[:, node]
    zoh = _expm(aug * dt).astype(dtype)
    phi, gamma = zoh[:ns, :ns], zoh[:ns, ns]
    c, d = loop.c.astype(dtype), loop.d[:, node].astype(dtype)
    out = np.empty((steps + 1, loop.dims[2]), dtype=dtype)
    peaks = np.zeros(steps + 1)
    out[0] = d
    x = np.zeros(ns, dtype=dtype)
    for i in range(1, steps + 1):
        x = phi @ x + gamma
        out[i] = c @ x + d
        peaks[i] = np.abs(x).max()
    return out.astype(float), peaks


@pytest.fixture(scope="module")
def eq15_loops(eq15_params):
    """Full and reduced closed loops of eq15 seed 0, and the reduced input."""
    model, _ = make_swing_model(eq15_params, seed=0)
    reduced = run_algorithm_1(model, 3, seed=0)
    full = close_loop(model.nodes, model.coupling, model.laplacian)
    return full, realize_reduced(reduced), int(reduced.partition.assignment[1])


class TestBlockStepper:
    @pytest.mark.parametrize("ns", [1, 6, 160, 640])
    def test_block_never_outgrows_horizon_or_outputs(self, ns):
        for steps in range(1, 5000, 7):
            block = _block_length(steps, ns)
            assert 1 <= block <= min(steps, _BLOCK_MAX)
            assert block == 1 or block * (ns + 1) <= steps + 1

    # The float64 recurrence drifts by itself over long runs: up to 1.6e-12
    # of max|y| after 30000 samples of the reduced loops of eq15 seeds 0-5,
    # where the block stepper stays within 2e-13 of a long-double run. The
    # reference runs in long double where that is cheap; the full loop's
    # float64 recurrence stayed within 5e-13 on the same seeds.
    @pytest.mark.parametrize(
        "loop_name,steps,dtype",
        [
            ("full", 1, np.longdouble),
            ("full", 170, np.longdouble),
            ("full", 4005, np.float64),
            ("full", 30000, np.float64),
            ("reduced", 1, np.longdouble),
            ("reduced", 37, np.longdouble),
            ("reduced", 4000, np.longdouble),
            ("reduced", 30000, np.longdouble),
        ],
    )
    def test_matches_per_sample_recurrence(self, eq15_loops, loop_name, steps, dtype):
        full, reduced, group_in = eq15_loops
        loop, node = (full, 1) if loop_name == "full" else (reduced, group_in)
        dt = 1e-3
        ref, _ = _per_sample(loop, node, steps, dt, dtype)
        _, y = step_outputs(loop, node, t_end=steps * dt, dt=dt)
        assert y.shape == ref.shape
        err = np.abs(y - ref).max() / np.abs(ref).max()
        block = _block_length(steps, loop.dims[0])
        print(f"{loop_name} loop, {steps} steps in blocks of {block}, "
              f"{steps % block} past the last whole block: {err:.2e} of max|y| (<= 1e-12)")
        assert err <= 1e-12

    @pytest.mark.parametrize("scale,per_sample_peak", [(1, 1.31), (4, 3.21)])
    def test_peak_memory_within_one_output_array_of_per_sample_stepper(
        self, eq15_params, scale, per_sample_peak
    ):
        # peaks of the per-sample stepper, in output arrays of 4001 x n
        # float64, mostly the expm temporaries at n = 320; the block
        # operators and the chunk of block starts may add one output array
        model, _ = make_swing_model(eq15_params.scaled(scale), seed=0)
        loop = close_loop(model.nodes, model.coupling, model.laplacian)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step_outputs(loop, 1, t_end=4.0, dt=1e-3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        arrays = peak / (4001 * model.n * 8)
        print(f"n = {model.n}: peak {arrays:.3f} output arrays, budget {per_sample_peak + 1:.2f}")
        assert arrays <= per_sample_peak + 1

    @pytest.mark.parametrize("loop_name,steps", [("full", 1), ("full", 4005), ("full", 30000), ("reduced", 30000)])
    def test_chunks_do_not_depend_on_the_run_length(self, eq15_loops, monkeypatch, loop_name, steps):
        # the shortest runs that keep OpenBLAS off its small-matrix kernel
        full, reduced, group_in = eq15_loops
        loop, node = (full, 1) if loop_name == "full" else (reduced, group_in)
        ref_t, ref_y = step_outputs(loop, node, t_end=steps * 1e-3, dt=1e-3)
        monkeypatch.setattr(simulate, "_run_length", lambda ns, width: max(2, -(-1201 // width)))
        chunks = list(step_chunks(loop, node, steps * 1e-3, 1e-3))
        np.testing.assert_array_equal(np.concatenate([t for t, _ in chunks]), ref_t)
        np.testing.assert_array_equal(np.concatenate([y for _, y in chunks]), ref_y)

    @pytest.mark.parametrize(
        "loop_name,steps,run",
        [("full", 4005, 2), ("full", 30000, 2), ("full", 30000, None), ("reduced", 30000, None)],
    )
    def test_outputs_do_not_depend_on_the_runs(self, eq15_loops, monkeypatch, loop_name, steps, run):
        # runs of two starts, and (None) one product over every whole block
        full, reduced, group_in = eq15_loops
        loop, node = (full, 1) if loop_name == "full" else (reduced, group_in)
        ref_t, ref_y = step_outputs(loop, node, t_end=steps * 1e-3, dt=1e-3)
        n_blocks = -(-steps // _block_length(steps, loop.dims[0]))
        monkeypatch.setattr(simulate, "_run_length", lambda ns, width: run or n_blocks)
        chunks = list(step_chunks(loop, node, steps * 1e-3, 1e-3))
        assert len(chunks) == (1 if run is None else n_blocks // 2)
        np.testing.assert_array_equal(np.concatenate([t for t, _ in chunks]), ref_t)
        np.testing.assert_array_equal(np.concatenate([y for _, y in chunks]), ref_y)

    def test_chunks_stay_short(self, eq15_loops):
        full, _, _ = eq15_loops
        rows = [len(y) for _, y in step_chunks(full, 1, 30.0, 1e-3)]
        assert sum(rows) == 30001
        # runs of at most 2 R starts of B = 16 samples each
        assert max(rows) <= 2 * _run_length(160, 16 * 80) * 16


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_array_equal(_expm(np.zeros((5, 5))), np.eye(5))

    def test_symmetric_matrix_against_eigendecomposition(self):
        # 1-norm above theta_13, so the result comes from repeated squaring
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
        lam = np.linspace(0.0, 50.0, 8)
        ref = (q * np.exp(-lam)) @ q.T
        err = np.linalg.norm(_expm(-(q * lam) @ q.T) - ref, 2)
        assert err <= 1e-12 * np.linalg.norm(ref, 2)

    def test_van_loan_matrix_matches_scipy(self, eq15_params):
        import scipy.linalg

        model, _ = make_swing_model(eq15_params, seed=0)
        loop = close_loop(model.nodes, model.coupling, model.laplacian)
        ns = loop.a.shape[0]
        aug = np.zeros((ns + 1, ns + 1))
        aug[:ns, :ns] = loop.a
        aug[:ns, ns] = loop.b[:, 1]
        ref = scipy.linalg.expm(aug * 1e-3)
        assert np.abs(_expm(aug * 1e-3) - ref).max() <= 1e-12 * np.abs(ref).max()


def random_members(m, seed, order=2, time_scale=1.0):
    """``m`` nodes num/den with deg den = order = deg num + 1, under s -> s / time_scale.

    Both polynomials are monic with lower coefficients drawn from
    [0.5, 1.5] (num) and [1, 3] (den); order 2 gives (s + a)/(s^2 + b s + c).
    """
    rng = np.random.default_rng(seed)
    t = (1.0 / time_scale) ** np.arange(order + 1)
    return [
        RationalTF(
            np.append(rng.uniform(0.5, 1.5, order - 1), 1.0) * t[:order],
            np.append(rng.uniform(1.0, 3.0, order), 1.0) * t,
        )
        for _ in range(m)
    ]


def assert_matches_evaluator(members, points, rel=1e-12):
    # oracle: the member-wise harmonic sum 1 / sum(1 / g(s))
    loop = realize_aggregate(members)
    for s in points:
        want = 1.0 / sum(1.0 / tf_eval(g, s) for g in members)
        assert abs(loop.freq_response(s)[0, 0] - want) <= rel * abs(want)


BAND = 1j * np.logspace(-3, 1, 40)


class TestRealizeAggregate:
    def test_swing_group_closed_form(self):
        # sum of 1/g for swing nodes is (sum m) s + (sum d)
        members = [first_order_swing(m, d) for m, d in ((1.0, 0.5), (2.0, 1.5), (1.5, 1.0))]
        agg = realize_aggregate(members)
        expected = realize(RationalTF((1.0,), (3.0, 4.5)))
        for name in ("a", "b", "c", "d"):
            np.testing.assert_array_equal(getattr(agg, name), getattr(expected, name))

    def test_matches_pointwise_evaluator(self):
        members = [
            RationalTF((2.0, 1.0), (2.0, 3.0, 1.0)),
            first_order_swing(1.0, 1.0),
            RationalTF((1.0, 0.5), (1.0, 2.0, 1.0)),
        ]
        rng = np.random.default_rng(1)
        points = [complex(rng.uniform(0.1, 2), rng.uniform(-5, 5)) for _ in range(20)]
        assert_matches_evaluator(members, points)

    def test_large_group_stays_scaled(self):
        rng = np.random.default_rng(2)
        members = [first_order_swing(m, d) for m, d in zip(rng.uniform(1, 3, 160), rng.uniform(0.5, 1.5, 160))]
        assert_matches_evaluator(members, [0.3 + 0.9j, *BAND])

    @pytest.mark.parametrize("m", [80, 160])
    def test_large_second_order_group(self, m):
        # one state per member remainder plus one for the summed s terms
        members = random_members(m, seed=m)
        assert realize_aggregate(members).dims == (m + 1, 1, 1)
        assert_matches_evaluator(members, BAND)

    def test_slow_members_keep_small_remainders(self):
        # under s -> s / 1e-4 the s coefficient of each remainder is near
        # 1e-8: a division that trims absolutely small coefficients drops it
        members = random_members(20, seed=5, order=3, time_scale=1e-4)
        assert_matches_evaluator(members, 1e-4 * BAND)

    def test_relative_degree_two_members(self):
        members = [RationalTF((100.0,), (20000.0, 300.0, 1.0)), *random_members(3, seed=6)]
        assert_matches_evaluator(members, BAND)

    def test_biproper_members(self):
        members = [RationalTF((1.0, 1.0), (2.0, 1.0)), RationalTF((3.0, 1.0), (1.0, 1.0))]
        assert_matches_evaluator(members, BAND)

    def test_cancelling_leading_coefficients_rejected(self):
        members = [RationalTF((1.0,), (1.0, 1.0)), RationalTF((1.0,), (2.0, -1.0))]
        with pytest.raises(ReductionFailed, match="aggregation"):
            realize_aggregate(members)


class TestRealizeReduced:
    @pytest.fixture(scope="class")
    def large_groups(self):
        doc = {
            "wsbm": {"sizes": [80, 160], "q": [[0.8, 0.05], [0.05, 0.8]], "w": [[20, 0.5], [0.5, 20]]},
            "nodes": {"preset": "explicit", "tfs": [g.to_dict() for g in random_members(240, seed=9)]},
            "coupling": {"num": [1.0], "den": [0.0, 1.0]},
            "k": 2,
            "eta": 10.0,
        }
        model, _, _ = build_model(config_from_dict(doc), seed=0)
        return model, run_algorithm_1(model, 2, seed=0, restarts=5)

    def test_large_explicit_groups_match_reduced_core(self, large_groups):
        model, reduced = large_groups
        assert sorted(reduced.partition.sizes) == [80, 160]
        loop = realize_reduced(reduced)
        first = [idx[0] for idx in reduced.partition.blocks()]
        for s in BAND:
            # the k x k core is T_hat_k on one member of each block
            core = eval_t_hat_k(model, reduced, s)[np.ix_(first, first)]
            assert np.abs(loop.freq_response(s) - core).max() <= 1e-10 * np.abs(core).max()

    def test_serialized_model_realizes_identically(self, large_groups):
        _, reduced = large_groups
        loop = realize_reduced(reduced)
        again = realize_reduced(ReducedModel.from_dict(reduced.to_dict()))
        for name in ("a", "b", "c", "d"):
            np.testing.assert_array_equal(getattr(again, name), getattr(loop, name))


def _compare(partition, times, outputs, red_times, red_outputs):
    """The ComparisonReport of one ``ResponseDeviation.add`` of whole trajectories."""
    deviation = ResponseDeviation(partition)
    deviation.add(times, outputs, red_times, red_outputs)
    return deviation.report()


class TestCompareResponses:
    def test_self_comparison_is_zero(self, eq15_params):
        # full outputs constant over each group equal their broadcast aggregates
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        times = np.arange(11) * 0.1
        groups = np.random.default_rng(0).standard_normal((11, reduced.k))
        report = _compare(reduced.partition, times, groups[:, reduced.partition.assignment], times, groups)
        np.testing.assert_allclose(report.per_node, 0.0)
        np.testing.assert_allclose(report.per_group, 0.0)

    def test_grid_mismatch_detected(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        deviation = ResponseDeviation(reduced.partition)
        t5, t6 = np.arange(5) * 0.1, np.arange(6) * 0.1
        y5, y6 = np.zeros((5, model.n)), np.zeros((6, model.n))
        for times, outputs, red_times, red_outputs in (
            (t5, y5, t6, np.zeros((6, 3))),  # grids of different length
            (t5, y5, t5 + 0.05, np.zeros((5, 3))),  # shifted grid
            (t6, y6, t6, np.zeros((5, 3))),  # fewer reduced rows than times
        ):
            with pytest.raises(GridMismatch):
                deviation.add(times, outputs, red_times, red_outputs)
        np.testing.assert_array_equal(deviation.base, 0.0)
        np.testing.assert_array_equal(deviation.diff, 0.0)

    def test_fold_in_chunks_is_bit_equal_to_whole_trajectory_sums(self, eq15_params, eq15_loops):
        model, _ = make_swing_model(eq15_params, seed=0)
        partition = run_algorithm_1(model, 3, seed=0).partition
        full_loop, red_loop, group_in = eq15_loops
        t, y = step_outputs(full_loop, 1, t_end=4.0, dt=1e-3)
        t_r, y_r = step_outputs(red_loop, group_in, t_end=4.0, dt=1e-3)
        whole = _compare(partition, t, y, t_r, y_r)
        yhat = y_r[:, partition.assignment]
        np.testing.assert_array_equal(whole.full_l2, np.sqrt((y**2).sum(axis=0)))
        np.testing.assert_array_equal(whole.per_node, np.sqrt(((y - yhat) ** 2).sum(axis=0)) / whole.full_l2)

        deviation = ResponseDeviation(partition)
        cuts = [0, 1, 2, 515, 1000, 3999, 4001]
        for r0, r1 in zip(cuts, cuts[1:]):
            deviation.add(t[r0:r1], y[r0:r1], t_r[r0:r1], y_r[r0:r1])
        chunked = deviation.report()
        np.testing.assert_array_equal(chunked.full_l2, whole.full_l2)
        np.testing.assert_array_equal(chunked.per_node, whole.per_node)
        np.testing.assert_array_equal(chunked.per_group, whole.per_group)

    def test_empty_chunk_adds_nothing(self):
        rng = np.random.default_rng(1)
        t = np.arange(7) * 0.1
        deviation = ResponseDeviation(Partition(np.array([0, 1, 0, 2, 1]), 3))
        empty = np.empty(0), np.empty((0, 5)), np.empty(0), np.empty((0, 3))
        deviation.add(*empty)  # before any row
        deviation.add(t, rng.standard_normal((7, 5)), t, rng.standard_normal((7, 3)))
        base, diff = deviation.base.copy(), deviation.diff.copy()
        deviation.add(*empty)
        np.testing.assert_array_equal(deviation.base, base)
        np.testing.assert_array_equal(deviation.diff, diff)

    def test_lockstep_pairs_the_same_samples(self, eq15_loops):
        # at 12000 samples the reduced stream comes in two chunks, cut
        # inside one of the full stream's
        full_loop, red_loop, group_in = eq15_loops
        refs = (*step_outputs(full_loop, 1, 12.0, 1e-3), *step_outputs(red_loop, group_in, 12.0, 1e-3))
        pairs = list(
            lockstep(step_chunks(full_loop, 1, 12.0, 1e-3), step_chunks(red_loop, group_in, 12.0, 1e-3))
        )
        # the two streams cut their rows differently
        assert len(pairs) > len(list(step_chunks(full_loop, 1, 12.0, 1e-3)))
        for i, ref in enumerate(refs):
            np.testing.assert_array_equal(np.concatenate([p[i] for p in pairs]), ref)

    def test_lockstep_streams_of_different_length(self, eq15_loops):
        full_loop, red_loop, group_in = eq15_loops
        for t_full, t_red in ((2.0, 3.0), (3.0, 2.0)):
            streams = step_chunks(full_loop, 1, t_full, 1e-3), step_chunks(red_loop, group_in, t_red, 1e-3)
            with pytest.raises(GridMismatch):
                list(lockstep(*streams))

    @pytest.mark.parametrize("full_rate,red_rate", [(0.5, 2.0), (None, 2.0), (2.0, 0.5), (2.0, None)])
    def test_lockstep_raises_the_full_loops_divergence_first(self, full_rate, red_rate):
        # x' = r x + u leaves 1e6 at t = ln(1 + 1e6 r) / r: the full loop's
        # divergence is reported, wherever it occurs; a stable loop has r = -1
        def loop(rate):
            return StateSpace(a=[[-1.0 if rate is None else rate]], b=[[1.0]], c=[[1.0]], d=[[0.0]])

        full, red = loop(full_rate), loop(red_rate)
        with pytest.raises(Diverged) as alone:
            step_outputs(full if full_rate else red, 0, t_end=40.0, dt=0.01, state_limit=1e6)
        with pytest.raises(Diverged) as both:
            list(lockstep(*(step_chunks(ss, 0, 40.0, 0.01, state_limit=1e6) for ss in (full, red))))
        assert str(both.value) == str(alone.value)

    def test_reduced_model_simulation_end_to_end(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        red_loop = realize_reduced(reduced)
        assert red_loop.dims == (6, 3, 3)  # k aggregate nodes + k coupling states
        full_loop = close_loop(model.nodes, model.coupling, model.laplacian)
        full = step_outputs(full_loop, 1, t_end=10.0, dt=1e-3)
        group = int(reduced.partition.assignment[1])
        red = step_outputs(red_loop, group, t_end=10.0, dt=1e-3)
        report = _compare(reduced.partition, *full, *red)
        # all but the disturbed node's transient track well
        assert np.median(report.per_node) <= 0.1
        assert report.per_node.shape == (model.n,)
        assert report.per_group.shape == (3,)

    def test_coherent_group_steady_state_agreement(self):
        # strongly connected single group: after many time constants the
        # node outputs coincide (integrator coupling forces consensus)
        n = 6
        rng = np.random.default_rng(3)
        from netreduce.graphs import laplacian as lap_fn
        from netreduce.transfer import sample_swing_nodes

        a = np.full((n, n), 50.0) - np.diag(np.full(n, 50.0))
        nodes, _, _ = sample_swing_nodes(n, rng)
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=lap_fn(a))
        loop = close_loop(model.nodes, model.coupling, model.laplacian)
        _, y = step_outputs(loop, 0, t_end=60.0, dt=1e-3)
        final = y[-1]
        assert final.max() - final.min() <= 1e-3

    def test_broadcast_shapes(self, eq15_params):
        # k aggregate columns are gathered to n node columns; any other
        # width is rejected before the sums change
        model, _ = make_swing_model(eq15_params, seed=0)
        partition = run_algorithm_1(model, 3, seed=0).partition
        t = np.arange(7) * 0.1
        y_red = np.random.default_rng(2).standard_normal((7, 3))
        y = np.zeros((7, model.n))
        deviation = ResponseDeviation(partition)
        deviation.add(t, y, t, y_red)
        assert deviation.diff.shape == (model.n,)
        np.testing.assert_array_equal(deviation.diff, (y_red[:, partition.assignment] ** 2).sum(axis=0))
        diff = deviation.diff.copy()
        for width in (5, model.n):
            with pytest.raises(GridMismatch, match="columns"):
                deviation.add(t, y, t, np.zeros((7, width)))
        np.testing.assert_array_equal(deviation.diff, diff)
