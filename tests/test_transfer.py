import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreduce import (
    CouplingVanishes,
    ImproperTF,
    NetworkModel,
    NonFinite,
    NotPassiveOnGrid,
    NotSymmetric,
    Partition,
    PoleAtS,
    RationalTF,
    first_order_swing,
    laplacian,
    log_grid,
    passivity_check,
    sample_adjacency,
    sweep,
    tf_eval,
)
from netreduce import evaluation
from netreduce.transfer import node_values

from conftest import COUPLING_INTEGRATOR, make_swing_model


class TestRationalTF:
    def test_canonical_monic_denominator(self):
        g = RationalTF((2.0,), (2.0, 2.0))
        assert g.den == (1.0, 1.0)
        assert g.num == (1.0,)

    def test_trailing_zeros_trimmed(self):
        g = RationalTF((1.0, 0.0), (1.0, 1.0, 0.0))
        assert g.den == (1.0, 1.0)
        assert g.num == (1.0,)

    def test_equality_is_canonical_within_tolerance(self):
        assert RationalTF((2.0,), (2.0, 2.0)) == RationalTF((1.0,), (1.0, 1.0))
        assert RationalTF((1.0,), (1.0 + 5e-13, 1.0)) == RationalTF((1.0,), (1.0, 1.0))
        assert RationalTF((1.0,), (1.0 + 1e-9, 1.0)) != RationalTF((1.0,), (1.0, 1.0))

    def test_improper_rejected(self):
        with pytest.raises(ImproperTF) as info:
            RationalTF((1.0, 2.0), (1.0,))
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "num,den",
        [((float("nan"),), (0.0, 1.0)), ((1.0,), (float("inf"), 1.0)), ((1.0,), (1.0, 1e-320))],
    )
    def test_non_finite_coefficients_rejected(self, num, den):
        # the last denominator overflows when it is made monic
        with pytest.raises(NonFinite):
            RationalTF(num, den)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalTF((1.0,), (0.0, 0.0))

    def test_equal_degree_allowed(self):
        g = RationalTF((1.0, 2.0), (3.0, 4.0))
        assert g.degree == 1


class TestTfEval:
    def test_dc_gain(self):
        assert tf_eval(RationalTF((1.0,), (1.0, 1.0)), 0.0) == pytest.approx(1.0 + 0.0j)

    def test_integrator_at_j(self):
        assert tf_eval(RationalTF((1.0,), (0.0, 1.0)), 1j) == pytest.approx(-1j)

    def test_matches_factored_form(self):
        # (s+2)/(s^2+3s+2) = (s+2)/((s+1)(s+2)); cancel by hand and
        # evaluate the factored remainder 1/(s+1) independently
        g = RationalTF((2.0, 1.0), (2.0, 3.0, 1.0))
        s = 1j
        oracle = 1.0 / (s + 1.0)
        assert tf_eval(g, s) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx((1 - 1j) / 2)

    def test_pole_raises(self):
        with pytest.raises(PoleAtS):
            tf_eval(RationalTF((1.0,), (1.0, 1.0)), -1.0)

    @given(
        num=st.lists(st.floats(-5, 5), min_size=1, max_size=3),
        den_low=st.lists(st.floats(-5, 5), min_size=2, max_size=3),
        re=st.floats(-3, 3),
        im=st.floats(-3, 3),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_reciprocal_identity(self, num, den_low, re, im):
        # 1 / g(s) must match the evaluation of the coefficient-swapped
        # function, wherever both are well-defined
        if all(abs(c) < 1e-3 for c in num):
            return
        den = den_low[:-1] + [1.0]
        if len(num) > len(den):
            return
        g = RationalTF(num, den)
        s = complex(re, im)
        nv = sum(c * s**i for i, c in enumerate(g.num))
        dv = sum(c * s**i for i, c in enumerate(g.den))
        if abs(nv) < 1e-6 or abs(dv) < 1e-6:
            return
        direct = 1.0 / tf_eval(g, s)
        num_v, den_v, inverse_pole, _ = node_values([g], [s])
        assert not inverse_pole[0, 0]
        assert direct == pytest.approx(den_v[0, 0] / num_v[0, 0], rel=1e-10)


MIXED_NODES = [
    first_order_swing(2.0, 0.7),
    RationalTF((2.0, 1.0), (2.0, 3.0, 1.0)),
    RationalTF((1.0, 0.5), (1.0, 2.0, 1.0)),
    RationalTF((3.0,), (1.0,)),
]


class TestNodeValues:
    def test_stacked_horner_equals_scalar(self):
        # np.polyval runs Horner's rule one point at a time, and tf_eval is
        # the one-column call of the stacked kernel: both bit-equal
        s = np.array([0.0, 0.5j, 1 + 1j, -3.0, 3.3j])
        num, den, inverse_pole, pole = node_values(MIXED_NODES, s)
        assert num.shape == den.shape == (s.size, len(MIXED_NODES))
        for f, sf in enumerate(s):
            for i, g in enumerate(MIXED_NODES):
                assert num[f, i] == np.polyval(g.num[::-1], sf)
                assert den[f, i] == np.polyval(g.den[::-1], sf)
                assert tf_eval(g, sf) == num[f, i] / den[f, i]
        assert not inverse_pole.any() and not pole.any()

    def test_sweep_coupling_equals_tf_eval(self):
        # f of a sweep and tf_eval divide the same stacked values the same way
        rng = np.random.default_rng(3)
        s = np.concatenate([1j * np.logspace(-3, 2, 40), rng.standard_normal(10) + 1j])
        for _ in range(30):
            deg = int(rng.integers(1, 5))
            num = rng.standard_normal(int(rng.integers(1, deg + 2)))
            f = RationalTF(num, [*rng.standard_normal(deg), 1.0])
            model = _two_node_model([first_order_swing(1.0, 1.0)] * 2, coupling=f)
            got = evaluation.Sweep(model, s).f
            assert all(got[i] == tf_eval(f, sf) for i, sf in enumerate(s))

    def test_subset_equals_gathered_columns(self):
        # another padding width and column position leave every value unchanged
        s = np.array([0.0, 0.5j, 1 + 1j, -3.0, 3.3j, 0.2 - 0.7j])
        full = node_values(MIXED_NODES, s)
        for idx in ([0], [3], [1, 3], [3, 0], [2, 0, 1]):
            part = node_values([MIXED_NODES[i] for i in idx], s)
            for got, want in zip(part, full):
                assert np.array_equal(got, want[:, idx])

    def test_stacked_inverse_and_value_match_pointwise(self):
        s = 1j * np.logspace(-3, 1, 30)
        num, den, _, _ = node_values(MIXED_NODES, s)
        for f, sf in enumerate(s):
            for i, g in enumerate(MIXED_NODES):
                assert den[f, i] / num[f, i] == pytest.approx(1.0 / tf_eval(g, sf), rel=1e-15)
                assert num[f, i] / den[f, i] == pytest.approx(tf_eval(g, sf), rel=1e-15)

    def test_pole_mask_marks_zeros_of_a_numerator(self):
        # (s^2 + 1)/(s + 1)^2 vanishes at s = j: its inverse has a pole there
        notch = RationalTF((1.0, 0.0, 1.0), (1.0, 2.0, 1.0))
        _, _, inverse_pole, pole = node_values([first_order_swing(1.0, 1.0), notch], [0.5j, 1j, 2j])
        assert inverse_pole.any(axis=1).tolist() == [False, True, False]
        assert inverse_pole[1].tolist() == [False, True] and not pole.any()

    def test_aggregate_over_grid_matches_call(self):
        s = 1j * np.logspace(-2, 1, 25)
        vals, pole = _aggregate(MIXED_NODES, s)
        assert not pole.any()
        for sf, val in zip(s, vals):
            one, one_pole = _aggregate(MIXED_NODES, [sf])
            assert not one_pole[0] and one[0] == val


def _aggregate(members, s):
    """Aggregate of ``members`` at the points ``s`` and its pole mask, as band_error sums it.

    The members are the first block of a decoupled model whose one other
    node is a block of its own.
    """
    nodes = [*members, first_order_swing(1.0, 1.0)]
    n = len(nodes)
    model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=np.zeros((n, n)))
    part = Partition([0] * (n - 1) + [1], 2)
    ghat, pole = evaluation._aggregates(evaluation.Sweep(model, s), part)
    return ghat[:, 0], pole


class TestAggregate:
    # oracle: the member-wise harmonic sum 1 / sum(1 / tf_eval(g, s))
    def test_identical_members_harmonic_sum(self):
        g = RationalTF((1.0,), (1.0, 1.0))
        for m in (1, 3, 7):
            vals, pole = _aggregate([g] * m, [0.0, 1j, 0.3 + 2j])
            assert not pole.any()
            for s, val in zip((0.0, 1j, 0.3 + 2j), vals):
                assert val == pytest.approx(tf_eval(g, s) / m, rel=1e-10)

    def test_singleton_equals_member(self):
        g = RationalTF((2.0, 1.0), (2.0, 3.0, 1.0))
        points = (0.5j, 1 + 1j, 2.0)
        vals, _ = _aggregate([g], points)
        for s, val in zip(points, vals):
            assert val == pytest.approx(tf_eval(g, s), rel=1e-12)

    def test_two_member_dc_value(self):
        # oracle: explicit sum of inverses at s=0 is 1 + 2, so ghat = 1/3
        members = [RationalTF((1.0,), (1.0, 1.0)), RationalTF((1.0,), (2.0, 1.0))]
        vals, _ = _aggregate(members, [0.0])
        assert vals[0] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_sums_of_the_sweep_equal_member_sums_bit_for_bit(self, eq15_params):
        # blocks of 20 and 40 members take numpy's pairwise row sums; a
        # gather that is not C-ordered would add the members in another order
        model, _ = make_swing_model(eq15_params, seed=0)
        part = eq15_params.true_partition()
        s = 1j * np.logspace(-3, 1, 50)
        ghat, pole = evaluation._aggregates(evaluation.Sweep(model, s), part)
        assert not pole.any()
        for j, idx in enumerate(part.blocks()):
            num, den, _, _ = node_values([model.nodes[i] for i in idx], s)
            assert np.array_equal(ghat[:, j], 1.0 / (den / num).sum(axis=1))

    def test_vanishing_sum_of_inverses_is_a_pole(self):
        # 1/g = s + 1 and s - 1 sum to 2s, which vanishes at s = 0
        members = [RationalTF((1.0,), (1.0, 1.0)), RationalTF((1.0,), (-1.0, 1.0))]
        _, pole = _aggregate(members, [0.0, 1j])
        assert pole.tolist() == [True, False]


def _two_node_model(nodes, coupling=COUPLING_INTEGRATOR):
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NetworkModel(nodes=nodes, coupling=coupling, laplacian=lap)


class TestPassivityCheck:
    def test_swing_gamma_matches_closed_form(self):
        # Re(1/(jw+d)) = d / (w^2 + d^2) = d |g|^2, so |g|^2/Re(g) = 1/d
        # at every frequency; the grid maximum must equal 1/min(d)
        d = np.array([0.5, 2.0, 1.25])
        nodes = [first_order_swing(1.0, di) for di in d]
        lap = np.array([[2.0, -1, -1], [-1, 2.0, -1], [-1, -1, 2.0]])
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=lap)
        report = passivity_check(sweep(model, log_grid(1e-3, 10.0, 200)))
        assert report.gamma == pytest.approx(1.0 / d.min(), rel=1e-9)

    def test_gamma_dominates_every_grid_point(self):
        model = _two_node_model([first_order_swing(2.0, 0.7), first_order_swing(1.0, 1.3)])
        omega = log_grid(1e-3, 10.0, 100)
        report = passivity_check(sweep(model, omega))
        for g in model.nodes:
            vals = np.array([tf_eval(g, 1j * w) for w in omega])
            assert np.all(np.abs(vals) ** 2 / vals.real <= report.gamma * (1 + 1e-12))

    def test_coupling_lower_estimate_integrator(self):
        # |1/(jw)| = 1/w is minimized at the grid endpoint w = eta
        model = _two_node_model([first_order_swing(1.0, 1.0)] * 2)
        report = passivity_check(sweep(model, log_grid(1e-3, 10.0, 150)))
        assert report.f_lower == pytest.approx(0.1, rel=1e-12)

    def test_m_eta_first_order(self):
        # |1/g(jw)| = |jw + 1| peaks at w = eta = 1 with value sqrt(2)
        model = _two_node_model(
            [RationalTF((1.0,), (1.0, 1.0))] * 2, coupling=RationalTF((1.0,), (1.0,))
        )
        report = passivity_check(sweep(model, log_grid(1e-3, 1.0, 100)))
        assert report.m_eta == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_not_passive_detected(self):
        model = _two_node_model([RationalTF((1.0,), (-1.0, 1.0))] * 2)
        with pytest.raises(NotPassiveOnGrid):
            passivity_check(sweep(model, log_grid(1e-3, 1.0, 50)))

    def test_first_non_passive_node_named(self):
        model = _two_node_model([first_order_swing(1.0, 1.0), RationalTF((1.0,), (-1.0, 1.0))])
        with pytest.raises(NotPassiveOnGrid, match=r"^node 1: Re\(g\(jw\)\) <= 0 at omega=0.001$"):
            passivity_check(sweep(model, log_grid(1e-3, 1.0, 50)))

    def test_node_pole_on_grid_raises(self):
        # 1/(s^2 + 1) has its pole at omega = 1, a grid point
        model = _two_node_model([first_order_swing(1.0, 1.0), RationalTF((1.0,), (1.0, 0.0, 1.0))])
        grid = np.array([0.1, 1.0, 10.0])
        with pytest.raises(PoleAtS):
            passivity_check(sweep(model, grid))

    def test_vanishing_coupling_detected(self):
        model = _two_node_model(
            [first_order_swing(1.0, 1.0)] * 2, coupling=RationalTF((0.0,), (1.0, 1.0))
        )
        with pytest.raises(CouplingVanishes):
            passivity_check(sweep(model, log_grid(1e-3, 1.0, 50)))

    def test_integrator_imaginary_on_axis_recorded(self):
        model = _two_node_model([first_order_swing(1.0, 1.0)] * 2)
        report = passivity_check(sweep(model, log_grid(1e-3, 10.0, 50)))
        assert not report.coupling_real_on_axis
        assert report.coupling_max_imag > 0

    def test_constant_coupling_real_on_axis(self):
        model = _two_node_model(
            [first_order_swing(1.0, 1.0)] * 2, coupling=RationalTF((2.0,), (1.0,))
        )
        report = passivity_check(sweep(model, log_grid(1e-3, 10.0, 50)))
        assert report.coupling_real_on_axis


class TestNetworkModel:
    def test_rejects_asymmetric_laplacian(self):
        with pytest.raises(NotSymmetric):
            NetworkModel(
                nodes=[first_order_swing(1, 1)] * 2,
                coupling=COUPLING_INTEGRATOR,
                laplacian=[[1.0, -1.0], [0.0, 1.0]],
            )

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError):
            NetworkModel(
                nodes=[first_order_swing(1, 1)] * 2,
                coupling=COUPLING_INTEGRATOR,
                laplacian=[[1.0, -0.5], [-0.5, 1.0]],
            )

    def test_rejects_positive_off_diagonal(self):
        with pytest.raises(ValueError):
            NetworkModel(
                nodes=[first_order_swing(1, 1)] * 2,
                coupling=COUPLING_INTEGRATOR,
                laplacian=[[-1.0, 1.0], [1.0, -1.0]],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite):
            NetworkModel(
                nodes=[first_order_swing(1, 1)] * 2,
                coupling=COUPLING_INTEGRATOR,
                laplacian=[[bad, -1.0], [-1.0, 1.0]],
            )

    def test_stores_a_read_only_copy(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 4))
        before = lap.tobytes()
        model = NetworkModel(
            nodes=[first_order_swing(1, 1)] * lap.shape[0],
            coupling=COUPLING_INTEGRATOR,
            laplacian=lap,
        )
        assert lap.tobytes() == before and lap.flags.writeable
        assert model.laplacian.tobytes() == before
        assert not model.laplacian.flags.writeable

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            NetworkModel(
                nodes=[first_order_swing(1, 1)],
                coupling=COUPLING_INTEGRATOR,
                laplacian=[[0.0]],
            )
