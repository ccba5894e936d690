import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreduce import (
    AggregateEvaluator,
    CouplingVanishes,
    FreqGrid,
    NetworkModel,
    NonFinite,
    NotPassiveOnGrid,
    NotSymmetric,
    PoleAtS,
    RationalTF,
    ZeroNumerator,
    first_order_swing,
    laplacian,
    passivity_check,
    sample_adjacency,
    tf_eval,
)
from netreduce.transfer import _polyval, node_values

from conftest import COUPLING_INTEGRATOR


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
        with pytest.raises(ValueError):
            RationalTF((1.0, 2.0), (1.0,))

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
    @settings(max_examples=60, deadline=None)
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
        swapped = g.inverse_at(s)
        assert direct == pytest.approx(swapped, rel=1e-10)


MIXED_NODES = [
    first_order_swing(2.0, 0.7),
    RationalTF((2.0, 1.0), (2.0, 3.0, 1.0)),
    RationalTF((1.0, 0.5), (1.0, 2.0, 1.0)),
    RationalTF((3.0,), (1.0,)),
]


class TestNodeValues:
    def test_stacked_horner_equals_scalar(self):
        s = np.array([0.0, 0.5j, 1 + 1j, -3.0, 3.3j])
        num, den, pole = node_values(MIXED_NODES, s)
        assert num.shape == den.shape == (s.size, len(MIXED_NODES))
        for f, sf in enumerate(s):
            for i, g in enumerate(MIXED_NODES):
                assert num[f, i] == _polyval(g.num, sf)
                assert den[f, i] == _polyval(g.den, sf)
        assert not pole.any()

    def test_stacked_inverse_and_value_match_pointwise(self):
        s = 1j * np.logspace(-3, 1, 30)
        num, den, _ = node_values(MIXED_NODES, s)
        for f, sf in enumerate(s):
            for i, g in enumerate(MIXED_NODES):
                assert den[f, i] / num[f, i] == pytest.approx(g.inverse_at(sf), rel=1e-15)
                assert num[f, i] / den[f, i] == pytest.approx(tf_eval(g, sf), rel=1e-15)

    def test_pole_mask_marks_zeros_of_a_numerator(self):
        # (s^2 + 1)/(s + 1)^2 vanishes at s = j: its inverse has a pole there
        notch = RationalTF((1.0, 0.0, 1.0), (1.0, 2.0, 1.0))
        _, _, pole = node_values([first_order_swing(1.0, 1.0), notch], [0.5j, 1j, 2j])
        assert pole.tolist() == [False, True, False]
        with pytest.raises(PoleAtS):
            notch.inverse_at(1j)

    def test_aggregate_over_grid_matches_call(self):
        agg = AggregateEvaluator(MIXED_NODES)
        s = 1j * np.logspace(-2, 1, 25)
        vals, pole = agg.over(s)
        assert not pole.any()
        for sf, val in zip(s, vals):
            assert agg(sf) == val


class TestAggregate:
    def test_identical_members_harmonic_sum(self):
        g = RationalTF((1.0,), (1.0, 1.0))
        for m in (1, 3, 7):
            agg = AggregateEvaluator([g] * m)
            for s in (0.0, 1j, 0.3 + 2j):
                assert agg(s) == pytest.approx(tf_eval(g, s) / m, rel=1e-10)

    def test_singleton_equals_member(self):
        g = RationalTF((2.0, 1.0), (2.0, 3.0, 1.0))
        agg = AggregateEvaluator([g])
        for s in (0.5j, 1 + 1j, 2.0):
            assert agg(s) == pytest.approx(tf_eval(g, s), rel=1e-12)

    def test_two_member_dc_value(self):
        # oracle: explicit sum of inverses at s=0 is 1 + 2, so ghat = 1/3
        agg = AggregateEvaluator([RationalTF((1.0,), (1.0, 1.0)), RationalTF((1.0,), (2.0, 1.0))])
        assert agg(0.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_zero_numerator_rejected(self):
        with pytest.raises(ZeroNumerator):
            AggregateEvaluator([RationalTF((0.0,), (1.0, 1.0))])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            AggregateEvaluator([])


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
        report = passivity_check(model, FreqGrid.default(eta=10.0, n_points=200))
        assert report.gamma == pytest.approx(1.0 / d.min(), rel=1e-9)

    def test_gamma_dominates_every_grid_point(self):
        model = _two_node_model([first_order_swing(2.0, 0.7), first_order_swing(1.0, 1.3)])
        report = passivity_check(model, FreqGrid.default(eta=10.0, n_points=100))
        for g in model.nodes:
            vals = np.array([tf_eval(g, 1j * w) for w in report.grid])
            assert np.all(np.abs(vals) ** 2 / vals.real <= report.gamma * (1 + 1e-12))

    def test_coupling_lower_estimate_integrator(self):
        # |1/(jw)| = 1/w is minimized at the grid endpoint w = eta
        model = _two_node_model([first_order_swing(1.0, 1.0)] * 2)
        report = passivity_check(model, FreqGrid.default(eta=10.0, n_points=150))
        assert report.f_lower == pytest.approx(0.1, rel=1e-12)

    def test_m_eta_first_order(self):
        # |1/g(jw)| = |jw + 1| peaks at w = eta = 1 with value sqrt(2)
        model = _two_node_model(
            [RationalTF((1.0,), (1.0, 1.0))] * 2, coupling=RationalTF((1.0,), (1.0,))
        )
        report = passivity_check(model, FreqGrid.default(eta=1.0, n_points=100))
        assert report.m_eta == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_not_passive_detected(self):
        model = _two_node_model([RationalTF((1.0,), (-1.0, 1.0))] * 2)
        with pytest.raises(NotPassiveOnGrid):
            passivity_check(model, FreqGrid.default(eta=1.0, n_points=50))

    def test_first_non_passive_node_named(self):
        model = _two_node_model([first_order_swing(1.0, 1.0), RationalTF((1.0,), (-1.0, 1.0))])
        with pytest.raises(NotPassiveOnGrid, match=r"^node 1: Re\(g\(jw\)\) <= 0 at omega=0.001$"):
            passivity_check(model, FreqGrid.default(eta=1.0, n_points=50))

    def test_node_pole_on_grid_raises(self):
        # 1/(s^2 + 1) has its pole at omega = 1, a grid point
        model = _two_node_model([first_order_swing(1.0, 1.0), RationalTF((1.0,), (1.0, 0.0, 1.0))])
        grid = FreqGrid(eta=10.0, omega_min=0.1, points=np.array([0.1, 1.0, 10.0]))
        with pytest.raises(PoleAtS):
            passivity_check(model, grid)

    def test_vanishing_coupling_detected(self):
        model = _two_node_model(
            [first_order_swing(1.0, 1.0)] * 2, coupling=RationalTF((0.0,), (1.0, 1.0))
        )
        with pytest.raises(CouplingVanishes):
            passivity_check(model, FreqGrid.default(eta=1.0, n_points=50))

    def test_integrator_imaginary_on_axis_recorded(self):
        model = _two_node_model([first_order_swing(1.0, 1.0)] * 2)
        report = passivity_check(model, FreqGrid.default(eta=10.0, n_points=50))
        assert not report.coupling_real_on_axis
        assert report.coupling_max_imag > 0

    def test_constant_coupling_real_on_axis(self):
        model = _two_node_model(
            [first_order_swing(1.0, 1.0)] * 2, coupling=RationalTF((2.0,), (1.0,))
        )
        report = passivity_check(model, FreqGrid.default(eta=10.0, n_points=50))
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
