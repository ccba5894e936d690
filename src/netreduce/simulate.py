"""Time-domain step-response simulation of full and reduced networks.

Builds state-space realizations of the feedback loop y = G(u - f L y) and
samples their step responses through the exact zero-order-hold
discretisation: with the input held constant, the sampled state obeys
x_{j+1} = Phi x_j + Gamma with no truncation error. The reduced network is
simulated in its own k-node form and compared to the full response after
broadcasting through the partition; each aggregate node is realized from
its members' inverses without multiplying their polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import Diverged, GridMismatch, IllPosed, ImproperTF, ReductionFailed
from .transfer import RationalTF


@dataclass(frozen=True, eq=False)
class StateSpace:
    """State-space system x' = A x + B u, y = C x + D u."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    def __post_init__(self):
        a, b, c, d = (
            np.array(m, dtype=float, ndmin=2) for m in (self.a, self.b, self.c, self.d)
        )
        ns, ni, no = a.shape[0], b.shape[1], c.shape[0]
        if a.shape != (ns, ns) or b.shape != (ns, ni) or c.shape != (no, ns) or d.shape != (no, ni):
            raise ValueError("inconsistent state-space dimensions")
        for m in (a, b, c, d):
            if m.size and not np.all(np.isfinite(m)):
                raise ValueError("state-space matrices must be finite")
        for name, m in (("a", a), ("b", b), ("c", c), ("d", d)):
            object.__setattr__(self, name, m)

    @property
    def dims(self):
        """(states, inputs, outputs)."""
        return (self.a.shape[0], self.b.shape[1], self.c.shape[0])

    def freq_response(self, s):
        """C (sI - A)^-1 B + D at a complex point."""
        ns = self.a.shape[0]
        if ns == 0:
            return self.d.astype(complex)
        x = np.linalg.solve(s * np.eye(ns) - self.a, self.b.astype(complex))
        return self.c @ x + self.d


def realize(tf):
    """Controllable canonical realization of a proper rational function.

    The strictly proper part lands in (A, B, C); the constant part in D.
    A constant gain yields an empty state.
    """
    if not isinstance(tf, RationalTF):
        raise ImproperTF("realize expects a RationalTF")
    den = np.asarray(tf.den, dtype=float)  # monic by construction
    num = np.zeros_like(den)
    num[: len(tf.num)] = tf.num
    r = len(den) - 1
    d_gain = num[r]
    num_sp = num[:r] - d_gain * den[:r]
    if r == 0:
        z = np.zeros((0, 0))
        return StateSpace(a=z, b=np.zeros((0, 1)), c=np.zeros((1, 0)), d=[[d_gain]])
    a = np.zeros((r, r))
    a[:-1, 1:] = np.eye(r - 1)
    a[-1, :] = -den[:r]
    b = np.zeros((r, 1))
    b[-1, 0] = 1.0
    c = num_sp.reshape(1, r)
    return StateSpace(a=a, b=b, c=c, d=[[d_gain]])


def block_diag_nodes(nodes):
    """Block-diagonal MIMO system of per-node SISO realizations."""
    systems = [realize(g) if isinstance(g, RationalTF) else g for g in nodes]
    n = len(systems)
    ns = sum(s.a.shape[0] for s in systems)
    a = np.zeros((ns, ns))
    b = np.zeros((ns, n))
    c = np.zeros((n, ns))
    d = np.zeros((n, n))
    pos = 0
    for i, s in enumerate(systems):
        r = s.a.shape[0]
        a[pos : pos + r, pos : pos + r] = s.a
        b[pos : pos + r, i] = s.b[:, 0]
        c[i, pos : pos + r] = s.c[0]
        d[i, i] = s.d[0, 0]
        pos += r
    return StateSpace(a=a, b=b, c=c, d=d)


def coupling_block(coupling, l):
    """MIMO realization of y -> f(s) (L y): one coupling copy per channel.

    For an integrator coupling f = 1/s this is the minimal block
    (A = 0_{n x n}, B = L, C = I, D = 0).
    """
    f_ss = realize(coupling) if isinstance(coupling, RationalTF) else coupling
    l = np.asarray(l, dtype=float)
    n = l.shape[0]
    r = f_ss.a.shape[0]
    eye = np.eye(n)
    a = np.kron(eye, f_ss.a)
    b = np.kron(eye, f_ss.b) @ l
    c = np.kron(eye, f_ss.c)
    d = float(f_ss.d[0, 0]) * l
    return StateSpace(a=a, b=b, c=c, d=d)


def close_loop(nodes, coupling, l):
    """Closed loop u -> y of the negative feedback y = G(u - f L y).

    ``nodes`` is a sequence of RationalTF or SISO StateSpace systems,
    ``coupling`` the coupling dynamics, ``l`` the Laplacian. Raises IllPosed
    when the feedthrough loop I + D_G D_H is singular.
    """
    plant = block_diag_nodes(nodes) if not isinstance(nodes, StateSpace) else nodes
    fb = coupling_block(coupling, l)
    n = plant.c.shape[0]
    w = np.eye(n) + plant.d @ fb.d
    if np.linalg.cond(w) > 1e12:
        raise IllPosed("feedthrough loop matrix is singular")
    w_inv = np.linalg.solve(w, np.eye(n))

    ag, bg, cg, dg = plant.a, plant.b, plant.c, plant.d
    ah, bh, ch, dh = fb.a, fb.b, fb.c, fb.d
    # y = w_inv (cg x_g - dg ch x_h + dg u)
    c_g = w_inv @ cg
    c_h = -w_inv @ (dg @ ch)
    d_u = w_inv @ dg
    a = np.block(
        [
            [ag - bg @ dh @ c_g, -bg @ ch - bg @ dh @ c_h],
            [bh @ c_g, ah + bh @ c_h],
        ]
    )
    b = np.vstack([bg - bg @ dh @ d_u, bh @ d_u])
    c = np.hstack([c_g, c_h])
    return StateSpace(a=a, b=b, c=c, d=d_u)


@dataclass(frozen=True, eq=False)
class SimResult:
    """Sampled step response: uniform times and one output column per node."""

    times: np.ndarray = field(repr=False)
    outputs: np.ndarray = field(repr=False)
    input_spec: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.outputs, dtype=float)
        if t.ndim != 1 or y.shape[0] != t.size:
            raise ValueError("times and outputs disagree")
        dt = np.diff(t)
        if t.size > 1 and (np.any(dt <= 0) or np.abs(dt - dt[0]).max() > 1e-9 * dt[0]):
            raise ValueError("times must be strictly increasing and uniform")
        if not np.all(np.isfinite(y)):
            raise ValueError("outputs must be finite")


def sample_steps(t_end, dt):
    """Number of ``dt`` steps that reach ``t_end`` exactly.

    Raises ValueError unless t_end / dt is an integer within a relative
    1e-9, so a horizon is never silently cut short or overshot.
    """
    ratio = t_end / dt
    steps = int(round(ratio))
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"dt={dt:g} does not divide t_end={t_end:g} into whole steps")
    return steps


def step_response(sys, input_node, t_end, dt, state_limit=1e12):
    """Step response from rest, sampled every ``dt`` without truncation error.

    The input is a unit step on ``input_node`` (zero elsewhere), applied
    from t = 0. Over one sample the input is constant, so the state obeys
    x_{j+1} = Phi x_j + Gamma exactly, with Phi = e^{A dt} and Gamma the
    integral of e^{A s} b over [0, dt]; both are read off one Van Loan
    exponential expm([[A, b], [0, 0]] dt) (Van Loan, IEEE TAC 23(3), 1978).
    Only the outputs are stored. Raises Diverged at the first sample where
    any state is non-finite or larger than ``state_limit`` in magnitude, and
    ValueError when ``dt`` does not divide ``t_end`` (see ``sample_steps``).
    """
    ns, ni, _ = sys.dims
    if dt <= 0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
    if not 0 <= input_node < ni:
        raise ValueError(f"input_node {input_node} out of range [0, {ni})")
    steps = sample_steps(t_end, dt)
    d_u = sys.d[:, input_node]
    times = np.arange(steps + 1) * dt
    spec = f"unit step at node {input_node}"
    if ns == 0:
        return SimResult(times=times, outputs=np.tile(d_u, (steps + 1, 1)), input_spec=spec)
    aug = np.zeros((ns + 1, ns + 1))
    aug[:ns, :ns] = sys.a
    aug[:ns, ns] = sys.b[:, input_node]
    zoh = scipy.linalg.expm(aug * dt)
    phi, gamma = zoh[:ns, :ns], zoh[:ns, ns]
    out = np.empty((steps + 1, sys.c.shape[0]))
    out[0] = d_u
    x = np.zeros(ns)
    for i in range(steps):
        x = phi @ x + gamma
        # a NaN fails the comparison too
        if not np.abs(x).max() <= state_limit:
            raise Diverged(f"state magnitude exceeded {state_limit:g} at t={(i + 1) * dt:g}")
        out[i + 1] = sys.c @ x + d_u
    return SimResult(times=times, outputs=out, input_spec=spec)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-node and per-group deviations between full and reduced responses."""

    per_node: np.ndarray
    per_group: np.ndarray
    full_l2: np.ndarray = field(repr=False, default=None)


def broadcast_outputs(reduced_outputs, partition):
    """Expand k aggregate output columns to n node columns via the partition."""
    y = np.asarray(reduced_outputs, dtype=float)
    if y.shape[1] == partition.n:
        return y
    if y.shape[1] != partition.k:
        raise GridMismatch(
            f"reduced outputs have {y.shape[1]} columns, expected k={partition.k} or n={partition.n}"
        )
    return y[:, partition.assignment]


def compare_responses(full, reduced, partition):
    """Relative L2 deviations between full node outputs and broadcast aggregates.

    Per node: ||y_i - yhat_(i)||_2 / ||y_i||_2 over the trajectory; per
    group: the maximum over member nodes. Requires matching time grids.

    The per-node figure includes the full network's own within-group
    deviation y_i - mean over the group of y, which no group-broadcast output
    can remove: a group whose members i, j differ by
    ||y_i - y_j||_2 / (||y_i||_2 + ||y_j||_2) = r leaves one of them at
    relative error >= r whatever the reduced model does.
    """
    t_f = np.asarray(full.times)
    t_r = np.asarray(reduced.times)
    if t_f.size != t_r.size or np.abs(t_f - t_r).max() > 1e-9 * max(1.0, t_f[-1]):
        raise GridMismatch("time grids differ")
    y = np.asarray(full.outputs, dtype=float)
    yhat = broadcast_outputs(reduced.outputs, partition)
    if y.shape != yhat.shape:
        raise GridMismatch(f"output shapes differ: {y.shape} vs {yhat.shape}")
    diff = np.sqrt(((y - yhat) ** 2).sum(axis=0))
    base = np.sqrt((y**2).sum(axis=0))
    per_node = np.where(base > 0, diff / np.where(base > 0, base, 1.0), np.where(diff > 0, np.inf, 0.0))
    per_group = np.array([per_node[idx].max() for idx in partition.blocks()])
    return ComparisonReport(per_node=per_node, per_group=per_group, full_l2=base)


def _split_inverse(g):
    """1/g = q + r, q polynomial, r strictly proper; trims no coefficient, however small."""
    num, rem = g.num, list(g.den)
    p = len(num) - 1
    q = np.zeros(len(rem) - p)
    for j in reversed(range(q.size)):
        q[j] = rem[j + p] / num[p]
        for i in range(p + 1):
            rem[j + i] -= q[j] * num[i]
    return q, RationalTF(rem[:p], num)


def realize_aggregate(members):
    """State space of the aggregate (sum_i 1/g_i)^-1 of a node group.

    With each 1/g_i = q_i + r_i split by ``_split_inverse``, it is the loop
    y = (1/Q)(u - R y) for Q = sum q_i and R = sum r_i, of order
    deg Q + sum deg num_i: member polynomials are added, never multiplied.
    Raises ReductionFailed when the leading coefficients of Q cancel.
    """
    parts = [_split_inverse(g) for g in members]
    q_sum = np.zeros(max(q.size for q, _ in parts))
    for q, _ in parts:
        q_sum[: q.size] += q
    if abs(q_sum[-1]) <= 1e-12 * max(abs(q[-1]) for q, _ in parts if q.size == q_sum.size):
        raise ReductionFailed("aggregation", f"member inverses cancel at s^{q_sum.size - 1}")
    rem = block_diag_nodes([r for _, r in parts])
    r_sum = StateSpace(rem.a, rem.b.sum(1, keepdims=True), rem.c.sum(0, keepdims=True), 0.0)
    return close_loop([RationalTF((1.0,), q_sum)], r_sum, [[1.0]])


def realize_reduced(reduced):
    """Closed-loop state space of a reduced model, each group by ``realize_aggregate``."""
    aggregates = [realize_aggregate(a.members) for a in reduced.aggregates]
    return close_loop(aggregates, reduced.coupling, reduced.l_k)
