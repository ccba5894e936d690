"""Time-domain step-response simulation of full and reduced networks.

Builds state-space realizations of the feedback loop y = G(u - f L y), from
the per-node realizations and one realization of the coupling laid side by
side, and samples their step responses through the exact zero-order-hold
discretisation: with the input held constant, the sampled state obeys
x_{j+1} = Phi x_j + Gamma with no truncation error. A loop whose
feedthrough matrix I + D_G d_f L fails the 1-norm rcond rule of
``transfer.checked_inverse`` is IllPosed. The reduced network is
simulated in its own k-node form and compared to the full response after
broadcasting through the partition; each aggregate node is realized from
its members' inverses without multiplying their polynomials. A response
comes as a stream of chunks of samples (``step_chunks``); ``lockstep``
pairs the chunks of the two networks, and ``ResponseDeviation`` folds them
into the comparison, so that neither trajectory need be held whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, GridMismatch, IllPosed, ReductionFailed
from .transfer import RationalTF, checked_inverse


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
        x = np.linalg.solve(s * np.eye(self.a.shape[0]) - self.a, self.b.astype(complex))
        return self.c @ x + self.d


def realize(tf):
    """Controllable canonical realization of a proper rational function.

    The strictly proper part lands in (A, B, C); the constant part in D.
    Every order takes the same path; a constant gain yields an empty state.
    """
    den = np.asarray(tf.den, dtype=float)  # monic by construction
    num = np.zeros_like(den)
    num[: len(tf.num)] = tf.num
    r = len(den) - 1
    d_gain = num[r]
    num_sp = num[:r] - d_gain * den[:r]
    a = np.eye(r, k=1)
    a[-1:, :] = -den[:r]
    b = np.zeros((r, 1))
    b[-1:, 0] = 1.0
    c = num_sp.reshape(1, r)
    return StateSpace(a=a, b=b, c=c, d=[[d_gain]])


def _side_by_side(systems):
    """SISO systems (RationalTF, realized here, or StateSpace) side by side: (a, b, c, d, owner).

    ``a`` is the block-diagonal matrix of their A's; ``b`` and ``c`` hold
    each state's input and output weight, ``d`` each system's feedthrough
    and ``owner`` each state's system, so that B[p, owner[p]] = b[p],
    C[owner[p], p] = c[p] and D = diag(d) are the MIMO system's.
    """
    systems = [realize(s) if isinstance(s, RationalTF) else s for s in systems]
    orders = [s.a.shape[0] for s in systems]
    owner = np.repeat(np.arange(len(systems)), orders)
    a = np.zeros((owner.size, owner.size))
    pos = 0
    for s, r in zip(systems, orders):
        a[pos : pos + r, pos : pos + r] = s.a
        pos += r
    b = np.concatenate([s.b[:, 0] for s in systems])
    c = np.concatenate([s.c[0] for s in systems])
    return a, b, c, np.array([s.d[0, 0] for s in systems]), owner


def close_loop(nodes, coupling, l):
    """Closed loop u -> y of the negative feedback y = G(u - f L y).

    ``nodes`` is a sequence of RationalTF or SISO StateSpace systems,
    ``coupling`` the coupling dynamics, ``l`` the Laplacian. The state holds
    the node states, then one copy of the coupling's states per node, both
    in node order. Raises IllPosed unless the feedthrough loop matrix
    W = I + D_G d_f L passes ``transfer.checked_inverse``.

    A product with the block-diagonal plant or coupling copies has one
    nonzero term per entry: it is a gather (``take`` keeps C order) times
    the state weights, plus 0.0 for the +0.0 that the dense product sums.
    So the bits are the dense formulas', but for the sign of a product
    that underflows to zero, which BLAS may fuse into its sum.
    """
    l = np.asarray(l, dtype=float)
    n = l.shape[0]
    f = realize(coupling) if isinstance(coupling, RationalTF) else coupling
    ag, bg, cg, dg, og = _side_by_side(nodes)
    ah, bh, ch, _, oh = _side_by_side([f] * n)
    dl = float(f.d[0, 0]) * l  # D_H
    w = np.eye(n) + (dg[:, None] * dl + 0.0)
    w_inv = checked_inverse(w, IllPosed, "feedthrough loop matrix is singular")
    # y = w_inv (C_G x_G - D_G C_H x_H + D_G u)
    c_g = w_inv.take(og, axis=1) * cg + 0.0
    c_h = -w_inv.take(oh, axis=1) * (dg.take(oh) * ch + 0.0) + 0.0
    d_u = w_inv * dg + 0.0
    bg_dh = bg[:, None] * dl.take(og, axis=0) + 0.0
    bh_l = bh[:, None] * l.take(oh, axis=0) + 0.0  # B_H
    # B_G, and -B_G C_H, which joins each node to its own coupling copy only
    b_g = np.where(og[:, None] == np.arange(n), bg[:, None], 0.0)
    bg_ch = np.where(og[:, None] == oh, -bg[:, None] * ch + 0.0, 0.0)
    a = np.block([[ag - bg_dh @ c_g, bg_ch - bg_dh @ c_h], [bh_l @ c_g, ah + bh_l @ c_h]])
    b = np.vstack([b_g - bg_dh @ d_u, bh_l @ d_u])
    return StateSpace(a=a, b=b, c=np.hstack([c_g, c_h]), d=d_u)


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


# [13/13] Pade coefficients b_0..b_13, and theta_13, the largest 1-norm at
# which the unscaled approximant is accurate to double precision
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a):
    """Matrix exponential by scaling and squaring with the [13/13] Pade approximant.

    Scales ``a`` by 2^-s so that its 1-norm is at most theta_13, evaluates
    the approximant r = (V - U)^-1 (V + U) with six products and one solve,
    and squares r s times (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
    """
    b = _PADE13
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**s
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    # (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U, exactly I when a = 0
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


# longest output block: at n = 80 and 4001 samples, blocks of 12 to 24
# samples step the 160-state loop in the same 12-13 ms; a longer block
# only adds operator products and memory (16 samples of operators take
# 0.64 of that loop's output array)
_BLOCK_MAX = 16
# outputs per product of ``step_chunks`` at least: only below 1200 outputs
# does OpenBLAS switch to its small-matrix kernel, which rounds differently
_RUN_CELLS = 16384
# largest ||Z^m - I|| ||Z - I|| at which a block may grow by one more
# sample: far enough inside the float range that no product overflows
_GROWTH_MAX = 1e150


def _block_length(steps, ns):
    """Samples per output block: at most ``_BLOCK_MAX``, and at most ``steps``.

    B (ns + 1) <= steps + 1, so the B stacked output operators, each
    n_out x (ns + 1), never take more memory than the (steps + 1) x n_out
    outputs.
    """
    return max(1, min(_BLOCK_MAX, (steps + 1) // (ns + 1)))


def _run_length(ns, width):
    """Block starts R per output product of ``step_chunks``, for ``width`` = B n_out.

    At least two starts and ``_RUN_CELLS`` outputs, so that BLAS computes
    each row as in any longer product, and a quarter of the ns + 1 columns
    of the starts, since each product packs the whole (ns + 1) x B n_out
    operator block again: on the 640-state loop of n = 320, 30001 samples
    took 1.01-1.07 s in runs of 32 starts and 0.80-1.00 s in runs of 160,
    against 0.78-0.97 s in one product over all 1875 starts.
    """
    return max(2, (ns + 1) // 4, -(-_RUN_CELLS // width))


def _inf_norm(m):
    """Largest absolute row sum, as a Python float; 0.0 for a matrix without rows."""
    return float(np.abs(m).sum(axis=1).max(initial=0.0))


def _block_operators(zoh, c_aug, block):
    """Output operators of one block, Z^B - I, and the block's state bounds.

    ``zoh`` is Z = [[Phi, Gamma], [0, 1]] and ``c_aug`` is [C, d]. Returns
    ``ops``, with ``ops[m - 1]`` = [C, d] Z^m for m = 1..B, ``d`` = Z^B - I,
    and ``grow`` and ``rest``, the largest ||Phi^m||_inf and |x_m|_inf over
    m = 1..B, where x_m is the state m samples from rest. B is ``block``
    unless one more product could overflow (``_GROWTH_MAX``).

    Z^m - I is grown as d + n + d n from n = Z - I, which is exact for the
    entries of Z near 1: products of Z^m itself would round those entries
    at every step, an error that the block starts then accumulate (2.6e-11
    of max|y| over 30000 samples of the 160-state loop of eq15, against
    2e-13 this way).
    """
    ns = zoh.shape[0] - 1
    n = zoh - np.eye(ns + 1)
    # an exactly zero last row keeps the 1 of every [s; 1]
    n[ns] = 0.0
    n_norm = _inf_norm(n)
    eye = np.eye(ns)
    ops = np.empty((block, c_aug.shape[0], ns + 1))
    d = n
    grow = rest = 0.0
    for m in range(block):
        if m:
            if not _inf_norm(d) * n_norm <= _GROWTH_MAX:
                break
            d = d + n + d @ n
        ops[m] = c_aug + c_aug @ d
        grow = max(grow, _inf_norm(d[:ns, :ns] + eye))
        rest = max(rest, float(np.abs(d[:ns, ns]).max(initial=0.0)))
    else:
        m = block
    return ops[:m], d, grow, rest


def step_chunks(sys, input_node, t_end, dt, state_limit=1e12):
    """Step response from rest, sampled every ``dt`` without truncation error.

    Yields ``(times, outputs)`` chunks of consecutive samples, from t = 0
    to ``t_end``, one output column per system output; memory does not
    grow with the horizon.

    The input is a unit step on ``input_node`` (zero elsewhere), applied
    from t = 0. Over one sample the input is constant, so the state obeys
    x_{j+1} = Phi x_j + Gamma exactly, with Phi = e^{A dt} and Gamma the
    integral of e^{A s} b over [0, dt]. Both are read off one Van Loan
    exponential Z = expm([[A, b], [0, 0]] dt) = [[Phi, Gamma], [0, 1]]
    (Van Loan, IEEE TAC 23(3), 1978), taken by ``_expm``.

    The samples are taken in blocks of B (``_block_length``). Since
    Z^m = [[Phi^m, x_m], [0, 1]], with x_m the state m samples from rest,
    the m-th sample after a block start s is
    [C, d] Z^m [s; 1] = C (Phi^m s + x_m) + d. Only the block starts are
    stepped, [s'; 1] = Z^B [s; 1]. The outputs of a run of J starts come
    from one (J x (ns + 1)) @ ((ns + 1) x B n_out) product, and make one
    chunk. The whole blocks of the horizon are cut into runs of R starts
    (``_run_length``); a last piece shorter than R joins the run before it,
    and a partial last block joins the last run as a matrix-vector product.
    BLAS gives each row the same bits in any product of two or more rows
    and more than about a thousand outputs, so the outputs do not depend
    on R.

    A loop without states takes the same path: ``_expm`` gives its 1 x 1
    Z as exactly [[1]], so every sample is d (a -0.0 is +0.0 after t = 0).

    Raises Diverged at the first sample where any state is non-finite or
    larger than ``state_limit`` in magnitude. Every state of a block is at
    most max_m ||Phi^m||_inf |s|_inf + max_m |x_m|_inf. A block whose
    bound exceeds the limit, or is NaN, is stepped one sample at a time, so
    the first such sample is named exactly and no inf or NaN is stepped
    on. Raises ValueError when ``dt`` does not divide ``t_end`` (see
    ``sample_steps``).
    """
    ns, ni, n_out = sys.dims
    if dt <= 0 or t_end < dt:
        raise ValueError("need dt > 0 and t_end >= dt")
    if not 0 <= input_node < ni:
        raise ValueError(f"input_node {input_node} out of range [0, {ni})")
    steps = sample_steps(t_end, dt)
    d_u = sys.d[:, input_node]
    aug = np.zeros((ns + 1, ns + 1))
    aug[:ns, :ns] = sys.a
    aug[:ns, ns] = sys.b[:, input_node]
    zoh = _expm(aug * dt)
    phi, gamma = zoh[:ns, :ns], zoh[:ns, ns]
    ops, d, grow, rest = _block_operators(
        zoh, np.column_stack([sys.c, d_u]), _block_length(steps, ns)
    )
    block = ops.shape[0]
    ops = ops.reshape(block * n_out, ns + 1)

    n_blocks, n_whole = -(-steps // block), steps // block
    run = _run_length(ns, block * n_out)
    cuts = list(range(0, n_whole, run)) or [0]
    if len(cuts) > 1 and n_whole - cuts[-1] < run:
        cuts.pop()
    starts = np.empty((min(n_blocks, 2 * run), ns + 1))
    s = np.zeros(ns + 1)
    s[ns] = 1.0
    for j0, j1 in zip(cuts, [*cuts[1:], n_blocks]):
        chunk = starts[: j1 - j0]
        for j, start in enumerate(chunk):
            start[:] = s
            # a NaN bound fails the comparison too
            if not grow * float(np.abs(s[:ns]).max(initial=0.0)) + rest <= state_limit:
                x = s[:ns]
                first = (j0 + j) * block
                for i in range(first + 1, min(first + block, steps) + 1):
                    x = phi @ x + gamma
                    if not np.abs(x).max() <= state_limit:
                        raise Diverged(f"state magnitude exceeded {state_limit:g} at t={i * dt:g}")
            s = s + d @ s
        # row 0 is sample j0 B: t = 0 in the first chunk, else the
        # previous chunk's last row
        r0, r1 = j0 * block, 1 + min(j1 * block, steps)
        y = np.empty((r1 - r0, n_out))
        y[0] = d_u
        full = min(j1, n_whole) - j0
        np.matmul(chunk[:full], ops.T, out=y[1 : 1 + full * block].reshape(full, block * n_out))
        tail = y.shape[0] - 1 - full * block
        if tail:
            y[1 + full * block :] = (ops[: tail * n_out] @ chunk[full]).reshape(tail, n_out)
        skip = int(j0 > 0)
        yield np.arange(r0 + skip, r1) * dt, y[skip:]
        del y  # a consumer done with the chunk frees it before the next


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-node and per-group deviations between full and reduced responses."""

    per_node: np.ndarray
    per_group: np.ndarray
    full_l2: np.ndarray = field(repr=False, default=None)


class ResponseDeviation:
    """Relative L2 deviations of the full node outputs from the broadcast aggregates.

    ``add`` takes the next rows of the full outputs and of the k aggregate
    outputs, with their times, a chunk of samples at a time (an empty chunk
    adds nothing); each node is compared with its group's aggregate column,
    and times or shapes that disagree raise GridMismatch. ``report`` gives
    the ComparisonReport of all rows added: per node
    ||y_i - yhat_(i)||_2 / ||y_i||_2 over the trajectory, per group the
    maximum over its member nodes. Each sum adds its rows one after
    another, in time order, whatever the chunks: the same sums, bit for
    bit, as numpy's ``sum(axis=0)`` of the whole trajectory.

    The per-node figure includes the full network's own within-group
    deviation y_i - mean over the group of y, which no group-broadcast output
    can remove: a group whose members i, j differ by
    ||y_i - y_j||_2 / (||y_i||_2 + ||y_j||_2) = r leaves one of them at
    relative error >= r whatever the reduced model does.
    """

    def __init__(self, partition):
        self.partition = partition
        self.base = np.zeros(partition.n)  # sum of y_i^2
        self.diff = np.zeros(partition.n)  # sum of (y_i - yhat_(i))^2

    def add(self, times, outputs, red_times, red_outputs):
        t_f = np.asarray(times)
        t_r = np.asarray(red_times)
        if t_f.size != t_r.size or np.any(np.abs(t_f - t_r) > 1e-9 * np.maximum(1.0, t_f[-1:])):
            raise GridMismatch("time grids differ")
        y = np.asarray(outputs, dtype=float)
        y_r = np.asarray(red_outputs, dtype=float)
        k = self.partition.k
        if y_r.shape[1] != k:
            raise GridMismatch(f"reduced outputs have {y_r.shape[1]} columns, expected k={k}")
        yhat = y_r[:, self.partition.assignment]
        if y.shape != yhat.shape:
            raise GridMismatch(f"output shapes differ: {y.shape} vs {yhat.shape}")
        # row 0 carries the sum so far, and add.reduce adds the rows in order
        rows = np.empty((len(y) + 1, y.shape[1]))
        rows[0] = self.base
        np.multiply(y, y, out=rows[1:])
        self.base = np.add.reduce(rows, axis=0)
        rows[0] = self.diff
        np.subtract(y, yhat, out=rows[1:])
        rows[1:] *= rows[1:]
        self.diff = np.add.reduce(rows, axis=0)

    def report(self):
        base = np.sqrt(self.base)
        diff = np.sqrt(self.diff)
        per_node = np.where(base > 0, diff / np.where(base > 0, base, 1.0), np.where(diff > 0, np.inf, 0.0))
        per_group = np.array([per_node[idx].max() for idx in self.partition.blocks()])
        return ComparisonReport(per_node=per_node, per_group=per_group, full_l2=base)


def lockstep(full, reduced):
    """Chunks of the same samples from two ``step_chunks`` streams.

    The two streams may cut the samples into different chunks, since their
    block lengths differ. Each ``(times, outputs, red_times, red_outputs)``
    holds the next rows that both streams have produced; at most one chunk
    of each is held. When ``reduced`` raises Diverged, ``full`` is stepped
    to its end first, and its own Diverged, if any, is raised instead: the
    full network's divergence is reported wherever it occurs. Raises
    GridMismatch when one stream ends before the other.
    """
    streams = (full, reduced)
    held = [(np.empty(0), None)] * 2
    while True:
        for i, stream in enumerate(streams):
            if not len(held[i][0]):
                try:
                    held[i] = next(stream)
                except StopIteration:
                    held[i] = None
                except Diverged:
                    if stream is reduced:
                        for _ in full:
                            pass
                    raise
        if held[0] is None or held[1] is None:
            if held[0] is held[1]:
                return
            raise GridMismatch("time grids differ")
        (t, y), (t_r, y_r) = held
        m = min(len(t), len(t_r))
        yield t[:m], y[:m], t_r[:m], y_r[:m]
        held = [(t[m:], y[m:]), (t_r[m:], y_r[m:])]


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
    a, b, c, _, _ = _side_by_side([r for _, r in parts])
    r_sum = StateSpace(a, b[:, None], c[None, :], 0.0)
    return close_loop([RationalTF((1.0,), q_sum)], r_sum, [[1.0]])


def realize_reduced(reduced):
    """Closed-loop state space of a reduced model, each group by ``realize_aggregate``."""
    nodes = reduced.nodes
    aggregates = [realize_aggregate([nodes[i] for i in idx]) for idx in reduced.partition.blocks()]
    return close_loop(aggregates, reduced.coupling, reduced.l_k)
