"""Frequency-domain evaluation of the full, low-rank, and reduced networks.

Everything here reads a :class:`Sweep`, the node and coupling dynamics of a
model evaluated once by one stacked Horner pass: ``sweep`` builds it once
per (model, grid) for ``band_error`` and ``passivity_check``, and the
one-point functions build one at their point. The aggregate of a node
group, (sum_{i in I_j} 1/g_i)^-1, is summed from the sweep's G^-1 columns.

Spectral norms are largest singular values from SVDs: dense n x n ones for
the differences against T_yu and for ||T_yu|| itself, and small ones (k x k
or at most 2k x 2k) for every quantity whose rows and columns lie in a
known low-dimensional subspace. ``band_error`` forms the k x k cores and
the small SVDs once per grid, stacked over the frequencies; the one-point
functions call the same helpers with a stack of one.

An :class:`ErrorReport` stores each band quantity once, as a column over the
frequencies; its suprema and bound verdict are read off those columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CouplingVanishes,
    ModelMismatch,
    NearSingular,
    NetreduceError,
    NoFrequencyEvaluated,
    NotPassiveOnGrid,
    PoleAtS,
)
from .transfer import log_grid, node_values


@dataclass(frozen=True, eq=False)
class FreqGrid:
    """Logarithmic frequency grid on [omega_min, eta]."""

    eta: float
    omega_min: float
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if not (self.omega_min > 0 and self.eta > self.omega_min):
            raise ValueError("need 0 < omega_min < eta")
        if pts.size < 1 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def default(cls, eta=10.0, omega_min=1e-3, n_points=200):
        return cls(eta=eta, omega_min=omega_min, points=log_grid(omega_min, eta, n_points))


class Sweep:
    """Node and coupling dynamics of one model, evaluated once at the points ``s``.

    ``num`` and ``den`` are the (F, n) node numerators and denominators,
    ``ginv`` = den / num the diagonals of G^-1 and ``f`` the (F,) coupling
    values, all from one :func:`transfer.node_values` call. By the pole rule
    of ``tf_eval``, ``node_pole`` (F, n) marks where g_i has a pole,
    ``inverse_pole`` (F,) where some 1/g_i has one and ``coupling_pole``
    (F,) where f has one. ``gaps`` maps the index of each point where G^-1
    or f has a pole to its PoleAtS message, a node-inverse pole first.
    ``grid`` is the FreqGrid of the points s = j omega, if any.
    """

    def __init__(self, model, s, grid=None):
        self.s = s = np.asarray(s, dtype=complex).reshape(-1)
        self.grid = grid
        n = model.n
        num, den, num_small, den_small = node_values(model.nodes + (model.coupling,), s)
        self.num, self.den, self.node_pole = num[:, :n], den[:, :n], den_small[:, :n]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.ginv = self.den / self.num
            self.f = num[:, n] / den[:, n]
        self.inverse_pole = num_small[:, :n].any(axis=1)
        self.coupling_pole = den_small[:, n]
        self.gaps = {}
        for i in np.flatnonzero(self.inverse_pole | self.coupling_pole).tolist():
            if self.inverse_pole[i]:
                self.gaps[i] = f"inverse dynamics has a pole at s={s[i]}"
            else:
                self.gaps[i] = f"evaluation at or near a pole: s={s[i]}"


def sweep(model, grid):
    """The :class:`Sweep` of ``model`` over the points j omega of ``grid``."""
    return Sweep(model, 1j * np.asarray(grid.points, dtype=float), grid)


def _sweep_at(model, s):
    # the one-point sweep; a pole of G^-1 or f at s is an error here
    sw = Sweep(model, [s])
    if sw.gaps:
        raise PoleAtS(sw.gaps[0])
    return sw


def _aggregates(sw, partition):
    """(F, k) aggregates (sum_{i in I_j} 1/g_i)^-1 of the blocks of ``partition``.

    Also returns the (F,) mask of points where one has a pole: some member
    inverse has one, or a sum of inverses vanishes. Each block's columns are
    gathered with ``take``, a C-ordered copy, so that every row sum adds
    its members in the same order as a sum over the members alone.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        total = np.stack([sw.ginv.take(idx, axis=1).sum(axis=1) for idx in partition.blocks()], 1)
        return 1.0 / total, sw.inverse_pole | (total == 0).any(axis=1)


def eval_t_yu(model, s):
    """Closed-loop transfer matrix at ``s`` via (G^-1(s) + f(s) L)^-1.

    Inverts the loop matrix h with ``np.linalg.inv`` (LU with partial
    pivoting) and raises NearSingular unless its exact 1-norm reciprocal
    condition number 1 / (||h||_1 ||h^-1||_1), read from that inverse, is
    at least 1e-12; an exactly zero pivot reports rcond=0.00e+00, and a
    non-finite h fails the check too.
    """
    sw = _sweep_at(model, s)
    return _loop_inverse(model, s, sw.ginv[0], sw.f[0])


def _loop_inverse(model, s, ginv, f):
    n = model.n
    h = f * model.laplacian
    h.flat[:: n + 1] += ginv
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"loop matrix at s={s}: rcond=0.00e+00") from exc
    rcond = 1.0 / (np.abs(h).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    # a NaN fails the comparison too
    if not rcond >= 1e-12:
        raise NearSingular(f"loop matrix at s={s}: rcond={rcond:.2e}")
    return inv


def _solve_each(a, b):
    """Stacked ``np.linalg.solve(a, b)`` and the mask of its singular systems.

    ``a`` and ``b`` are (F, m, m) and (F, m, p) stacks. When a system of the
    stack is exactly singular the others are solved one at a time, which
    gives the same values; the solution of a singular one is NaN.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan + 0j)
        singular = np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return out, singular


def _rank_k_cores(data, ginv, f):
    """(V^T G^-1 V + f Lambda_k)^-1 V^T at F points, and its singular mask.

    ``ginv`` is the (F, n) array of G^-1 diagonals and ``f`` the (F,)
    coupling values; the result is an (F, k, n) array, T_k = V_k times it.
    """
    v = data.v_k
    core = (v.T * ginv[:, None, :]) @ v + f[:, None, None] * np.diag(data.lambda_k)
    vt = np.broadcast_to(v.T.astype(complex), (len(f),) + v.T.shape)
    return _solve_each(core, vt)


def _reduced_cores(reduced, ghat, f):
    """Reduced-loop cores (I + G_hat L_k f)^-1 G_hat at F points, and their singular mask.

    ``ghat`` is the (F, k) array of aggregate values and ``f`` the (F,)
    coupling values; the result is an (F, k, k) array C, with T_hat_k =
    C[assignment][:, assignment] at each point.
    """
    k = reduced.k
    loop = np.eye(k, dtype=complex) + (ghat[:, :, None] * reduced.l_k) * f[:, None, None]
    rhs = np.zeros(loop.shape, dtype=complex)
    rhs[:, np.arange(k), np.arange(k)] = ghat
    return _solve_each(loop, rhs)


def eval_t_k(model, data, s):
    """Rank-k truncation V_k (V_k^T G^-1(s) V_k + f(s) Lambda_k)^-1 V_k^T."""
    sw = _sweep_at(model, s)
    x, singular = _rank_k_cores(data, sw.ginv, sw.f)
    if singular[0]:
        raise NearSingular(f"rank-k core singular at s={s}")
    return data.v_k @ x[0]


def eval_t_hat_k(model, reduced, s):
    """Reduced-network transfer matrix P (I + G_hat L_k f)^-1 G_hat P^T.

    The aggregates G_hat are summed from the model's G^-1 at ``s``; the
    k x k loop is solved and the result broadcast back to node level
    through the partition.
    """
    sw = _sweep_at(model, s)
    ghat, pole = _aggregates(sw, reduced.partition)
    if pole[0]:
        raise PoleAtS(f"aggregate has a pole at s={s}")
    c, singular = _reduced_cores(reduced, ghat, sw.f)
    if singular[0]:
        raise NearSingular(f"reduced loop singular at s={s}")
    assign = reduced.partition.assignment
    return c[0][assign][:, assign]


def theorem1_bound(m1, m2, f_abs, lambda_k1):
    """Truncation-error bound (m1 m2 + 1)^2 / (f_abs lambda_k1 - m2 - m1 m2^2).

    Returns None (infeasible) when the denominator is not strictly positive,
    i.e. when f_abs * lambda_k1 <= m2 + m1 * m2^2.
    """
    if min(m1, m2, f_abs, lambda_k1) < 0:
        raise ValueError("all bound inputs must be nonnegative")
    denom = f_abs * lambda_k1 - m2 - m1 * m2 * m2
    if denom <= 0:
        return None
    return (m1 * m2 + 1.0) ** 2 / denom


def spectral_norm(m):
    """Largest singular value via dense SVD."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _top_singular(stack):
    # largest singular value of each matrix of an (F, r, c) stack
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-frequency approximation errors over a band.

    ``per_freq`` holds (omega, ||T_yu - T_hat_k||); ``err_tk`` the matching
    ||T_yu - T_k|| values; ``err_struct`` the structure-preservation gaps
    ||T_k - T_hat_k|| (zero up to roundoff on block-ideal models);
    ``bounds`` the per-frequency truncation bound (None where its
    precondition fails). ``hinf_t_yu`` and ``hinf_t_hat_k`` are grid
    estimates of the H-infinity norms of T_yu and T_hat_k (the largest
    spectral norm over the grid), or None when they were not requested;
    sampling estimates never exceed the true norm of a stable system.
    Frequencies whose evaluation failed are recorded in ``failures`` and
    leave gaps in per_freq and in both H-infinity estimates. ``sup_err``
    and ``sup_struct`` are the largest errors of their columns, and
    ``bound_satisfied`` holds when ||T_yu - T_k|| <= bound + 1e-7 (1 + bound)
    at every feasible frequency (a NaN error violates no bound).
    """

    COLUMNS = ("omega", "err_yu_hatk", "err_yu_tk", "theorem1_bound", "feasible")

    per_freq: tuple
    err_tk: tuple
    bounds: tuple
    failures: tuple = ()
    err_struct: tuple = ()
    hinf_t_yu: float | None = None
    hinf_t_hat_k: float | None = None

    @property
    def sup_err(self):
        return max(err for _, err in self.per_freq)

    @property
    def sup_struct(self):
        return max(self.err_struct, default=0.0)

    @property
    def bound_satisfied(self):
        pairs = zip(self.err_tk, self.bounds)
        return not any(bd is not None and etk > bd + 1e-7 * (1.0 + bd) for etk, bd in pairs)

    def rows(self):
        """One row per evaluated frequency, in the order of ``COLUMNS``."""
        return [
            (w, err, etk, np.nan if bd is None else bd, 0 if bd is None else 1)
            for (w, err), etk, bd in zip(self.per_freq, self.err_tk, self.bounds)
        ]


def _check_shapes(model, reduced, data, sw):
    sizes = {"model": model.n, "reduced": reduced.n, "eigendata": data.v_k.shape[0]}
    sizes["sweep"] = sw.ginv.shape[1]
    if len(set(sizes.values())) > 1:
        raise ModelMismatch(f"node counts differ: {sizes}")
    if reduced.k != data.k:
        raise ModelMismatch(f"reduced model has k={reduced.k}, eigendata k={data.k}")


def band_error(model, reduced, data, sw, hinf=False):
    """Frequency-band error report between the full and reduced networks.

    Reads the model's dynamics from ``sw``, its :func:`sweep` over the
    grid. At each grid frequency computes ||T_yu - T_hat_k|| and
    ||T_yu - T_k|| (largest singular values), and the truncation bound
    evaluated with the per-frequency constants M1 = ||T_k(jw)||, M2 = max_i |1/g_i(jw)| and
    the (k+1)-th Laplacian eigenvalue; the report's ``bound_satisfied``
    checks ||T_yu - T_k|| against that bound at the feasible frequencies.
    Frequencies where the loop is near singular or some node
    inverse, aggregate or the coupling has a pole are recorded as failures,
    not fatal; NoFrequencyEvaluated is raised when every frequency fails,
    and inputs of different networks raise ModelMismatch.

    The aggregates are summed from the sweep's G^-1 columns, and the k x k
    algebra runs once per grid, stacked over the frequencies without a pole:
    the rank-k cores X = (V_k^T G^-1 V_k + f Lambda_k)^-1 V_k^T and the reduced
    cores C take one stacked solve each, and a frequency where one of them
    is singular becomes a gap. Only the n x n work runs per frequency: the
    loop inverse T_yu, T_k = V_k X, T_hat_k = C[assignment][:, assignment]
    and the two dense SVDs of the differences against T_yu. The other norms
    are exact but small: ||T_k|| = ||X V_k|| because V_k is orthonormal;
    ||T_hat_k|| = ||D C D|| with D = diag(sqrt(n_i)), because the block
    indicator P is an orthonormal matrix times D; and ||T_k - T_hat_k|| =
    ||Q^T (T_k - T_hat_k) Q|| with Q an orthonormal basis of [V_k | P],
    which holds the rows and columns of both terms. These are stacked SVDs
    of at most 2k x 2k matrices. ``hinf_t_yu`` and ``hinf_t_hat_k`` are
    filled only when ``hinf`` is true: ||T_yu|| is a third dense SVD per
    frequency.
    """
    _check_shapes(model, reduced, data, sw)
    lam_next = data.lambda_next
    v = data.v_k
    assign = reduced.partition.assignment
    root_sizes = np.sqrt(reduced.partition.sizes)
    p = np.eye(reduced.k)[assign]
    q = np.linalg.qr(np.hstack([v, p]))[0]
    q_v, q_p = q.T @ v, q.T @ p
    points = np.asarray(sw.grid.points, dtype=float)
    ginv, f = sw.ginv, sw.f
    m2 = np.abs(ginv).max(axis=1)
    ghat, agg_pole = _aggregates(sw, reduced.partition)

    failures = dict(sw.gaps)  # grid index -> message
    for i in np.flatnonzero(agg_pole & ~sw.inverse_pole).tolist():
        failures[i] = f"aggregate has a pole at s={sw.s[i]}"
    valid = ~(agg_pole | sw.coupling_pole)
    x, k_singular = _rank_k_cores(data, ginv[valid], f[valid])
    c, hat_singular = _reduced_cores(reduced, ghat[valid], f[valid])

    done = []  # positions among the valid points, in grid order
    per_freq = []
    err_tk = []
    hinf_yu = 0.0 if hinf else None
    for j, i in enumerate(np.flatnonzero(valid)):
        w, s = points[i], sw.s[i]
        try:
            t_yu = _loop_inverse(model, s, ginv[i], f[i])
            if k_singular[j]:
                raise NearSingular(f"rank-k core singular at s={s}")
            if hat_singular[j]:
                raise NearSingular(f"reduced loop singular at s={s}")
        except NetreduceError as exc:  # recorded as a gap
            failures[i] = str(exc)
            continue
        done.append(j)
        per_freq.append((float(w), spectral_norm(t_yu - c[j][assign][:, assign])))
        err_tk.append(spectral_norm(t_yu - v @ x[j]))
        if hinf:
            hinf_yu = max(hinf_yu, spectral_norm(t_yu))
    if not per_freq:
        first = min(failures)
        raise NoFrequencyEvaluated(
            f"all {len(failures)} grid frequencies failed; first at omega={points[first]:g}: "
            f"{failures[first]}"
        )

    x, c = x[done], c[done]
    xv = x @ v
    m1 = _top_singular(xv)
    err_struct = _top_singular(q_v @ xv @ q_v.T - q_p @ c @ q_p.T).tolist()
    kept = np.flatnonzero(valid)[done]
    bounds = tuple(
        None if lam_next is None else theorem1_bound(m1_i, float(m2[i]), float(abs(f[i])), lam_next)
        for m1_i, i in zip(m1.tolist(), kept)
    )
    hinf_hat = None
    if hinf:
        hinf_hat = float(_top_singular(root_sizes[:, None] * c * root_sizes).max(initial=0.0))
    return ErrorReport(
        per_freq=tuple(per_freq),
        err_tk=tuple(err_tk),
        bounds=bounds,
        failures=tuple((float(points[i]), failures[i]) for i in sorted(failures)),
        err_struct=tuple(err_struct),
        hinf_t_yu=hinf_yu,
        hinf_t_hat_k=hinf_hat,
    )


@dataclass(frozen=True, eq=False)
class PassivityReport:
    """Grid certificate for passivity/boundedness quantities.

    gamma bounds |g_i(jw)|^2 / Re(g_i(jw)) over nodes and grid, m_eta bounds
    |1/g_i(jw)|, f_lower is the minimum coupling magnitude. This is a grid
    certificate, not a proof: quantities are tested on finitely many
    frequencies only.
    """

    gamma: float
    m_eta: float
    f_lower: float
    eta: float
    grid: np.ndarray = field(repr=False)
    coupling_real_on_axis: bool = True
    coupling_max_imag: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0 and self.m_eta > 0 and self.f_lower > 0):
            raise ValueError("gamma, m_eta and f_lower must be positive")
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be nonempty and strictly increasing")


def passivity_check(sw):
    """Numeric passivity/boundedness certificate from a model's :func:`sweep`.

    The sweep's grid is on [omega_min, eta]; omega_min excludes a coupling
    pole at the origin, e.g. f = 1/s. Raises PoleAtS when a node or the
    coupling has a pole on the grid, NotPassiveOnGrid when some node has
    Re(g(jw)) <= 0 there and CouplingVanishes when the coupling magnitude
    estimate drops below 1e-12.
    """
    points = np.asarray(sw.grid.points, dtype=float)
    if sw.node_pole.any():
        i = int(np.argmax(sw.node_pole.any(axis=0)))
        w_bad = points[np.argmax(sw.node_pole[:, i])]
        raise PoleAtS(f"node {i}: evaluation at or near a pole: s={1j * w_bad}")
    vals = sw.num / sw.den
    re = vals.real
    if np.any(re <= 0):
        i = int(np.argmax((re <= 0).any(axis=0)))
        w_bad = points[np.argmax(re[:, i] <= 0)]
        raise NotPassiveOnGrid(f"node {i}: Re(g(jw)) <= 0 at omega={w_bad:g}")
    gamma = float(np.max(np.abs(vals) ** 2 / re))
    m_eta = float(np.max(1.0 / np.abs(vals)))

    if sw.coupling_pole.any():
        w_bad = points[np.argmax(sw.coupling_pole)]
        raise PoleAtS(f"evaluation at or near a pole: s={1j * w_bad}")
    f_vals = sw.f
    f_lower = float(np.min(np.abs(f_vals)))
    if f_lower < 1e-12:
        raise CouplingVanishes(f"coupling magnitude {f_lower:g} below 1e-12 on grid")
    max_imag = float(np.max(np.abs(f_vals.imag)))
    real_on_axis = max_imag <= 1e-12 * max(1.0, float(np.max(np.abs(f_vals))))

    return PassivityReport(
        gamma=gamma,
        m_eta=m_eta,
        f_lower=f_lower,
        eta=float(sw.grid.eta),
        grid=points,
        coupling_real_on_axis=real_on_axis,
        coupling_max_imag=max_imag,
    )
