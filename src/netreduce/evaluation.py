"""Frequency-domain evaluation of the full, low-rank, and reduced networks.

Everything here reads a :class:`Sweep`, the node and coupling dynamics of a
model evaluated once by one stacked Horner pass: ``sweep`` builds it once
per (model, grid) for ``band_error`` and ``passivity_check``, and the
one-point functions build one at their point. The aggregate of a node
group, (sum_{i in I_j} 1/g_i)^-1, is summed from the sweep's G^-1 columns.

Spectral norms are largest singular values from SVDs: dense n x n ones for
the differences against T_yu and for ||T_yu|| itself, and small ones (k x k
or at most 2k x 2k) for every quantity whose rows and columns lie in a
known low-dimensional subspace. One per-frequency pass over the grid
(``_BandPass``) forms the k x k cores and the small SVDs once, stacked over
the frequencies, and inverts the loop matrix at each frequency; the
one-point functions call the same helpers with a stack of one.

Two readers take that pass. ``band_error`` builds the band table: an
:class:`ErrorReport` stores each quantity once, as a column over the
frequencies, and its suprema and bound verdict are read off those columns;
it pays two dense SVDs per frequency. ``band_suprema`` keeps only the
supremum and the verdict. Both take a maximum over the frequencies by
pruning: the O(n^2) Frobenius norm bounds each spectral norm, so a dense SVD
runs only where the bound says the frequency can still decide the result,
usually at 1 or 2 frequencies of a grid. The pruned values equal the
maxima over every frequency's SVD bit for bit.
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
from .transfer import checked_inverse, log_grid, node_values


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

    Raises NearSingular where the loop matrix fails the 1-norm rcond rule
    of ``transfer.checked_inverse``.
    """
    sw = _sweep_at(model, s)
    return _loop_inverse(model, s, sw.ginv[0], sw.f[0])


def _loop_inverse(model, s, ginv, f):
    h = f * model.laplacian
    h.flat[:: model.n + 1] += ginv
    return checked_inverse(h, NearSingular, f"loop matrix at s={s}")


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


def _pad(m):
    # the factor that makes a computed bound of ||m||_2 a bound of its computed
    # SVD value: it covers the rounding of a sum of m.size terms (at most
    # m.size u relative, u = 2^-53) and the SVD's backward error (1e-10)
    return 1.0 + 1e-10 + m.size * 2.0**-53


def _fro_bound(m):
    # ||m||_2 <= ||m||_F, from one dot product over the raveled matrix, with no
    # n x n temporary; tight where one singular value dominates
    return _pad(m) * float(np.sqrt(np.vdot(m, m).real))


def _norm_bound(m):
    # the smaller of _fro_bound and sqrt(||m||_1 ||m||_inf) >= ||m||_2; the
    # second stays within a small factor of ||m||_2 where many alike singular
    # values make ||m||_F about sqrt(n) times larger (T_yu - T_k on eq15:
    # ||m||_F 3.6x and 11.5x ||m||_2 at n = 80 and 320, the second 1.9x, 2.2x)
    a = np.abs(m)
    holder = _pad(m) * float(np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()))
    return min(_fro_bound(m), holder)


def _pruned_max(bounds, norm):
    """``max(norm(j) for j in range(len(bounds)))``, calling ``norm`` only where it can win.

    ``bounds[j]`` bounds the computed ``norm(j)`` from above. Candidates run
    in descending bound order and stop once the next bound lies below the
    largest norm found, so every skipped candidate provably loses; a NaN
    bound is never skipped.
    """
    b = np.array(bounds, dtype=float)
    b[np.isnan(b)] = np.inf
    best = -np.inf
    for j in np.argsort(-b, kind="stable").tolist():
        if b[j] < best:
            break
        best = max(best, norm(j))
    return best


def _tolerance(bound):
    # the slack of the bound check: ||T_yu - T_k|| <= bound + 1e-7 (1 + bound)
    return bound + 1e-7 * (1.0 + bound)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-frequency approximation errors over a band.

    ``per_freq`` holds (omega, ||T_yu - T_hat_k||); ``err_tk`` the matching
    ||T_yu - T_k|| values; ``err_struct`` the structure-preservation gaps
    ||T_k - T_hat_k|| (zero up to roundoff on block-ideal models);
    ``bounds`` the per-frequency truncation bound (None where its
    precondition fails). ``hinf_t_yu`` and ``hinf_t_hat_k`` are grid
    estimates of the H-infinity norms of T_yu and T_hat_k (the largest
    spectral norm over the grid); sampling estimates never exceed the true
    norm of a stable system. Frequencies whose evaluation failed are
    recorded in ``failures`` and leave gaps in per_freq and in both
    H-infinity estimates. ``sup_err`` and ``sup_struct`` are the largest
    errors of their columns, and ``bound_satisfied`` holds when
    ||T_yu - T_k|| <= bound + 1e-7 (1 + bound) at every feasible frequency
    (a NaN error violates no bound).
    """

    COLUMNS = ("omega", "err_yu_hatk", "err_yu_tk", "theorem1_bound", "feasible")

    per_freq: tuple
    err_tk: tuple
    bounds: tuple
    hinf_t_yu: float
    hinf_t_hat_k: float
    failures: tuple = ()
    err_struct: tuple = ()

    @property
    def sup_err(self):
        return max(err for _, err in self.per_freq)

    @property
    def sup_struct(self):
        return max(self.err_struct, default=0.0)

    @property
    def bound_satisfied(self):
        pairs = zip(self.err_tk, self.bounds)
        return not any(bd is not None and etk > _tolerance(bd) for etk, bd in pairs)

    def rows(self):
        """One row per evaluated frequency, in the order of ``COLUMNS``."""
        return [
            (w, err, etk, np.nan if bd is None else bd, 0 if bd is None else 1)
            for (w, err), etk, bd in zip(self.per_freq, self.err_tk, self.bounds)
        ]


@dataclass(frozen=True, eq=False)
class BandSuprema:
    """``sup_err``, ``bound_satisfied`` and ``failures`` of a band, as :class:`ErrorReport` has them."""

    sup_err: float
    bound_satisfied: bool
    failures: tuple = ()


def _check_shapes(model, reduced, data, sw):
    sizes = {"model": model.n, "reduced": reduced.n, "eigendata": data.v_k.shape[0]}
    sizes["sweep"] = sw.ginv.shape[1]
    if len(set(sizes.values())) > 1:
        raise ModelMismatch(f"node counts differ: {sizes}")
    if reduced.k != data.k:
        raise ModelMismatch(f"reduced model has k={reduced.k}, eigendata k={data.k}")


class _BandPass:
    """The per-frequency pass of a band: T_yu, T_k and T_hat_k, and the gaps.

    The k x k algebra runs once, stacked over the grid points without a pole:
    the rank-k cores X = (V_k^T G^-1 V_k + f Lambda_k)^-1 V_k^T and the reduced
    cores C take one stacked solve each. Position j counts those points;
    ``index[j]`` is its grid index. ``inverses()`` walks them in grid order,
    inverts each loop matrix and yields (j, T_yu) at every point it
    evaluates, appending j to ``done``; a near-singular loop or a singular
    core makes a gap instead, and NoFrequencyEvaluated ends a pass without
    one evaluated point. ``t_k(j)`` = V_k X and ``t_hat(j)`` =
    C[assignment][:, assignment] are formed on request, and ``t_yu(j)``
    inverts the loop at j again, bit-equal, so that no n x n matrix is kept
    per frequency. ``finish()`` then sets ``xv`` = X V_k at the ``done``
    positions, their Theorem-1 ``bounds`` and the (omega, message)
    ``failures`` in grid order.
    """

    def __init__(self, model, reduced, data, sw):
        _check_shapes(model, reduced, data, sw)
        self.model, self.data, self.sw = model, data, sw
        self.assign = reduced.partition.assignment
        ghat, agg_pole = _aggregates(sw, reduced.partition)
        self.gaps = dict(sw.gaps)  # grid index -> message
        for i in np.flatnonzero(agg_pole & ~sw.inverse_pole).tolist():
            self.gaps[i] = f"aggregate has a pole at s={sw.s[i]}"
        valid = ~(agg_pole | sw.coupling_pole)
        self.index = np.flatnonzero(valid)
        self.x, self.k_singular = _rank_k_cores(data, sw.ginv[valid], sw.f[valid])
        self.c, self.hat_singular = _reduced_cores(reduced, ghat[valid], sw.f[valid])
        self.done = []

    def t_yu(self, j):
        i = self.index[j]
        return _loop_inverse(self.model, self.sw.s[i], self.sw.ginv[i], self.sw.f[i])

    def t_k(self, j):
        return self.data.v_k @ self.x[j]

    def t_hat(self, j):
        return self.c[j][self.assign][:, self.assign]

    def inverses(self):
        for j, i in enumerate(self.index.tolist()):
            s = self.sw.s[i]
            try:
                t_yu = self.t_yu(j)
                if self.k_singular[j]:
                    raise NearSingular(f"rank-k core singular at s={s}")
                if self.hat_singular[j]:
                    raise NearSingular(f"reduced loop singular at s={s}")
            except NetreduceError as exc:  # recorded as a gap
                self.gaps[i] = str(exc)
                continue
            self.done.append(j)
            yield j, t_yu
        if not self.done:
            first = min(self.gaps)
            raise NoFrequencyEvaluated(
                f"all {len(self.gaps)} grid frequencies failed; first at "
                f"omega={self.sw.grid.points[first]:g}: {self.gaps[first]}"
            )

    def finish(self):
        points = np.asarray(self.sw.grid.points, dtype=float)
        self.xv = self.x[self.done] @ self.data.v_k
        m1 = _top_singular(self.xv)
        m2 = np.abs(self.sw.ginv).max(axis=1)
        f, lam_next = self.sw.f, self.data.lambda_next
        self.bounds = tuple(
            None if lam_next is None else theorem1_bound(m1_i, float(m2[i]), float(abs(f[i])), lam_next)
            for m1_i, i in zip(m1.tolist(), self.index[self.done].tolist())
        )
        self.failures = tuple((float(points[i]), self.gaps[i]) for i in sorted(self.gaps))


def band_error(model, reduced, data, sw):
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

    The per-frequency pass is :class:`_BandPass`. The dense n x n SVDs are
    those of the two differences against T_yu, two per frequency, and those
    of T_yu at the few frequencies that can hold ``hinf_t_yu``: ||T_yu||_F
    bounds ||T_yu||, and the frequencies are tried in descending order of
    that bound until the next bound lies below the largest norm found
    (:func:`_pruned_max`), which gives the grid maximum bit for bit. The
    other norms are exact but small: ||T_k|| = ||X V_k|| because V_k is
    orthonormal; ||T_hat_k|| = ||D C D|| with D = diag(sqrt(n_i)), because
    the block indicator P is an orthonormal matrix times D; and
    ||T_k - T_hat_k|| = ||Q^T (T_k - T_hat_k) Q|| with Q an orthonormal basis
    of [V_k | P], which holds the rows and columns of both terms. These are
    stacked SVDs of at most 2k x 2k matrices.
    """
    band = _BandPass(model, reduced, data, sw)
    points = np.asarray(sw.grid.points, dtype=float)
    per_freq, err_tk, bound_yu = [], [], []
    for j, t_yu in band.inverses():
        per_freq.append((float(points[band.index[j]]), spectral_norm(t_yu - band.t_hat(j))))
        err_tk.append(spectral_norm(t_yu - band.t_k(j)))
        bound_yu.append(_fro_bound(t_yu))
    # the candidates are inverted again before anything else is allocated:
    # in the other order the evaluate process peaked 0.45 MB higher at n = 160
    hinf_yu = _pruned_max(bound_yu, lambda d: spectral_norm(band.t_yu(band.done[d])))
    band.finish()

    p = np.eye(reduced.k)[band.assign]
    q = np.linalg.qr(np.hstack([data.v_k, p]))[0]
    q_v, q_p = q.T @ data.v_k, q.T @ p
    c = band.c[band.done]
    root_sizes = np.sqrt(reduced.partition.sizes)
    return ErrorReport(
        per_freq=tuple(per_freq),
        err_tk=tuple(err_tk),
        bounds=band.bounds,
        hinf_t_yu=hinf_yu,
        hinf_t_hat_k=float(_top_singular(root_sizes[:, None] * c * root_sizes).max()),
        failures=band.failures,
        err_struct=tuple(_top_singular(q_v @ band.xv @ q_v.T - q_p @ c @ q_p.T).tolist()),
    )


def band_suprema(model, reduced, data, sw):
    """``sup_err`` and ``bound_satisfied`` of :func:`band_error`, bit for bit, from few dense SVDs.

    The same per-frequency pass (:class:`_BandPass`) keeps only O(n^2) upper
    bounds of the spectral norms of T_yu - T_hat_k (:func:`_fro_bound`) and
    T_yu - T_k (:func:`_norm_bound`). ``sup_err`` takes the dense SVD only at
    the frequencies :func:`_pruned_max` cannot rule out. A feasible frequency whose upper
    bound already meets the Theorem-1 tolerance passes without an SVD;
    every other feasible frequency is checked with the exact norm. Each SVD
    that runs sees the array ``band_error`` forms, so both values equal its
    own. Gaps and errors are those of ``band_error``.
    """
    band = _BandPass(model, reduced, data, sw)
    bound_hat, bound_tk = [], []
    for j, t_yu in band.inverses():
        bound_hat.append(_fro_bound(t_yu - band.t_hat(j)))
        bound_tk.append(_norm_bound(t_yu - band.t_k(j)))
    band.finish()

    def err_hat(d):
        j = band.done[d]
        return spectral_norm(band.t_yu(j) - band.t_hat(j))

    def err_tk(d):
        j = band.done[d]
        return spectral_norm(band.t_yu(j) - band.t_k(j))

    holds = all(
        bd is None or ub <= _tolerance(bd) or not err_tk(d) > _tolerance(bd)
        for d, (ub, bd) in enumerate(zip(bound_tk, band.bounds))
    )
    return BandSuprema(
        sup_err=_pruned_max(bound_hat, err_hat), bound_satisfied=holds, failures=band.failures
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
