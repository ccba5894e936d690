"""Rational transfer functions, node/coupling dynamics, and the network model.

A :class:`RationalTF` stores numerator and denominator coefficients in
ascending powers of ``s`` and is kept in canonical form (denominator monic,
trailing zero coefficients trimmed). :class:`NetworkModel` bundles per-node
dynamics, the coupling dynamics, and the graph Laplacian that closes the
feedback loop around them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CouplingVanishes,
    NotPassiveOnGrid,
    PoleAtS,
    ZeroNumerator,
)
from .graphs import check_symmetric

_COEF_TOL = 1e-12


def _polyval(coeffs, s):
    """Horner evaluation of a polynomial with ascending coefficients."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return out


@dataclass(frozen=True, eq=False)
class RationalTF:
    """A proper SISO rational transfer function num(s)/den(s).

    Coefficients are real, in ascending powers of ``s``. On construction the
    denominator is trimmed and normalized to be monic, and properness
    (deg num <= deg den) is enforced. Two instances compare equal when their
    canonical coefficients agree within 1e-12.
    """

    num: tuple
    den: tuple

    def __init__(self, num, den):
        num = _trim([float(c) for c in num])
        den = _trim([float(c) for c in den])
        if not den or all(c == 0.0 for c in den):
            raise ValueError("denominator must have a nonzero coefficient")
        if len(num) > len(den):
            raise ValueError(
                f"improper transfer function: deg(num)={len(num) - 1} > deg(den)={len(den) - 1}"
            )
        lead = den[-1]
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other):
        if not isinstance(other, RationalTF):
            return NotImplemented
        return _coeffs_close(self.num, other.num) and _coeffs_close(self.den, other.den)

    __hash__ = None

    @property
    def degree(self):
        return len(self.den) - 1

    def __call__(self, s):
        return tf_eval(self, s)

    def to_dict(self):
        return {"num": list(self.num), "den": list(self.den)}

    @classmethod
    def from_dict(cls, d):
        return cls(d["num"], d["den"])


def _coeffs_close(a, b):
    m = max(len(a), len(b))
    a = list(a) + [0.0] * (m - len(a))
    b = list(b) + [0.0] * (m - len(b))
    return all(abs(x - y) <= _COEF_TOL for x, y in zip(a, b))


def tf_eval(tf, s):
    """Evaluate ``tf`` at complex ``s`` by Horner's rule on both polynomials.

    Raises
    ------
    PoleAtS
        If |den(s)| falls below 1e-14 times the largest denominator
        coefficient magnitude, signalling evaluation at or near a pole.
    """
    dv = _polyval(tf.den, s)
    if abs(dv) <= 1e-14 * max(abs(c) for c in tf.den):
        raise PoleAtS(f"evaluation at or near a pole: s={s}")
    return _polyval(tf.num, s) / dv


def _padded(polys):
    polys = list(polys)
    width = max(map(len, polys))
    return np.array([p + (0.0,) * (width - len(p)) for p in polys])


def _horner(coeffs, s):
    """(F, n) values at the F points ``s`` of the n ascending rows of ``coeffs``."""
    acc = np.zeros((s.size, coeffs.shape[0]), dtype=complex)
    for col in coeffs.T[::-1]:
        acc = acc * s[:, None] + col
    return acc


def node_values(tfs, s):
    """Numerators and denominators of ``tfs`` at the points ``s``, all at once.

    Returns (num, den, pole): num and den are (F, n) arrays of num_i(s_f) and
    den_i(s_f), evaluated by Horner's rule over zero-padded coefficients
    (bit-equal to the scalar rule); pole is the (F,) mask of points where
    some inverse 1/g_i has a pole, |num_i(s)| <= 1e-14 max|num_i coeffs|
    (the pole rule of :func:`tf_eval`, applied to the inverse's
    denominator).
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    num_c = _padded([g.num for g in tfs])
    num = _horner(num_c, s)
    pole = (np.abs(num) <= 1e-14 * np.abs(num_c).max(axis=1)).any(axis=1)
    return num, _horner(_padded([g.den for g in tfs]), s), pole


class AggregateEvaluator:
    """Evaluator of the harmonic aggregate of a node group.

    Evaluates ``(sum_i 1/g_i(s))^-1`` without forming a common denominator;
    ``simulate.realize_aggregate`` is the state-space form of the same
    members. Callable and safe to share across threads.
    """

    def __init__(self, members):
        members = tuple(members)
        if not members:
            raise ValueError("aggregate of an empty group")
        for i, g in enumerate(members):
            if all(c == 0.0 for c in g.num):
                raise ZeroNumerator(f"member {i} has zero numerator; inverse undefined")
        self.members = members

    def over(self, s):
        """Aggregate values at the points ``s`` and the mask of its poles there.

        A point is a pole when some member inverse has one or the sum of
        inverses vanishes; the value returned there is not to be used.
        """
        num, den, pole = node_values(self.members, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            total = (den / num).sum(axis=1)
            return 1.0 / total, pole | (total == 0)

    def __call__(self, s):
        val, pole = self.over([s])
        if pole[0]:
            raise PoleAtS(f"aggregate has a pole at s={s}")
        return complex(val[0])

    def __len__(self):
        return len(self.members)


def first_order_swing(m, d):
    """First-order swing node 1/(m s + d); output strictly passive for d > 0."""
    if m <= 0 or d <= 0:
        raise ValueError("swing node requires m > 0 and d > 0")
    return RationalTF((1.0,), (d, m))


def sample_swing_nodes(n, rng, m_range=(1.0, 3.0), d_range=(0.5, 1.5)):
    """Draw ``n`` first-order swing nodes with uniform coefficients.

    Returns (nodes, m, d) so the analytic passivity certificate
    gamma = 1/min(d) stays available to callers.
    """
    m = rng.uniform(m_range[0], m_range[1], size=n)
    d = rng.uniform(d_range[0], d_range[1], size=n)
    nodes = tuple(first_order_swing(mi, di) for mi, di in zip(m, d))
    return nodes, m, d


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Nodes G(s) = diag{g_i}, coupling f(s), and Laplacian L of the loop.

    Stores a read-only copy of ``laplacian``, validated in place: the
    caller's array is left unchanged and no other n x n array is formed.
    Raises NonFinite on NaN or infinite entries, NotSymmetric on an
    asymmetric L, and ValueError on nonzero row sums or a positive
    off-diagonal entry.
    """

    nodes: tuple
    coupling: RationalTF
    laplacian: np.ndarray = field(repr=False)

    def __init__(self, nodes, coupling, laplacian):
        nodes = tuple(nodes)
        lap = np.array(laplacian, dtype=float)
        n = len(nodes)
        if n < 2:
            raise ValueError("network needs at least two nodes")
        if lap.shape != (n, n):
            raise ValueError(f"laplacian shape {lap.shape} does not match {n} nodes")
        lo, hi = check_symmetric(lap, 1e-12, "laplacian")
        scale = max(1.0, hi, -lo)
        if np.abs(lap.sum(axis=1)).max() > 1e-10 * n * scale:
            raise ValueError("laplacian row sums are not zero")
        diag = lap.diagonal().copy()
        lap.flat[:: n + 1] = 0.0
        off_max = lap.max()
        lap.flat[:: n + 1] = diag
        if off_max > 1e-12 * scale:
            raise ValueError("laplacian has positive off-diagonal entries")
        lap.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "laplacian", lap)

    @property
    def n(self):
        return len(self.nodes)


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


def log_grid(omega_min, omega_max, n_points):
    """Strictly increasing logarithmic frequency grid."""
    if not (omega_min > 0 and omega_max > omega_min):
        raise ValueError("need 0 < omega_min < omega_max")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.logspace(np.log10(omega_min), np.log10(omega_max), n_points)


def passivity_check(model, grid):
    """Numeric passivity/boundedness certificate on a frequency grid.

    Sweeps the points of ``grid`` (a FreqGrid on [omega_min, eta]; omega_min
    excludes a coupling pole at the origin, e.g. f = 1/s). Raises
    NotPassiveOnGrid when some node has Re(g(jw)) <= 0 on the grid and
    CouplingVanishes when the coupling magnitude estimate drops below 1e-12.
    """
    points = np.asarray(grid.points, dtype=float)
    num, den, _ = node_values(model.nodes, 1j * points)
    den_tol = 1e-14 * np.array([max(abs(c) for c in g.den) for g in model.nodes])
    near_pole = np.abs(den) <= den_tol  # the pole rule of tf_eval
    if near_pole.any():
        i = int(np.argmax(near_pole.any(axis=0)))
        w_bad = points[np.argmax(near_pole[:, i])]
        raise PoleAtS(f"node {i}: evaluation at or near a pole: s={1j * w_bad}")
    vals = num / den
    re = vals.real
    if np.any(re <= 0):
        i = int(np.argmax((re <= 0).any(axis=0)))
        w_bad = points[np.argmax(re[:, i] <= 0)]
        raise NotPassiveOnGrid(f"node {i}: Re(g(jw)) <= 0 at omega={w_bad:g}")
    gamma = float(np.max(np.abs(vals) ** 2 / re))
    m_eta = float(np.max(1.0 / np.abs(vals)))

    f_vals = np.array([tf_eval(model.coupling, 1j * w) for w in points])
    f_lower = float(np.min(np.abs(f_vals)))
    if f_lower < 1e-12:
        raise CouplingVanishes(f"coupling magnitude {f_lower:g} below 1e-12 on grid")
    max_imag = float(np.max(np.abs(f_vals.imag)))
    real_on_axis = max_imag <= 1e-12 * max(1.0, float(np.max(np.abs(f_vals))))

    return PassivityReport(
        gamma=gamma,
        m_eta=m_eta,
        f_lower=f_lower,
        eta=float(grid.eta),
        grid=points,
        coupling_real_on_axis=real_on_axis,
        coupling_max_imag=max_imag,
    )
