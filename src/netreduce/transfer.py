"""Rational transfer functions, node/coupling dynamics, and the network model.

A :class:`RationalTF` stores numerator and denominator coefficients in
ascending powers of ``s`` and is kept in canonical form (denominator monic,
trailing zero coefficients trimmed). :class:`NetworkModel` bundles per-node
dynamics, the coupling dynamics, and the graph Laplacian that closes the
feedback loop around them. Every evaluation of a transfer function goes
through one stacked Horner kernel, :func:`node_values`; :func:`tf_eval` is
its one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImproperTF, NonFinite, PoleAtS
from .graphs import check_symmetric

_COEF_TOL = 1e-12


def _trim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return out


@dataclass(frozen=True, eq=False)
class RationalTF:
    """A proper SISO rational transfer function num(s)/den(s).

    Coefficients are real, in ascending powers of ``s``. On construction the
    denominator is trimmed and normalized to be monic. An improper function
    (deg num > deg den) raises ImproperTF, and a NaN or infinite canonical
    coefficient raises NonFinite; both are ValueErrors. Two instances
    compare equal when their canonical coefficients agree within 1e-12.
    """

    num: tuple
    den: tuple

    def __init__(self, num, den):
        num = _trim([float(c) for c in num])
        den = _trim([float(c) for c in den])
        if not den or all(c == 0.0 for c in den):
            raise ValueError("denominator must have a nonzero coefficient")
        if len(num) > len(den):
            raise ImproperTF(
                f"improper transfer function: deg(num)={len(num) - 1} > deg(den)={len(den) - 1}"
            )
        lead = den[-1]
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
        if not all(map(math.isfinite, num + den)):
            raise NonFinite(f"transfer function coefficients must be finite: num={num}, den={den}")
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
    """Evaluate ``tf`` at complex ``s``: the one-point call of :func:`node_values`.

    Raises
    ------
    PoleAtS
        If |den(s)| falls below 1e-14 times the largest denominator
        coefficient magnitude, signalling evaluation at or near a pole.
    """
    num, den, _, pole = node_values([tf], [s])
    if pole[0, 0]:
        raise PoleAtS(f"evaluation at or near a pole: s={s}")
    return complex((num / den)[0, 0])


def _padded(polys):
    polys = list(polys)
    width = max(map(len, polys))
    return np.array([p + (0.0,) * (width - len(p)) for p in polys])


def _horner(coeffs, s):
    """(F, m) values at the F points ``s`` of the m ascending rows of ``coeffs``."""
    acc = np.zeros((s.size, coeffs.shape[0]), dtype=complex)
    for col in coeffs.T[::-1]:
        acc = acc * s[:, None] + col
    return acc


def node_values(tfs, s):
    """Numerators and denominators of ``tfs`` at the points ``s``, in one Horner pass.

    Returns (num, den, inverse_pole, pole). num and den are the (F, m)
    arrays of num_i(s_f) and den_i(s_f), evaluated as the rows of one
    zero-padded coefficient stack; leading zeros leave Horner's rule exact,
    so each value is bit-equal to a call on any subset of ``tfs``. The
    (F, m) masks apply the pole rule |p(s)| <= 1e-14 max|p coeffs| to the
    numerators (a pole of 1/g_i) and to the denominators (a pole of g_i).
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    coeffs = _padded([g.num for g in tfs] + [g.den for g in tfs])
    vals = _horner(coeffs, s)
    small = np.abs(vals) <= 1e-14 * np.abs(coeffs).max(axis=1)
    m = len(tfs)
    return vals[:, :m], vals[:, m:], small[:, :m], small[:, m:]


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


def checked_inverse(h, error, what):
    """h^-1 by LU; raises ``error`` ("``what``: rcond=...") unless the exact
    1-norm rcond 1 / (||h||_1 ||h^-1||_1) is at least 1e-12. An exactly zero
    pivot reports rcond=0.00e+00 and warns nothing; NaN fails the check.
    """
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what}: rcond=0.00e+00") from exc
    rcond = 1.0 / (np.abs(h).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    # a NaN fails the comparison too
    if not rcond >= 1e-12:
        raise error(f"{what}: rcond={rcond:.2e}")
    return inv


def log_grid(omega_min, omega_max, n_points):
    """Strictly increasing logarithmic frequency grid."""
    if not (omega_min > 0 and omega_max > omega_min):
        raise ValueError("need 0 < omega_min < omega_max")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.logspace(np.log10(omega_min), np.log10(omega_max), n_points)
