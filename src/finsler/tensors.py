"""Fundamental and Cartan tensors plus the 2-homogeneity identities.

Everything here is per-point and pure: evaluate, return arrays, no caching
(anisotropic v-dependence makes global caches error-prone; callers own
memoization).  The tensor kernels never test cone membership; the public
entry points (`homogeneity_report` here) gate the caller's (x, v) once
through `Lagrangian.check_admissible`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import FinslerError, raise_first_failure
from .report import Report

__all__ = [
    "FundamentalTensor",
    "CartanTensor",
    "Signature",
    "fundamental_tensor",
    "fundamental_tensor_on",
    "cartan_tensor",
    "signature_of",
    "homogeneity_report",
]


@dataclass(frozen=True)
class FundamentalTensor:
    x: np.ndarray
    v: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class CartanTensor:
    x: np.ndarray
    v: np.ndarray
    coeffs: np.ndarray


@dataclass(frozen=True)
class Signature:
    plus: int
    minus: int
    zero: int

    @property
    def verdict(self):
        if self.zero > 0:
            return "degenerate"
        if self.plus == 1:
            return "lorentzian"
        return "other"


def fundamental_tensor(L, x, v):
    """g_ij(x, v) = 1/2 d^2/ds dt L(x, v + s e_i + t e_j) via jets."""
    v = [float(t) for t in v]
    n = len(v)
    _, vj = jets.variables(v, 2)
    w = jets._call(L, [float(t) for t in x], vj)
    g = 0.5 * jets.derivative_tensor(w, range(n), 2)
    return FundamentalTensor(x=np.asarray(x, float), v=np.asarray(v, float),
                             matrix=g)


def fundamental_tensor_on(L, xs, vs):
    """g[b] = g(xs[b], vs[b]), stacked; lane b is bitwise
    ``fundamental_tensor(L, xs[b], vs[b]).matrix``.

    The pairs go through in blocks of `jets.LANE_BLOCK`, each one batched
    jet in v with the base points as plain `jets.Lanes`.  A block fails as
    a whole; the error then is the one `fundamental_tensor` raises at the
    first failing pair, with its point named.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    n = vs.shape[1]
    out = []
    for lo in range(0, len(vs), jets.LANE_BLOCK):
        xb, vb = xs[lo:lo + jets.LANE_BLOCK], vs[lo:lo + jets.LANE_BLOCK]
        _, vj = jets.variables(vb, 2)
        try:
            w = jets._call(L, list(jets.lanes(xb.T.copy())), vj)
        except FinslerError:
            raise_first_failure(lambda x, v: fundamental_tensor(L, x, v),
                                zip(xb, vb))
            raise
        out.append(0.5 * jets.derivative_tensor(w, range(n), 2))
    return np.concatenate(out)


def cartan_tensor(L, x, v):
    """C_ijk(x, v) = 1/4 third v-derivative of L; fully symmetric."""
    v = [float(t) for t in v]
    n = len(v)
    _, vj = jets.variables(v, 3)
    w = jets._call(L, [float(t) for t in x], vj)
    C = 0.25 * jets.derivative_tensor(w, range(n), 3)
    return CartanTensor(x=np.asarray(x, float), v=np.asarray(v, float),
                        coeffs=C)


def signature_of(matrix):
    """Eigenvalue signature with an explicit degenerate verdict.

    Eigenvalues below 1e-10 times the spectral scale count as zero rather
    than guessing a sign; boundary evaluations legitimately produce
    degenerate induced forms.
    """
    m = np.asarray(matrix, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    scale = max(1.0, float(np.max(np.abs(w))))
    thr = 1e-10 * scale
    plus = int(np.sum(w > thr))
    minus = int(np.sum(w < -thr))
    zero = len(w) - plus - minus
    return Signature(plus=plus, minus=minus, zero=zero)


def homogeneity_report(L, x, v, tol=1e-9):
    """Residuals for the degree-2 homogeneity identities at one (x, v).

    Checks L(lambda v) = lambda^2 L, g_(lambda v) = g_v, g_v(v,v) = L and
    C_v(v,.,.) = 0.  Reports failures rather than raising, except for a v
    outside the closed cone of a `Lagrangian` (ConeError); a raw callable
    has no cone to test.
    """
    x = [float(t) for t in x]
    v = np.asarray(v, dtype=float)
    if hasattr(L, "check_admissible"):
        L.check_admissible(x, v)
    rep = Report(title="homogeneity", meta={"x": list(x), "v": v.tolist()})

    Lv = L.value(x, v) if hasattr(L, "value") else float(L(x, v))
    for lam in (0.5, 2.0, 3.0):
        Ll = L.value(x, lam * v) if hasattr(L, "value") else float(L(x, lam * v))
        target = lam * lam * Lv
        res = abs(Ll - target) / max(1.0, abs(target))
        rep.add("L(%.1f v) = %.1f^2 L" % (lam, lam), res, tol)

    g = fundamental_tensor(L, x, v).matrix
    gscale = max(1.0, float(np.max(np.abs(g))))
    for lam in (0.5, 2.0):
        gl = fundamental_tensor(L, x, lam * v).matrix
        res = float(np.max(np.abs(gl - g))) / gscale
        rep.add("g_(%.1f v) = g_v" % lam, res, tol)

    res = abs(float(v @ g @ v) - Lv) / max(1.0, abs(Lv))
    rep.add("g_v(v, v) = L", res, tol)

    C = cartan_tensor(L, x, v).coeffs
    contr = np.einsum("ijk,i->jk", C, v)
    cscale = 1.0 + float(np.max(np.abs(C))) * float(np.linalg.norm(v))
    rep.add("C_v(v, ., .) = 0",
            float(np.max(np.abs(contr))) / cscale, tol)
    return rep
