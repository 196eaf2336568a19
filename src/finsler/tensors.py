"""Fundamental and Cartan tensors plus the 2-homogeneity identities.

Everything here is per-point and pure: evaluate, return arrays, no caching
(anisotropic v-dependence makes global caches error-prone; callers own
memoization).  g and C are plain arrays from one kernel, the v-partials
of L of order 2 or 3 (`_v_partials`), and take one pair or a (B, n)
stack of pairs, whose lanes are bitwise the results at each pair.  The tensor
kernels never test cone membership; the public entry points
(`homogeneity_report` here) gate the caller's pairs once each through
`Lagrangian.check_admissible`, each in its lane block.  The homogeneity
identities and the signature of a pair or a stack are one residual
table, which `homogeneity_report` hands to `Report.add_samples` as one
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .report import Report

__all__ = [
    "Signature",
    "fundamental_tensor",
    "cartan_tensor",
    "signature_of",
    "leading_minors",
    "homogeneity_report",
]


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


def _v_partials(L, x, v, order):
    """All ``order``-th v-partials of L at (x, v); for (B, n) stacks x
    and v, stacked on a leading lane axis.

    One pair is one jet in v with the base point as plain floats.  A
    stack goes through `jets.in_blocks`, each block one batched jet in v
    with the base points as plain `jets.Lanes`, so lane b is bitwise the
    partials at pair b.  A block fails as a whole; the error then is the
    one its first failing pair raises, with its point named where the
    stack holds more than one point.
    """
    def kernel(x, v):
        _, vj = jets.variables(v, order)
        base = (list(jets.lanes(x.T.copy())) if v.ndim == 2
                else [float(t) for t in x])
        return jets.derivative_tensor(jets._call(L, base, vj),
                                      range(v.shape[-1]), order)

    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return kernel(x, v) if v.ndim == 1 else jets.in_blocks(kernel, x, v)


def fundamental_tensor(L, x, v):
    """g_ij(x, v) = 1/2 d^2/ds dt L(x, v + s e_i + t e_j) via jets.

    Returns the (n, n) array g; x and v are one pair, or (B, n) stacks
    of B pairs, which give the (B, n, n) stack (see `_v_partials`).
    """
    return 0.5 * _v_partials(L, x, v, 2)


def cartan_tensor(L, x, v):
    """C_ijk(x, v) = 1/4 third v-derivative of L; fully symmetric.

    Returns the (n, n, n) array C; x and v are one pair, or (B, n)
    stacks of B pairs, which give the (B, n, n, n) stack (see
    `_v_partials`).
    """
    return 0.25 * _v_partials(L, x, v, 3)


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


def leading_minors(h):
    """det h[..., :k, :k] for k = 1, ..., m, stacked on a last axis.

    A stack of matrices takes each minor by one stacked `np.linalg.det`,
    which gives every matrix the bits of its own determinant.  Overflow
    passes silently, as on floats: a minor too large for a float is inf.
    """
    h = np.asarray(h, dtype=float)
    with np.errstate(over="ignore"):
        return np.stack([np.linalg.det(h[..., :k, :k])
                         for k in range(1, h.shape[-1] + 1)], axis=-1)


# the scalings of v that the homogeneity identities compare: L at all
# four, g at the first three
_LAMBDAS = np.array([1.0, 0.5, 2.0, 3.0])


# the identities `homogeneity_report` checks, one column each
_HOMOGENEITY_CHECKS = (
    ["L(%.1f v) = %.1f^2 L" % (lam, lam) for lam in _LAMBDAS[1:].tolist()]
    + ["g_(%.1f v) = g_v" % lam for lam in _LAMBDAS[1:3].tolist()]
    + ["g_v(v, v) = L", "C_v(v, ., .) = 0"])


def homogeneity_report(L, x, v, tol=1e-9):
    """Residuals for the degree-2 homogeneity identities at (x, v), and
    the Lorentzian signature of g there: the report the ``check`` command
    prints.

    Checks L(lambda v) = lambda^2 L, g_(lambda v) = g_v, g_v(v,v) = L and
    C_v(v,.,.) = 0 for a `Lagrangian` ``L``, each against ``tol``, and
    that g_v has signature (1, n - 1, 0) (`signature_of`), a residual of
    0 or 1 against 0.5.  x and v are one pair, or (B, n) stacks of B
    pairs; either way one report, whose rows are "sample k: <check>"
    (`Report.add_samples`), a single pair being sample 0.  One
    `jets.in_blocks` pass: each lane block runs its cone gate, one
    `Lagrangian.value` for L at v, 0.5 v, 2 v and 3 v, one
    `fundamental_tensor` for g at v, 0.5 v and 2 v and one
    `cartan_tensor`; each residual gets the bits of its pair's scalar
    evaluations alone.  Reports failures rather than raising, except for
    a v outside the closed cone (ConeError), which
    `Lagrangian.check_admissible` tests first, and a failing evaluation;
    a stack raises its first failing pair's error.
    """
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    vs = np.atleast_2d(np.asarray(v, dtype=float))
    n = vs.shape[1]
    want = Signature(1, n - 1, 0)

    def kernel(x, v):
        # x and v are one pair or a block of pairs
        L.check_admissible(x, v)
        scaled = _LAMBDAS[:, None] * v[..., None, :]    # (..., 4, n)
        xr = np.broadcast_to(x[..., None, :], scaled.shape)
        vals = L.value(xr.reshape(-1, n), scaled.reshape(-1, n))
        gs = fundamental_tensor(L, xr[..., :3, :].reshape(-1, n),
                                scaled[..., :3, :].reshape(-1, n))
        return (vals.reshape(scaled.shape[:-1]),
                gs.reshape(scaled.shape[:-2] + (3, n, n)),
                cartan_tensor(L, x, v))

    vals, gs, C = jets.in_blocks(kernel, xs, vs)
    Lv = vals[:, :1]
    target = _LAMBDAS[1:] * _LAMBDAS[1:] * Lv
    g = gs[:, 0]
    gscale = np.maximum(1.0, np.max(np.abs(g), axis=(1, 2)))
    # each pair's v g v and |v| by the dot products of a single pair
    vg = (vs[:, None, :] @ g)[:, 0]
    gvv = (vg[:, None, :] @ vs[:, :, None])[:, 0, 0]
    vnorm = np.sqrt((vs[:, None, :] @ vs[:, :, None])[:, 0, 0])
    contr = np.einsum("bijk,bi->bjk", C, vs)
    cscale = 1.0 + np.max(np.abs(C), axis=(1, 2, 3)) * vnorm
    residuals = np.column_stack([
        np.abs(vals[:, 1:] - target) / np.maximum(1.0, np.abs(target)),
        np.max(np.abs(gs[:, 1:] - gs[:, :1]), axis=(2, 3))
        / gscale[:, None],
        np.abs(gvv - Lv[:, 0]) / np.maximum(1.0, np.abs(Lv[:, 0])),
        np.max(np.abs(contr), axis=(1, 2)) / cscale,
        [signature_of(m) != want for m in g]])
    rep = Report(title="homogeneity")
    rep.add_samples(_HOMOGENEITY_CHECKS + ["signature (1, %d, 0)" % (n - 1)],
                    residuals, [tol] * len(_HOMOGENEITY_CHECKS) + [0.5])
    return rep
