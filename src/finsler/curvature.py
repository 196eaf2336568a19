"""Chern curvature via pointwise-parallel extensions.

The curvature tensor at (x, v) is assembled from the Christoffel field of
the parallel extension of v through x and its exact x-derivatives: one
jet evaluation of L along the extension with base order 2 gives g, C, D
and their x-derivatives.  Differentiating the Koszul identities gives
identities of the same form for each ∂_a Γ, so one closed-form solve
(`connection._koszul_solve`) yields Γ and all of ∂Γ as a batch.  No
finite difference is taken.

Index convention: components[l, i, j, k] = R^l_{ijk}, the ∂_l-component of
R_v(∂_i, ∂_j)∂_k; antisymmetry in (i, j) is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import (_cartan_rhs, _field_jet, _koszul_rhs, _koszul_solve,
                         _metric_inverse, _parallel_field, _table,
                         as_vector_field)
from .report import Report

__all__ = [
    "CurvatureAt",
    "chern_curvature",
    "nperp_basis",
    "ppwave_condition",
]

@dataclass
class CurvatureAt:
    """Curvature of the connection with reference v, based at x."""

    x: np.ndarray
    v: np.ndarray
    components: np.ndarray   # components[l, i, j, k] = R^l_{ijk}
    g: np.ndarray            # fundamental tensor at (x, v)
    gamma: np.ndarray        # gamma[k, i, j] = Γ^k_ij at (x, v)

    def apply(self, X, Y, Z):
        """The vector R_v(X, Y)Z."""
        return np.einsum("lijk,i,j,k->l", self.components,
                         np.asarray(X, dtype=float),
                         np.asarray(Y, dtype=float),
                         np.asarray(Z, dtype=float))

    def rm(self, X, Y, U, W):
        """Rm_v(X, Y, U, W) = g_v(R_v(X, Y)U, W)."""
        return float(self.apply(X, Y, U) @ (self.g @ np.asarray(W, dtype=float)))

    @property
    def scale(self):
        return float(np.max(np.abs(self.components)))


def chern_curvature(L, x, v, extension=None):
    """Curvature R_v at x from the parallel extension's Christoffel field.

    One jet evaluation along the extension gives g, C, D and their
    x-derivatives; Γ and every ∂_a Γ then come from one closed-form Koszul
    solve each, so the components are exact up to roundoff.  x is one
    point, or a (B, n) stack with one v or B of them, which gives a list:
    the extensions' symbols are one gated stacked solve, which names a
    failing point (`_pointwise_tables`), then one jet per point.
    ``extension`` overrides the built extension of one point; any field
    through (x, v) with vanishing covariant derivative at x gives the same
    tensor (pointwise-parallel semantics).  Only (x, v) is tested for cone
    membership.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if extension is not None:
        L.check_admissible(x, v)
        return _curvature(L, x, v, extension)
    Rs = _curvatures(L, _pointwise_tables(L, np.atleast_2d(x), v))
    return Rs if x.ndim == 2 else Rs[0]


def _curvature(L, x, v, V):
    """The `chern_curvature` kernel: R_v at x from the field V through
    (x, v), with no cone test."""
    vx, J = V(x), V.jacobian(x)
    g, C, D, dC, dD = _field_jet(L, x, vx, J, base_order=2)
    ginv = _metric_inverse(g, x)        # SignatureError where g degenerates
    gamma = _koszul_solve(ginv, C, vx, _koszul_rhs(D, C, J))
    # ∂_a of 2 g(Γ, ·) = rhs(D, C, J + Γ v) along the linearisation, where
    # ∂_a g = D[a] and ∂_a v = J[a]; the field's second derivatives cancel
    # between ∂_a D and ∂_a J, so the linear seed is exact for any extension
    A = J + np.einsum("mil,l->im", gamma, vx)
    drhs = (_koszul_rhs(dD, dC, A)
            + _cartan_rhs(C, np.einsum("mil,al->aim", gamma, J))
            - 2.0 * np.einsum("alk,lij->aijk", D, gamma))
    dgamma = _koszul_solve(ginv, C, vx, drhs)  # [a, l, i, j] = ∂_a Γ^l_ij

    # R^l_ijk = P^l_ijk - P^l_jik with P^l_ijk = ∂_i Γ^l_jk + Γ^l_im Γ^m_jk
    P = (np.transpose(dgamma, (1, 0, 2, 3))
         + np.einsum("lim,mjk->lijk", gamma, gamma))
    comps = P - np.swapaxes(P, 1, 2)
    return CurvatureAt(x=x, v=v, components=comps, g=g, gamma=gamma)


def nperp_basis(g, nvec):
    """Basis of N^perp = {X : g(N, X) = 0} with N itself first.

    N is lightlike, so it lies inside its own orthogonal complement; the
    remaining members complete the kernel of g(N, .) (Euclidean
    orthonormalization keeps the construction well conditioned where g
    restricted to the complement is degenerate along N).
    """
    nvec = np.asarray(nvec, dtype=float)
    w = (np.asarray(g) @ nvec)[None, :]
    _, _, vt = np.linalg.svd(w)
    kernel = vt[1:]                     # rows span {X : g(N, X) = 0}
    basis = [nvec / np.linalg.norm(nvec)]
    for row in kernel:
        X = row.copy()
        for b in basis:
            X = X - (X @ b) / (b @ b) * b
        nrm = np.linalg.norm(X)
        if nrm > 1e-10:
            basis.append(X / nrm)
    return np.array(basis)


def ppwave_condition(L, N, sample_points, tol_factor=1e-6):
    """Check R_N(X, Y)Z = 0 over bases of N^perp at the sample points.

    Preconditions (N lightlike and parallel) are reported as their own
    checks, distinct from the curvature residuals.  The curvature
    tolerance is tol_factor times the curvature scale (max component over
    samples, floored at one so the flat case stays meaningful).  The
    curvatures are those of `chern_curvature` on the stacked samples, so
    the first failing sample raises before any curvature is taken.
    """
    N = as_vector_field(N)
    xs = np.array(sample_points, dtype=float).reshape(-1, L.dim)
    vs = np.array([N(p) for p in xs]).reshape(xs.shape)
    return _condition_report(L, N, _pointwise_tables(L, xs, vs), tol_factor)


def _pointwise_tables(L, xs, vs):
    """The gated stacked `ChristoffelTable` at the (B, n) points xs of
    the constant fields vs, one vector or B of them: where N is constant,
    vs = N(xs) gives the symbols of ∇^N."""
    vs = np.array(np.broadcast_to(vs, xs.shape))
    return _table(L, xs, vs, np.zeros(vs.shape + vs.shape[-1:]), gate=True)


def _curvatures(L, table):
    """R_v at each lane (x, v) of a `_pointwise_tables` table, one jet a
    lane, along the field through (x, v) its symbols make parallel."""
    return [_curvature(L, x, v, _parallel_field(x, v, gamma))
            for x, v, gamma in zip(table.x, table.v, table.gamma)]


def _condition_report(L, N, table, tol_factor):
    """The `ppwave_condition` report from a `_pointwise_tables` table of
    N: the curvature of each sample (`_curvatures`)."""
    rep = Report(title="ppwave-condition",
                 meta={"model": getattr(L, "name", "?"),
                       "samples": []})
    residuals = []
    scale = 0.0
    for p, nv, R in zip(table.x, table.v, _curvatures(L, table)):
        light = abs(float(L.value(p, nv)))
        # Γ at p depends on N(p) only, so the curvature's symbols serve
        nab = N.jacobian(p) + np.einsum("mil,l->im", R.gamma, nv)
        par = float(np.max(np.abs(nab)))

        basis = nperp_basis(R.g, nv)
        worst = 0.0
        m = len(basis)
        for i in range(m):
            for j in range(i + 1, m):
                for k in range(m):
                    vec = R.apply(basis[i], basis[j], basis[k])
                    worst = max(worst, float(np.linalg.norm(vec)))
        residuals.append((p, light, par, worst))
        scale = max(scale, R.scale)

    tol = tol_factor * max(scale, 1.0)
    rep.meta["curvature_scale"] = scale
    for idx, (p, light, par, worst) in enumerate(residuals):
        rep.add("sample %d: N lightlike" % idx, light, 1e-10)
        rep.add("sample %d: N parallel" % idx, par, 1e-8)
        rep.add("sample %d: curvature condition" % idx, worst, tol)
        rep.meta["samples"].append({
            "x": [float(t) for t in p],
            "lightlike": light,
            "parallel": par,
            "residual": worst,
        })
    return rep
