"""Chern curvature via pointwise-parallel extensions.

The curvature tensor at (x, v) is assembled from coordinate derivatives of
the Christoffel field of the parallel extension of v through x.  The
symbols come from an iterative solve, so the field is differentiated by
central differences with one Richardson level rather than through jets.

Index convention: components[l, i, j, k] = R^l_{ijk}, the ∂_l-component of
R_v(∂_i, ∂_j)∂_k; antisymmetry in (i, j) is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import as_vector_field, christoffel, parallel_extension
from .report import Report

__all__ = [
    "CurvatureAt",
    "chern_curvature",
    "nperp_basis",
    "ppwave_condition",
]

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass
class CurvatureAt:
    """Curvature of the connection with reference v, based at x."""

    x: np.ndarray
    v: np.ndarray
    components: np.ndarray   # components[l, i, j, k] = R^l_{ijk}
    g: np.ndarray            # fundamental tensor at (x, v)

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

    The central-difference stencil steps by the cube root of machine
    epsilon; one Richardson level removes the leading h^2 error.
    ``extension`` overrides the automatically built parallel extension; any
    field through (x, v) with vanishing covariant derivative at x gives
    the same tensor (pointwise-parallel semantics).  Only (x, v) is
    tested for cone membership.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = len(x)
    if extension is None:
        V = parallel_extension(L, v, x)
    else:
        L.check_admissible(x, v)
        V = extension
    center = christoffel(L, V, x)
    gamma0 = center.gamma

    dgamma = np.zeros((n, n, n, n))     # dgamma[a, l, i, j] = d_a G^l_ij
    for a in range(n):
        h = _FD_STEP * (1.0 + abs(x[a]))

        def central(hh):
            xp = x.copy()
            xm = x.copy()
            xp[a] += hh
            xm[a] -= hh
            return (christoffel(L, V, xp).gamma
                    - christoffel(L, V, xm).gamma) / (2.0 * hh)

        d1 = central(h)
        d2 = central(2.0 * h)
        dgamma[a] = (4.0 * d1 - d2) / 3.0

    term1 = np.transpose(dgamma, (1, 0, 2, 3))          # d_i G^l_jk
    term2 = np.transpose(dgamma, (1, 2, 0, 3))          # d_j G^l_ik
    quad1 = np.einsum("lim,mjk->lijk", gamma0, gamma0)
    quad2 = np.einsum("ljm,mik->lijk", gamma0, gamma0)
    comps = term1 - term2 + quad1 - quad2
    return CurvatureAt(x=x, v=v, components=comps, g=center.g)


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
    samples, floored at one so the flat case stays meaningful).
    """
    N = as_vector_field(N)
    samples = [np.asarray(p, dtype=float) for p in sample_points]
    rep = Report(title="ppwave-condition",
                 meta={"model": getattr(L, "name", "?"),
                       "samples": []})

    residuals = []
    scale = 0.0
    for p in samples:
        nv = N(p)
        R = chern_curvature(L, p, nv)    # the sample's one cone gate
        light = abs(float(L.value(p, nv)))
        table = christoffel(L, N, p)
        nab = table.jacobian + np.einsum("mil,l->im", table.gamma, table.v)
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
