"""Chern curvature via pointwise-parallel extensions.

The curvature tensor at (x, v) is assembled from the Christoffel field of
the parallel extension of v through x and its exact x-derivatives: one
jet evaluation of L along the extension with base order 2 gives g, C, D
and their x-derivatives.  The kernel (`_curvature`) reads the extension
through its Jacobian at x alone, B = −Γ·v for the built one.
Differentiating the Koszul identities gives identities of the same form
for each ∂_a Γ, so one closed-form solve (`connection._koszul_solve`)
yields Γ and all of ∂Γ as a batch.  No finite difference is taken.
A point set is one gated Christoffel table and then one batched jet and
one stacked pair of solves per lane block (`_curvatures`), each lane the
bits of its point's own kernel.  `CurvatureAt.apply` and `.rm` take
stacks of vectors, so a sample's condition residuals, or its
pair-symmetry draws, are one einsum.

`ppwave_condition` is the report the ``ppwave`` command prints: the
paper's pp-wave criterion (N lightlike and parallel, R_N(X, Y)Z = 0 on
N^perp) as four rows per sample, each fact checked once, from one gated
table of N whose symbols also serve the curvatures.

Index convention: components[l, i, j, k] = R^l_{ijk}, the ∂_l-component of
R_v(∂_i, ∂_j)∂_k; antisymmetry in (i, j) is exact by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import jets
from .connection import (_cartan_rhs, _field_jet, _koszul_rhs, _koszul_solve,
                         _metric_inverse, _parallel_jacobian, _table,
                         as_vector_field)
from .ppwave import _PARALLEL_TOL, _parallel_residuals
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
        """The vector R_v(X, Y)Z; stacks of vectors, broadcast against
        each other, give a stack of them in one einsum."""
        return np.einsum("lijk,...i,...j,...k->...l", self.components,
                         np.asarray(X, dtype=float),
                         np.asarray(Y, dtype=float),
                         np.asarray(Z, dtype=float))

    def rm(self, X, Y, U, W):
        """Rm_v(X, Y, U, W) = g_v(R_v(X, Y)U, W), a float, or an array for
        stacks of vectors: each the dot product of R_v(X, Y)U with the
        matrix-vector product g_v W."""
        gW = self.g @ np.asarray(W, dtype=float)[..., None]
        rm = (self.apply(X, Y, U)[..., None, :] @ gW)[..., 0, 0]
        return float(rm) if rm.ndim == 0 else rm

    @property
    def scale(self):
        return float(np.max(np.abs(self.components)))


def chern_curvature(L, x, v, extension=None):
    """Curvature R_v at x from the parallel extension's Christoffel field.

    One jet evaluation along the extension gives g, C, D and their
    x-derivatives; Γ and every ∂_a Γ then come from one closed-form Koszul
    solve each, so the components are exact up to roundoff.  x is one
    point, or a (B, n) stack with one v or B of them, which gives a list:
    the extensions' symbols are one gated stacked solve (`_table`, with
    the zero Jacobian of the constant field v), which names a failing
    point, then the curvatures one jet per lane block (`_curvatures`).
    ``extension`` overrides the built extension of one point: only its
    Jacobian at x is read, and v stands for its value there, which a
    field through (x, v) equals.  Any field
    through (x, v) with vanishing covariant derivative at x gives the
    same tensor (pointwise-parallel semantics).  Only (x, v) is tested
    for cone membership.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if extension is not None:
        L.check_admissible(x, v)
        return CurvatureAt(x, v, *_curvature(L, x, v, extension.jacobian(x)))
    xs = np.atleast_2d(x)
    vs = np.array(np.broadcast_to(v, xs.shape))
    Rs = _curvatures(L, _table(L, xs, vs, np.zeros(vs.shape + vs.shape[-1:]),
                               gate=True))
    return Rs if x.ndim == 2 else Rs[0]


def _curvature(L, x, v, J):
    """The `chern_curvature` kernel: (components, g, Γ) of R_v at x along
    a field through (x, v) whose Jacobian at x is J, with no cone test.
    x, v and J may carry a leading lane axis, (B, n), (B, n) and
    (B, n, n): one batched jet and one stacked Koszul solve of Γ and of
    ∂Γ then give every array that axis, each lane the bits of its point's
    unstacked kernel."""
    g, C, D, dC, dD = _field_jet(L, x, v, J, base_order=2)
    ginv = _metric_inverse(g, x)        # SignatureError where g degenerates
    gamma = _koszul_solve(ginv, C, v, _koszul_rhs(D, C, J))
    # ∂_a of 2 g(Γ, ·) = rhs(D, C, J + Γ v) along the linearisation, where
    # ∂_a g = D[a] and ∂_a v = J[a]; the field's second derivatives cancel
    # between ∂_a D and ∂_a J, so the linear seed is exact for any extension
    A = J + np.einsum("...mil,...l->...im", gamma, v)
    lane = np.s_[:, None] if x.ndim == 2 else ()   # an a axis in each lane
    drhs = (_koszul_rhs(dD, dC, A[lane])
            + _cartan_rhs(C[lane], np.einsum("...mil,...al->...aim", gamma, J))
            - 2.0 * np.einsum("...alk,...lij->...aijk", D, gamma))
    dgamma = _koszul_solve(ginv, C, v, drhs)  # [..., a, l, i, j] = ∂_a Γ^l_ij

    # R^l_ijk = P^l_ijk - P^l_jik with P^l_ijk = ∂_i Γ^l_jk + Γ^l_im Γ^m_jk
    P = (np.swapaxes(dgamma, -4, -3)
         + np.einsum("...lim,...mjk->...lijk", gamma, gamma))
    return P - np.swapaxes(P, -3, -2), g, gamma


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
    """The pp-wave criterion at the sample points: the report the
    ``ppwave`` command prints.

    N is a pp-wave reference when it is lightlike and parallel and
    R_N(X, Y)Z = 0 for X, Y, Z in N^perp.  Each sample gets four rows,
    "N lightlike" (|L(x, N)| against 1e-10), "d0 g_N" (against 1e-8
    max(1, |g|)), "nabla N" (against 1e-8) and "curvature condition",
    the largest |R_N(X, Y)Z| over an N^perp basis, against tol_factor
    times the curvature scale (the max component over the samples,
    floored at one so the flat case stays meaningful).  One gated
    `connection._table` of N, with N's own Jacobian, gives the d0 g_N
    and nabla N columns (`ppwave._parallel_residuals`) and the symbols
    of the parallel extensions whose curvatures (`_curvatures`) the
    condition reads, so the first failing sample raises with its point
    named before any curvature is taken.  The meta keeps each sample's
    x and the curvature scale.
    """
    N = as_vector_field(N)
    xs = np.array(sample_points, dtype=float).reshape(-1, L.dim)
    table = _table(L, xs, N(xs), N.jacobian(xs), gate=True)
    parallel, gscale = _parallel_residuals(table)
    Rs = _curvatures(L, table)
    scale = max((R.scale for R in Rs), default=0.0)
    rep = Report(title="ppwave-condition",
                 meta={"model": getattr(L, "name", "?"),
                       "samples": [{"x": x} for x in xs.tolist()],
                       "curvature_scale": scale})
    rep.add_samples(
        ["N lightlike", "d0 g_N", "nabla N", "curvature condition"],
        np.column_stack([[abs(L.value(R.x, R.v)) for R in Rs], parallel,
                         [_nperp_residual(R) for R in Rs]]),
        np.stack(np.broadcast_arrays(1e-10, _PARALLEL_TOL * gscale,
                                     _PARALLEL_TOL,
                                     tol_factor * max(scale, 1.0)), axis=-1))
    return rep


def _nperp_residual(R):
    """The largest |R_v(X, Y)Z| over the `nperp_basis` of R's v: one
    `CurvatureAt.apply` over the basis triples, each norm the square
    root of a dot product."""
    basis = nperp_basis(R.g, R.v)
    r = np.arange(len(basis))
    i, j = np.nonzero(r[:, None] < r)
    vecs = R.apply(basis[i, None], basis[j, None], basis)
    return float(np.max(np.sqrt(vecs[..., None, :] @ vecs[..., None])))


def _curvatures(L, table):
    """R_v at each lane (x, v) of a gated stacked `ChristoffelTable`,
    along a field through (x, v) its symbols make parallel: one
    `_curvature` jet and stacked solve per lane block (`jets.in_blocks`),
    which names a failing point.  The Chern symbols at x depend on the
    value v there alone, so a table solved with any Jacobian serves."""
    parts = jets.in_blocks(functools.partial(_curvature, L), table.x,
                           table.v, _parallel_jacobian(table.gamma, table.v))
    return [CurvatureAt(*lane) for lane in zip(table.x, table.v, *parts)]
