"""Chern connection from the anisotropic Koszul formula.

Christoffel symbols are solved pointwise from one multivariate jet
evaluation of L: base-point generators to first order, fiber generators to
third, which yields the metric g, the Cartan tensor C and the total
x-derivatives D_i(jk) of the metric along the reference field in a single
pass.  The Koszul identities are linear in the symbols, and for a
2-homogeneous L, C(v, ·, ·) = 0 decouples them: contracted with v twice
and then once they give Γ(v, v) and Γ v, and then Γ in closed form
(`_koszul_solve`).  Curvature uses the same solve for the exact
x-derivatives of Γ from a base-order-2 evaluation.  `christoffel` takes
one point or a point set, and reads V and its Jacobian there from the
`VectorField`, which evaluates a set row by row, or a constant field by
broadcasting; a set is one batched
evaluation and one stacked solve per lane block (`_table`), lane for
lane the bits of the solve at each point.  `christoffel` never tests
cone membership; the public entry points (`connection_report`,
`hessian`, `parallel_extension`, `geodesic`) gate the reference the
caller supplies, `connection_report` once for each point, in its lane
block.
Geodesics solve no symbols: `geodesic` integrates the Euler–Lagrange
spray (`_spray`), which it builds once per integration, and whose every
call is one caps-(1, 2) (x | v) jet evaluation and one gather.

Index conventions (pinned across the package):
  gamma[k, i, j]   = Γ^k_ij (torsion-free: symmetric in i, j)
  dmetric[i, j, k] = D_i(jk), the derivative of g_jk(x, V(x)) along x^i
  jacobian[i, k]   = ∂_i V^k
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, ode
from .errors import (
    ConeError,
    EvaluationError,
    NoGradientError,
    SignatureError,
    SolverError,
)
from .report import Report, csv_text, fmt_float

__all__ = [
    "ScalarField",
    "VectorField",
    "ChristoffelTable",
    "GeodesicPath",
    "as_scalar_field",
    "as_vector_field",
    "christoffel",
    "koszul_residual",
    "compatibility_residual",
    "torsion_residual",
    "connection_report",
    "levi_civita_quadratic",
    "gradient",
    "gradient_residual",
    "hessian",
    "parallel_extension",
    "geodesic",
]


class ScalarField:
    """A jet-evaluable function of x with exact first/second derivatives."""

    def __init__(self, func, name="f"):
        self._func = func
        self.name = name

    @classmethod
    def coordinate(cls, k):
        return cls(lambda x: x[k], name="x%d" % k)

    @classmethod
    def linear(cls, coeffs):
        coeffs = [float(c) for c in coeffs]

        def func(x):
            s = 0.0
            for c, xi in zip(coeffs, x):
                s = s + c * xi
            return s

        return cls(func, name="linear")

    def d(self, x):
        """Gradient of the coordinate expression (a covector)."""
        _, xj = jets.variables([float(t) for t in x], 1)
        return jets.derivative_tensor(self._func(xj), range(len(x)), 1)

    def d2(self, x):
        """Matrix of second coordinate partials."""
        _, xj = jets.variables([float(t) for t in x], 2)
        return jets.derivative_tensor(self._func(xj), range(len(x)), 2)


def as_scalar_field(f):
    return f if isinstance(f, ScalarField) else ScalarField(f)


class VectorField:
    """Reference field V with evaluation and Jacobian.

    The built-in constructors carry analytic Jacobians; custom evaluation
    callables must be jet-evaluable (list of scalars in, list out) so the
    Jacobian can be extracted exactly.  V and its Jacobian take one point
    or a (B, n) stack of points, which they evaluate row by row and stack
    on a leading axis; `constant` broadcasts instead, with the same bits.
    """

    def __init__(self, eval_fn, jacobian_fn=None, name="V"):
        self._eval = eval_fn
        self._jac = jacobian_fn
        self.name = name

    @classmethod
    def constant(cls, v):
        return _ConstantField(v)

    @classmethod
    def linear(cls, v0, p, B):
        """V(x) = v0 + (x - p) . B with B[i, k] = ∂_i V^k."""
        v0 = np.asarray(v0, dtype=float)
        p = np.asarray(p, dtype=float)
        B = np.asarray(B, dtype=float)

        def ev(x):
            dx = np.asarray([float(t) for t in x]) - p
            return list(v0 + dx @ B)

        return cls(ev, jacobian_fn=lambda x: B, name="linear")

    def __call__(self, x):
        if np.ndim(x) == 2:
            return np.array([self(row) for row in x]).reshape(np.shape(x))
        out = self._eval([float(t) for t in x])
        return np.asarray([float(t) for t in out], dtype=float)

    def jacobian(self, x):
        if np.ndim(x) == 2:
            return np.array([self.jacobian(row) for row in x]).reshape(
                np.shape(x) + np.shape(x)[-1:])
        if self._jac is not None:
            return np.asarray(self._jac([float(t) for t in x]), dtype=float)
        n = len(x)
        _, xj = jets.variables([float(t) for t in x], 1)
        comps = self._eval(xj)
        J = np.zeros((n, len(comps)))
        for k, w in enumerate(comps):
            J[:, k] = jets.derivative_tensor(w, range(n), 1)
        return J


class _ConstantField(VectorField):
    """V(x) = v: a point set takes v and a zero Jacobian by broadcasting,
    the bits of evaluating it row by row."""

    def __init__(self, v):
        super().__init__(None, name="constant")
        self._v = np.asarray(v, dtype=float)

    def __call__(self, x):
        return np.broadcast_to(self._v, np.shape(x)).copy()

    def jacobian(self, x):
        return np.zeros(np.shape(x) + self._v.shape)


def as_vector_field(N):
    """A `VectorField`, with a bare vector taken as the constant field."""
    if isinstance(N, (list, tuple, np.ndarray)):
        return VectorField.constant(N)
    return N


@dataclass
class ChristoffelTable:
    """Christoffel symbols at one point plus the jet byproducts; the
    table of a point set carries a leading lane axis on every array, one
    lane a point.  The residual functions (`koszul_residual`,
    `torsion_residual`, `compatibility_residual`) take either and give
    one residual per lane."""

    x: np.ndarray
    v: np.ndarray
    gamma: np.ndarray      # gamma[k, i, j]
    g: np.ndarray
    cartan: np.ndarray
    dmetric: np.ndarray    # dmetric[i, j, k] = D_i(jk)
    jacobian: np.ndarray   # jacobian[i, k]
    iterations: int        # 0: the solve is closed-form
    method: str            # "closed-form"


def _field_jet(L, x, v, J, base_order=1):
    """One evaluation of L giving g, C and the total derivatives D; with
    ``base_order=2`` also dC[a] = ∂_a C and dD[a] = ∂_a D along v + J dx.

    x, v and J may carry a leading lane axis, (B, n), (B, n) and
    (B, n, n): one batched jet then gives every array that axis."""
    n = v.shape[-1]
    values = (np.concatenate([x, v], axis=-1) if v.ndim == 2
              else list(x) + list(v))
    # the fiber generators carry the field's first-order x-dependence
    jac = np.zeros(J.shape[:-2] + (2 * n, 2 * n))
    jac[..., :n, n:] = J
    _, seeds = jets.variables(values, base_order + 2, (0,) * n + (1,) * n,
                              (base_order, 3), jac)
    w = jets._call(L, seeds[:n], seeds[n:])
    fiber = range(n, 2 * n)
    g = 0.5 * jets.derivative_tensor(w, fiber, 2)
    C = 0.25 * jets.derivative_tensor(w, fiber, 3)
    D = 0.5 * jets.derivative_tensor(w, range(2 * n), 3)[..., :n, n:, n:]
    if base_order == 1:
        return g, C, D
    d4 = jets.derivative_tensor(w, range(2 * n), 4)[..., :n, :, :, :]
    return g, C, D, 0.25 * d4[..., n:, n:, n:], 0.5 * d4[..., :n, n:, n:]


def _koszul_rhs(D, C, A):
    """rhs[..., i,j,k] with 2 g(∇_i ∂_j, ∂_k) = rhs for coordinate fields."""
    Ds = np.swapaxes(D, -3, -2)
    return D + Ds - np.swapaxes(Ds, -2, -1) + _cartan_rhs(C, A)


def _cartan_rhs(C, A):
    """The Cartan part rhs(0, C, A) of `_koszul_rhs`; 0.0 when C is exactly
    zero (a quadratic model), so Cartan-free models skip the products."""
    if not C.any():
        return 0.0
    CA = np.einsum("...mjk,...im->...ijk", C, A)
    CAs = np.swapaxes(CA, -3, -2)
    return 2.0 * (np.swapaxes(CAs, -2, -1) - CA - CAs)


def _koszul_solve(ginv, C, v, R):
    """Symmetric X[..., l, i, j] with 2 g(X, ·) = R + rhs(0, C, X v).

    R[..., i, j, k] may carry leading batch axes, and so may ginv, C and
    v, one per lane of a stacked solve.  R may hold one axis more than C,
    after the lanes: the identities ∂_a of the derivatives of Γ, which
    share their lane's ginv, C and v.  A 2-homogeneous L has
    C(v, ·, ·) = 0, which decouples the identity (the spray, nonlinear
    connection, Chern symbols route of Bao, Chern & Shen, ch. 2-3):
    contracted with v twice it gives s = X(v, v) = ½ g⁻¹ R(v, v, ·); once,
    X v = ½ g⁻¹ (R(·, v, ·) - 2 C(s, ·, ·)); with X v known, the full
    identity gives X.  The Cartan products are skipped where C is exactly
    zero, and X is symmetrised in (i, j) against roundoff.  Each lane of
    a stacked solve makes the products of an unstacked one, so it gets
    the same bits.
    """
    half = 0.5 * ginv
    halfT = np.swapaxes(half, -2, -1)
    if R.ndim > C.ndim and half.ndim > 2:
        # a stacked solve of the ∂_a identities: each lane's ginv, C and
        # v serve its every a
        half, C, v = half[:, None], C[:, None], v[:, None]
    if C.any():
        s = np.einsum("...ijk,...i,...j->...k", R, v, v)
        # each lane's s, an n-vector or an a x n matrix, times its halfT:
        # the vector-matrix or matrix product of an unstacked solve
        s = (s @ halfT if s.ndim == halfT.ndim or half.ndim == 2
             else (s[..., None, :] @ halfT)[..., 0, :])
        Xv = (np.einsum("...ijk,...j->...ik", R, v)
              - 2.0 * np.einsum("...mik,...m->...ik", C, s)
              ) @ np.swapaxes(half, -2, -1)
        R = R + _cartan_rhs(C, Xv)
    X = np.einsum("...lk,...ijk->...lij", half, R)
    return 0.5 * (X + np.swapaxes(X, -2, -1))


def _metric_inverse(g, x):
    """g^{-1}, stacked like g; SignatureError when a g is numerically
    degenerate."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as e:
        raise SignatureError("fundamental tensor is singular at x=%r"
                             % (x.tolist(),)) from e
    cond = np.linalg.cond(g)
    cond = cond.max(initial=0.0) if cond.ndim else cond
    if not np.isfinite(cond) or cond > 1e12:
        raise SignatureError("fundamental tensor is numerically degenerate "
                             "(cond=%.3g)" % cond)
    return ginv


def _symbols(L, x, v, J):
    """Γ at the points x (leading lane axes allowed) with its byproducts
    (g, C, D) and the Koszul residual per lane."""
    g, C, D = _field_jet(L, x, v, J)
    gamma = _koszul_solve(_metric_inverse(g, x), C, v, _koszul_rhs(D, C, J))
    return gamma, g, C, D, _koszul_residual(gamma, g, C, D, J, v)


def _residual_gate(res):
    res = res.max(initial=0.0) if res.ndim else res
    if res > 1e-6:
        raise SolverError("Koszul identity residual %.3g: the closed-form "
                          "solve needs C(v, ., .) = 0, a 2-homogeneous L"
                          % res)


def christoffel(L, V, x):
    """Christoffel symbols Γ^k_ij of the connection ∇^V at the point x.

    One jet evaluation gives g, C and D; `_koszul_solve` then solves the
    coordinate Koszul identities in closed form.  That solve needs
    C(v, ·, ·) = 0, i.e. a 2-homogeneous L (the `Lagrangian` contract):
    where L breaks it the identities fail their residual gate.  Raises
    SignatureError when g_V is numerically degenerate and SolverError when
    the symbols miss the identities by more than 1e-6.  x is one point,
    or a (B, n) point set, which gives a stacked table whose lane b is
    bitwise the table at x[b] (see `_table`).  A pure per-point kernel:
    it does not test whether V(x) lies in the cone, so callers gate their
    own reference once.
    """
    x = np.asarray(x, dtype=float)
    return _table(L, x, V(x), V.jacobian(x))


def _table(L, x, v, J, gate=False):
    """The `ChristoffelTable` at x of a field with value v and Jacobian J
    there.  x, v and J may carry a leading lane axis, (B, n), (B, n) and
    (B, n, n): the points then go through `jets.in_blocks`, each block
    one batched jet evaluation and one stacked solve behind the same
    gates, led with ``gate`` by the cone gate of its pairs (x, v).  A
    block fails as a whole; the error then is the one its first failing
    point raises, with that point named when the set holds more than
    one point.
    """
    def kernel(x, v, J):
        if gate:
            L.check_admissible(x, v)
        gamma, g, C, D, res = _symbols(L, x, v, J)
        _residual_gate(res)
        return gamma, g, C, D

    if x.ndim == 1:
        parts = kernel(x, v, J)
    else:
        parts = jets.in_blocks(kernel, x, v, J)
    return ChristoffelTable(x, v, *parts, jacobian=J, iterations=0,
                            method="closed-form")


# the axes of one lane's tensor, which a residual maximizes over
_AXES = (-3, -2, -1)


def _koszul_residual(gamma, g, C, D, J, v):
    """Scale-normalized max residual of the Koszul identity, per lane."""
    A = J + np.einsum("...mil,...l->...im", gamma, v)
    rhs = _koszul_rhs(D, C, A)
    lhs = 2.0 * np.einsum("...lij,...lk->...ijk", gamma, g)
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=_AXES))
    return np.max(np.abs(lhs - rhs), axis=_AXES) / scale


def koszul_residual(table):
    """Scale-normalized max residual of the coordinate Koszul identity,
    one per lane of a stacked table."""
    return _koszul_residual(table.gamma, table.g, table.cartan,
                            table.dmetric, table.jacobian, table.v)


def compatibility_residual(table):
    """X g(Y,Z) - g(∇_X Y,Z) - g(Y,∇_X Z) - 2C(∇_X V,Y,Z), normalized,
    one per lane of a stacked table."""
    A = table.jacobian + np.einsum("...mil,...l->...im", table.gamma,
                                   table.v)
    t1 = np.einsum("...lij,...lk->...ijk", table.gamma, table.g)
    t2 = np.einsum("...lik,...jl->...ijk", table.gamma, table.g)
    t3 = 2.0 * np.einsum("...mjk,...im->...ijk", table.cartan, A)
    res = table.dmetric - t1 - t2 - t3
    scale = np.maximum(1.0, np.max(np.abs(table.dmetric), axis=_AXES))
    return np.max(np.abs(res), axis=_AXES) / scale


def torsion_residual(table):
    """max |Γ^k_ij - Γ^k_ji|, one per lane of a stacked table."""
    return np.max(np.abs(table.gamma - np.swapaxes(table.gamma, -2, -1)),
                  axis=_AXES)


def connection_report(L, V, x, tol=1e-8):
    """Report the connection identities at x; returns (report, table).

    x is one point, or a (B, n) point set, which gives a stacked table;
    either way one report, whose rows are "sample k: <check>"
    (`Report.add_samples`), a single point being sample 0.  The Koszul
    and compatibility rows are checked against ``tol``; the torsion row,
    an exact symmetry of the solve, always against 1e-14.  One `_table`
    solve, each lane block gated at its points first, then each
    residual on every lane at once; a failing set raises its first
    failing point's error.
    """
    x = np.asarray(x, dtype=float)
    table = _table(L, x, V(x), V.jacobian(x), gate=True)
    rep = Report(title="connection")
    rep.add_samples(["koszul identity", "torsion-free symmetry",
                     "almost-g-compatibility"],
                    np.stack([koszul_residual(table), torsion_residual(table),
                              compatibility_residual(table)], axis=-1),
                    [tol, 1e-14, tol])
    return rep, table


def levi_civita_quadratic(L, x):
    """Levi-Civita symbols of a quadratic model's coefficient matrix.

    Independent of the Koszul solver: differentiates the matrix entries
    directly.  Returns gamma[k, i, j] in the `christoffel` layout.
    """
    x = np.asarray(x, dtype=float)
    g = L.matrix(x)
    dg = L.d_matrix(x)      # dg[k, i, j] = ∂_k g_ij
    ginv = np.linalg.inv(g)
    S = dg + np.swapaxes(dg, 0, 1) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("lk,ijk->lij", ginv, S)


# -- gradients and hessians ----------------------------------------------

def _dhalf_and_g(L, x, w):
    """(1/2) dL/dv and the fundamental tensor at (x, w) in one evaluation."""
    n = len(w)
    _, vj = jets.variables([float(t) for t in w], 2)
    out = jets._call(L, [float(t) for t in x], vj)
    F = 0.5 * jets.derivative_tensor(out, range(n), 1)
    G = 0.5 * jets.derivative_tensor(out, range(n), 2)
    return F, G


def gradient_residual(L, f, x, w):
    """max_i |g_w(w, e_i) - df(e_i)|, the defining equation's residual."""
    f = as_scalar_field(f)
    df = f.d(x)
    F, _ = _dhalf_and_g(L, x, w)
    return float(np.max(np.abs(F - df)))


# Newton iteration cap of `gradient`
_GRADIENT_MAX_ITER = 50


def gradient(L, f, x, tol=1e-10, seed_vector=None):
    """Solve g_w(w, .) = df_x for the admissible gradient vector w.

    Damped Newton with the exact Jacobian g_w; each trial step is halved
    until the iterate stays in the closed cone (at most 30 halvings).
    Requires df_x(cone_ref) > 0, otherwise no admissible solution exists
    and NoGradientError is raised.
    """
    f = as_scalar_field(f)
    x = np.asarray(x, dtype=float)
    df = f.d(x)
    ref = np.asarray(L.cone_ref_at(x), dtype=float)
    pairing = float(df @ ref)
    if pairing <= 0.0:
        raise NoGradientError("df_x(cone_ref) = %.3g <= 0: no admissible "
                              "gradient at x=%r" % (pairing, x.tolist()))
    if seed_vector is not None:
        w = np.asarray(seed_vector, dtype=float)
        L.check_admissible(x, w)
    else:
        w = (pairing / float(L.value(x, ref))) * ref
    scale = max(1.0, float(np.max(np.abs(df))))
    res = np.inf
    for _ in range(_GRADIENT_MAX_ITER):
        F, G = _dhalf_and_g(L, x, w)
        res = float(np.max(np.abs(F - df)))
        if res <= tol * scale:
            return w
        try:
            step = np.linalg.solve(G, df - F)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(G, df - F, rcond=None)
        lam = 1.0
        for _ in range(30):
            cand = w + lam * step
            try:
                ok = L.is_admissible(x, cand, closed=True).inside
            except ConeError:
                ok = False
            if ok:
                break
            lam *= 0.5
        else:
            raise SolverError("gradient step left the cone at x=%r"
                              % (x.tolist(),))
        w = w + lam * step
    raise SolverError("gradient Newton did not converge (residual %.3g "
                      "after %d iterations)" % (res, _GRADIENT_MAX_ITER))


def hessian(L, f, x, v):
    """H^f_ij = ∂_i ∂_j f - Γ^k_ij(x, v) ∂_k f; symmetric by construction."""
    f = as_scalar_field(f)
    x = np.asarray(x, dtype=float)
    L.check_admissible(x, v)
    table = christoffel(L, VectorField.constant(v), x)
    df = f.d(x)
    d2f = f.d2(x)
    return d2f - np.einsum("kij,k->ij", table.gamma, df)


def parallel_extension(L, v, p):
    """Linear field through (p, v) with vanishing covariant derivative at p."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    table = _table(L, p, v, np.zeros((len(v), len(v))), gate=True)
    return VectorField.linear(v, p, _parallel_jacobian(table.gamma, v))


def _parallel_jacobian(gamma, v):
    """∂_i V^k = -Γ^k_ij v^j: the Jacobian at x of a field through (x, v)
    that the symbols Γ of ∇^v at x make parallel there, per lane."""
    return -np.einsum("...kij,...j->...ik", gamma, v)


# -- geodesics ------------------------------------------------------------

@dataclass
class GeodesicPath:
    """Sampled geodesic with the relative L-drift conservation monitor.

    ``sol(t)`` is the integrator's dense state (x, v) at a float or a 1-D
    array of times, bitwise the samples at their times; None where no step
    was taken.  `ppwave.delta_scan` reads positions and velocities between
    the samples from it, so a hand-built path needs one to be scanned.
    """

    t: np.ndarray
    x: np.ndarray            # shape (m, n)
    v: np.ndarray            # shape (m, n)
    ldrift: np.ndarray       # (L(t) - L(0)) / max(1, |L(0)|)
    l0: float
    tol: float
    truncated: bool = False
    reason: str = ""
    sol: object = None

    @property
    def dim(self):
        return self.x.shape[1]

    def to_csv(self):
        n = self.dim
        header = (["t"] + ["x%d" % k for k in range(n)]
                  + ["v%d" % k for k in range(n)] + ["L_drift"])
        return csv_text(header, np.column_stack(
            [self.t, self.x, self.v, self.ldrift]))


def _spray(L):
    """The geodesic spray of L: a function of the state y = (x | v) that
    returns the acceleration a from L_vv a = L_x - L_vx v (Euler–Lagrange);
    for a 2-homogeneous L it is -Γ^k_ij v^i v^j, where the Cartan terms
    cancel.  A singular L_vv raises SignatureError.

    The build fixes what no state changes: the caps-(1, 2) (x | v) jet
    context, its seed template and masks, and one gather of
    (L_x, L_vx, L_vv).  A call copies the template, stores y in its value
    column, evaluates L once and reads the three blocks off one gather,
    the bits of seeding (x | v) with `jets.variables` and reading the
    blocks with `jets.derivative_tensor`."""
    n = L.dim
    ctx = jets._context(2 * n, 2, (0,) * n + (1,) * n, (1, 2))
    template = ctx.seeds()
    masks = [1 << g for g in ctx.groups]
    i1, s1 = ctx.gather(tuple(range(n)), 1)
    i2, s2 = ctx.gather(tuple(range(2 * n)), 2)
    # L_x, then the rows v of the (x | v) Hessian: (L_vx | L_vv)
    idx = np.concatenate([i1, i2[2 * n * n:]])
    scale = np.concatenate([s1, s2[2 * n * n:]])

    def spray(y):
        c = template.copy()
        c[:, 0] = y
        seeds = [jets.Jet(ctx, c[j], masks[j]) for j in range(2 * n)]
        w = jets._call(L, seeds[:n], seeds[n:])
        d = (w.c[idx] * scale if isinstance(w, jets.Jet)
             else np.zeros(len(idx)))
        rows = d[n:].reshape(n, 2 * n)
        try:
            return np.linalg.solve(rows[:, n:], d[:n] - rows[:, :n] @ y[n:])
        except np.linalg.LinAlgError as e:
            raise SignatureError("L_vv is singular at x=%r"
                                 % (y[:n].tolist(),)) from e

    return spray


def _value_or_nan(L, x, v):
    try:
        return L.value(x, v)
    except EvaluationError:
        return np.nan


def geodesic(L, x0, v0, t_span, tol=1e-9, n_samples=200):
    """Integrate the spray `_spray` from (x0, v0) over t_span.

    The spray of L is built once, and every right-hand side of the
    integration calls it, the dense-output stages of the steps read
    included.  `ode.dop853` integrates at rtol = atol = ``tol``, and the
    path is its dense solution at ``n_samples`` evenly spaced times, up
    to the end the integration reached; where the spray fails its
    right-hand side is NaN, and the integrator stops when its step size
    has shrunk to nothing or its step budget has run out, the reason then
    naming the budget and the t reached.  A ``tol`` below 100 machine
    epsilons stops it before the first step, and the path is then
    (x0, v0) only.

    Only (x0, v0) is tested against the cone.  One L evaluation per
    returned sample, all in one stacked `Lagrangian.value` call, gives its
    drift and the cut: the path ends before the first sample where L
    fails or L < -50 tol max(1, |L(x0, v0)|), and ``truncated`` is set.
    This is the closed-cone test whenever 50 tol max(1, |L(x0, v0)|) >=
    1e-12 max(1, |L(cone_ref)|, |L|), so for every CLI tolerance unless
    |L(cone_ref)| is large: there it is looser.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = len(x0)
    l0 = L.check_admissible(x0, v0).value

    spray = _spray(L)

    def rhs(t, y):
        try:
            return np.concatenate([y[n:], spray(y)])
        except (EvaluationError, SignatureError):
            return np.full(2 * n, np.nan)

    t0, t1 = float(t_span[0]), float(t_span[1])
    sol = ode.dop853(rhs, (t0, t1), np.concatenate([x0, v0]), tol)
    if sol.sol is None:
        # stopped before the first step
        ts = np.array([t0])
        ys = np.concatenate([x0, v0])[None, :]
    else:
        ts = np.linspace(t0, t1, int(n_samples))
        end = sol.t[-1]
        ts = ts[ts <= end] if t1 >= t0 else ts[ts >= end]
        ys = sol.sol(ts)

    lscale = max(1.0, abs(l0))
    try:
        vals = L.value(ys[:, :n], ys[:, n:])
    except EvaluationError:
        # some sample fails: take them one at a time, NaN where L fails
        vals = np.array([_value_or_nan(L, y[:n], y[n:]) for y in ys])
    # lightlike paths keep L = 0 only to the integration tolerance
    out = np.flatnonzero(~(vals >= -50.0 * tol * lscale))
    reason = ("left the closed cone at t=%s" % fmt_float(ts[out[0]])
              if len(out) else "")
    keep = max(1, out[0]) if reason else len(ts)
    if keep == len(ts) and not sol.success:
        reason = (sol.message if sol.status == -2 else
                  "integrator stopped at t=%s" % fmt_float(ts[-1]))
    return GeodesicPath(t=ts[:keep], x=ys[:keep, :n], v=ys[:keep, n:],
                        ldrift=(vals[:keep] - l0) / lscale, l0=l0,
                        tol=tol, truncated=keep < len(ts) or not sol.success,
                        reason=reason, sol=sol.sol)
