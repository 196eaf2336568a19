"""Chern connection from the anisotropic Koszul formula.

Christoffel symbols are solved pointwise from one multivariate jet
evaluation of L: base-point generators to first order, fiber generators to
third, which yields the metric g, the Cartan tensor C and the total
x-derivatives D_i(jk) of the metric along the reference field in a single
pass.  The Koszul system is linear in the symbols, M Γ = rhs with one
operator M(g, C, v); a fixed-point iteration exploits the small Cartan
coupling and a dense solve of M guarantees termination.  Curvature reuses
M for the exact x-derivatives of Γ from a base-order-2 evaluation.  The
solve never tests cone membership; the public entry points
(`connection_report`, `hessian`, `parallel_extension`, `geodesic`) gate
the reference the caller supplies.

Index conventions (pinned across the package):
  gamma[k, i, j]   = Γ^k_ij (torsion-free: symmetric in i, j)
  dmetric[i, j, k] = D_i(jk), the derivative of g_jk(x, V(x)) along x^i
  jacobian[i, k]   = ∂_i V^k
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import jets
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

    def __call__(self, x):
        return self._func(x)

    def value(self, x):
        w = self._func([float(t) for t in x])
        return float(w.value if isinstance(w, jets.Jet) else w)

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
    Jacobian can be extracted exactly.
    """

    def __init__(self, eval_fn, jacobian_fn=None, name="V"):
        self._eval = eval_fn
        self._jac = jacobian_fn
        self.name = name

    @classmethod
    def constant(cls, v):
        v = np.asarray(v, dtype=float)
        n = len(v)
        return cls(lambda x: list(v),
                   jacobian_fn=lambda x: np.zeros((n, n)),
                   name="constant")

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
        out = self._eval([float(t) for t in x])
        return np.asarray([float(t) for t in out], dtype=float)

    def jacobian(self, x):
        if self._jac is not None:
            return np.asarray(self._jac([float(t) for t in x]), dtype=float)
        n = len(x)
        _, xj = jets.variables([float(t) for t in x], 1)
        comps = self._eval(xj)
        J = np.zeros((n, len(comps)))
        for k, w in enumerate(comps):
            J[:, k] = jets.derivative_tensor(w, range(n), 1)
        return J


def as_vector_field(N):
    """A `VectorField`, with a bare vector taken as the constant field."""
    if isinstance(N, (list, tuple, np.ndarray)):
        return VectorField.constant(N)
    return N


@dataclass
class ChristoffelTable:
    """Christoffel symbols at one point plus the jet byproducts."""

    x: np.ndarray
    v: np.ndarray
    gamma: np.ndarray      # gamma[k, i, j]
    g: np.ndarray
    cartan: np.ndarray
    dmetric: np.ndarray    # dmetric[i, j, k] = D_i(jk)
    jacobian: np.ndarray   # jacobian[i, k]
    iterations: int
    method: str


def _field_jet(L, x, v, J, base_order=1):
    """One evaluation of L giving g, C and the total derivatives D; with
    ``base_order=2`` also dC[a] = ∂_a C and dD[a] = ∂_a D along v + J dx."""
    n = len(v)
    ctx, seeds = jets.variables(list(x) + list(v), base_order + 2,
                                (0,) * n + (1,) * n, (base_order, 3))
    for m in range(n):
        # the fiber generator carries the field's first-order x-dependence
        for i in range(n):
            if J[i, m] != 0.0:
                seeds[n + m].c[ctx.var_index(i)] += float(J[i, m])
    w = jets._call(L, seeds[:n], seeds[n:])
    fiber = range(n, 2 * n)
    g = 0.5 * jets.derivative_tensor(w, fiber, 2)
    C = 0.25 * jets.derivative_tensor(w, fiber, 3)
    D = 0.5 * jets.derivative_tensor(w, range(2 * n), 3)[:n, n:, n:]
    if base_order == 1:
        return g, C, D
    d4 = jets.derivative_tensor(w, range(2 * n), 4)
    return g, C, D, 0.25 * d4[:n, n:, n:, n:], 0.5 * d4[:n, :n, n:, n:]


def _koszul_rhs(D, C, A):
    """rhs[..., i,j,k] with 2 g(∇_i ∂_j, ∂_k) = rhs for coordinate fields."""
    CA = np.einsum("...mjk,...im->...ijk", C, A)
    Ds, CAs = np.swapaxes(D, -3, -2), np.swapaxes(CA, -3, -2)
    return (D + Ds - np.swapaxes(Ds, -2, -1)     # ... - D[k, i, j]
            - 2.0 * CA - 2.0 * CAs + 2.0 * np.swapaxes(CAs, -2, -1))


def _koszul_operator(g, C, v):
    """M with M Γ = 2 g(Γ, ·) - rhs(0, C, Γ v), so that the identity
    2 g(Γ, ·) = rhs(D, C, J + Γ v) reads M Γ = rhs(D, C, J).  Rows are the
    identities (i <= j, k); columns the symbols Γ^l_ij with i <= j."""
    n = len(v)
    iu, ju = np.triu_indices(n)
    l, p = np.indices((n, len(iu)))
    E = np.zeros((n, len(iu), n, n, n))     # basis of the symmetric Γ
    E[l, p, l, iu[p], ju[p]] = E[l, p, l, ju[p], iu[p]] = 1.0
    ME = (2.0 * np.einsum("...lij,lk->...ijk", E, g)
          - _koszul_rhs(np.zeros((n, n, n)), C,
                        np.einsum("...mil,l->...im", E, v)))
    return ME[..., iu, ju, :].reshape(n * len(iu), -1).T


def _koszul_solve(M, rhs):
    """Symmetric Γ[..., l, i, j] with M Γ = rhs[..., i, j, k]."""
    n = rhs.shape[-1]
    iu, ju = np.triu_indices(n)
    b = rhs[..., iu, ju, :].reshape(-1, len(iu) * n).T
    sol, *_ = np.linalg.lstsq(M, b, rcond=None)
    gamma = np.zeros(rhs.shape[:-3] + (n, n, n))
    gamma[..., iu, ju] = gamma[..., ju, iu] = sol.T.reshape(
        gamma.shape[:-2] + (len(iu),))
    return gamma


def _metric_inverse(g, x):
    """g^{-1}; SignatureError when g is numerically degenerate."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as e:
        raise SignatureError("fundamental tensor is singular at x=%r"
                             % (x.tolist(),)) from e
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > 1e12:
        raise SignatureError("fundamental tensor is numerically degenerate "
                             "(cond=%.3g)" % cond)
    return ginv


# fixed-point stopping rule of the Koszul solve
_FP_TOL = 1e-12
_FP_MAX_ITER = 50


def christoffel(L, V, x):
    """Christoffel symbols Γ^k_ij of the connection ∇^V at the point x.

    Solves the coordinate Koszul identities by fixed point from the
    Cartan-free truncation, falling back to a least-squares solve of the
    operator `_koszul_operator` when the iteration stalls.  Raises
    SignatureError when g_V is numerically degenerate and SolverError when
    no solution satisfies the identities to 1e-6.  A pure per-point
    kernel: it does not test whether V(x) lies in the cone, so callers
    gate their own reference once.
    """
    x = np.asarray(x, dtype=float)
    v = V(x)
    J = V.jacobian(x)
    g, C, D = _field_jet(L, x, v, J)
    ginv = _metric_inverse(g, x)
    cscale = float(np.max(np.abs(C)))
    gscale = max(1.0, float(np.max(np.abs(g))))
    rhs0 = D + np.swapaxes(D, 0, 1) - np.transpose(D, (1, 2, 0))
    gamma = 0.5 * np.einsum("lk,ijk->lij", ginv, rhs0)
    method = "levi-civita"
    iters = 0
    converged = True
    if cscale > 1e-14 * gscale:
        method = "fixed-point"
        for iters in range(1, _FP_MAX_ITER + 1):
            A = J + np.einsum("mil,l->im", gamma, v)
            rhs = _koszul_rhs(D, C, A)
            new = 0.5 * np.einsum("lk,ijk->lij", ginv, rhs)
            delta = float(np.max(np.abs(new - gamma)))
            gamma = new
            if delta <= _FP_TOL * (1.0 + float(np.max(np.abs(new)))):
                break
        else:
            converged = False
    gamma = 0.5 * (gamma + np.swapaxes(gamma, 1, 2))
    table = ChristoffelTable(x=x, v=np.asarray(v, dtype=float), gamma=gamma,
                             g=g, cartan=C, dmetric=D, jacobian=J,
                             iterations=iters, method=method)
    res = koszul_residual(table)
    if not converged or res > 1e-8:
        table.gamma = _koszul_solve(_koszul_operator(g, C, v),
                                    _koszul_rhs(D, C, J))
        table.method = "dense"
        res = koszul_residual(table)
    if res > 1e-6:
        raise SolverError("Koszul system did not converge (residual %.3g "
                          "after %d iterations, method=%s)"
                          % (res, table.iterations, table.method))
    return table


def koszul_residual(table):
    """Scale-normalized max residual of the coordinate Koszul identity."""
    A = table.jacobian + np.einsum("mil,l->im", table.gamma, table.v)
    rhs = _koszul_rhs(table.dmetric, table.cartan, A)
    lhs = 2.0 * np.einsum("lij,lk->ijk", table.gamma, table.g)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def compatibility_residual(table):
    """X g(Y,Z) - g(∇_X Y,Z) - g(Y,∇_X Z) - 2C(∇_X V,Y,Z), normalized."""
    A = table.jacobian + np.einsum("mil,l->im", table.gamma, table.v)
    t1 = np.einsum("lij,lk->ijk", table.gamma, table.g)
    t2 = np.einsum("lik,jl->ijk", table.gamma, table.g)
    t3 = 2.0 * np.einsum("mjk,im->ijk", table.cartan, A)
    res = table.dmetric - t1 - t2 - t3
    scale = max(1.0, float(np.max(np.abs(table.dmetric))))
    return float(np.max(np.abs(res))) / scale


def torsion_residual(table):
    return float(np.max(np.abs(table.gamma
                               - np.swapaxes(table.gamma, 1, 2))))


def connection_report(L, V, x):
    """Report the connection identities at x; returns (report, table)."""
    L.check_admissible(x, V(x))
    table = christoffel(L, V, x)
    rep = Report(title="connection",
                 meta={"x": [float(t) for t in x],
                       "v": table.v.tolist(),
                       "method": table.method,
                       "iterations": table.iterations})
    rep.add("koszul identity", koszul_residual(table), 1e-8)
    rep.add("torsion-free symmetry", torsion_residual(table), 1e-14)
    rep.add("almost-g-compatibility", compatibility_residual(table), 1e-8)
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


def gradient(L, f, x, tol=1e-10, max_iter=50, seed_vector=None):
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
        L.check_admissible(x, w, closed=True)
    else:
        w = (pairing / float(L.value(x, ref))) * ref
    scale = max(1.0, float(np.max(np.abs(df))))
    res = np.inf
    for _ in range(max_iter):
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
                      "after %d iterations)" % (res, max_iter))


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
    L.check_admissible(p, v)
    table = christoffel(L, VectorField.constant(v), p)
    B = -np.einsum("kij,j->ik", table.gamma, v)
    return VectorField.linear(v, p, B)


# -- geodesics ------------------------------------------------------------

@dataclass
class GeodesicPath:
    """Sampled geodesic with the relative L-drift conservation monitor."""

    t: np.ndarray
    x: np.ndarray            # shape (m, n)
    v: np.ndarray            # shape (m, n)
    ldrift: np.ndarray       # (L(t) - L(0)) / max(1, |L(0)|)
    l0: float
    tol: float
    truncated: bool = False
    reason: str = ""

    @property
    def dim(self):
        return self.x.shape[1]

    def to_csv(self):
        n = self.dim
        header = (["t"] + ["x%d" % k for k in range(n)]
                  + ["v%d" % k for k in range(n)] + ["L_drift"])
        return csv_text(header, np.column_stack(
            [self.t, self.x, self.v, self.ldrift]))


def geodesic(L, x0, v0, t_span, tol=1e-9, n_samples=200):
    """Integrate the geodesic equation from (x0, v0) over t_span.

    The spray contracts the symbols with the velocity, where the Cartan
    corrections cancel, so a constant reference field is exact; quadratic
    models take the direct Levi-Civita route.  Only (x0, v0) is gated;
    leaving the closed cone truncates the returned path at the first
    sample outside it and sets ``truncated``.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = len(x0)
    L.check_admissible(x0, v0, closed=True)
    l0 = float(L.value(x0, v0))

    use_quad = getattr(L, "quadratic", False) and hasattr(L, "d_matrix")

    def spray(x, v):
        if use_quad:
            gam = levi_civita_quadratic(L, x)
        else:
            gam = christoffel(L, VectorField.constant(v), x).gamma
        return -np.einsum("kij,i,j->k", gam, v, v)

    bad = np.full(2 * n, np.nan)

    def rhs(t, y):
        try:
            return np.concatenate([y[n:], spray(y[:n], y[n:])])
        except (EvaluationError, SignatureError, SolverError):
            return bad

    t0, t1 = float(t_span[0]), float(t_span[1])
    t_eval = np.linspace(t0, t1, int(n_samples))
    sol = solve_ivp(rhs, (t0, t1), np.concatenate([x0, v0]),
                    method="DOP853", rtol=tol, atol=tol, t_eval=t_eval)
    if len(sol.t) == 0:
        # stopped before the first sample: sol.y is then not an array
        ts = np.array([t0])
        ys = np.concatenate([x0, v0])[None, :]
    else:
        ts, ys = sol.t, sol.y.T
    xs = ys[:, :n]
    vs = ys[:, n:]

    keep = len(ts)
    reason = ""
    lscale0 = max(1.0, abs(l0))
    for i in range(len(ts)):
        try:
            inside = L.is_admissible(xs[i], vs[i], closed=True).inside
        except ConeError:
            inside = False
        if not inside:
            # conserved lightlike paths sit on the cone boundary; relax the
            # closed-cone margin by the integration tolerance before cutting
            try:
                inside = (float(L.value(xs[i], vs[i]))
                          >= -50.0 * tol * lscale0)
            except EvaluationError:
                inside = False
        if not inside:
            keep = max(1, i)
            reason = "left the closed cone at t=%s" % fmt_float(ts[i])
            break
    truncated = keep < len(ts)
    if not truncated and not sol.success:
        truncated = True
        reason = "integrator stopped at t=%s" % fmt_float(ts[-1])
    ts, xs, vs = ts[:keep], xs[:keep], vs[:keep]

    lscale = max(1.0, abs(l0))
    drift = np.array([(float(L.value(xs[i], vs[i])) - l0) / lscale
                      for i in range(len(ts))])
    return GeodesicPath(t=ts, x=xs, v=vs, ldrift=drift, l0=l0, tol=tol,
                        truncated=truncated, reason=reason)
