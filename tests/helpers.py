"""Shared test oracles.

`dense_koszul_solve` solves the coordinate Koszul identities as one dense
linear system over a basis of symmetric symbol tables, without the
decoupling by C(v, ., .) = 0 that the library's closed form relies on.

`dense_product` multiplies two jets over every pair of monomials the
context admits, with a pair table of its own and no support masks: the
oracle of the masked product tables of `jets._Context.product_pairs`.

`full_series` composes a jet with an elementary function by the Horner
scheme to its context's full order, and `per_generator_seeds` seeds each
generator with a zero vector and two stores of its own: the references
of `jets.Jet._series`, which stops at the degree cap of its argument's
support, and of `jets.variables`, which seeds from a cached template.
`full_randers` is `RandersNorm._from_coeffs` with no term skipped.
`two_callable_ppwave_example` is `lagrangian._default_ppwave_example` as
it was built from two coefficient callables, each composing the bump
and sin(u), and an omega that composes alpha's reciprocal afresh for
each of its three divisions (`fresh_quotient`): the reference of the
model's one coefficient function and of `jets.Jet._reciprocal`, which
keeps the reciprocal it composes.
`per_point_spray` is the geodesic spray as one call per point, seeding
(x | v) with `jets.variables` and reading L_x and the (x | v) Hessian
with two `jets.derivative_tensor` reads: the reference of
`connection._spray`, which builds its seeds and its one gather once.

`scipy_dop853` and `scipy_brentq` run scipy's ``solve_ivp(method="DOP853")``
and ``brentq``, the oracles of the library's own `finsler.ode`;
`scipy_dop853_result` hands out scipy's whole result, its count of
right-hand-side calls included, and `scipy_dop853_tableau` the
Dormand-Prince coefficients that scipy's DOP853 steps with.

`per_sample_check`, `per_sample_connection`, `per_sample_curvature` and
`per_sample_ppwave` are the ``check``, ``connection``, ``curvature`` and
``ppwave`` commands as loops over their samples, one scalar gate, tensor,
Christoffel solve and curvature at a time, each sample gated and Γ
solved where the loop meets it, each curvature along its own
`parallel_extension`: the oracles of the commands' stacked passes,
report bytes and first error alike.

`per_sample_homothety` and `per_sample_offblock` are
`penrose.homothety_residual` and the off-block rows of the Penrose Ω
table (`penrose._offblock`) as loops of one scalar `fundamental_tensor`
per sample: the oracles of their stacked evaluations.

`dop853_vielbein` integrates the Penrose O-equation O' = -W O with DOP853
and takes S = h^{1/2} and its derivatives from scipy's Sylvester solver,
independently of the library's Gauss panel propagators and eigenbasis
formulas.

The Jacobi machinery here is deliberately independent of the focal scan
it cross-checks: it samples the curvature operator in a parallel
transverse frame and integrates the Jacobi system E'' = -Rhat E for the
wavefront family (E(t0) = h^{1/2}, derivative matched to h).  det E
then vanishes exactly at focal parameters.

It is written for diagonal Rosen charts, where the normalized
coordinate frame e_a / sqrt(h_aa) is parallel along the ray (the h'/2h
transport terms cancel against the normalization), so no vector has to
be propagated through the chart wall at a focal point; grid points too
close to a wall are skipped and bridged by the curvature spline.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import solve_sylvester
from scipy.optimize import brentq

from finsler import jets
from finsler.cli import _sample_states
from finsler.connection import (
    VectorField,
    _cartan_rhs,
    christoffel,
    compatibility_residual,
    koszul_residual,
    parallel_extension,
    torsion_residual,
)
from finsler.curvature import chern_curvature, nperp_basis
from finsler.errors import SignatureError
from finsler.jets import Jet
from finsler.lagrangian import Lagrangian, RandersNorm, _cone_ref_near_e0
from finsler.penrose import _jacobian_diag, rescaled_lagrangian
from finsler.report import Report
from finsler.tensors import cartan_tensor, fundamental_tensor, signature_of

E0 = np.array([1.0, 0.0, 0.0, 0.0])

_DENSE_TABLES = {}


def dense_product(a, b):
    """Coefficients of the jet product ``a * b`` over the full pair table:
    every (i, j) whose exponents add up to an admissible monomial k,
    i-major and j ascending, summed by `np.bincount` (keyed by
    ``k * B + lane`` for B lanes) whatever the factors' supports."""
    exps = a.ctx.exponents
    table = _DENSE_TABLES.get(tuple(exps))
    if table is None:
        index = {e: k for k, e in enumerate(exps)}
        table = np.array([(i, j, index[s])
                          for i, ei in enumerate(exps)
                          for j, ej in enumerate(exps)
                          if (s := tuple(x + y for x, y in zip(ei, ej)))
                          in index], dtype=np.intp).T
        _DENSE_TABLES[tuple(exps)] = table
    i, j, k = table
    if a.c.ndim == 1:
        return np.bincount(k, a.c[i] * b.c[j], minlength=len(exps))
    lanes = a.c.shape[1]
    keys = (k[:, None] * lanes + np.arange(lanes)).ravel()
    return np.bincount(keys, (a.c[i] * b.c[j]).ravel(),
                       minlength=len(exps) * lanes).reshape(-1, lanes)


def full_series(x, coeffs):
    """``x`` composed with the f whose ``coeffs(a0, n)`` lists
    f^(k)(a0) / k! for k = 0..n, by Horner's scheme to the full order of
    x's context, whatever its support."""
    a0 = x.c[0]
    cs = coeffs(float(a0) if a0.ndim == 0 else a0, x.ctx.order)
    d = x.c.copy()
    d[0] = 0.0
    d = Jet(x.ctx, d, x.mask)
    acc = d * cs[-1]
    for k in range(len(cs) - 2, 0, -1):
        acc = acc._add_const(cs[k]) * d
    return acc._add_const(cs[0])


def per_generator_seeds(values, order, groups=None, group_orders=None,
                        jacobian=None):
    """`jets.variables` with each seed built on its own: a zero vector,
    its value and its unit coefficient, then the Jacobian entries one
    (i, m) at a time."""
    batch = isinstance(values, np.ndarray) and values.ndim == 2
    if batch:
        lanes = len(values)
        values = list(values.astype(float).T)
    else:
        values = [float(v) for v in values]
    ctx = jets._context(len(values), order,
                        None if groups is None else tuple(groups),
                        None if group_orders is None else tuple(group_orders))
    if batch:
        ctx = ctx.batched(lanes)
    seeds = []
    for j, v in enumerate(values):
        c = np.zeros(ctx.size if ctx.lanes is None else (ctx.size, lanes))
        c[0] = v
        c[ctx.var_index(j)] = 1.0
        seeds.append(Jet(ctx, c, 1 << ctx.groups[j]))
    if jacobian is not None:
        nonzero = jacobian != 0.0
        if nonzero.ndim == 3:
            nonzero = nonzero.any(axis=0)
        for i, m in zip(*np.nonzero(nonzero)):
            seeds[m].c[ctx.var_index(i)] += jacobian[..., i, m]
            seeds[m].mask |= 1 << ctx.groups[i]
    return ctx, seeds


def full_randers(A, b, v):
    """F(v) = sqrt(v^T A v) + b.v over every term, zero or not."""
    n = len(v)
    alpha2 = 0.0
    for i in range(n):
        for j in range(n):
            alpha2 = alpha2 + A[i][j] * v[i] * v[j]
    beta = 0.0
    for i in range(n):
        beta = beta + b[i] * v[i]
    return jets.sqrt(alpha2) + beta


def fresh_quotient(a, b):
    """a / b, where a jet b's reciprocal series is composed on each call."""
    if isinstance(b, Jet):
        return a * b._series(jets._reciprocal_series)
    return a / b


def two_callable_ppwave_example(eps=0.1):
    """The ppwave_example model from two coefficient callables A(x) and
    b(x), whose omega divides by alpha three times."""
    def bump(x):
        return jets.exp(-0.5 * (x[2] * x[2] + x[3] * x[3]))

    def A(x):
        m = bump(x)
        s1 = eps * 0.3 * jets.sin(x[1]) * m
        s2 = eps * 0.2 * jets.cos(x[1]) * m
        s3 = eps * 0.4 * jets.cos(2.0 * x[1]) * m
        return [[1.0 + s1, s2], [s2, 1.0 + s3]]

    def b(x):
        return [0.0, eps * 0.5 * jets.sin(x[1]) * bump(x)]

    F2 = RandersNorm(A, b, 2)

    def omega_coeffs(A, b):
        alpha = jets.sqrt(A[0][0])
        F0 = alpha + b[0]
        l0 = fresh_quotient(A[0][0], alpha)
        l1 = fresh_quotient(A[0][1], alpha)
        ratio = fresh_quotient(F0, alpha)
        g10 = ratio * (A[1][0] - l1 * l0) + (l1 + b[1]) * (l0 + b[0])
        return F0, fresh_quotient(1.0 + g10, F0)

    def func(x, v):
        A, b = F2.coeffs(x)
        w0, w1 = omega_coeffs(A, b)
        w = w0 * v[0] + w1 * v[1]
        f = F2._from_coeffs(A, b, [v[0], v[1]])
        return w * w - f * f - v[2] * v[2] - v[3] * v[3]

    return Lagrangian(func, 4, _cone_ref_near_e0(func, 4),
                      name="ppwave_example")


def per_point_spray(L, x, v):
    """The acceleration a from L_vv a = L_x - L_vx v at one point (x, v),
    from one (x | v) jet with caps (1, 2) seeded by `jets.variables`."""
    n = len(v)
    _, seeds = jets.variables(list(x) + list(v), 2, (0,) * n + (1,) * n,
                              (1, 2))
    w = jets._call(L, seeds[:n], seeds[n:])
    d2 = jets.derivative_tensor(w, range(2 * n), 2)
    force = jets.derivative_tensor(w, range(n), 1) - d2[n:, :n] @ v
    try:
        return np.linalg.solve(d2[n:, n:], force)
    except np.linalg.LinAlgError as e:
        raise SignatureError("L_vv is singular at x=%r"
                             % (np.asarray(x).tolist(),)) from e


def dense_koszul_solve(g, C, v, R):
    """Symmetric X[..., l, i, j] with 2 g(X, .) = R + rhs(0, C, X v).

    Builds the operator M X = 2 g(X, .) - rhs(0, C, X v) on a basis of the
    symmetric tables (columns X^l_ij, i <= j; rows the identities (i <= j,
    k)) and solves every batch of R by least squares.
    """
    n = len(v)
    iu, ju = np.triu_indices(n)
    l, p = np.indices((n, len(iu)))
    E = np.zeros((n, len(iu), n, n, n))
    E[l, p, l, iu[p], ju[p]] = E[l, p, l, ju[p], iu[p]] = 1.0
    ME = (2.0 * np.einsum("...lij,lk->...ijk", E, g)
          - _cartan_rhs(C, np.einsum("...mil,l->...im", E, v)))
    M = ME[..., iu, ju, :].reshape(n * len(iu), -1).T
    b = R[..., iu, ju, :].reshape(-1, len(iu) * n).T
    sol, *_ = np.linalg.lstsq(M, b, rcond=None)
    X = np.zeros(R.shape[:-3] + (n, n, n))
    X[..., iu, ju] = X[..., ju, iu] = sol.T.reshape(X.shape[:-2] + (len(iu),))
    return X


def scipy_dop853(fun, t_span, y0, tol, t_eval=None, event=None):
    """scipy's DOP853 at rtol = atol = ``tol``, stopped where ``event``
    reaches zero: (times, states one row each, status)."""
    events = None
    if event is not None:
        def events(t, y):
            return event(t, y)
        events.terminal = True
    sol = scipy_dop853_result(fun, t_span, y0, tol, t_eval=t_eval,
                              events=events)
    return sol.t, sol.y.T, sol.status


def scipy_dop853_result(fun, t_span, y0, tol, **options):
    """scipy's ``solve_ivp`` result of DOP853 at rtol = atol = ``tol``,
    with further ``solve_ivp`` options: its step ends ``t``, states ``y``
    (one column each), ``status``, right-hand-side calls ``nfev`` and,
    with ``dense_output=True``, the solution ``sol``."""
    return solve_ivp(fun, t_span, y0, method="DOP853", rtol=tol, atol=tol,
                     **options)


def scipy_dop853_tableau():
    """scipy's DOP853 tableau: the stage matrix A and nodes C of the 16
    stages, the error weights E3 and E5, and the dense-output matrix D."""
    c = dop853_coefficients
    return {"A": c.A, "C": c.C, "E3": c.E3, "E5": c.E5, "D": c.D}


def scipy_brentq(f, a, b, xtol):
    """scipy's Brent root of ``f`` between a and b, to ``xtol``."""
    return brentq(f, a, b, xtol=xtol)


def dop853_vielbein(triple, u0, us, tol=1e-12):
    """M = h^{-1/2} O and A at each u of ``us``, stacked, with O' = -W O,
    O(u0) = identity, integrated by DOP853 at rtol = atol = ``tol`` from u0
    out to the farthest u on each side."""
    m = len(triple(u0)[0])

    def frame(u):
        h, hd, hdd = (np.asarray(t, dtype=float) for t in triple(u))
        s = spd_sqrt(h)
        sd = solve_sylvester(s, s, hd)
        sdd = solve_sylvester(s, s, hdd - 2.0 * sd @ sd)
        return np.linalg.inv(s), sd, sdd

    def rhs(u, y):
        sinv, sd, _ = frame(u)
        w = sinv @ sd
        return (-0.5 * (w - w.T) @ y.reshape(m, m)).ravel()

    us = np.asarray(us, dtype=float)
    rots = {}
    for side in (us[us < u0], us[us >= u0]):
        if len(side) == 0:
            continue
        far = side[np.argmax(np.abs(side - u0))]
        sol = solve_ivp(rhs, (u0, far), np.eye(m).ravel(), method="DOP853",
                        rtol=tol, atol=tol, dense_output=True)
        assert sol.success
        rots.update((u, sol.sol(u).reshape(m, m)) for u in side)
    ms, As = [], []
    for u in us:
        sinv, sd, sdd = frame(u)
        o = rots[u]
        k = sinv @ sd
        w = 0.5 * (k - k.T)
        wd = sinv @ sdd - k @ k
        wd = 0.5 * (wd - wd.T)
        a = o.T @ (w @ w + wd + (2.0 * w @ sd + sdd) @ sinv) @ o
        ms.append(sinv @ o)
        As.append(0.5 * (a + a.T))
    return np.array(ms), np.array(As)


def cos2_triple(u):
    """Closed-form (h, h', h'') of the Rosen profile diag(cos^2 u, 1)."""
    return (np.diag([np.cos(u) ** 2, 1.0]), np.diag([-np.sin(2 * u), 0.0]),
            np.diag([-2.0 * np.cos(2 * u), 0.0]))


def exp_triple(u):
    """Closed-form (h, h', h'') of the Rosen profile diag(e^2u, e^-2u)."""
    e = np.array([np.exp(2 * u), np.exp(-2 * u)])
    return np.diag(e), np.diag([2.0, -2.0] * e), np.diag(4.0 * e)


def spd_sqrt(mat):
    w, q = np.linalg.eigh(np.asarray(mat, dtype=float))
    if np.any(w <= 0.0):
        raise ValueError("matrix not positive definite")
    return q @ np.diag(np.sqrt(w)) @ q.T


def jacobi_first_zero(L, nvec, ray, n_grid=81, rtol=1e-10, guard=1e-3):
    """First zero of det E for the transverse Jacobi system along ``ray``."""
    nvec = np.asarray(nvec, dtype=float)
    ts = np.asarray(ray.t, dtype=float)
    t0, t1 = float(ts[0]), float(ts[-1])
    pos = CubicHermiteSpline(ts, np.asarray(ray.x, float),
                             np.asarray(ray.v, float), axis=0)

    def h_at(t):
        g = fundamental_tensor(L, pos(t), nvec)
        return -g[2:, 2:]

    grid = []
    rhat = []
    for t in np.linspace(t0, t1, n_grid):
        h = h_at(t)
        d = np.diag(h)
        assert np.max(np.abs(h - np.diag(d))) < 1e-12 * max(1.0, d.max())
        if np.min(d) <= guard:
            continue  # chart wall; the spline bridges the gap
        x = pos(t)
        R = chern_curvature(L, x, nvec)
        P = np.zeros((2, 4))
        P[0, 2] = 1.0 / np.sqrt(d[0])
        P[1, 3] = 1.0 / np.sqrt(d[1])
        B = np.column_stack([nvec, np.eye(4)[1], P[0], P[1]])
        rk = np.empty((2, 2))
        for b in range(2):
            co = np.linalg.solve(B, R.apply(P[b], nvec, nvec))
            rk[0, b] = co[2]
            rk[1, b] = co[3]
        grid.append(float(t))
        rhat.append(rk)
    rsp = CubicSpline(np.array(grid), np.array(rhat), axis=0)

    d = 1e-6
    e_init = spd_sqrt(h_at(t0))
    ed_init = (spd_sqrt(h_at(t0 + d)) - spd_sqrt(h_at(t0 - d))) / (2.0 * d)

    def jacobi_rhs(t, y):
        e = y[:4].reshape(2, 2)
        ed = y[4:].reshape(2, 2)
        return np.concatenate([ed.ravel(), (-rsp(t) @ e).ravel()])

    sol = solve_ivp(jacobi_rhs, (t0, t1),
                    np.concatenate([e_init.ravel(), ed_init.ravel()]),
                    method="DOP853", rtol=rtol, atol=rtol,
                    dense_output=True)
    assert sol.success

    def det_e(t):
        return float(np.linalg.det(sol.sol(t)[:4].reshape(2, 2)))

    tt = np.linspace(t0, t1, 400)
    vals = [det_e(t) for t in tt]
    for i in range(len(tt) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            return brentq(det_e, tt[i], tt[i + 1], xtol=1e-12)
    return None


# -- the sampled commands, one sample at a time ------------------------------------

def _homogeneity_alone(L, x, v, tol):
    """The homogeneity report of one (x, v) from scalar evaluations."""
    x = [float(t) for t in x]
    v = np.asarray(v, dtype=float)
    L.check_admissible(x, v)
    rep = Report(title="homogeneity", meta={"x": list(x), "v": v.tolist()})

    Lv = L.value(x, v)
    for lam in (0.5, 2.0, 3.0):
        Ll = L.value(x, lam * v)
        target = lam * lam * Lv
        res = abs(Ll - target) / max(1.0, abs(target))
        rep.add("L(%.1f v) = %.1f^2 L" % (lam, lam), res, tol)

    g = fundamental_tensor(L, x, v)
    gscale = max(1.0, float(np.max(np.abs(g))))
    for lam in (0.5, 2.0):
        gl = fundamental_tensor(L, x, lam * v)
        res = float(np.max(np.abs(gl - g))) / gscale
        rep.add("g_(%.1f v) = g_v" % lam, res, tol)

    res = abs(float(v @ g @ v) - Lv) / max(1.0, abs(Lv))
    rep.add("g_v(v, v) = L", res, tol)

    C = cartan_tensor(L, x, v)
    contr = np.einsum("ijk,i->jk", C, v)
    cscale = 1.0 + float(np.max(np.abs(C))) * float(np.linalg.norm(v))
    rep.add("C_v(v, ., .) = 0",
            float(np.max(np.abs(contr))) / cscale, tol)
    return rep


def per_sample_check(L, rng, tol, n_samples, box):
    rep = Report(title="check")
    want = (1, L.dim - 1, 0)
    for k, (x, v) in enumerate(_sample_states(L, rng, n_samples, box)):
        sub = _homogeneity_alone(L, x, v, tol)
        for c in sub.checks:
            rep.add("sample %d: %s" % (k, c.name), c.residual, c.tol)
        sig = signature_of(fundamental_tensor(L, x, v))
        ok = (sig.plus, sig.minus, sig.zero) == want
        rep.add("sample %d: signature (1, %d, 0)" % (k, L.dim - 1),
                0.0 if ok else 1.0, 0.5)
    return rep, None


def per_sample_connection(L, rng, tol, n_samples, box, N):
    V = VectorField.constant(N)
    rep = Report(title="connection")
    for k in range(n_samples):
        x = rng.uniform(-box, box, L.dim)
        L.check_admissible(x, V(x))
        table = christoffel(L, V, x)
        for name, res, own in (
                ("koszul identity", koszul_residual(table), 1e-8),
                ("torsion-free symmetry", torsion_residual(table), 1e-14),
                ("almost-g-compatibility", compatibility_residual(table),
                 1e-8)):
            use = own if tol is None or "torsion" in name else tol
            rep.add("sample %d: %s" % (k, name), res, use)
    return rep, None


def per_sample_curvature(L, rng, tol, n_samples, box, N):
    rep = Report(title="curvature", meta={"samples": []})
    for k in range(n_samples):
        x = rng.uniform(-box, box, L.dim)
        R = chern_curvature(L, x, N, extension=parallel_extension(L, N, x))
        scale = max(1.0, R.scale)
        worst = 0.0
        for _ in range(3):
            X, Y, U, W = (rng.uniform(-1.0, 1.0, L.dim) for _ in range(4))
            worst = max(worst, abs(R.rm(X, Y, U, W) - R.rm(U, W, X, Y)))
        rep.add("sample %d: pair symmetry" % k, worst / scale, tol)
        rep.meta["samples"].append({"x": x.tolist(), "scale": R.scale})
    return rep, None


def per_sample_ppwave(L, rng, tol, n_samples, box, N):
    samples = [rng.uniform(-box, box, L.dim) for _ in range(n_samples)]
    V = VectorField.constant(N)
    rep = Report(title="ppwave")
    for idx, p in enumerate(samples):        # the parallel criterion
        L.check_admissible(p, V(p))
        table = christoffel(L, V, p)
        gscale = max(1.0, float(np.max(np.abs(table.g))))
        d0 = float(np.max(np.abs(table.dmetric[0])))
        nab = table.jacobian + np.einsum("mil,l->im", table.gamma, table.v)
        rep.add("sample %d: d0 g_N" % idx, d0, 1e-8 * gscale)
        rep.add("sample %d: nabla N" % idx, float(np.max(np.abs(nab))),
                1e-8 * gscale)
    rows = []
    scale = 0.0
    for p in samples:                         # the curvature condition
        nv = V(p)
        R = chern_curvature(L, p, nv, extension=parallel_extension(L, nv, p))
        light = abs(float(L.value(p, nv)))
        nab = V.jacobian(p) + np.einsum("mil,l->im", R.gamma, nv)
        basis = nperp_basis(R.g, nv)
        worst = 0.0
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                for k in range(len(basis)):
                    vec = R.apply(basis[i], basis[j], basis[k])
                    worst = max(worst, float(np.linalg.norm(vec)))
        rows.append((p, light, float(np.max(np.abs(nab))), worst))
        scale = max(scale, R.scale)
    ctol = tol * max(scale, 1.0)
    rep.meta["curvature_scale"] = scale
    rep.meta["samples"] = []
    for idx, (p, light, par, worst) in enumerate(rows):
        rep.add("sample %d: N lightlike" % idx, light, 1e-10)
        rep.add("sample %d: N parallel" % idx, par, 1e-8)
        rep.add("sample %d: curvature condition" % idx, worst, ctol)
        rep.meta["samples"].append({"x": [float(t) for t in p],
                                    "lightlike": light, "parallel": par,
                                    "residual": worst})
    return rep, None


# -- the Penrose Omega table, one sample at a time ---------------------------------

def per_sample_homothety(L, N, omega, samples, tol=1e-9):
    nvec0 = np.asarray(N, dtype=float)
    jd = _jacobian_diag(L.dim, float(omega))
    Lw = rescaled_lagrangian(L, omega)
    rep = Report(title="homothety",
                 meta={"model": getattr(L, "name", "?"),
                       "omega": float(omega),
                       "jacobian": [float(a) for a in jd]})
    rep.add("dx0*dx1 bookkeeping", abs(jd[0] * jd[1] - omega ** 2), 0.0)
    for idx, p in enumerate(samples):
        p = np.asarray(p, dtype=float)
        pm = p * jd
        pm[0] = p[0]
        lhs = np.outer(jd, jd) * fundamental_tensor(L, pm, nvec0)
        rhs = omega ** 2 * fundamental_tensor(Lw, p, nvec0 / jd)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        res = float(np.max(np.abs(lhs - rhs))) / scale
        rep.add("sample %d: homothety" % idx, res, tol)
    return rep


def per_sample_offblock(L, nvec, omega, us):
    Lw = rescaled_lagrangian(L, omega)
    worst_row = 0.0
    worst_g11 = 0.0
    for u in us:
        p = np.zeros(L.dim)
        p[0] = float(u)
        gw = fundamental_tensor(Lw, p, nvec)
        worst_row = max(worst_row, float(np.max(np.abs(gw[1, 2:]))))
        worst_g11 = max(worst_g11, abs(float(gw[1, 1])))
    return {"omega": float(omega), "g1a": worst_row, "g11": worst_g11}
