"""Plane-wave limits: Omega-rescaling, Rosen profiles, Brinkmann form.

The rescaling map phi(x) = (x0, w^2 x1, w x2, ..., w x_{n-1}) pulls the
metric back onto a shrinking tube around the ray x1 = ... = 0; dividing
by w^2 gives a family g_w whose w -> 0 limit keeps only the transverse
block h(x0) evaluated on the ray.  The limit metric is a plane wave; in
Brinkmann form its profile matrix A(u) is recovered from the vielbein
M(u) = h^{-1/2}(u) O(u), where the rotation O absorbs the symmetry
condition.  E = M^{-1} solves E'' = A E (the roundtrip check
integrates it), with A in closed form from the exact triple (h, h', h'').

The limit reads that triple off one jet along the ray, and evaluates it
on a whole grid of u at once (a batched jet, one lane per u): the
positivity grid, each refinement level of the O-equation, the vielbein
conditions and the CSV rows.  The O-equation O' = -W(u) O is linear and
its coefficient depends on u only, so it needs no sequential integrator:
independent Gauss collocation propagators per panel (`ode._gauss_step`,
which the quotient holonomy's transport shares), bisected level by
level, take W on every node of a level from one batched jet, and O(u) on
a grid is one partial Gauss step per u from its panel's edge, batched
with the grid.  The same batches find the walls where h loses
positivity: each level's points, and on the first level a wall scan of
each side, are walked outward from u0.  Only the base point h(u0) and
the root polishing of a wall take one u at a time.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

from . import jets, ode
from .connection import as_vector_field
from .errors import ChartError, SignatureError, SolverError
from .lagrangian import Lagrangian, QuadraticLagrangian
from .ode import _GL_C, _gauss_step
from .ppwave import dips, lightlike_form_check, touch_root
from .report import Report, csv_text
from .tensors import fundamental_tensor

__all__ = [
    "RosenProfile", "BrinkmannProfile", "PenroseLimitResult",
    "rescaled_lagrangian", "homothety_residual", "penrose_limit",
    "rosen_to_brinkmann", "brinkmann_roundtrip", "plane_wave_lagrangian",
]

# rtol and atol of the roundtrip's `ode.dop853` integration of E'' = A E
_ODE_TOL = 1e-12


# -- rescaling ---------------------------------------------------------------

def _jacobian_diag(n, omega):
    j = [1.0, omega * omega] + [omega] * (n - 2)
    return np.array(j)


def rescaled_lagrangian(L, omega):
    """The pulled-back model L_w(x, v) = w^{-2} L(phi(x), Dphi v).

    The constant w^{-2} factor does not move the Levi-Civita/Chern
    connection, so L_w carries the connection of the plain pullback
    L(phi(x), Dphi v): that is the homothety statement the tests quantify.
    """
    omega = float(omega)
    if not 0.0 < omega <= 1.0:
        raise SolverError("omega must lie in (0, 1], got %g" % omega)
    n = L.dim
    jd = _jacobian_diag(n, omega)
    factor = 1.0 / (omega * omega)

    def func(x, v):
        xm = [x[0]] + [jd[k] * x[k] for k in range(1, n)]
        vm = [jd[k] * v[k] for k in range(n)]
        return factor * L(xm, vm)

    def cone_ref(x):
        xm = [float(x[0])] + [jd[k] * float(x[k]) for k in range(1, n)]
        return L.cone_ref_at(xm) / jd

    name = "%s@omega=%g" % (getattr(L, "name", "model"), omega)
    return Lagrangian(func, n, cone_ref, name=name)


def homothety_residual(L, N, omega, samples, tol=1e-9):
    """Compare the pullback of g_N with w^2 g_w componentwise.

    The left side contracts g at the mapped point with the rescaling
    Jacobian; the right side asks the rescaled Lagrangian for its own
    fundamental tensor.  The relation is algebraic, so the target
    tolerance is essentially machine precision.  N must be a constant
    chart vector.  The report holds one "homothety" row per sample,
    written from the residual column of `_omega_row`: one stacked
    `fundamental_tensor` per side, which gives each sample the bits of
    its own evaluation; a failing sample raises with its point named
    (`jets.in_blocks`).  The meta keeps the diagonal rescaling Jacobian.
    """
    if not isinstance(N, (list, tuple, np.ndarray)):
        raise ChartError("homothety check expects the constant chart field "
                         "N = e0")
    jd = _jacobian_diag(L.dim, float(omega))
    rep = Report(title="homothety",
                 meta={"model": getattr(L, "name", "?"),
                       "omega": float(omega),
                       "jacobian": [float(a) for a in jd]})
    rep.add_samples(["homothety"], _omega_row(L, N, omega, samples, ())[0],
                    tol)
    return rep


def _omega_row(L, nvec, omega, samples, us):
    """The Omega table's row at ``omega``: the (k,) column of homothety
    residuals at the k ``samples``, and the off-block row on the ray
    points x0 = ``us`` (None without them): the largest |g_w| on
    (e1, e_a), a >= 2, and on (e1, e1), at the constant vector ``nvec``.
    L_w is built once, and one stacked `fundamental_tensor` of it takes
    the samples and the ray points together, each lane the bits of its
    own evaluation.  The caller checks the column against its tolerance,
    so a NaN residual fails there."""
    nvec = np.asarray(nvec, dtype=float)
    n = L.dim
    jd = _jacobian_diag(n, float(omega))
    Lw = rescaled_lagrangian(L, omega)
    ps = np.asarray(samples, dtype=float).reshape(-1, n)
    k = len(ps)
    pms = ps * jd
    pms[:, 0] = ps[:, 0]
    ones = np.ones((k, 1))
    gs = fundamental_tensor(L, pms, ones * nvec)
    ray = np.zeros((len(us), n))
    ray[:, 0] = us
    gws = fundamental_tensor(
        Lw, np.concatenate([ps, ray]),
        np.concatenate([ones * (nvec / jd), np.ones((len(us), 1)) * nvec]))
    lhs = np.outer(jd, jd) * gs
    scale = np.maximum(1.0, np.max(np.abs(lhs), axis=(1, 2)))
    res = np.max(np.abs(lhs - omega ** 2 * gws[:k]), axis=(1, 2)) / scale
    if not len(us):
        return res, None
    gw = gws[k:]
    return res, {"omega": float(omega),
                 "g1a": float(np.max(np.abs(gw[:, 1, 2:]))),
                 "g11": float(np.max(np.abs(gw[:, 1, 1])))}


# -- profiles ------------------------------------------------------------------

@dataclass
class RosenProfile:
    """Transverse block u -> (h, h', h''), h positive definite where valid.

    ``h`` maps one u to the triple.  `triples` evaluates a grid of u; here
    it stacks one ``h`` call per u, and a profile that can evaluate a
    whole grid at once (the ray profile of `penrose_limit`) overrides it.
    """

    h: object
    dim: int = 2

    def triple(self, u):
        return tuple(np.asarray(t, dtype=float) for t in self.h(float(u)))

    def triples(self, us):
        """(h, h', h'') on the grid ``us``, each of shape (len(us), dim, dim)."""
        rows = [self.triple(u) for u in us]
        return tuple(np.array([r[k] for r in rows]) for k in range(3))

    def matrix(self, u):
        return np.asarray(self.h(float(u))[0], dtype=float)


class _RayProfile(RosenProfile):
    """The limit block h(u) of ``L`` along the ray x = (u, 0, ..., 0).

    One grouped jet in u and the transverse fiber generators v2, ...,
    v_{n-1}, each to second order, gives (h, h', h'') as -1/2 of the
    partials d2/dv_a dv_b, d/du and d2/du2 of them (18 terms for n = 4).
    v0 and v1 enter as plain numbers: no partial read here involves them.
    `triples` seeds one lane per u, and each lane is bitwise the scalar
    triple.
    """

    def __init__(self, L, nvec):
        super().__init__(h=self._evaluate, dim=L.dim - 2)
        self._L = L
        self._nvec = [float(t) for t in nvec]

    def _evaluate(self, u):
        n = self.dim + 2
        if np.ndim(u) == 0:
            values = [u] + self._nvec[2:]
        else:
            values = np.empty((len(u), n - 1))
            values[:, 0] = u
            values[:, 1:] = self._nvec[2:]
        _, seeds = jets.variables(values, 4, (0,) + (1,) * (n - 2), (2, 2))
        w = jets._call(self._L, [seeds[0]] + [0.0] * (n - 1),
                       self._nvec[:2] + seeds[1:])
        if not isinstance(w, jets.Jet):   # no fiber term: h vanishes
            return (np.zeros(np.shape(u) + (self.dim, self.dim)),) * 3
        slots = range(n - 1)   # u, v2, ..., v_{n-1}
        return (-0.5 * jets.derivative_tensor(w, slots, 2)[..., 1:, 1:],
                -0.5 * jets.derivative_tensor(w, slots, 3)[..., 0, 1:, 1:],
                -0.5 * jets.derivative_tensor(w, slots, 4)[..., 0, 0, 1:, 1:])

    def triples(self, us):
        return self._evaluate(np.asarray(us, dtype=float))


@dataclass
class BrinkmannProfile:
    """Vielbein M(u) = h^{-1/2} O and wave profile A(u) with
    H(u, x) = x^T A(u) x, built by `rosen_to_brinkmann` from Gauss panel
    propagators.

    ``sides`` holds, for u0 -> lower end and u0 -> upper end, the panel
    edges outward from u0 and O at each edge.  O(u) is one partial Gauss
    step from the edge of u's panel nearer u0, so a grid costs one
    `RosenProfile.triples` call over its rows and their partial-step
    nodes, and one stacked `_sqrt_derivs`: `vielbein_on` gives h and M
    on a grid, `fields_on` gives (h, M, A) per row.
    """

    rosen: RosenProfile
    u0: float
    u_interval: tuple
    sides: list
    truncated: bool = False
    reason: str = ""

    def _frames(self, us):
        """h, h', S^{-1}, S', S'' and O on the grid ``us``, stacked."""
        us = np.asarray(us, dtype=float)
        k = len(us)
        edge = np.empty(k)
        o_edge = np.empty((k, self.rosen.dim, self.rosen.dim))
        for lower, (edges, rots) in zip((True, False), self.sides):
            on = us < self.u0 if lower else us >= self.u0
            dist = np.abs(edges - self.u0)
            p = np.searchsorted(dist, np.abs(us[on] - self.u0), "right") - 1
            p = np.minimum(p, max(len(edges) - 2, 0))
            edge[on] = edges[p]
            o_edge[on] = rots[p]
        step = us - edge
        grid = np.concatenate([us, (edge[:, None]
                                    + _GL_C * step[:, None]).ravel()])
        h, hd, hdd = self.rosen.triples(grid)
        sinv, sd, sdd = _sqrt_derivs(*_eigh_positive(grid, h), hd, hdd)
        w = _skew(sinv[k:] @ sd[k:]).reshape(k, len(_GL_C), *h.shape[1:])
        o = _gauss_step(w, step) @ o_edge
        return h[:k], hd[:k], sinv[:k], sd[:k], sdd[:k], o

    def vielbein_on(self, us):
        """h and M on the grid ``us``, each stacked (len(us), m, m)."""
        h, _, sinv, _, _, o = self._frames(us)
        return h, sinv @ o

    def fields_on(self, us):
        """[(h, M, A) at u for u in us].

        A is the symmetric part of O^T (W W + W' + (2 W S' + S'') S^-1) O.
        W' is skew, and so is O^T W' O, so W' drops out of A and is not
        formed.
        """
        h, _, sinv, sd, sdd, o = self._frames(us)
        w = _skew(sinv @ sd)
        a = (np.swapaxes(o, -1, -2)
             @ (w @ w + (2.0 * (w @ sd) + sdd) @ sinv) @ o)
        return list(zip(h, sinv @ o, 0.5 * (a + np.swapaxes(a, -1, -2))))

    def A(self, u):
        return self.fields_on([u])[0][2]

    def M(self, u):
        return self.vielbein_on([u])[1][0]

    def m_conditions(self, us, tol=1e-8):
        """The displayed vielbein conditions over a parameter grid, and
        the derivative of the first.

        M' is a fourth-order central difference, kept on purpose as a check
        independent of the O-equation; the grid and the four stencil points
        of each u are evaluated as one `_frames` batch.  The symmetry
        condition, M^T h M' symmetric, holds for any multiple of M'; the
        derivative of M^T h M = identity, M'^T h M + M^T h' M + M^T h M'
        = 0, holds only for M' itself.  Its h' comes from the same batch's
        `RosenProfile.triples`, not from the O-equation.
        """
        us = np.asarray(us, dtype=float)
        step = 1e-5 * (1.0 + np.abs(us))
        k = len(us)
        h, hd, sinv, _, _, o = self._frames(np.concatenate(
            [us, us + step, us - step, us + 2 * step, us - 2 * step]))
        m = sinv @ o
        step = step[:, None, None]
        d1 = (m[k:2 * k] - m[2 * k:3 * k]) / (2.0 * step)
        d2 = (m[3 * k:4 * k] - m[4 * k:]) / (4.0 * step)
        md = (4.0 * d1 - d2) / 3.0
        mt = np.swapaxes(m[:k], -1, -2)
        s = mt @ h[:k] @ md
        st = np.swapaxes(s, -1, -2)
        rep = Report(title="m-conditions",
                     meta={"u0": self.u0,
                           "u_interval": [float(a) for a in self.u_interval]})
        rep.add("M^T h M = identity", float(np.max(np.abs(
            mt @ h[:k] @ m[:k] - np.eye(self.rosen.dim)))), tol)
        rep.add("symmetry condition", float(np.max(np.abs(s - st))), tol)
        rep.add("d/du (M^T h M) = 0",
                float(np.max(np.abs(st + mt @ hd[:k] @ m[:k] + s))), tol)
        return rep


@dataclass
class PenroseLimitResult:
    """Rosen and Brinkmann descriptions of the limit plus the Omega table."""

    rosen: RosenProfile
    brinkmann: BrinkmannProfile
    homothety_residuals: list = field(default_factory=list)
    offblock: list = field(default_factory=list)

    def to_csv(self, us):
        """CSV of u and the flattened h, M and A at each u of ``us``."""
        m = self.rosen.dim
        cols = (["u"]
                + ["h%d%d" % (i, j) for i in range(m) for j in range(m)]
                + ["M%d%d" % (i, j) for i in range(m) for j in range(m)]
                + ["A%d%d" % (i, j) for i in range(m) for j in range(m)])
        rows = (np.concatenate([[u]] + [np.ravel(t) for t in f])
                for u, f in zip(us, self.brinkmann.fields_on(us)))
        return csv_text(cols, rows)


# -- numerics helpers -----------------------------------------------------------

def _eigh_positive(us, h):
    """eigh of the stack ``h``, which must be positive definite at every u."""
    lam, q = np.linalg.eigh(h)
    bad = lam[:, 0] <= 0.0
    if bad.any():
        raise SignatureError("h is not positive definite at u=%g"
                             % us[np.argmax(bad)])
    return lam, q


def _sqrt_derivs(lam, q, hd, hdd=None):
    """S^{-1}, S' and, given h'', S'' for S = h^{1/2} on a stack, from the
    eigen-decomposition (lam, q) of h: SS = h differentiated twice gives
    Sylvester equations, which are diagonal in the eigenbasis of h."""
    sig = np.sqrt(lam)
    den = sig[:, :, None] + sig[:, None, :]
    qt = np.swapaxes(q, -1, -2)
    sd = (qt @ hd @ q) / den
    out = ((q / sig[:, None, :]) @ qt, q @ sd @ qt)
    if hdd is None:
        return out
    sdd = (qt @ hdd @ q - 2.0 * (sd @ sd)) / den
    return out + (q @ sdd @ qt,)


def _skew(k):
    return 0.5 * (k - np.swapaxes(k, -1, -2))


# a panel's propagator is accepted when it agrees with the product of its
# two halves to this (absolute, entrywise) tolerance; the halves are kept
_PANEL_TOL = 1e-10
# panels pending at one level before the O-equation gives up: this
# bounds a level's batch (8 lanes a panel), and ends a refinement that
# never converges (W not finite)
_MAX_PANELS = 1024


def _propagate(rosen, u0, targets, first_wall):
    """Gauss panels (a, b, Phi) from u0 out to each of the two
    ``targets``, and the wall of each side (None where h stays positive).

    Every pending panel is compared with the product of its halves, level
    by level, and each level evaluates W on all nodes of all pending
    panels at once.  The first level also evaluates a 128-point scan of
    each side: a diagonal h gives W = 0, so one panel can span a dip of
    positivity.  `first_wall` walks each side's points of a level outward
    from u0, given the smallest eigenvalue of h at each; a wall it finds
    truncates its side there, and that side starts over from the one
    panel (u0, wall) at the next level, while the other side's panels go
    on from the nodes this level evaluated.
    """
    m = rosen.dim
    walls = [None, None]
    pending = [(u0, e, None) for e in targets if e != u0]
    scans = [np.linspace(u0, e, 129)[1:] for e in targets if e != u0]
    done = []
    while pending:
        if len(pending) > _MAX_PANELS:
            raise SolverError("the O-equation needs more than %d panels "
                              "at one refinement level" % _MAX_PANELS)
        steps = []
        for a, b, phi in pending:
            mid = 0.5 * (a + b)
            steps += [(a, b)] * (phi is None) + [(a, mid), (mid, b)]
        starts, stops = np.array(steps).T
        span = stops - starts
        nodes = (starts[:, None] + _GL_C * span[:, None]).ravel()
        points = np.concatenate([nodes] + scans)
        scans = []
        h, hd, _ = rosen.triples(points)
        lam, q = np.linalg.eigh(h)
        cut = [False, False]
        for side, upper in enumerate((False, True)):
            on = (points > u0) == upper
            order = np.argsort(np.abs(points[on] - u0))
            wall = first_wall(points[on][order], lam[on, 0][order])
            if wall is not None:
                cut[side] = True
                walls[side] = wall
                done = [p for p in done if (p[1] > p[0]) != upper]
        # the steps of an uncut side go on from this level's nodes; a cut
        # side starts over from its fresh panel (u0, wall)
        live = ~np.array(cut)[(stops > starts).astype(int)]
        k = len(nodes)
        at = np.repeat(live, len(_GL_C))
        sinv, sd = _sqrt_derivs(lam[:k][at], q[:k][at], hd[:k][at])
        phis = iter(_gauss_step(
            _skew(sinv @ sd).reshape(-1, len(_GL_C), m, m), span[live]))
        split = []
        for a, b, phi in pending:
            if cut[int(b > a)]:
                continue
            mid = 0.5 * (a + b)
            phi = next(phis) if phi is None else phi
            left, right = next(phis), next(phis)
            halves = [(a, mid, left), (mid, b, right)]
            if np.max(np.abs(phi - right @ left)) <= _PANEL_TOL:
                done += halves
            else:
                split += halves
        pending = split + [(u0, walls[side], None)
                           for side in (0, 1) if cut[side]]
    return done, walls


# -- Rosen -> Brinkmann -----------------------------------------------------------

def rosen_to_brinkmann(rosen, u0, u_interval):
    """Construct the vielbein M = h^{-1/2} O and the profile A(u).

    ``rosen`` is a `RosenProfile` or a callable u -> (h, h', h'').  With
    S = h^{1/2} and W = skew(S^{-1} S'), O' = -W O with O(u0) = identity
    makes M^T h M' symmetric, and E = M^{-1} solves E'' = A E with
    A = O^T (W^2 + W' + (2 W S' + S'') S^{-1}) O.

    The O-equation is linear with a coefficient that depends on u only,
    so it is solved by independent panel propagators: one 4-stage Gauss
    collocation step (order 8) per panel, bisected where a panel disagrees
    with its two halves by more than `_PANEL_TOL`.  Each bisection level
    evaluates W on all its nodes through one `RosenProfile.triples` call,
    and O at a panel edge is the ordered product of the propagators.
    Gauss collocation keeps O orthogonal to roundoff.

    Positivity means that the smallest eigenvalue of h clears a floor of
    1e-8 times the scale of h(u0).  A base point below the floor raises
    `SignatureError`; if h falls to it inside the interval, the result is
    truncated there and flagged.  Each refinement level walks its nodes,
    and the first level also a 128-point scan of each side, outward from
    u0: the wall is where `ode.brent` finds the margin's zero between the
    first point at or below the floor and the point before it.  A dip of
    the margin that stays above the points (`ppwave.dips`) is the
    `touch_root` of the margin's exact slope q^T h' q (q the eigenvector
    of the smallest eigenvalue of h), the search that also polishes the
    tangential focal roots of `ppwave.delta_scan`.
    """
    if not isinstance(rosen, RosenProfile):
        rosen = RosenProfile(h=rosen)
    m = rosen.dim
    u0 = float(u0)

    h0 = rosen.matrix(u0)
    floor = 1e-8 * max(1.0, float(np.max(np.abs(h0))))
    low0 = float(np.min(np.linalg.eigvalsh(h0)))
    if low0 <= floor:
        raise SignatureError("h is not positive definite at u0=%.12g: its "
                             "smallest eigenvalue %.6g does not clear the "
                             "floor %.6g" % (u0, low0, floor))
    ceiling = 0.25 * max(low0 - floor, 1e-3)

    def pos_margin(u):
        return float(np.min(np.linalg.eigvalsh(rosen.matrix(u)))) - floor

    def margin_slope(u):
        # q^T h' q, q the unit eigenvector of the smallest eigenvalue of h
        h, hd, _ = rosen.triple(u)
        q = np.linalg.eigh(h)[1][:, 0]
        return float(q @ hd @ q)

    def first_wall(ray, lows):
        """The first loss of positivity along ``ray``, sorted outward
        from u0 with the smallest eigenvalue ``lows`` of h at each point,
        or None."""
        us = np.concatenate([[u0], ray])
        margins = np.concatenate([[low0 - floor], lows - floor])
        below = np.flatnonzero(margins <= 0.0)
        stop = below[0] if len(below) else len(us)
        for i in dips(margins[:stop], ceiling):
            lo, hi = sorted((float(us[i - 1]), float(us[i + 1])))
            r = touch_root(pos_margin, margin_slope, lo, hi, 0.0, 1e-12)
            if r is not None:   # the dip's bottom is the first bad point
                stop, us[i] = i, r
                break
        if stop == len(us):
            return None
        a, b = sorted((float(us[stop - 1]), float(us[stop])))
        return ode.brent(pos_margin, a, b, 1e-12)

    targets = [float(u_interval[0]), float(u_interval[1])]
    panels, walls = _propagate(rosen, u0, targets, first_wall)
    ends = [t if w is None else w for t, w in zip(targets, walls)]
    truncated = any(w is not None for w in walls)
    reason = ""
    if truncated:
        where = ", ".join("u=%.12g" % w for w in walls if w is not None)
        reason = "h lost positivity at %s (focal point)" % where

    sides = []
    for upper in (False, True):
        side = sorted((p for p in panels if (p[1] > p[0]) == upper),
                      key=lambda p: abs(p[0] - u0))
        rots = [np.eye(m)]
        for _, _, phi in side:
            rots.append(phi @ rots[-1])
        sides.append((np.array([u0] + [p[1] for p in side]),
                      np.array(rots)))

    return BrinkmannProfile(rosen, u0, (ends[0], ends[1]), sides, truncated,
                            reason)


def brinkmann_roundtrip(A, u_interval, tol=1e-6):
    """Integrate E'' = A E, rebuild h = E^T E, convert back, compare.

    E starts as the identity at the interval's midpoint u0, and each side
    of u0 is one `ode.dop853` integration at `_ODE_TOL` that stops where
    det E falls to 1e-8.  The recovered profile must match the input to
    ``tol`` on 21 points wherever the vielbein E stays invertible; a
    degenerating E (focal point) truncates the comparison interval
    instead of failing.
    """
    lo, hi = float(u_interval[0]), float(u_interval[1])
    u0 = 0.5 * (lo + hi)
    m = np.asarray(A(u0), dtype=float).shape[0]

    def rhs(u, y):
        e = y[:m * m].reshape(m, m)
        ed = y[m * m:].reshape(m, m)
        return np.concatenate([ed.ravel(),
                               (np.asarray(A(u), float) @ e).ravel()])

    def degenerate(u, y):
        # det E falls from 1 and crosses 1e-8 just before a focal point;
        # |det E| - 1e-8 would change sign only in a window too narrow for
        # any step end to land in
        e = y[:m * m].reshape(m, m)
        return float(np.linalg.det(e)) - 1e-8

    y0 = np.concatenate([np.eye(m).ravel(), np.zeros(m * m)])
    # per side of u0: the dense state, the end reached, the event or None
    sols, reached, hit = [None, None], [u0, u0], [None, None]
    for side, target in ((0, lo), (1, hi)):
        if (target - u0) * (1 if side else -1) <= 0.0:
            continue
        sol = ode.dop853(rhs, (u0, target), y0, _ODE_TOL, event=degenerate)
        if not sol.success:
            raise SolverError("profile integration failed: %s" % sol.message)
        sols[side] = sol.sol
        reached[side] = float(sol.t[-1])
        if sol.status == 1:
            hit[side] = reached[side]

    def h_triple(u):
        sol = sols[1] if u >= u0 else sols[0]
        if sol is None:
            raise SolverError("parameter %g outside the integrated range"
                              % u)
        e, ed = sol(u).reshape(2, m, m)
        a = np.asarray(A(u), dtype=float)
        return (e.T @ e, ed.T @ e + e.T @ ed,
                2.0 * (ed.T @ ed) + e.T @ (a + a.T) @ e)

    profile = rosen_to_brinkmann(RosenProfile(h=h_triple, dim=m), u0,
                                 (reached[0], reached[1]))
    glo, ghi = profile.u_interval
    # back well off a truncated edge: h = E^T E is nearly singular next
    # to a focal point, and S^{-1} amplifies the integration error there
    width = ghi - glo
    cut = [hit[0] is not None or glo > reached[0] + 1e-12,
           hit[1] is not None or ghi < reached[1] - 1e-12]
    pads = [(0.05 if cut[k] else 1e-3) * width for k in (0, 1)]
    grid = np.linspace(glo + pads[0], ghi - pads[1], 21)
    # a NaN recovered A propagates to the row and fails it
    worst = float(np.max(np.abs(
        np.array([f[2] for f in profile.fields_on(grid)])
        - np.array([np.asarray(A(u), dtype=float) for u in grid]))))
    rep = Report(title="brinkmann-roundtrip",
                 meta={"u0": float(u0),
                       "interval": [float(glo), float(ghi)],
                       "truncated": bool(profile.truncated
                                         or any(h is not None for h in hit))})
    rep.add("A recovered", worst, tol)
    return rep


# -- the limit ---------------------------------------------------------------------

def penrose_limit(L, N, u_interval, omegas=(0.5, 0.1), tol=1e-9):
    """Plane-wave limit along the ray x1 = ... = x_{n-1} = 0.

    The limit is evaluated analytically: transverse coordinates are set
    to zero and the Omega-weighted entries drop, leaving the transverse
    block h(x0).  The Omega table in the result quantifies the homothety
    relation at the requested values; the Rosen profile is converted to
    Brinkmann form on the same interval.  The chart template is checked
    at the ray's ends and midpoint in one stacked `lightlike_form_check`.
    Per omega, one row of the table (`_omega_row`) gives the homothety
    residual column at the samples and the off-block rows g_w(e1, .) on
    the ray, from one stacked `fundamental_tensor` of L at the mapped
    samples and one of L_w at the samples and the ray points together.
    The table keeps the column's largest residual and whether every
    residual is within ``tol``; a NaN residual is the largest and fails.
    """
    lo, hi = float(u_interval[0]), float(u_interval[1])
    n = L.dim
    nvec = as_vector_field(N)([0.0] * n)

    ends = np.zeros((3, n))
    ends[:, 0] = (lo, 0.5 * (lo + hi), hi)
    for p, chart in zip(ends, lightlike_form_check(L, nvec, ends)):
        if not chart.shape_ok:
            raise ChartError("chart template fails on the base ray at "
                             "x0=%g" % p[0])

    rosen = _RayProfile(L, nvec)
    grid = np.linspace(lo, hi, 41)
    posdef = np.all(np.linalg.eigvalsh(rosen.triples(grid)[0]) > 0.0, axis=1)
    if not posdef.all():
        raise SignatureError("limit metric degenerates on the base ray "
                             "at x0=%g (focal point)"
                             % grid[np.argmin(posdef)])

    resids = []
    offblock = []
    subgrid = np.linspace(lo, hi, 5)
    samples = [np.concatenate([[u], 0.25 * np.ones(n - 1)])
               for u in subgrid]
    for w in omegas:
        res, row = _omega_row(L, nvec, w, samples, subgrid)
        resids.append({"omega": float(w), "max_residual": float(np.max(res)),
                       "pass": bool(np.all(res <= tol))})
        offblock.append(row)

    u0 = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
    brink = rosen_to_brinkmann(rosen, u0, (lo, hi))
    return PenroseLimitResult(rosen=rosen, brinkmann=brink,
                              homothety_residuals=resids, offblock=offblock)


def plane_wave_lagrangian(A, u_interval):
    """Quadratic model of a plane wave from its profile matrix A(u).

    In this signature the du^2 slot carries -x^T A x (the vielbein
    satisfies E'' = A E while transverse geodesics obey x'' = -A x).
    A is sampled at 33 Chebyshev points onto a degree-24 interpolant so
    the model stays jet-evaluable even when A(u) comes from an ODE
    solution.
    """
    lo, hi = float(u_interval[0]), float(u_interval[1])
    nodes = chebyshev.chebpts1(33)
    us = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    vals = np.array([np.asarray(A(u), dtype=float) for u in us])
    m = vals.shape[1]
    scaled = (2.0 * (us - 0.5 * (lo + hi)) / (hi - lo))
    coeffs = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            coeffs[i, j] = chebyshev.chebfit(scaled, vals[:, i, j], 24)

    def entry(x):
        t = 2.0 * (x[1] - 0.5 * (lo + hi)) / (hi - lo)
        s = 0.0
        for i in range(m):
            for j in range(m):
                aij = chebyshev.chebval(t, coeffs[i, j])
                s = s - aij * x[2 + i] * x[2 + j]
        return s

    entries = {(0, 1): 1.0, (1, 1): entry}
    for a in range(m):
        entries[(2 + a, 2 + a)] = -1.0

    def cone_ref(x):
        hval = abs(float(entry([float(t) for t in x])))
        ref = np.zeros(m + 2)
        ref[0] = 1.0 + hval
        ref[1] = 1.0
        return ref

    return QuadraticLagrangian(entries, m + 2, cone_ref,
                               name="plane-wave-limit")
