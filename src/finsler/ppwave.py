"""Lightlike-chart certification and the transverse focal invariant.

A chart adapted to a lightlike N = e0 has, at reference N,

    g_N = [[0, 1, 0,   0  ],
           [1, *, *,   *  ],
           [0, *, -h       ],
           [0, *,      -h  ]]

with h positive definite.  This module checks that template entrywise
(`lightlike_form_check`), tests x0-independence of g_N against a direct
nabla-N computation (`parallel_criterion`), scans Delta = sqrt(det h)
along a ray for focal points (`delta_scan`), and carries the closed-form
Brinkmann symbol table used as a cross-module oracle
(`brinkmann_oracle`).  The criterion solves the symbols at all its
samples, and the scan g_N at all its ray samples, as one stack each.
"""

from dataclasses import dataclass, field

import numpy as np

from . import jets, ode
from .connection import _field_jet, _table, as_vector_field
from .errors import SolverError
from .lagrangian import wave_profile
from .report import Report, csv_text
from .tensors import fundamental_tensor, leading_minors

__all__ = [
    "LightlikeChartReport", "DeltaCurve", "lightlike_form_check", "dips",
    "parallel_criterion", "delta_scan", "touch_root", "brinkmann_oracle",
]

DEGENERATE_KIND = "degenerate focal point, multiplicity >= 2"

# scale-relative tolerances of the chart template and the parallelism
# checks; root polish, touch acceptance and end-zero slope of the scan
_CHART_TOL = 1e-9
_PARALLEL_TOL = 1e-8
_ROOT_XTOL = 1e-10
_TOUCH_TOL = 1e-12
_END_SLOPE_TOL = 1e-9


# -- chart template --------------------------------------------------------

@dataclass
class LightlikeChartReport:
    """Entrywise verdict of g_N(x) against the lightlike-chart template."""

    x: np.ndarray
    g: np.ndarray
    shape_ok: bool
    h_block: np.ndarray
    h_posdef: bool
    residuals: dict
    minors: list
    tol: float

    @property
    def passed(self):
        return bool(self.shape_ok and self.h_posdef)


def lightlike_form_check(L, N, x):
    """Compare g_N(x) with the adapted-chart template at N = e0.

    Only the first row is constrained (g_00 = 0, g_01 = 1, g_0i = 0);
    the g_1i row may be anything.  h is minus the transverse block and
    its positive definiteness is decided by leading principal minors.
    Report-style: a failing template is a result, not an error.  x is
    one point, or a (B, n) stack of points, which gives a list of B
    reports from one stacked `fundamental_tensor`, each the report of
    its point alone.
    """
    N = as_vector_field(N)
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    n = xs.shape[1]
    nvecs = N(xs)
    e0 = np.zeros(n)
    e0[0] = 1.0
    reps = []
    for p, nvec, g in zip(xs, nvecs, fundamental_tensor(L, xs, nvecs)):
        scale = max(1.0, float(np.max(np.abs(g))))
        residuals = {"N-e0": float(np.max(np.abs(nvec - e0)))}
        residuals["g00"] = abs(float(g[0, 0]))
        residuals["g01"] = abs(float(g[0, 1]) - 1.0)
        for a in range(2, n):
            residuals["g0%d" % a] = abs(float(g[0, a]))
        # a NaN residual propagates and fails the template
        shape_ok = np.max(list(residuals.values())) <= _CHART_TOL * scale

        h = -g[2:, 2:]
        minors = leading_minors(h).tolist()
        h_posdef = all(m > 0.0 for m in minors)
        reps.append(LightlikeChartReport(
            x=p, g=g, shape_ok=bool(shape_ok), h_block=h,
            h_posdef=bool(h_posdef), residuals=residuals, minors=minors,
            tol=_CHART_TOL))
    return reps if np.ndim(x) == 2 else reps[0]


# -- parallelism criterion --------------------------------------------------

def parallel_criterion(L, N, region_samples):
    """x0-independence of g_N at the samples, cross-checked against nabla N.

    One Christoffel solve per sample serves both routes: the jet route
    reads the x0-derivative of g_N(x) = g(x, N(x)) from the solve's jet
    byproducts, the direct route contracts its symbols into nabla N.  Both
    must vanish for a parallel N, and they fail independently, which is
    the point of reporting them as separate checks.  The samples are one
    stacked solve, each lane block gated at its pairs (p, N(p)) first.
    """
    N = as_vector_field(N)
    xs = np.array(region_samples, dtype=float).reshape(-1, L.dim)
    return _parallel_report(L, _table(L, xs, N(xs), N.jacobian(xs),
                                      gate=True))


def _parallel_report(L, table):
    """The `parallel_criterion` report from the stacked `ChristoffelTable`
    of N at the samples, every lane at once."""
    gscale = np.maximum(1.0, np.max(np.abs(table.g), axis=(-2, -1)))
    d0 = np.max(np.abs(table.dmetric[:, 0]), axis=(-2, -1))
    nab = table.jacobian + np.einsum("...mil,...l->...im", table.gamma,
                                     table.v)
    par = np.max(np.abs(nab), axis=(-2, -1))
    rep = Report(title="parallel-criterion",
                 meta={"model": getattr(L, "name", "?"), "samples": [
                     {"x": x, "d0_gN": a, "nabla_N": b} for x, a, b in
                     zip(table.x.tolist(), d0.tolist(), par.tolist())]})
    rep.add_samples(["d0 g_N", "nabla N"], np.stack([d0, par], axis=-1),
                    _PARALLEL_TOL * gscale[:, None])
    return rep


# -- focal scan --------------------------------------------------------------

def touch_root(f, slope, a, b, touch, xtol):
    """A tangential zero of ``f`` on [a, b] from its exact ``slope``.

    Where the slope turns from negative at a to positive at b, its
    `ode.brent` root r (to ``xtol``) is the bottom of the dip of f; r is
    returned if f(r) <= ``touch``, and None otherwise or if the slope
    does not turn.  [a, b] brackets one of the `dips` of the samples of
    f.  The focal scan polishes the even-order zeros of det h with it,
    and `penrose.rosen_to_brinkmann` the positivity walls of h that its
    sample points step over.
    """
    if not slope(a) < 0.0 < slope(b):
        return None
    r = ode.brent(slope, a, b, xtol)
    return r if f(r) <= touch else None


def dips(vals, ceiling):
    """Indices of the interior local minima v of the samples ``vals``
    with 0 < v <= ``ceiling``, the dips `touch_root` tests.  A minimum is
    no larger than either neighbour, so each sample of a flat bottom is
    one."""
    v = np.asarray(vals, dtype=float)
    mid = v[1:-1]
    keep = (0.0 < mid) & (mid <= ceiling) & (mid <= v[:-2]) & (mid <= v[2:])
    return np.flatnonzero(keep) + 1


@dataclass
class DeltaCurve:
    """Delta = sqrt(det h) along a ray, with located zeros.

    ``delta`` carries NaN where h has lost positivity (det h < 0); those
    parameter stretches are listed in ``flagged``.  ``delta4`` is the
    full-determinant variant sqrt(-det g_N), equal to ``delta`` wherever
    the chart template holds.
    """

    params: np.ndarray
    delta: np.ndarray
    det_h: np.ndarray
    delta4: np.ndarray
    roots: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    flagged: list = field(default_factory=list)

    def to_csv(self):
        return csv_text(["t", "delta", "det_h"], np.column_stack(
            [self.params, self.delta, self.det_h]))


def delta_scan(L, N, ray):
    """Scan Delta = sqrt(det h) along ``ray`` and locate its zeros.

    ``ray`` is a `GeodesicPath` (an integral curve of N) with at least
    two samples at strictly increasing times; positions and velocities
    between samples come from its dense solution ``ray.sol``, which is the
    samples themselves at their times, so the metrics there are one
    stacked `fundamental_tensor` call, with stacked determinants and
    minors.  Sign changes of det h are polished with `ode.brent`.  A
    sample with det h exactly zero is a root, simple where its neighbours
    have opposite signs; at the first or last sample, where |slope| times
    the ray's time span exceeds 1e-9 times the det-h scale max(1, |det h|).
    Tangential (even-order) zeros, which no sign-change bracket sees,
    are `touch_root` roots of the exact slope of det h across its `dips`
    (at most 0.1 times the det-h scale), accepted when det h there is
    under 1e-12 times that scale.  Other zeros are degenerate.
    """
    N = as_vector_field(N)
    ts = np.asarray(ray.t, dtype=float)
    if len(ts) < 2 or not np.all(ts[1:] > ts[:-1]):
        raise SolverError("focal scan needs a ray with at least 2 samples "
                          "at strictly increasing times, got t=%s"
                          % np.array2string(ts, threshold=6))

    def det_h(t):
        p = ray.sol(float(t))[:L.dim]
        g = fundamental_tensor(L, p, N(p))
        return float(np.linalg.det(-g[2:, 2:]))

    def det_h_slope(t):
        # sum_k det(h with row k replaced by h'), h' = -(x' . D)[2:, 2:]
        p, pd = np.split(ray.sol(float(t)), 2)
        g, _, D = _field_jet(L, p, N(p), N.jacobian(p))
        h = -g[2:, 2:]
        hd = -np.einsum("i,ijk->jk", pd, D)[2:, 2:]
        total = 0.0
        for k in range(len(h)):
            hk = h.copy()
            hk[k] = hd[k]
            total += float(np.linalg.det(hk))
        return total

    xs = np.asarray(ray.x, dtype=float)
    gs = fundamental_tensor(L, xs, N(xs))
    h = -gs[:, 2:, 2:]
    dets = np.linalg.det(h)
    delta = np.sqrt(np.where(dets >= 0.0, dets, np.nan))
    d4 = -np.linalg.det(gs)
    delta4 = np.sqrt(np.where(d4 >= 0.0, d4, np.nan))
    hscale = np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))
    pos_ok = np.all(leading_minors(h) > -1e-12 * hscale[:, None], axis=1)
    m = len(ts)

    scale = max(1.0, float(np.max(np.abs(dets))))
    roots = []
    kinds = []

    for i in range(m):
        if dets[i] == 0.0:
            roots.append(float(ts[i]))
            if 0 < i < m - 1:
                simple = dets[i - 1] * dets[i + 1] < 0.0
            else:
                simple = (abs(det_h_slope(ts[i])) * (ts[-1] - ts[0])
                          > _END_SLOPE_TOL * scale)
            kinds.append("simple" if simple else DEGENERATE_KIND)
        elif i < m - 1 and dets[i] * dets[i + 1] < 0.0:
            roots.append(ode.brent(det_h, ts[i], ts[i + 1], _ROOT_XTOL))
            kinds.append("simple")

    for i in dips(dets, 0.1 * scale):
        r = touch_root(det_h, det_h_slope, float(ts[i - 1]),
                       float(ts[i + 1]), _TOUCH_TOL * scale, _ROOT_XTOL)
        if r is not None:
            roots.append(r)
            kinds.append(DEGENERATE_KIND)

    order = np.argsort(roots)
    roots = [roots[k] for k in order]
    kinds = [kinds[k] for k in order]

    # the runs of samples where h is not positive, as (first, last) times
    edge = np.diff(np.concatenate([[0], ~pos_ok, [0]]).astype(np.int8))
    flagged = [(float(ts[a]), float(ts[b - 1])) for a, b in
               zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1))]

    return DeltaCurve(params=ts, delta=delta, det_h=dets, delta4=delta4,
                      roots=roots, kinds=kinds, flagged=flagged)


# -- Brinkmann closed forms ---------------------------------------------------

def brinkmann_oracle(profile):
    """Closed-form Christoffel field of the quadratic wave models.

    ``profile`` is a key of `PROFILES`, looked up by
    `lagrangian.wave_profile` as for `lagrangian.build_brinkmann_quadratic`.
    Returns a callable x -> gamma[k, i, j] with the only nonzero symbols

        gamma^0_11 = H_u/2,   gamma^0_1a = gamma^0_a1 = H_a/2,
        gamma^a_11 = H_a/2        (a = 2, 3),

    H-derivatives taken at (x1, x2, x3).  Note the raised transverse
    symbols: with the transverse metric block -I their sign matches the
    lowered derivative, which is what the Koszul solve produces.
    """
    H = wave_profile(profile)

    def symbols(x):
        u, xx, yy = float(x[1]), float(x[2]), float(x[3])
        _, (uj, xj, yj) = jets.variables([u, xx, yy], 1)
        hu, hx, hy = jets.derivative_tensor(H(uj, xj, yj), range(3), 1)
        gamma = np.zeros((4, 4, 4))
        gamma[0, 1, 1] = 0.5 * hu
        gamma[0, 1, 2] = gamma[0, 2, 1] = 0.5 * hx
        gamma[0, 1, 3] = gamma[0, 3, 1] = 0.5 * hy
        gamma[2, 1, 1] = 0.5 * hx
        gamma[3, 1, 1] = 0.5 * hy
        return gamma

    return symbols
