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
(`brinkmann_oracle`).
"""

from dataclasses import dataclass, field

import numpy as np

from . import jets
from .connection import _field_jet, as_vector_field, christoffel
from .errors import ConfigError, SolverError
from .lagrangian import PROFILES
from .report import Report, csv_text
from .tensors import (fundamental_tensor, fundamental_tensor_on,
                      leading_minors)

__all__ = [
    "LightlikeChartReport", "DeltaCurve", "lightlike_form_check",
    "parallel_criterion", "delta_scan", "touch_root", "brinkmann_oracle",
]

DEGENERATE_KIND = "degenerate focal point, multiplicity >= 2"

# scale-relative tolerances of the chart template and the parallelism
# checks; root polish and tangential-touch acceptance of the focal scan
_CHART_TOL = 1e-9
_PARALLEL_TOL = 1e-8
_ROOT_XTOL = 1e-10
_TOUCH_TOL = 1e-12


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
    Report-style: a failing template is a result, not an error.
    """
    N = as_vector_field(N)
    x = np.asarray(x, dtype=float)
    n = L.dim
    nvec = np.asarray(N(x), dtype=float)
    g = fundamental_tensor(L, x, nvec).matrix
    scale = max(1.0, float(np.max(np.abs(g))))

    e0 = np.zeros(n)
    e0[0] = 1.0
    residuals = {"N-e0": float(np.max(np.abs(nvec - e0)))}
    residuals["g00"] = abs(float(g[0, 0]))
    residuals["g01"] = abs(float(g[0, 1]) - 1.0)
    for a in range(2, n):
        residuals["g0%d" % a] = abs(float(g[0, a]))
    shape_ok = max(residuals.values()) <= _CHART_TOL * scale

    h = -g[2:, 2:]
    minors = leading_minors(h).tolist()
    h_posdef = all(m > 0.0 for m in minors)
    return LightlikeChartReport(x=x, g=g, shape_ok=bool(shape_ok),
                                h_block=h, h_posdef=bool(h_posdef),
                                residuals=residuals, minors=minors,
                                tol=_CHART_TOL)


# -- parallelism criterion --------------------------------------------------

def parallel_criterion(L, N, region_samples):
    """x0-independence of g_N at the samples, cross-checked against nabla N.

    One Christoffel solve per sample serves both routes: the jet route
    reads the x0-derivative of g_N(x) = g(x, N(x)) from the solve's jet
    byproducts, the direct route contracts its symbols into nabla N.  Both
    must vanish for a parallel N, and they fail independently, which is
    the point of reporting them as separate checks.
    """
    N = as_vector_field(N)
    rep = Report(title="parallel-criterion",
                 meta={"model": getattr(L, "name", "?"), "samples": []})
    for idx, p in enumerate(region_samples):
        p = np.asarray(p, dtype=float)
        L.check_admissible(p, N(p))
        table = christoffel(L, N, p)
        gscale = max(1.0, float(np.max(np.abs(table.g))))
        d0 = float(np.max(np.abs(table.dmetric[0])))
        nab = table.jacobian + np.einsum("mil,l->im", table.gamma, table.v)
        par = float(np.max(np.abs(nab)))

        rep.add("sample %d: d0 g_N" % idx, d0, _PARALLEL_TOL * gscale)
        rep.add("sample %d: nabla N" % idx, par, _PARALLEL_TOL * gscale)
        rep.meta["samples"].append({
            "x": [float(t) for t in p],
            "d0_gN": d0,
            "nabla_N": par,
        })
    return rep


# -- focal scan --------------------------------------------------------------

def touch_root(f, slope, a, b, touch, xtol):
    """A tangential zero of ``f`` on [a, b] from its exact ``slope``.

    Where the slope turns from negative at a to positive at b, its
    `brentq` root r (to ``xtol``) is the bottom of the dip of f; r is
    returned if f(r) <= ``touch``, and None otherwise or if the slope
    does not turn.  The focal scan polishes the even-order zeros of
    det h with it, and `penrose.rosen_to_brinkmann` the positivity walls
    of h that its scan steps over.
    """
    from scipy.optimize import brentq

    if not slope(a) < 0.0 < slope(b):
        return None
    r = float(brentq(slope, a, b, xtol=xtol))
    return r if f(r) <= touch else None


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
    two samples; positions between samples come from the cubic Hermite
    interpolant of (x, v), which returns the samples themselves at the
    knots, so the metrics there are one `fundamental_tensor_on` call, with
    stacked determinants and minors.  Sign changes of det h are polished
    with `brentq`.  Tangential (even-order) zeros, which no sign-change
    bracket sees, are `touch_root` roots of the exact slope of det h
    across its dips, accepted when det h there is under 1e-12 times the
    det-h scale.
    """
    from scipy.interpolate import CubicHermiteSpline
    from scipy.optimize import brentq

    N = as_vector_field(N)
    ts = np.asarray(ray.t, dtype=float)
    if len(ts) < 2:
        raise SolverError("focal scan needs a ray with at least 2 samples, "
                          "got %d" % len(ts))
    spline = CubicHermiteSpline(ts, np.asarray(ray.x, float),
                                np.asarray(ray.v, float), axis=0)
    velocity = spline.derivative()

    def det_h(t):
        p = spline(float(t))
        g = fundamental_tensor(L, p, np.asarray(N(p), dtype=float)).matrix
        return float(np.linalg.det(-g[2:, 2:]))

    def det_h_slope(t):
        # sum_k det(h with row k replaced by h'), h' = -(x' . D)[2:, 2:]
        p = spline(float(t))
        g, _, D = _field_jet(L, p, N(p), N.jacobian(p))
        h = -g[2:, 2:]
        hd = -np.einsum("i,ijk->jk", velocity(float(t)), D)[2:, 2:]
        total = 0.0
        for k in range(len(h)):
            hk = h.copy()
            hk[k] = hd[k]
            total += float(np.linalg.det(hk))
        return total

    xs = np.asarray(ray.x, dtype=float)
    gs = fundamental_tensor_on(L, xs, [N(p) for p in xs])
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

    for i in range(m - 1):
        if dets[i] == 0.0:
            roots.append(float(ts[i]))
            left = dets[i - 1] if i > 0 else dets[i + 1]
            kinds.append("simple" if left * dets[i + 1] < 0.0
                         else DEGENERATE_KIND)
        elif dets[i] * dets[i + 1] < 0.0:
            r = brentq(det_h, ts[i], ts[i + 1], xtol=_ROOT_XTOL)
            roots.append(float(r))
            kinds.append("simple")

    for i in range(1, m - 1):
        if not (0.0 < dets[i] <= 0.1 * scale):
            continue
        if dets[i] > dets[i - 1] or dets[i] > dets[i + 1]:
            continue
        if dets[i - 1] <= 0.0 or dets[i + 1] <= 0.0:
            continue
        r = touch_root(det_h, det_h_slope, float(ts[i - 1]),
                       float(ts[i + 1]), _TOUCH_TOL * scale, _ROOT_XTOL)
        if r is not None:
            roots.append(r)
            kinds.append(DEGENERATE_KIND)

    order = np.argsort(roots)
    roots = [roots[k] for k in order]
    kinds = [kinds[k] for k in order]

    flagged = []
    i = 0
    while i < m:
        if not pos_ok[i]:
            j = i
            while j + 1 < m and not pos_ok[j + 1]:
                j += 1
            flagged.append((float(ts[i]), float(ts[j])))
            i = j + 1
        else:
            i += 1

    return DeltaCurve(params=ts, delta=delta, det_h=dets, delta4=delta4,
                      roots=roots, kinds=kinds, flagged=flagged)


# -- Brinkmann closed forms ---------------------------------------------------

def brinkmann_oracle(profile):
    """Closed-form Christoffel field of the quadratic wave models.

    Returns a callable x -> gamma[k, i, j] with the only nonzero symbols

        gamma^0_11 = H_u/2,   gamma^0_1a = gamma^0_a1 = H_a/2,
        gamma^a_11 = H_a/2        (a = 2, 3),

    H-derivatives taken at (x1, x2, x3).  Note the raised transverse
    symbols: with the transverse metric block -I their sign matches the
    lowered derivative, which is what the Koszul solve produces.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ConfigError("unknown wave profile %r (have %s)"
                              % (profile, sorted(PROFILES))) from None

    def symbols(x):
        u, xx, yy = float(x[1]), float(x[2]), float(x[3])
        _, (uj, xj, yj) = jets.variables([u, xx, yy], 1)
        hu, hx, hy = jets.derivative_tensor(profile(uj, xj, yj), range(3), 1)
        gamma = np.zeros((4, 4, 4))
        gamma[0, 1, 1] = 0.5 * hu
        gamma[0, 1, 2] = gamma[0, 2, 1] = 0.5 * hx
        gamma[0, 1, 3] = gamma[0, 3, 1] = 0.5 * hy
        gamma[2, 1, 1] = 0.5 * hx
        gamma[3, 1, 1] = 0.5 * hy
        return gamma

    return symbols
