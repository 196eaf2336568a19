"""Named comparison models with closed-form behaviour.

Every builder returns a ready `Lagrangian` and takes only keyword
arguments, so the CLI can load them as plug-ins::

    {"type": "plugin", "params": {"module": "finsler.fixtures",
                                  "builder": "rosen_cos2"}}

The Rosen-type charts put the ray parameter first: coordinates
(x0, x1, x2, x3) with N = e0 lightlike and the transverse block
-h(x0) on the diagonal.  In these charts e0-lines are lightlike
geodesics, which is what the focal scan expects.
"""

import numpy as np

from . import jets
from .lagrangian import Lagrangian, QuadraticLagrangian

_REF = np.array([1.0, 1.0, 0.0, 0.0])


def rosen_diag(h2, h3, name="rosen"):
    """L = 2 v0 v1 - h2(x0) (v2)^2 - h3(x0) (v3)^2, named ``name``.

    ``h2`` and ``h3`` are jet-evaluable callables of the scalar x0.
    """
    entries = {
        (0, 1): 1.0,
        (2, 2): lambda x: -h2(x[0]),
        (3, 3): lambda x: -h3(x[0]),
    }
    return QuadraticLagrangian(entries, 4, _REF, name=name)


def rosen_flat():
    """Minkowski spacetime written in lightlike coordinates."""
    return rosen_diag(lambda u: 1.0, lambda u: 1.0, name="rosen-flat")


def rosen_cos2():
    """Plane wave with h = diag(cos^2 x0, 1); focal point at x0 = pi/2."""
    return rosen_diag(lambda u: jets.cos(u) ** 2, lambda u: 1.0,
                      name="rosen-cos2")


def rosen_exp():
    """Plane wave with h = diag(e^{2 x0}, e^{-2 x0}); no focal points."""
    return rosen_diag(lambda u: jets.exp(2.0 * u),
                      lambda u: jets.exp(-2.0 * u),
                      name="rosen-exp")


def rosen_cross(a=0.3):
    """The cos^2 wave plus smooth g_{1i} entries.

    The extra row is allowed by the lightlike chart template and must be
    discarded by the plane-wave limit.
    """
    entries = {
        (0, 1): 1.0,
        (1, 1): lambda x: a * jets.cos(x[0]),
        (1, 2): lambda x: a * jets.sin(x[0]),
        (1, 3): lambda x: 0.5 * a * jets.cos(2.0 * x[0]),
        (2, 2): lambda x: -jets.cos(x[0]) ** 2,
        (3, 3): -1.0,
    }
    return QuadraticLagrangian(entries, 4, _REF, name="rosen-cross")


def linear_wall(slope=1.0):
    """h2 = 1 - slope*x0 crosses zero at x0 = 1/slope: a clean chart
    breakdown with a sign change of det h."""
    return rosen_diag(lambda u: 1.0 - slope * u, lambda u: 1.0,
                      name="linear-wall")


def curved_null_control(k=1.0):
    """A parallel lightlike e0 whose transverse geometry is curved.

    L = 2 v0 v1 - cosh^2(k x2) (|v2|^2 + |v3|^2).  The metric is
    x0-independent, so e0 stays parallel, but the transverse surface has
    Gauss curvature -k^2 sech^4 != 0: the pp-wave curvature condition
    must fail.  Negative control throughout.
    """
    def w(x):
        return -jets.cosh(k * x[2]) ** 2

    entries = {(0, 1): 1.0, (2, 2): w, (3, 3): w}
    return QuadraticLagrangian(entries, 4, _REF, name="curved-null-control")


def conformal_bump(c=0.8):
    """A parallel lightlike e0 over a conformally flat transverse plane.

    L = 2 v0 v1 - e^{2 phi} (|v2|^2 + |v3|^2) with phi = c (x2)^2 (x3)^2.
    The transverse surface has Gauss curvature K = -e^{-2 phi} Delta phi,
    which depends on both x2 and x3, so by Gauss-Bonnet the quotient
    holonomy of a rectangle in the (x2, x3) plane is the rotation by
    theta = -(double integral of Delta phi dx2 dx3) in closed form.
    """
    def w(x):
        return -jets.exp(2.0 * c * x[2] ** 2 * x[3] ** 2)

    entries = {(0, 1): 1.0, (2, 2): w, (3, 3): w}
    return QuadraticLagrangian(entries, 4, _REF, name="conformal-bump")


def broken_parallel(eps=0.1):
    """g_22 drifts linearly in x0: the parallelism criterion fails with
    residual eps."""
    entries = {
        (0, 1): 1.0,
        (2, 2): lambda x: -(1.0 + eps * x[0]),
        (3, 3): -1.0,
    }
    return QuadraticLagrangian(entries, 4, _REF, name="broken-parallel")


def broken_homogeneity(eps=0.1):
    """Adds a cubic term in v so L is not 2-homogeneous (residual ~eps)."""
    def func(x, v):
        return 2.0 * v[0] * v[1] - v[2] * v[2] - v[3] * v[3] \
            + eps * v[2] ** 3

    return Lagrangian(func, 4, _REF, name="broken-homogeneity")


BUILDERS = {
    "rosen_flat": rosen_flat,
    "rosen_cos2": rosen_cos2,
    "rosen_exp": rosen_exp,
    "rosen_cross": rosen_cross,
    "linear_wall": linear_wall,
    "curved_null_control": curved_null_control,
    "conformal_bump": conformal_bump,
    "broken_parallel": broken_parallel,
    "broken_homogeneity": broken_homogeneity,
}
