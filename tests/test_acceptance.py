"""End-to-end acceptance checks.

One test per headline guarantee of the package, each asserting its
stated tolerance.  Run with ``pytest -v tests/test_acceptance.py`` for a
one-line pass/fail verdict per guarantee.
"""

import time

import numpy as np

from finsler import fixtures, penrose, ppwave, quotient
from finsler import lagrangian as lg
from finsler.connection import (
    ScalarField,
    VectorField,
    christoffel,
    connection_report,
    geodesic,
    gradient,
    gradient_residual,
    levi_civita_quadratic,
)
from finsler.curvature import chern_curvature, ppwave_condition
from finsler.tensors import homogeneity_report
from helpers import cos2_triple, exp_triple, jacobi_first_zero

E0 = np.array([1.0, 0.0, 0.0, 0.0])
REPS = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
BRINKMANN_PROFILES = ("zero", "x2", "x2-y2", "uxy")


def test_acceptance_homogeneity_suite():
    # every catalog model, 100 random admissible states, <= 1e-9 relative
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for name, L in sorted(lg.catalog().items()):
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-0.9, 0.9, L.dim)
            v = L.sample_admissible(x, rng, count=1)[0]
            rep = homogeneity_report(L, x, v, tol=1e-9)
            worst = max(worst, max(c.residual for c in rep.checks))
        assert worst <= 1e-9, "%s homogeneity residual %.3e" % (name, worst)
    assert time.perf_counter() - start < 5.0


def test_acceptance_connection_suite():
    rng = np.random.default_rng(7)
    V = VectorField.constant(E0)
    for name, L in sorted(lg.catalog().items()):
        for _ in range(3):
            x = rng.uniform(-0.8, 0.8, L.dim)
            rep, table = connection_report(L, V, x)
            for check in rep.checks:
                assert check.residual <= 1e-8, "%s %s" % (name, check.name)
            if L.quadratic:
                lc = levi_civita_quadratic(L, x)
                assert np.max(np.abs(table.gamma - lc)) <= 1e-10, name
    # quadratic wave models match the closed-form symbol list
    for profile in BRINKMANN_PROFILES:
        L = lg.build_brinkmann_quadratic(profile)
        oracle = ppwave.brinkmann_oracle(profile)
        for _ in range(2):
            x = rng.uniform(-0.8, 0.8, 4)
            table = christoffel(L, V, x)
            assert np.max(np.abs(table.gamma - oracle(x))) <= 1e-9, profile


def test_acceptance_gradient_suite():
    # one solution from 8 seeds
    L = lg.catalog()["ppwave_example"]
    rng = np.random.default_rng(13)
    x = np.array([0.05, 0.3, -0.2, 0.1])
    f = ScalarField.linear([1.0, 0.4, 0.05, -0.02])
    base = gradient(L, f, x)
    assert gradient_residual(L, f, x, base) <= 1e-9
    for seed_vec in L.sample_admissible(x, rng, count=8):
        w = gradient(L, f, x, seed_vector=seed_vec)
        assert np.max(np.abs(w - base)) <= 1e-8

    # gradient flow of f = u on the wave chart is geodesic
    Lb = lg.build_brinkmann_quadratic("x2")
    fu = ScalarField.coordinate(1)

    def grad_at(x):
        return gradient(Lb, fu, np.asarray([float(t) for t in x]))

    def grad_jac(x):
        x = np.asarray(x, dtype=float)
        J = np.zeros((4, 4))
        for i in range(4):
            h = 1e-6 * (1.0 + abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            J[i] = (grad_at(xp) - grad_at(xm)) / (2.0 * h)
        return J

    W = VectorField(grad_at, jacobian_fn=grad_jac, name="grad-u")
    for x in ([0.2, 0.7, 0.9, -0.3], [0.0, -1.0, 0.4, 0.8]):
        x = np.array(x)
        w = grad_at(x)
        table = christoffel(Lb, W, x)
        nab = table.jacobian + np.einsum("mil,l->im", table.gamma, table.v)
        residual = float(np.linalg.norm(w @ nab))
        assert residual <= 1e-7
        # the flow conserves the (lightlike) norm of the gradient
        assert abs(Lb.value(x, w)) <= 1e-9


def test_acceptance_ppwave_condition():
    rng = np.random.default_rng(3)
    samples = [rng.uniform(-0.8, 0.8, 4) for _ in range(4)]
    for profile in BRINKMANN_PROFILES:
        L = lg.build_brinkmann_quadratic(profile)
        rep = ppwave_condition(L, E0, samples, tol_factor=1e-6)
        assert rep.passed, profile
    rep = ppwave_condition(lg.catalog()["ppwave_example"], E0, samples,
                           tol_factor=1e-6)
    assert rep.passed

    control = ppwave_condition(fixtures.curved_null_control(), E0, samples)
    worst = max(c.residual for c in control.checks
                if "curvature condition" in c.name)
    assert worst > 1e-3 * max(control.meta["curvature_scale"], 1.0)


def test_acceptance_focal_suite():
    L = fixtures.rosen_cos2()
    ray = geodesic(L, np.zeros(4), E0, (0.0, 2.2), n_samples=221)
    curve = ppwave.delta_scan(L, E0, ray)
    assert len(curve.roots) == 1
    assert abs(curve.roots[0] - np.pi / 2) <= 1e-8

    jacobi_zero = jacobi_first_zero(L, E0, ray)
    assert jacobi_zero is not None
    assert abs(jacobi_zero - curve.roots[0]) <= 1e-6

    both = np.isfinite(curve.delta) & np.isfinite(curve.delta4)
    assert np.any(both)
    assert np.max(np.abs(curve.delta[both] - curve.delta4[both])) <= 1e-10


def test_acceptance_quotient_suite():
    L = lg.build_brinkmann_quadratic("x2-y2")
    base = np.array([0.1, 0.2, 0.3, -0.4])
    frame = quotient.quotient_metric(L, E0, base, REPS)
    shifted = quotient.quotient_metric(L, E0, base,
                                       REPS + np.array([[2.0], [-1.5]]) * E0)
    assert np.max(np.abs(frame.gbar - shifted.gbar)) <= 1e-8

    loop = quotient.rectangle_loop(base, 1, 2, 0.1)
    d1 = quotient.holonomy_defect(L, E0, loop, REPS)
    d2 = quotient.holonomy_defect(L, E0, loop, REPS + 5.0 * E0)
    assert abs(d1 - d2) <= 1e-8

    # holonomy is flat on the wave models
    for profile in ("x2", "x2-y2"):
        Lw = lg.build_brinkmann_quadratic(profile)
        for plane in ((1, 2), (2, 3)):
            pts = quotient.rectangle_loop(base, plane[0], plane[1], 0.1)
            defect = quotient.holonomy_defect(Lw, E0, pts, REPS)
            assert defect <= 1e-7 * 0.01, (profile, plane)

    # and tracks the curvature on the control
    Lc = fixtures.curved_null_control()
    cbase = np.array([0.0, 0.0, 0.2, -0.1])
    side = 0.05
    defect = quotient.holonomy_defect(
        Lc, E0, quotient.rectangle_loop(cbase, 2, 3, side), REPS)
    cframe = quotient.quotient_metric(Lc, E0, cbase, REPS)
    R = chern_curvature(Lc, cbase, E0)
    C = np.column_stack([
        cframe.class_coords(R.apply(np.eye(4)[2], np.eye(4)[3],
                                    cframe.reps[b]))
        for b in range(2)
    ])
    predicted = float(np.linalg.norm(C, 2))
    assert abs(defect / side ** 2 - predicted) <= 0.1 * predicted


def test_acceptance_penrose_suite():
    L = fixtures.rosen_cross()
    samples = [[u, 0.25, 0.25, 0.25] for u in (-0.8, 0.0, 0.6)]
    for omega in (1.0, 0.5, 0.1):
        rep = penrose.homothety_residual(L, E0, omega, samples, tol=1e-9)
        assert rep.passed, "omega=%g" % omega

    res = penrose.penrose_limit(L, E0, (-1.0, 1.2))
    for u in np.linspace(-1.0, 1.2, 12):
        want = np.diag([np.cos(u) ** 2, 1.0])
        assert np.max(np.abs(res.rosen.matrix(u) - want)) == 0.0

    Lpw = penrose.plane_wave_lagrangian(res.brinkmann.A, (-1.0, 1.2))
    rng = np.random.default_rng(17)
    rep = ppwave_condition(Lpw, E0, [rng.uniform(-0.9, 0.9, 4)
                                     for _ in range(4)], tol_factor=1e-6)
    assert rep.passed


def test_acceptance_rosen_to_brinkmann():
    cos2 = penrose.RosenProfile(h=cos2_triple)
    bp = penrose.rosen_to_brinkmann(cos2, 0.0, (-1.3, 1.3))
    for u in np.linspace(-1.2, 1.2, 9):
        assert np.max(np.abs(bp.A(u) - np.diag([-1.0, 0.0]))) <= 1e-10
    assert bp.m_conditions(np.linspace(-1.2, 1.2, 9), tol=1e-8).passed

    expo = penrose.RosenProfile(h=exp_triple)
    be = penrose.rosen_to_brinkmann(expo, 0.0, (-1.0, 1.0))
    for u in np.linspace(-0.9, 0.9, 7):
        assert np.max(np.abs(be.A(u) - np.eye(2))) <= 1e-10
    assert be.m_conditions(np.linspace(-0.9, 0.9, 7), tol=1e-8).passed

    rep = penrose.brinkmann_roundtrip(lambda u: np.diag([-1.0, 0.0]),
                                      (-1.2, 1.2), tol=1e-10)
    assert rep.passed
