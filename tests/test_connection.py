"""Connection solver tests against hand-derived Christoffel oracles.

The closed-form symbol tables below are written out from the wave-model
metrics by hand (chart order v, u, x, y; transverse block negative), so the
Koszul solver is checked against an independent derivation, not against
itself.
"""

import io
from pathlib import Path

import numpy as np
import pytest

from finsler import jets
from finsler import connection, curvature, fixtures
from finsler.connection import (
    ScalarField,
    VectorField,
    _spray,
    christoffel,
    compatibility_residual,
    connection_report,
    geodesic,
    gradient,
    gradient_residual,
    hessian,
    koszul_residual,
    levi_civita_quadratic,
    parallel_extension,
    torsion_residual,
)
from finsler.curvature import chern_curvature
from finsler.errors import (
    ConeError,
    EvaluationError,
    NoGradientError,
    SignatureError,
    SolverError,
)
from finsler.lagrangian import (
    Lagrangian,
    QuadraticLagrangian,
    _default_parallel_example,
    _default_ppwave_example,
    build_brinkmann_quadratic,
    build_minkowski,
    catalog,
)
from finsler.cli import main
from finsler.report import fmt_float
from helpers import dense_koszul_solve, per_point_spray

ROOT = Path(__file__).resolve().parents[1]
RNG = np.random.default_rng(23)

E0 = np.array([1.0, 0.0, 0.0, 0.0])


def wave_vector_field():
    return VectorField.constant(E0)


# -- hand oracles ---------------------------------------------------------

def brinkmann_gamma_by_hand(profile, x):
    """Symbols of L = 2 v0 v1 + H (v1)^2 - (v2)^2 - (v3)^2, derived once
    by hand: the only nonzero entries are
      G^0_11 = H_u/2   G^0_12 = H_x/2   G^0_13 = H_y/2
      G^2_11 = H_x/2   G^3_11 = H_y/2
    with H_u, H_x, H_y the partials along x1, x2, x3."""
    u, xx, yy = x[1], x[2], x[3]
    if profile == "x2":
        hu, hx, hy = 0.0, 2.0 * xx, 0.0
    elif profile == "x2-y2":
        hu, hx, hy = 0.0, 2.0 * xx, -2.0 * yy
    elif profile == "uxy":
        hu, hx, hy = xx * yy, u * yy, u * xx
    else:
        raise ValueError(profile)
    g = np.zeros((4, 4, 4))
    g[0, 1, 1] = hu / 2.0
    g[0, 1, 2] = g[0, 2, 1] = hx / 2.0
    g[0, 1, 3] = g[0, 3, 1] = hy / 2.0
    g[2, 1, 1] = hx / 2.0
    g[3, 1, 1] = hy / 2.0
    return g


def rosen_like_model():
    """L = 2 v0 v1 - cos(u)^2 (v2)^2 - (v3)^2 with u = x1."""
    entries = {
        (0, 1): 1.0,
        (2, 2): lambda x: -jets.cos(x[1]) * jets.cos(x[1]),
        (3, 3): -1.0,
    }
    return QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0],
                               name="rosen-like")


def rosen_gamma_by_hand(x):
    """For h2(u) = cos(u)^2: G^0_22 = h2'/2, G^2_12 = h2'/(2 h2)."""
    u = x[1]
    h2p = -2.0 * np.sin(u) * np.cos(u)
    g = np.zeros((4, 4, 4))
    g[0, 2, 2] = h2p / 2.0
    g[2, 1, 2] = g[2, 2, 1] = h2p / (2.0 * np.cos(u) ** 2)
    return g


# -- christoffel ----------------------------------------------------------

@pytest.mark.parametrize("profile", ["x2", "x2-y2", "uxy"])
def test_brinkmann_christoffels_match_hand_table(profile):
    L = build_brinkmann_quadratic(profile)
    for x in ([0.3, 1.2, 1.5, -0.7], [0.0, -0.4, 0.8, 0.6]):
        t = christoffel(L, wave_vector_field(), np.array(x))
        expect = brinkmann_gamma_by_hand(profile, x)
        assert np.max(np.abs(t.gamma - expect)) <= 1e-9


def test_flat_models_have_zero_symbols():
    for L in (build_minkowski(), build_brinkmann_quadratic("zero")):
        t = christoffel(L, wave_vector_field(), np.array([0.1, 0.2, 0.3, 0.4]))
        assert np.max(np.abs(t.gamma)) == 0.0


def test_quadratic_koszul_equals_levi_civita():
    # dual route: the Koszul solver vs direct entry differentiation
    for L in (build_brinkmann_quadratic("uxy"), rosen_like_model()):
        for _ in range(4):
            x = RNG.uniform(-0.8, 0.8, 4)
            t = christoffel(L, VectorField.constant([1.0, 1.0, 0.1, 0.0]), x)
            lc = levi_civita_quadratic(L, x)
            assert np.max(np.abs(t.gamma - lc)) <= 1e-10


def test_rosen_like_christoffels_match_hand_table():
    L = rosen_like_model()
    for u in (0.3, -0.9, 1.1):
        x = np.array([0.2, u, 0.5, -0.1])
        t = christoffel(L, VectorField.constant([1.0, 1.0, 0.0, 0.0]), x)
        assert np.max(np.abs(t.gamma - rosen_gamma_by_hand(x))) <= 1e-9


def test_koszul_identities_on_finsler_models():
    for L in (_default_parallel_example(), _default_ppwave_example()):
        for _ in range(5):
            x = RNG.uniform(-0.5, 0.5, 4)
            v = L.sample_admissible(x, RNG)[0]
            t = christoffel(L, VectorField.constant(v), x)
            assert koszul_residual(t) <= 1e-8
            assert compatibility_residual(t) <= 1e-8
            assert torsion_residual(t) == 0.0


def test_torsion_residual_of_an_asymmetric_table():
    gamma = np.random.default_rng(8).uniform(-1.0, 1.0, (4, 4, 4))
    gamma[2, 1, 3] += 0.75        # Γ^2_13 != Γ^2_31 beyond the draw
    t = connection.ChristoffelTable(
        x=np.zeros(4), v=np.ones(4), gamma=gamma, g=np.eye(4),
        cartan=np.zeros((4, 4, 4)), dmetric=np.zeros((4, 4, 4)),
        jacobian=np.zeros((4, 4)), iterations=0, method="closed-form")
    want = np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1))))
    assert want > 0.5
    assert torsion_residual(t) == want


def test_symbols_intrinsic_in_the_reference_extension():
    # Chern symbols at x depend on V(x) only, not on the field's Jacobian
    L = _default_ppwave_example()
    x = np.array([0.1, 0.4, -0.2, 0.3])
    v = np.asarray(L.cone_ref_at(x))
    base = christoffel(L, VectorField.constant(v), x).gamma
    for _ in range(3):
        B = 0.5 * RNG.normal(size=(4, 4))
        t = christoffel(L, VectorField.linear(v, x, B), x)
        assert np.max(np.abs(t.gamma - base)) <= 1e-12


@pytest.mark.parametrize("name", sorted(catalog()))
def test_closed_form_solve_matches_dense_operator(monkeypatch, name):
    # every Koszul solve of christoffel and chern_curvature (Γ, and the
    # batched right-hand sides of ∂Γ) against the dense operator, under
    # constant and linear reference fields
    L = catalog()[name]
    solves = []

    def recording(ginv, C, v, R):
        X = solve(ginv, C, v, R)
        solves.append((np.linalg.inv(ginv), C, v, R, X))
        return X

    solve = connection._koszul_solve
    monkeypatch.setattr(connection, "_koszul_solve", recording)
    monkeypatch.setattr(curvature, "_koszul_solve", recording)
    rng = np.random.default_rng(41)
    for _ in range(2):
        x = rng.uniform(-0.4, 0.4, 4)
        v = L.sample_admissible(x, rng)[0]
        for V in (VectorField.constant(v),
                  VectorField.linear(v, x, 0.3 * rng.normal(size=(4, 4)))):
            christoffel(L, V, x)
            chern_curvature(L, x, v, extension=V)
    assert [R.ndim for *_, R, _ in solves] == [3, 3, 4] * 4
    for g, C, v, R, X in solves:
        dense = dense_koszul_solve(g, C, v, R)
        scale = max(1.0, float(np.max(np.abs(dense))))
        assert np.max(np.abs(X - dense)) <= 1e-12 * scale


def test_non_homogeneous_lagrangian_fails_the_koszul_gate():
    # the closed form needs C(v, ., .) = 0; a cubic fiber term breaks it
    # and the symbols miss the Koszul identities
    def func(x, v):
        return (2.0 * v[0] * v[1] - (1.0 + 0.5 * x[1]) * v[2] * v[2]
                - v[3] * v[3] + 0.1 * v[2] * v[2] * v[2])

    L = Lagrangian(func, 4, [1.0, 1.0, 0.0, 0.0], name="cubic")
    with pytest.raises(SolverError, match="2-homogeneous"):
        christoffel(L, VectorField.constant([1.0, 1.0, 0.3, 0.0]),
                    np.array([0.1, 0.2, 0.0, 0.0]))


def test_degenerate_metric_raises_signature_error():
    L = QuadraticLagrangian({(0, 0): 1.0, (1, 1): -1.0}, 3, [1.0, 0.0, 0.0],
                            name="rank2")
    with pytest.raises(SignatureError):
        christoffel(L, VectorField.constant([1.0, 0.0, 0.0]), np.zeros(3))
    # the curvature's own jet solve keeps the gate on a supplied extension
    with pytest.raises(SignatureError):
        chern_curvature(L, np.zeros(3), [1.0, 0.0, 0.0],
                        extension=VectorField.constant([1.0, 0.0, 0.0]))


def test_connection_report_round_trip():
    L = _default_ppwave_example()
    rep, table = connection_report(L, wave_vector_field(),
                                   np.array([0.0, 0.2, 0.1, -0.1]))
    assert rep.passed
    d = rep.to_dict()
    names = [c["check"] for c in d["checks"]]
    assert "sample 0: koszul identity" in names and d["pass"] is True
    assert (table.method, table.iterations) == ("closed-form", 0)


# -- fields ---------------------------------------------------------------

def test_scalar_field_derivatives_closed_form():
    f = ScalarField(lambda x: jets.sin(x[0]) * x[1] + x[2] * x[2] * x[1])
    x = [0.7, -0.3, 1.2, 0.0]
    d = f.d(x)
    assert d[0] == pytest.approx(np.cos(0.7) * -0.3, rel=1e-12)
    assert d[1] == pytest.approx(np.sin(0.7) + 1.44, rel=1e-12)
    assert d[2] == pytest.approx(2 * 1.2 * -0.3, rel=1e-12)
    d2 = f.d2(x)
    assert d2[0, 0] == pytest.approx(-np.sin(0.7) * -0.3, rel=1e-12)
    assert d2[1, 2] == pytest.approx(2 * 1.2, rel=1e-12)
    assert np.max(np.abs(d2 - d2.T)) == 0.0


def test_vector_field_jet_jacobian_matches_analytic():
    def ev(x):
        return [x[1] * x[1], x[0] * x[3], 1.0, x[2]]

    V = VectorField(ev)
    x = [0.5, 2.0, -1.0, 0.25]
    J = V.jacobian(x)
    expect = np.zeros((4, 4))
    expect[1, 0] = 2 * 2.0
    expect[0, 1] = 0.25
    expect[3, 1] = 0.5
    expect[2, 3] = 1.0
    assert np.allclose(J, expect, atol=1e-14)
    assert np.allclose(V(x), [4.0, 0.125, 1.0, -1.0])


def _curved(x):
    return [1.0 + 0.1 * x[1] * x[2], jets.sin(x[0]), 0.5, x[3] * x[3]]


def _curved_jacobian(x):
    J = np.zeros((4, 4))
    J[1, 0], J[2, 0] = 0.1 * x[2], 0.1 * x[1]
    J[0, 1] = np.cos(x[0])
    J[3, 3] = 2.0 * x[3]
    return J


STACK_FIELDS = {
    "constant": VectorField.constant([1.0, 0.5, -0.25, 0.0]),
    # p lies off the stack, so the offsets x - p are not zero
    "linear": VectorField.linear(
        [1.0, 0.5, 0.0, 0.2], [0.3, -0.1, 0.2, 0.4],
        0.3 * np.random.default_rng(5).normal(size=(4, 4))),
    "jacobian_fn": VectorField(_curved, jacobian_fn=_curved_jacobian),
    "jets": VectorField(_curved),
}


@pytest.mark.parametrize("kind", sorted(STACK_FIELDS))
def test_a_field_on_a_stack_is_the_field_at_each_point(kind):
    V = STACK_FIELDS[kind]
    xs = np.random.default_rng(6).uniform(-0.8, 0.8, (5, 4))
    values, jacobians = V(xs), V.jacobian(xs)
    assert values.shape == (5, 4) and jacobians.shape == (5, 4, 4)
    for x, value, J in zip(xs, values, jacobians):
        assert value.tobytes() == V(x).tobytes()
        assert J.tobytes() == V.jacobian(x).tobytes()
    none = np.zeros((0, 4))
    assert V(none).shape == (0, 4)
    assert V.jacobian(none).shape == (0, 4, 4)


# -- gradient -------------------------------------------------------------

def test_gradient_minkowski_timelike_frozen():
    L = build_minkowski()
    f = ScalarField.linear([1.0, 0.5, 0.0, 0.0])
    w = gradient(L, f, np.zeros(4))
    assert np.allclose(w, [1.0, -0.5, 0.0, 0.0], atol=1e-10)
    assert gradient_residual(L, f, np.zeros(4), w) <= 1e-10


def test_gradient_brinkmann_u_is_the_wave_vector():
    # df = du pairs with g as g(e0, .): the gradient is lightlike
    L = build_brinkmann_quadratic("x2")
    f = ScalarField.coordinate(1)
    for x in ([0.2, 0.7, 0.9, -0.3], [0.0, -1.0, 0.4, 0.8]):
        w = gradient(L, f, np.array(x))
        assert np.allclose(w, E0, atol=1e-9)
        assert abs(L.value(x, w)) <= 1e-12


def test_gradient_unique_across_seeds():
    L = _default_ppwave_example()
    x = np.array([0.05, 0.3, -0.2, 0.1])
    f = ScalarField.linear([1.0, 0.4, 0.05, -0.02])
    base = gradient(L, f, x)
    assert gradient_residual(L, f, x, base) <= 1e-9
    seeds = L.sample_admissible(x, RNG, count=8)
    for s in seeds:
        w = gradient(L, f, x, seed_vector=s)
        assert np.max(np.abs(w - base)) <= 1e-8


def test_gradient_requires_positive_pairing_with_the_cone():
    L = build_minkowski()
    with pytest.raises(NoGradientError):
        gradient(L, ScalarField.coordinate(1), np.zeros(4))
    with pytest.raises(NoGradientError):
        gradient(L, ScalarField.linear([-1.0, 0.0, 0.0, 0.0]), np.zeros(4))


def test_gradient_flow_of_u_on_brinkmann_is_straight():
    # xdot = grad u = e0 integrates to a v-coordinate line
    L = build_brinkmann_quadratic("x2-y2")
    f = ScalarField.coordinate(1)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    for _ in range(3):
        w = gradient(L, f, x)
        assert np.allclose(w, E0, atol=1e-9)
        x = x + 0.25 * w


# -- hessian --------------------------------------------------------------

def test_hessian_minkowski_coordinate_product():
    L = build_minkowski()
    f = ScalarField(lambda x: x[0] * x[1])
    H = hessian(L, f, RNG.uniform(-1, 1, 4), [1.0, 0.2, 0.1, 0.0])
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = 1.0
    assert np.allclose(H, expect, atol=1e-13)


def test_hessian_subtracts_symbol_term():
    L = build_brinkmann_quadratic("x2")
    x = np.array([0.0, 0.5, 1.2, -0.3])
    f = ScalarField(lambda x: x[0])        # df = (1,0,0,0)
    H = hessian(L, f, x, [1.0, 1.0, 0.0, 0.0])
    # H_ij = -G^0_ij with the hand table above
    expect = -brinkmann_gamma_by_hand("x2", x)[0]
    assert np.allclose(H, expect, atol=1e-10)
    assert np.max(np.abs(H - H.T)) == 0.0


def test_hessian_of_gradient_field_identity():
    # H^f(X, Y) = g(nabla_X grad f, Y) when the reference is grad f; the
    # field Jacobian comes from the implicit function theorem, an
    # independent route from the hessian formula itself.
    for L in (build_brinkmann_quadratic("x2"), _default_ppwave_example()):
        n = 4
        x = np.array([0.05, 0.25, -0.15, 0.1])
        f = ScalarField.linear([1.0, 0.45, 0.03, -0.06])
        w = gradient(L, f, x, tol=1e-13)
        table = christoffel(L, VectorField.constant(w), x)
        g = table.g
        # mixed partials M[i, j] = 1/2 d^2 L / dx_i dv_j at (x, w)
        _, seeds = jets.variables(list(x) + list(w), 2)
        out = L(seeds[:n], seeds[n:])
        M = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                e = [0] * (2 * n)
                e[i] += 1
                e[n + j] += 1
                M[i, j] = 0.5 * out.deriv(tuple(e))
        d2f = f.d2(x)
        JW = np.linalg.solve(g, (d2f - M).T).T       # JW[i, l] = d_i w^l
        rhs = np.einsum("kl,il->ik", g, JW + np.einsum("lim,m->il",
                                                       table.gamma, w))
        H = hessian(L, f, x, w)
        assert np.max(np.abs(H - rhs)) <= 1e-8


# -- parallel extension ----------------------------------------------------

def test_parallel_extension_kills_the_covariant_derivative():
    for L in (build_brinkmann_quadratic("uxy"), _default_ppwave_example()):
        p = np.array([0.1, 0.3, -0.2, 0.4])
        v = L.sample_admissible(p, RNG)[0]
        V = parallel_extension(L, v, p)
        assert np.allclose(V(p), v, atol=1e-14)
        t = christoffel(L, V, p)
        A = t.jacobian + np.einsum("mil,l->im", t.gamma, t.v)
        assert np.max(np.abs(A)) <= 1e-12


def test_parallel_extension_reproduces_metric_compatibility():
    # along the extension the metric derivative reduces to pure transport
    L = _default_ppwave_example()
    p = np.array([0.0, 0.2, 0.1, -0.1])
    v = np.asarray(L.cone_ref_at(p))
    V = parallel_extension(L, v, p)
    t = christoffel(L, V, p)
    assert compatibility_residual(t) <= 1e-10


# -- geodesics ------------------------------------------------------------

def test_geodesics_in_flat_space_are_straight():
    L = build_minkowski()
    x0 = np.array([0.0, 0.1, -0.2, 0.3])
    v0 = np.array([1.0, 0.3, 0.2, -0.1])
    path = geodesic(L, x0, v0, (0.0, 2.0), n_samples=40)
    exact = x0[None, :] + path.t[:, None] * v0[None, :]
    assert np.max(np.abs(path.x - exact)) <= 1e-9
    assert np.max(np.abs(path.ldrift)) <= 1e-12
    assert not path.truncated


def test_brinkmann_transverse_oscillator_closed_form():
    # H = x^2 - y^2 with unit u-speed: x'' = -x, y'' = +y
    L = build_brinkmann_quadratic("x2-y2")
    x0 = np.array([0.0, 0.0, 0.4, 0.2])
    v0 = np.array([2.0, 1.0, 0.0, 0.0])
    path = geodesic(L, x0, v0, (0.0, 1.5), n_samples=60)
    assert np.max(np.abs(path.x[:, 2] - 0.4 * np.cos(path.t))) <= 1e-6
    assert np.max(np.abs(path.x[:, 3] - 0.2 * np.cosh(path.t))) <= 1e-6
    assert np.max(np.abs(path.x[:, 1] - path.t)) <= 1e-9
    assert np.max(np.abs(path.ldrift)) <= 1e-6


def test_wave_vector_flow_is_geodesic_and_lightlike():
    L = build_brinkmann_quadratic("uxy")
    x0 = np.array([0.3, 0.7, 0.2, -0.5])
    path = geodesic(L, x0, E0, (0.0, 3.0), n_samples=30)
    exact = x0[None, :] + path.t[:, None] * E0[None, :]
    assert np.max(np.abs(path.x - exact)) <= 1e-9
    assert np.max(np.abs(path.v - E0[None, :])) <= 1e-12
    assert abs(path.l0) <= 1e-14
    assert np.max(np.abs(path.ldrift)) <= 1e-12


def test_lightlike_geodesic_with_transverse_motion_not_truncated():
    L = build_brinkmann_quadratic("x2-y2")
    x0 = np.array([0.0, 0.0, 0.5, 0.3])
    b, c = 0.4, 0.2
    a = (b * b + c * c - (0.5 ** 2 - 0.3 ** 2)) / 2.0
    v0 = np.array([a, 1.0, b, c])
    assert abs(L.value(x0, v0)) <= 1e-14
    path = geodesic(L, x0, v0, (0.0, 2.0), n_samples=80)
    assert not path.truncated
    assert np.max(np.abs(path.ldrift)) <= 1e-6


def test_finsler_geodesic_conserves_the_lagrangian():
    L = _default_ppwave_example()
    x0 = np.array([0.0, 0.3, 0.1, -0.1])
    v0 = np.asarray(L.cone_ref_at(x0))
    path = geodesic(L, x0, v0, (0.0, 0.5), tol=1e-8, n_samples=21)
    assert not path.truncated
    assert np.max(np.abs(path.ldrift)) <= 1e-6


def test_geodesic_truncates_when_the_metric_degenerates():
    entries = {(0, 1): 1.0,
               (2, 2): lambda x: -(1.0 - x[1] * x[1]),
               (3, 3): -1.0}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0], name="wall")
    path = geodesic(L, np.zeros(4), np.array([1.0, 1.0, 0.8, 0.0]),
                    (0.0, 1.5), n_samples=100)
    assert path.truncated
    assert path.reason
    assert path.x[-1, 1] < 1.0 + 1e-6


def test_geodesic_stops_where_the_lagrangian_cannot_be_evaluated():
    # L cannot be evaluated past x0 = 1: there the spray fails, the
    # right-hand side is NaN, and the integrator's step shrinks to nothing
    entries = {(0, 1): 1.0,
               (2, 2): lambda x: -(2.0 - jets.sqrt(1.0 - x[0])),
               (3, 3): -1.0}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0], name="edge")
    path = geodesic(L, np.zeros(4), np.array([1.0, 0.5, 0.1, 0.0]),
                    (0.0, 2.0), n_samples=50)
    assert path.truncated
    assert path.reason.startswith("integrator stopped at t=")
    assert 1 < len(path.t) < 50
    assert path.x[-1, 0] < 1.0
    assert np.max(np.abs(path.ldrift)) <= path.tol


@pytest.mark.parametrize("span", [(0.0, 1.2), (1.2, -0.3)])
def test_geodesic_dense_state_is_its_samples(span):
    L = fixtures.rosen_cos2()
    path = geodesic(L, [0.0, 0.1, 0.0, 0.2], [1.0, 0.8, 0.2, 0.0], span,
                    n_samples=37)
    assert len(path.t) == 37 and not path.truncated
    for t, x, v in zip(path.t, path.x, path.v):
        assert np.array_equal(path.sol(t), np.concatenate([x, v]))
    assert np.array_equal(path.sol(path.t), np.hstack([path.x, path.v]))


def test_geodesic_stopped_before_its_first_step_has_no_dense_state():
    path = geodesic(build_minkowski(), np.zeros(4), [1.0, 0.2, 0.0, 0.0],
                    (0.0, 1.0), tol=1e-300)
    assert path.truncated and path.sol is None
    assert path.t.tolist() == [0.0]
    assert path.reason == "integrator stopped at t=0"


def test_geodesic_over_a_span_of_length_zero_stays_at_its_start():
    x0, v0 = [0.0, 0.1, 0.0, 0.2], [1.0, 0.8, 0.2, 0.0]
    path = geodesic(fixtures.rosen_cos2(), x0, v0, (0.3, 0.3), n_samples=5)
    assert not path.truncated and path.reason == ""
    assert path.t.tolist() == [0.3] * 5
    assert np.array_equal(path.x, np.tile(x0, (5, 1)))
    assert np.array_equal(path.v, np.tile(v0, (5, 1)))


def test_geodesic_rejects_inadmissible_start():
    L = build_minkowski()
    with pytest.raises(ConeError):
        geodesic(L, np.zeros(4), np.array([0.1, 1.0, 0.0, 0.0]), (0.0, 1.0))


def test_geodesic_csv_round_trip():
    L = build_minkowski()
    path = geodesic(L, np.zeros(4), np.array([1.0, 0.2, 0.0, 0.0]),
                    (0.0, 1.0), n_samples=11)
    text = path.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "t,x0,x1,x2,x3,v0,v1,v2,v3,L_drift"
    assert len(lines) == 12
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert back.shape == (11, 10)
    assert np.allclose(back[:, 0], path.t)
    assert np.allclose(back[:, 1:5], path.x)


# -- the Euler-Lagrange spray ---------------------------------------------

@pytest.mark.parametrize("name", sorted(catalog()))
def test_spray_is_the_christoffel_contraction(name):
    # L_vv a = L_x - L_vx v against -Γ^k_ij v^i v^j from the Koszul
    # solve, and from the direct Levi-Civita symbols where L is quadratic
    L = catalog()[name]
    rng = np.random.default_rng(61)
    for _ in range(3):
        x = rng.uniform(-0.6, 0.6, L.dim)
        for v in L.sample_admissible(x, rng, count=2):
            a = _spray(L)(np.concatenate([x, v]))
            gam = christoffel(L, VectorField.constant(v), x).gamma
            want = -np.einsum("kij,i,j->k", gam, v, v)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(a - want)) <= 1e-12 * scale
            if isinstance(L, QuadraticLagrangian):
                lc = -np.einsum("kij,i,j->k", levi_civita_quadratic(L, x),
                                v, v)
                assert np.max(np.abs(a - lc)) <= 1e-12 * scale


def test_spray_raises_on_a_singular_l_vv():
    entries = {(0, 1): 1.0,
               (2, 2): lambda x: -(1.0 - x[1] * x[1]),
               (3, 3): -1.0}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0], name="wall")
    with pytest.raises(SignatureError):
        _spray(L)(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.0]))


SPRAY_MODELS = {**{name: (lambda name=name: catalog()[name])
                    for name in catalog()},
                 **fixtures.BUILDERS}


def spray_states(L, rng, points=4, count=3):
    """States (x | v) at ``points`` random x, with ``count`` admissible v
    drawn at each."""
    states = []
    for _ in range(points):
        x = rng.uniform(-0.5, 0.5, L.dim)
        for v in L.sample_admissible(x, rng, count=count):
            states.append(np.concatenate([x, v]))
    return states


@pytest.mark.parametrize("name", sorted(SPRAY_MODELS))
def test_spray_is_bitwise_the_per_point_spray(name):
    L = SPRAY_MODELS[name]()
    spray = _spray(L)
    n = L.dim
    for y in spray_states(L, np.random.default_rng(29)):
        want = per_point_spray(L, y[:n], y[n:])
        assert spray(y).tobytes() == want.tobytes()


def test_spray_copies_its_template_on_every_call():
    # a call leaves nothing behind for the next one: the same state gives
    # the same bits before and after another state, the sprays of two
    # models called in turn give their own bits, and the seeds one call
    # hands to L keep their values through the calls after it
    rng = np.random.default_rng(31)
    base, K = _default_ppwave_example(), fixtures.rosen_cross()
    seen = []

    def recording(x, v):
        seen.append(list(x) + list(v))
        return base(x, v)

    L = Lagrangian(recording, 4, base.cone_ref_at, name="recording")
    spray, other = _spray(L), _spray(K)
    p, q = spray_states(base, rng, points=2, count=1)
    r, = spray_states(K, rng, points=1, count=1)
    seen.clear()
    first = spray(p).tobytes()
    assert spray(q).tobytes() != first
    assert spray(p).tobytes() == first
    want = [per_point_spray(M, y[:4], y[4:]).tobytes()
            for M, y in ((base, p), (K, r), (base, q), (K, r))]
    assert [spray(p).tobytes(), other(r).tobytes(), spray(q).tobytes(),
            other(r).tobytes()] == want
    assert [[s.value for s in seeds] for seeds in seen] == [
        y.tolist() for y in (p, q, p, p, q)]


def counted_sprays(monkeypatch):
    """Spy on `connection._spray`: the list its sprays log a call to."""
    calls = []
    build = connection._spray

    def spy(L):
        spray = build(L)

        def counted(y):
            calls.append(1)
            return spray(y)

        return counted

    monkeypatch.setattr(connection, "_spray", spy)
    return calls


def test_spray_calls_of_the_wall_geodesic(monkeypatch):
    # the geodesic of test_geodesic_truncates_when_the_metric_degenerates
    calls = counted_sprays(monkeypatch)
    entries = {(0, 1): 1.0,
               (2, 2): lambda x: -(1.0 - x[1] * x[1]),
               (3, 3): -1.0}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0], name="wall")
    path = geodesic(L, np.zeros(4), np.array([1.0, 1.0, 0.8, 0.0]),
                    (0.0, 1.5), n_samples=100)
    assert path.truncated
    assert len(calls) == 16700


def test_spray_calls_of_a_focal_ray(monkeypatch, tmp_path):
    # the example focal config: the rosen_cos2 ray from the origin along
    # e0 over [0, 2.5], its 240 samples and focal scan read off the
    # dense solution
    calls = counted_sprays(monkeypatch)
    monkeypatch.chdir(tmp_path)
    path = ROOT / "configs" / "focal_cos2.json"
    assert main(["focal", "--config", str(path)]) == 0
    assert len(calls) == 47


@pytest.mark.parametrize("model", [
    pytest.param(lambda: build_brinkmann_quadratic("x2-y2"), id="quadratic"),
    pytest.param(_default_ppwave_example, id="ppwave_example"),
])
def test_geodesic_tests_the_cone_once_and_evaluates_l_once_per_sample(
        monkeypatch, model):
    L = model()
    calls = {"cone": 0, "value": 0, "lanes": [], "symbols": 0}
    gate = []
    is_admissible = Lagrangian.is_admissible
    value = Lagrangian.value

    def counted_is_admissible(self, *args, **kwargs):
        calls["cone"] += 1
        gate.append(True)
        try:
            return is_admissible(self, *args, **kwargs)
        finally:
            gate.pop()

    def counted_value(self, x, v):
        if not gate and np.ndim(v) == 1:
            calls["value"] += 1
        elif not gate:
            calls["lanes"].append(len(v))
        return value(self, x, v)

    def symbols(*args, **kwargs):
        calls["symbols"] += 1
        raise AssertionError("the spray solves no Christoffel symbols")

    monkeypatch.setattr(Lagrangian, "is_admissible", counted_is_admissible)
    monkeypatch.setattr(Lagrangian, "value", counted_value)
    monkeypatch.setattr(connection, "christoffel", symbols)
    monkeypatch.setattr(connection, "levi_civita_quadratic", symbols)
    x0 = np.array([0.0, 0.3, 0.1, -0.1])
    path = geodesic(L, x0, L.cone_ref_at(x0), (0.0, 0.4), n_samples=20)
    assert not path.truncated
    assert len(path.t) == 20
    # the 20 samples are one batched evaluation, not 20 scalar ones
    assert calls == {"cone": 1, "value": 0, "lanes": [20], "symbols": 0}


def test_geodesic_cut_where_the_lagrangian_turns_negative():
    # L = Q(v) - x0 is not homogeneous: its flow conserves the energy
    # v.L_v - L = Q(v) + x0 and not L.  From (0, e0) the spray is
    # a = -e0/2, so x0 = t - t^2/4 and L = 1 - 2t + t^2/2, which leaves
    # the closed cone at t = 2 - sqrt(2)
    def func(x, v):
        return v[0] * v[0] - v[1] * v[1] - v[2] * v[2] - v[3] * v[3] - x[0]

    L = Lagrangian(func, 4, [1.0, 0.0, 0.0, 0.0], name="potential")
    path = geodesic(L, np.zeros(4), E0, (0.0, 1.0), n_samples=101)
    t_exit = 2.0 - np.sqrt(2.0)
    grid = np.linspace(0.0, 1.0, 101)
    first_out = grid[grid > t_exit][0]
    assert path.truncated
    assert path.reason == "left the closed cone at t=%s" % fmt_float(
        first_out)
    assert path.t[-1] == grid[grid < t_exit][-1]
    t = path.t
    assert np.max(np.abs(path.x[:, 0] - (t - 0.25 * t * t))) <= 1e-9
    energy = path.v[:, 0] ** 2 + path.x[:, 0]
    assert np.max(np.abs(energy - 1.0)) <= 1e-9
    assert np.max(np.abs(path.ldrift - (-2.0 * t + 0.5 * t * t))) <= 1e-9


# -- the stacked kernel ----------------------------------------------------------

CATALOG = catalog()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_christoffel_on_lanes_are_bitwise_christoffel(name):
    L = CATALOG[name]
    rng = np.random.default_rng(12)
    xs = 0.3 * rng.standard_normal((2 * jets.LANE_BLOCK + 3, 4))
    ref = L.cone_ref_at(np.zeros(4))
    B = 0.05 * rng.standard_normal((4, 4))
    for V in (VectorField.constant(ref),
              VectorField.linear(ref, np.zeros(4), B)):
        got = christoffel(L, V, xs).gamma
        assert got.shape == (len(xs), 4, 4, 4)
        for x, gamma in zip(xs, got):
            assert gamma.tobytes() == christoffel(L, V, x).gamma.tobytes()


def test_christoffel_on_names_the_first_failing_point():
    # g is singular on x1 = 1, and L cannot be evaluated past x1 = 2
    entries = {(0, 1): 1.0, (2, 2): lambda x: -(1.0 - x[1] * x[1]),
               (3, 3): lambda x: -jets.sqrt(2.0 - x[1])}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0], name="walls")
    V = VectorField.constant([1.0, 1.0, 0.0, 0.0])
    xs = np.random.default_rng(4).uniform(-0.5, 0.5, (48, 4))
    singular = [0.0, 1.0, 0.2, 0.0]
    outside = [0.0, 3.0, 0.0, 0.1]
    for first, second, error in ((singular, outside, SignatureError),
                                 (outside, singular, EvaluationError)):
        with pytest.raises(error):
            christoffel(L, V, first)
        # the point is named once: the singular-metric error names it
        # already, the evaluation error gains an "at x=" prefix
        named = "x=%r" % ([float(t) for t in first],)
        bad = xs.copy()
        bad[37], bad[40] = first, second
        with pytest.raises(error) as e:
            christoffel(L, V, bad)
        assert str(e.value).count(named) == 1
        assert error is SignatureError or str(e.value).startswith(
            "at %s: " % named)
        # index 32 of 33 points is a block of one row by itself
        bad = xs[:jets.LANE_BLOCK + 1].copy()
        bad[-1] = first
        with pytest.raises(error) as e:
            christoffel(L, V, bad)
        assert str(e.value).count(named) == 1
        assert error is SignatureError or str(e.value).startswith(
            "at %s: " % named)
        # a stack of one point raises the text of the call at that point
        with pytest.raises(error) as want:
            christoffel(L, V, first)
        with pytest.raises(error) as got:
            christoffel(L, V, np.array([first]))
        assert str(got.value) == str(want.value)
