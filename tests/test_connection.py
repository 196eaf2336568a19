"""Connection solver tests against hand-derived Christoffel oracles.

The closed-form symbol tables below are written out from the wave-model
metrics by hand (chart order v, u, x, y; transverse block negative), so the
Koszul solver is checked against an independent derivation, not against
itself.
"""

import io

import numpy as np
import pytest

from finsler import jets
from finsler.connection import (
    ScalarField,
    VectorField,
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
from finsler.errors import ConeError, NoGradientError, SignatureError
from finsler.lagrangian import (
    QuadraticLagrangian,
    _default_parallel_example,
    _default_ppwave_example,
    build_brinkmann_quadratic,
    build_minkowski,
)

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


def test_fixed_point_and_dense_solver_agree():
    from finsler.connection import (
        _field_jet,
        _koszul_operator,
        _koszul_rhs,
        _koszul_solve,
    )

    L = _default_ppwave_example()
    x = np.array([0.1, 0.4, -0.2, 0.3])
    v = np.asarray(L.cone_ref_at(x))
    t = christoffel(L, VectorField.constant(v), x)
    g, C, D = _field_jet(L, x, v, np.zeros((4, 4)))
    dense = _koszul_solve(_koszul_operator(g, C, v),
                          _koszul_rhs(D, C, np.zeros((4, 4))))
    assert np.max(np.abs(dense - t.gamma)) <= 1e-9


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
    assert "koszul identity" in names and d["pass"] is True
    assert table.method in ("fixed-point", "levi-civita", "dense")


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
