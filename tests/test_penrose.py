import numpy as np
import pytest

from finsler import fixtures, jets, penrose
from finsler import lagrangian as lg
from finsler.connection import VectorField, christoffel
from finsler.curvature import ppwave_condition
from finsler.errors import ChartError, SignatureError, SolverError
from finsler.penrose import RosenProfile
from helpers import cos2_triple, dop853_vielbein, exp_triple, spd_sqrt

E0 = np.array([1.0, 0.0, 0.0, 0.0])


def cos2_profile():
    return RosenProfile(h=cos2_triple)


def rotating_triple(u):
    """h = R(u) D(u) R(u)^T with D = diag(1 + u^2/2, 2), R the rotation
    by u: with J = R^T R', K = J D - D J + D' gives h' = R K R^T and
    h'' = R (J K - K J + K') R^T."""
    c, s = np.cos(u), np.sin(u)
    R = np.array([[c, -s], [s, c]])
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    D = np.diag([1.0 + 0.5 * u * u, 2.0])
    Dd = np.diag([u, 0.0])
    Ddd = np.diag([1.0, 0.0])
    K = J @ D - D @ J + Dd
    Kd = J @ Dd - Dd @ J + Ddd
    return (R @ D @ R.T, R @ K @ R.T, R @ (J @ K - K @ J + Kd) @ R.T)


# -- homothety ----------------------------------------------------------------

def test_homothety_identity_at_omega_one():
    # phi is the identity at omega = 1, so every residual is exactly zero
    rep = penrose.homothety_residual(fixtures.rosen_cos2(), E0, 1.0,
                                     [[0.3, 0.2, 0.1, -0.4],
                                      [-0.5, 0.0, 0.7, 0.2]])
    assert rep.passed
    assert all(c.residual == 0.0 for c in rep.checks)


@pytest.mark.parametrize("omega", [0.5, 0.1])
def test_homothety_with_cross_terms(omega):
    L = fixtures.rosen_cross()
    samples = [[u, 0.25, 0.25, 0.25] for u in (-0.8, 0.0, 0.6)]
    rep = penrose.homothety_residual(L, E0, omega, samples)
    assert rep.passed
    assert rep.max_residual("sample") <= 1e-9


def test_homothety_finsler_model():
    L = lg.from_descriptor({"type": "ppwave_example"})
    samples = [[0.3, 0.2, 0.1, -0.1], [-0.4, 0.1, 0.3, 0.2]]
    for omega in (0.5, 0.1):
        rep = penrose.homothety_residual(L, E0, omega, samples)
        assert rep.passed, "omega=%g" % omega


def test_rescaling_rejects_bad_omega():
    L = fixtures.rosen_flat()
    with pytest.raises(SolverError):
        penrose.rescaled_lagrangian(L, 0.0)
    with pytest.raises(SolverError):
        penrose.rescaled_lagrangian(L, 1.5)


def test_homothety_requires_constant_chart_field():
    with pytest.raises(ChartError):
        penrose.homothety_residual(fixtures.rosen_flat(),
                                   lambda x: E0, 0.5, [[0.0, 0.1, 0.1, 0.1]])


def test_connection_ignores_constant_rescaling():
    # the omega^-2 prefactor must not move the Christoffel symbols
    L = fixtures.rosen_cross()
    field = VectorField.constant(E0)
    x = np.array([0.3, 0.1, 0.2, -0.1])
    with_factor = christoffel(penrose.rescaled_lagrangian(L, 0.5), field, x)
    without = christoffel(
        penrose.rescaled_lagrangian(L, 0.5, rescale=False), field, x)
    assert np.max(np.abs(with_factor.gamma - without.gamma)) <= 1e-8


# -- Rosen -> Brinkmann -------------------------------------------------------

def test_flat_profile_gives_trivial_vielbein():
    zero = np.zeros((2, 2))
    bp = penrose.rosen_to_brinkmann(lambda u: (np.eye(2), zero, zero), 0.0,
                                    (-1.0, 1.0))
    assert not bp.truncated
    for u in (-0.7, 0.0, 0.8):
        assert np.max(np.abs(bp.M(u) - np.eye(2))) <= 1e-10
        assert np.max(np.abs(bp.A(u))) <= 1e-8


def test_cos2_profile_recovers_constant_A():
    bp = penrose.rosen_to_brinkmann(cos2_profile(), 0.0, (-1.3, 1.3))
    assert not bp.truncated
    expected = np.diag([-1.0, 0.0])
    for u in (-1.1, -0.4, 0.0, 0.5, 1.2):
        assert np.max(np.abs(bp.A(u) - expected)) <= 1e-10
    # the vielbein is sec(u) on the degenerating direction
    m = bp.M(0.5)
    assert abs(m[0, 0] - 1.0 / np.cos(0.5)) <= 1e-7
    assert abs(m[1, 1] - 1.0) <= 1e-10
    assert abs(m[0, 1]) + abs(m[1, 0]) <= 1e-10


def test_exp_profile_recovers_identity_A():
    bp = penrose.rosen_to_brinkmann(exp_triple, 0.0, (-1.0, 1.0))
    for u in (-0.6, 0.0, 0.4):
        assert np.max(np.abs(bp.A(u) - np.eye(2))) <= 1e-10


def test_vielbein_conditions_hold_on_grid():
    bp = penrose.rosen_to_brinkmann(cos2_profile(), 0.0, (-1.3, 1.3))
    rep = bp.m_conditions(np.linspace(-1.1, 1.1, 9))
    assert rep.passed
    for check in rep.checks:
        assert check.residual <= 1e-8


def test_truncation_at_focal_point():
    bp = penrose.rosen_to_brinkmann(cos2_profile(), 0.0, (-1.0, 2.5))
    assert bp.truncated
    assert "focal point" in bp.reason
    assert bp.u_interval[0] == -1.0
    assert abs(bp.u_interval[1] - np.pi / 2) <= 1e-3
    # the construction is still valid up to the wall
    assert np.max(np.abs(bp.A(1.0) - np.diag([-1.0, 0.0]))) <= 1e-10


@pytest.mark.parametrize("interval,side", [((-1.0, 2.2), 1),
                                           ((-2.6, 1.0), 0)],
                         ids=["upper", "lower"])
def test_wall_between_scan_points_is_closed_form(monkeypatch, interval,
                                                 side):
    # cos^2 u stays above the floor 1e-8 at every point of the 129-point
    # scan but dips below it between two: the dip's bottom is the root of
    # the exact slope, and the wall is where cos^2 u = 1e-8
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("minimize_scalar called")

    monkeypatch.setattr(scipy.optimize, "minimize_scalar", refuse)
    scan = np.linspace(0.0, interval[side], 129)
    assert np.all(np.cos(scan) ** 2 > 1e-8)
    bp = penrose.rosen_to_brinkmann(cos2_triple, 0.0, interval)
    assert bp.truncated
    assert bp.u_interval[1 - side] == interval[1 - side]
    wall = (2 * side - 1) * np.arccos(1e-4)
    assert abs(bp.u_interval[side] - wall) <= 1e-12


def test_truncation_in_both_directions():
    bp = penrose.rosen_to_brinkmann(cos2_profile(), 0.0, (-2.5, 2.5))
    assert bp.truncated
    assert abs(bp.u_interval[0] + np.pi / 2) <= 1e-3
    assert abs(bp.u_interval[1] - np.pi / 2) <= 1e-3


def test_rejects_degenerate_base_point():
    with pytest.raises(SignatureError):
        penrose.rosen_to_brinkmann(
            lambda u: (np.diag([u, 1.0]), np.diag([1.0, 0.0]),
                       np.zeros((2, 2))), -0.5, (-1.0, 1.0))


@pytest.mark.parametrize("A,interval", [
    (lambda u: np.zeros((2, 2)), (-1.4, 1.4)),
    (lambda u: np.diag([-1.0, 0.0]), (-1.2, 1.2)),
    (lambda u: np.diag([-1.0, 1.0]), (-1.3, 1.3)),
    # off-diagonal A rotates the frame (W != 0 in the O-equation); the
    # second one also meets a focal point on both sides
    (lambda u: np.array([[-np.cos(u), 0.3 * u], [0.3 * u, 0.1]]),
     (-1.0, 1.0)),
    (lambda u: np.array([[-1.0, 0.4 * u], [0.4 * u, -0.5]]), (-3.0, 3.0)),
])
def test_brinkmann_roundtrip(A, interval):
    rep = penrose.brinkmann_roundtrip(A, interval)
    assert rep.passed
    assert rep.checks[0].residual <= 1e-10


def test_rotating_profile_vielbein_conditions():
    bp = penrose.rosen_to_brinkmann(rotating_triple, 0.0, (-1.0, 1.0))
    us = np.linspace(-0.9, 0.9, 7)
    rep = bp.m_conditions(us)
    assert rep.passed
    # the negative control: h^{-1/2} alone, O = identity, is orthonormal
    # but misses the symmetry condition of a rotating h
    class Bare(penrose.BrinkmannProfile):
        def vielbein_on(self, us):
            h = self.rosen.triples(us)[0]
            return h, np.array([np.linalg.inv(spd_sqrt(x)) for x in h])

    by_name = {c.name: c for c in Bare(**vars(bp)).m_conditions(us).checks}
    assert by_name["M^T h M = identity"].passed
    assert not by_name["symmetry condition"].passed


@pytest.mark.parametrize("triple,interval", [
    (rotating_triple, (-1.0, 1.0)),
    (cos2_triple, (-1.3, 1.3)),
    (exp_triple, (-1.0, 1.0)),
    # truncated at the pi/2 wall
    (cos2_triple, (-1.0, 2.5)),
], ids=["rotating", "cos2", "exp", "cos2-truncated"])
def test_panel_propagators_match_the_dop853_oracle(triple, interval):
    bp = penrose.rosen_to_brinkmann(triple, 0.0, interval)
    lo, hi = bp.u_interval
    pad = 0.05 * (hi - lo)
    us = np.linspace(lo + pad, hi - pad, 17)
    m_want, a_want = dop853_vielbein(triple, 0.0, us)
    rows = bp.fields_on(us)
    h, m = bp.vielbein_on(us)
    assert np.max(np.abs(m - m_want)) <= 1e-11
    assert np.max(np.abs(np.array([r[2] for r in rows]) - a_want)) <= 1e-11
    o = np.array([spd_sqrt(x) @ y for x, y in zip(h, m)])
    assert np.max(np.abs(np.swapaxes(o, 1, 2) @ o - np.eye(2))) <= 1e-14


def test_o_equation_runs_without_solve_ivp(monkeypatch):
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    bp = penrose.rosen_to_brinkmann(rotating_triple, 0.0, (-1.0, 1.0))
    assert bp.m_conditions(np.linspace(-0.9, 0.9, 5)).passed


def test_o_equation_bounds_the_panels_of_a_level(monkeypatch):
    # the rotating profile at 50 times the pace needs more than 4 panels
    # at one level
    def fast(u):
        return tuple(t * 50.0 ** k
                     for k, t in enumerate(rotating_triple(50.0 * u)))

    monkeypatch.setattr(penrose, "_MAX_PANELS", 4)
    with pytest.raises(SolverError, match="more than 4 panels"):
        penrose.rosen_to_brinkmann(fast, 0.0, (-1.0, 1.0))


def dip_triple(u, at=float(penrose._GL_C[0]), width=5e-4):
    """diag(1 - 1.5 exp(-x^2), 1), x = (u - at) / width: h loses
    positivity only in a dip far narrower than the wall scan's grid."""
    x = (u - at) / width
    e = 1.5 * np.exp(-x * x)
    return (np.diag([1.0 - e, 1.0]), np.diag([2.0 * x * e / width, 0.0]),
            np.diag([(2.0 - 4.0 * x * x) * e / width ** 2, 0.0]))


def test_node_below_the_floor_truncates_at_the_wall():
    # the scan steps over the dip, but a Gauss node of the first panel
    # sits on it: the side is cut where h meets the floor, left of the dip
    bp = penrose.rosen_to_brinkmann(dip_triple, 0.0, (-0.5, 1.0))
    wall = float(penrose._GL_C[0]) - 5e-4 * np.sqrt(np.log(1.5 / (1 - 1e-8)))
    assert bp.truncated
    assert bp.reason == "h lost positivity at u=%.12g (focal point)" \
        % bp.u_interval[1]
    assert bp.u_interval[0] == -0.5
    assert abs(bp.u_interval[1] - wall) <= 1e-10
    us = np.linspace(-0.4, 0.9 * wall, 5)
    for u, (h, m, a) in zip(us, bp.fields_on(us)):
        assert np.max(np.abs(h - dip_triple(u)[0])) == 0.0
        assert np.max(np.abs(m - np.diag(1.0 / np.sqrt(np.diag(h))))) \
            <= 1e-12


def test_roundtrip_truncates_at_degenerate_vielbein():
    # E = diag(cos u, 1) degenerates at pi/2: the comparison is cut
    # there instead of failing
    rep = penrose.brinkmann_roundtrip(lambda u: np.diag([-1.0, 0.0]),
                                      (-3.0, 3.0))
    assert rep.meta["truncated"]
    assert rep.passed
    lo, hi = rep.meta["interval"]
    assert abs(lo + np.pi / 2) <= 1e-3
    assert abs(hi - np.pi / 2) <= 1e-3


# -- the limit ----------------------------------------------------------------

def test_limit_of_flat_chart_is_flat():
    res = penrose.penrose_limit(fixtures.rosen_flat(), E0, (-1.0, 1.0))
    assert np.max(np.abs(res.rosen.matrix(0.4) - np.eye(2))) == 0.0
    assert np.max(np.abs(res.brinkmann.A(0.3))) <= 1e-8
    for row in res.offblock:
        assert row["g1a"] == 0.0
        assert row["g11"] == 0.0


def test_limit_discards_cross_terms():
    # g_{1i} entries of the source never reach the limit block
    res = penrose.penrose_limit(fixtures.rosen_cross(), E0, (-1.0, 1.2))
    for u in (-0.7, 0.0, 0.9):
        want = np.diag([np.cos(u) ** 2, 1.0])
        assert np.max(np.abs(res.rosen.matrix(u) - want)) <= 1e-12
    assert all(r["pass"] for r in res.homothety_residuals)


def test_offblock_entries_scale_with_omega():
    # g_{1a} ~ omega and g_11 ~ omega^2 along the ray
    res = penrose.penrose_limit(fixtures.rosen_cross(), E0, (-1.0, 1.2),
                                omegas=(0.5, 0.1))
    g1a = {r["omega"]: r["g1a"] for r in res.offblock}
    g11 = {r["omega"]: r["g11"] for r in res.offblock}
    assert g1a[0.5] > 1e-3 and g11[0.5] > 1e-3
    assert abs(g1a[0.1] / g1a[0.5] - 0.2) <= 1e-12
    assert abs(g11[0.1] / g11[0.5] - 0.04) <= 1e-12


def test_limit_of_finsler_model_is_flat():
    # the fiber norm deforms the cone but not the transverse block
    L = lg.from_descriptor({"type": "ppwave_example"})
    res = penrose.penrose_limit(L, E0, (-1.0, 1.0))
    assert np.max(np.abs(res.rosen.matrix(0.7) - np.eye(2))) <= 1e-12
    assert np.max(np.abs(res.brinkmann.A(0.3))) <= 1e-8
    assert all(r["pass"] for r in res.homothety_residuals)


def test_limit_cos2_matches_plane_wave_model():
    res = penrose.penrose_limit(fixtures.rosen_cos2(), E0, (-1.2, 1.2))
    assert not res.brinkmann.truncated
    for u in (-0.9, 0.0, 1.0):
        assert np.max(np.abs(res.brinkmann.A(u)
                             - np.diag([-1.0, 0.0]))) <= 1e-10

    Lpw = penrose.plane_wave_lagrangian(res.brinkmann.A, (-1.2, 1.2))
    rng = np.random.default_rng(7)
    Lcat = lg.build_brinkmann_quadratic("x2")
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, 4)
        v = rng.uniform(-1.0, 1.0, 4)
        assert abs(Lpw.value(x, v) - Lcat.value(x, v)) <= 1e-6
    rep = ppwave_condition(Lpw, E0, [rng.uniform(-0.9, 0.9, 4)
                                     for _ in range(4)])
    assert rep.passed


def ppwave_example():
    return lg.from_descriptor({"type": "ppwave_example"})


def flat_triple(u):
    return np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))


CLOSED_FORM = {"rosen_cos2": cos2_triple, "rosen_cross": cos2_triple,
               "rosen_exp": exp_triple, "ppwave_example": flat_triple}


@pytest.mark.parametrize("builder",
                         [fixtures.rosen_cos2, fixtures.rosen_cross,
                          fixtures.rosen_exp, ppwave_example])
def test_limit_profile_triple_is_exact(builder):
    # (h, h', h'') from the ray jet against the closed form; the g_1i
    # entries of rosen_cross must not leak into any of the three.  The
    # batched grid gives each lane bitwise the scalar triple.
    res = penrose.penrose_limit(builder(), E0, (-1.0, 1.2))
    us = np.array([-0.8, 0.0, 0.45, 1.1])
    grid = res.rosen.triples(us)
    for b, u in enumerate(us):
        got = res.rosen.triple(u)
        for a, g in zip(got, grid):
            assert a.tobytes() == g[b].tobytes()
        for a, want in zip(got, CLOSED_FORM[builder.__name__](u)):
            assert np.max(np.abs(a - want)) <= 1e-12


def rotating_lagrangian():
    """L = 2 v0 v1 - v_a h_ab(x0) v_b with h the `rotating_triple` block:
    the transverse block rotates with x0, so W != 0 on the ray."""
    def d1(x):
        return 1.0 + 0.5 * x[0] * x[0]

    entries = {
        (0, 1): 1.0,
        (2, 2): lambda x: -(jets.cos(x[0]) ** 2 * d1(x)
                            + 2.0 * jets.sin(x[0]) ** 2),
        (2, 3): lambda x: -jets.cos(x[0]) * jets.sin(x[0]) * (d1(x) - 2.0),
        (3, 3): lambda x: -(jets.sin(x[0]) ** 2 * d1(x)
                            + 2.0 * jets.cos(x[0]) ** 2),
    }
    return lg.QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0],
                                  name="rosen-rotating")


def test_limit_of_rotating_block_matches_the_dop853_oracle():
    # the ray jet's batched triples feed the panel propagators with W != 0
    res = penrose.penrose_limit(rotating_lagrangian(), E0, (-1.0, 1.0))
    us = np.linspace(-0.9, 0.9, 7)
    for got, want in zip(res.rosen.triples(us),
                         zip(*[rotating_triple(u) for u in us])):
        assert np.max(np.abs(got - np.array(want))) <= 1e-12
    m_want, a_want = dop853_vielbein(rotating_triple, 0.0, us)
    h, m = res.brinkmann.vielbein_on(us)
    a = np.array([r[2] for r in res.brinkmann.fields_on(us)])
    assert np.max(np.abs(m - m_want)) <= 1e-11
    assert np.max(np.abs(a - a_want)) <= 1e-11
    # O is no identity here: h^{-1/2} alone misses M by far
    bare = np.array([np.linalg.inv(spd_sqrt(x)) for x in h])
    assert np.max(np.abs(m - bare)) > 1e-2
    assert res.brinkmann.m_conditions(us).passed


def test_limit_truncates_past_focal_point():
    res = penrose.penrose_limit(fixtures.rosen_cos2(), E0, (-1.0, 2.2))
    assert res.brinkmann.truncated
    assert abs(res.brinkmann.u_interval[1] - np.pi / 2) <= 1e-3


def test_limit_raises_when_block_changes_sign():
    with pytest.raises(SignatureError, match="focal point"):
        penrose.penrose_limit(fixtures.linear_wall(), E0, (0.0, 2.0))


def test_limit_raises_when_block_vanishes():
    # no transverse term at all: L is a plain number on the ray jet, so
    # every lane of the positivity grid reads h = 0
    L = lg.Lagrangian(lambda x, v: 2.0 * v[0] * v[1], 4, [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(SignatureError, match="degenerates"):
        penrose.penrose_limit(L, E0, (-1.0, 1.0))


def test_limit_needs_lightlike_chart():
    L = lg.from_descriptor({"type": "minkowski"})
    with pytest.raises(ChartError):
        penrose.penrose_limit(L, E0, (-1.0, 1.0))


def test_limit_csv_roundtrip():
    res = penrose.penrose_limit(fixtures.rosen_cos2(), E0, (-1.0, 1.0))
    us = np.linspace(-0.8, 0.8, 9)
    lines = res.to_csv(us).splitlines()
    header = lines[0].split(",")
    assert header[0] == "u"
    assert header[1:5] == ["h00", "h01", "h10", "h11"]
    assert "M00" in header and "A11" in header
    assert len(lines) == 1 + len(us)
    for line, u in zip(lines[1:], us):
        vals = [float(tok) for tok in line.split(",")]
        assert len(vals) == len(header)
        assert abs(vals[0] - u) <= 1e-15
        assert abs(vals[1] - np.cos(u) ** 2) <= 1e-12


def test_limit_csv_evaluates_the_profile_triple_once_per_row():
    # one batched call for the whole CSV, no scalar triple: its lanes are
    # the rows, then the four partial Gauss step nodes of each row
    res = penrose.penrose_limit(fixtures.rosen_cos2(), E0, (-1.0, 1.0))
    us = np.linspace(-0.8, 0.8, 9)
    before = res.to_csv(us)
    h, triples, calls = res.rosen.h, res.rosen.triples, []

    def scalar(u):
        calls.append(u)
        return h(u)

    def batched(grid):
        calls.append(list(grid))
        return triples(grid)

    res.rosen.h, res.rosen.triples = scalar, batched
    assert res.to_csv(us) == before
    assert len(calls) == 1 and len(calls[0]) == 5 * len(us)
    assert calls[0][:len(us)] == list(us)
    res.rosen.h, res.rosen.triples = h, triples
    for u, row in zip(us, res.brinkmann.fields_on(us)):
        hm, m, a = res.brinkmann.fields(u)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(row, (hm, m, a)))
        assert np.array_equal(hm, res.rosen.matrix(u))
        assert np.array_equal(m, res.brinkmann.M(u))
        assert np.array_equal(a, res.brinkmann.A(u))


def test_plane_wave_model_tracks_varying_profile():
    # non-constant A: the interpolated entry must follow A(u) pointwise
    def A(u):
        return np.array([[-np.cos(u), 0.3 * u], [0.3 * u, 0.1]])

    Lpw = penrose.plane_wave_lagrangian(A, (-1.0, 1.0))
    x = np.array([0.2, 0.4, 0.5, -0.3])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    # L(x, e1) = H(x) with H = -x^T A(x^1) x
    want = -np.array([0.5, -0.3]) @ A(0.4) @ np.array([0.5, -0.3])
    assert abs(Lpw.value(x, v) - want) <= 1e-9
