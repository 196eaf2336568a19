import numpy as np
import pytest

from finsler import fixtures, jets, ode, penrose
from finsler import lagrangian as lg
from finsler.connection import VectorField, christoffel
from finsler.curvature import chern_curvature, ppwave_condition
from finsler.errors import (ChartError, EvaluationError, SignatureError,
                            SolverError)
from finsler.penrose import RosenProfile
from helpers import (cos2_triple, dop853_vielbein, exp_triple,
                     per_sample_homothety, per_sample_offblock, spd_sqrt)

E0 = np.array([1.0, 0.0, 0.0, 0.0])


def cos2_profile():
    return RosenProfile(h=cos2_triple)


def rotated(u, D, Dd, Ddd):
    """h = R(u) D(u) R(u)^T, R the rotation by u, from D, D' and D'': with
    J = R^T R', K = J D - D J + D' gives h' = R K R^T and
    h'' = R (J K - K J + K') R^T."""
    c, s = np.cos(u), np.sin(u)
    R = np.array([[c, -s], [s, c]])
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    K = J @ D - D @ J + Dd
    Kd = J @ Dd - Dd @ J + Ddd
    return (R @ D @ R.T, R @ K @ R.T, R @ (J @ K - K @ J + Kd) @ R.T)


def rotating_triple(u):
    """`rotated` with D = diag(1 + u^2/2, 2)."""
    return rotated(u, np.diag([1.0 + 0.5 * u * u, 2.0]), np.diag([u, 0.0]),
                   np.diag([1.0, 0.0]))


def narrow_dip_triple(c):
    """`rotated` with D = diag(d, 2), d = 1 - 0.65 g(0.05) - 0.8 g(0.001)
    and g(w) = exp(-((u - c)/w)^2): h loses positivity within 1e-3 of c.
    At c = +-76.5/128 that is halfway between two points of the first
    level's 128-point wall scan, where d is above the dip ceiling, so a
    later level finds the wall."""
    def triple(u):
        d, dd, ddd = 1.0, 0.0, 0.0
        for a, w in ((0.65, 0.05), (0.8, 1e-3)):
            s = (u - c) / w
            g = a * np.exp(-s * s)
            d, dd, ddd = (d - g, dd + 2.0 * s * g / w,
                          ddd + (2.0 - 4.0 * s * s) * g / (w * w))
        return rotated(u, np.diag([d, 2.0]), np.diag([dd, 0.0]),
                       np.diag([ddd, 0.0]))

    return triple


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
    assert np.max([c.residual for c in rep.checks
                   if c.name.startswith("sample")]) <= 1e-9


def test_homothety_finsler_model():
    L = lg.from_descriptor({"type": "ppwave_example"})
    samples = [[0.3, 0.2, 0.1, -0.1], [-0.4, 0.1, 0.3, 0.2]]
    for omega in (0.5, 0.1):
        rep = penrose.homothety_residual(L, E0, omega, samples)
        assert rep.passed, "omega=%g" % omega


@pytest.mark.parametrize("n", [5, jets.LANE_BLOCK + 1])
@pytest.mark.parametrize("omega", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("build", [fixtures.rosen_cross,
                                   lg._default_ppwave_example,
                                   lg._default_parallel_example])
def test_omega_table_is_the_per_sample_bits(build, omega, n):
    # the stacked homothety samples and off-block rows against one scalar
    # fundamental_tensor per sample; 33 samples cross jets.LANE_BLOCK, and
    # so do the 2 x 33 lanes of L_w at the samples and the ray points
    L = build()
    rng = np.random.default_rng(n)
    us = np.linspace(-1.0, 1.2, n)
    samples = np.column_stack([us, rng.uniform(-0.5, 0.5, (n, 3))])
    got = penrose.homothety_residual(L, E0, omega, samples)
    assert got.to_json() == per_sample_homothety(L, E0, omega,
                                                 samples).to_json()
    res, row = penrose._omega_row(L, E0, omega, samples, us)
    assert res.tolist() == [c.residual for c in got.checks[1:]]
    assert row == per_sample_offblock(L, E0, omega, us)


def test_homothety_of_no_samples_is_the_bookkeeping_alone():
    L = fixtures.rosen_cross()
    got = penrose.homothety_residual(L, E0, 0.5, [])
    assert got.to_json() == per_sample_homothety(L, E0, 0.5, []).to_json()
    assert len(got.checks) == 1


def test_failing_homothety_sample_is_named():
    L = fixtures.rosen_diag(lambda u: jets.sqrt(u), lambda u: 1.0)
    with pytest.raises(EvaluationError, match=r"^at x=\[-0\.5, "):
        penrose.homothety_residual(L, E0, 0.5, [[0.3, 0.1, 0.1, 0.1],
                                                [-0.5, 0.1, 0.1, 0.1]])


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
    omega = 0.5
    Lw = penrose.rescaled_lagrangian(L, omega)
    # the plain pullback L(phi(x), Dphi v), without the omega^-2 factor
    pullback = lg.Lagrangian(lambda x, v: omega ** 2 * Lw(x, v), 4,
                             Lw.cone_ref_at)
    with_factor = christoffel(Lw, field, x)
    without = christoffel(pullback, field, x)
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


def test_a_nan_recovered_profile_fails_the_roundtrip(monkeypatch):
    # a NaN in the recovered A at the 4th of the 21 comparison points is
    # the row's residual, and fails it
    real = penrose.BrinkmannProfile.fields_on

    def poisoned(self, us):
        fields = real(self, us)
        if len(us) == 21:
            h, m, a = fields[3]
            fields[3] = (h, m, np.full_like(a, np.nan))
        return fields

    monkeypatch.setattr(penrose.BrinkmannProfile, "fields_on", poisoned)
    rep = penrose.brinkmann_roundtrip(lambda u: np.diag([-1.0, 0.0]),
                                      (-1.2, 1.2))
    assert np.isnan(rep.checks[0].residual)
    assert not rep.passed


def test_rotating_profile_vielbein_conditions():
    bp = penrose.rosen_to_brinkmann(rotating_triple, 0.0, (-1.0, 1.0))
    us = np.linspace(-0.9, 0.9, 7)
    rep = bp.m_conditions(us)
    assert rep.passed
    # the negative control: h^{-1/2} alone, O = identity, is orthonormal
    # but misses the symmetry condition of a rotating h
    class Bare(penrose.BrinkmannProfile):
        def _frames(self, us):
            h, hd, sinv, sd, sdd, o = super()._frames(us)
            eye = np.broadcast_to(np.eye(o.shape[-1]), o.shape)
            return h, hd, sinv, sd, sdd, eye

    by_name = {c.name: c for c in Bare(**vars(bp)).m_conditions(us).checks}
    assert by_name["M^T h M = identity"].passed
    assert not by_name["symmetry condition"].passed


@pytest.mark.parametrize("builder", ["rosen_cos2", "rosen_cross",
                                     "rosen_exp"])
def test_the_profile_is_the_jacobi_operator_of_the_ray(builder, monkeypatch):
    # A(u) of the limit is Rm(E_a, N, N, E_b) of the Chern curvature at
    # (u, 0, 0, 0), read in the vielbein frame E_a = (0, 0, M[:, a]);
    # the curvature side never runs the O-equation
    L = fixtures.BUILDERS[builder]()
    us = np.linspace(-0.9, 0.9, 7)
    fields = penrose.penrose_limit(L, E0, (-1.0, 1.0)).brinkmann.fields_on(us)

    def unused(*args, **kwargs):
        raise AssertionError("the curvature side ran the Penrose converter")

    monkeypatch.setattr(penrose, "_propagate", unused)
    monkeypatch.setattr(penrose, "rosen_to_brinkmann", unused)
    xs = np.zeros((len(us), 4))
    xs[:, 0] = us
    for (_, M, A), R in zip(fields, chern_curvature(L, xs, E0)):
        E = np.zeros((4, 2))
        E[2:] = M
        jacobi = np.array([[R.rm(E[:, a], E0, E0, E[:, b]) for b in range(2)]
                           for a in range(2)])
        assert np.max(np.abs(A - jacobi)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(A))))


@pytest.mark.parametrize("builder", ["rosen_cos2", "rosen_cross",
                                     "rosen_exp"])
def test_the_vielbein_derivative_row_sees_the_scale_of_m_prime(builder):
    # the derivative of M^T h M = identity holds to the stencil's error
    # (1.5e-11 to 2.8e-11 here); the symmetry condition holds for any
    # multiple of M', so stretching the stencil's offsets by 1.5, which
    # scales M' by 1.5, passes it and fails only the derivative row
    res = penrose.penrose_limit(fixtures.BUILDERS[builder](), E0,
                                (-1.0, 1.0))
    us = np.linspace(-0.9, 0.9, 9)
    rep = res.brinkmann.m_conditions(us)
    assert [c.name for c in rep.checks] == [
        "M^T h M = identity", "symmetry condition", "d/du (M^T h M) = 0"]
    assert rep.passed
    assert rep.checks[2].residual <= 1e-10

    class Stretched(penrose.BrinkmannProfile):
        def _frames(self, us):
            grid = np.tile(us[:len(us) // 5], 5)
            return super()._frames(grid + 1.5 * (us - grid))

    stretched = Stretched(**vars(res.brinkmann)).m_conditions(us).checks
    assert stretched[0].passed and stretched[1].passed
    assert stretched[2].residual > 0.1


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
    # the panel propagators replace any sequential integrator
    def refuse(*args, **kwargs):
        raise AssertionError("ode.dop853 called")

    monkeypatch.setattr(ode, "dop853", refuse)
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


def test_o_equation_takes_exactly_its_panel_bound(monkeypatch):
    # the rotating profile has 4 pending panels at its second level, and
    # no more at any level
    monkeypatch.setattr(penrose, "_MAX_PANELS", 4)
    bp = penrose.rosen_to_brinkmann(rotating_triple, 0.0, (-1.0, 1.0))
    assert bp.m_conditions(np.linspace(-0.9, 0.9, 5)).passed
    monkeypatch.setattr(penrose, "_MAX_PANELS", 3)
    with pytest.raises(SolverError, match="more than 3 panels"):
        penrose.rosen_to_brinkmann(rotating_triple, 0.0, (-1.0, 1.0))


@pytest.mark.parametrize("c", [76.5 / 128, -76.5 / 128],
                         ids=["upper", "lower"])
def test_a_wall_met_after_the_first_level_cuts_only_its_side(
        monkeypatch, c):
    # a wall found once panels are done drops the done panels of its own
    # side, and keeps the other side's
    found = []
    propagate = penrose._propagate

    def spy(rosen, u0, targets, first_wall):
        def recording(ray, lows):
            found.append(first_wall(ray, lows))
            return found[-1]

        return propagate(rosen, u0, targets, recording)

    monkeypatch.setattr(penrose, "_propagate", spy)
    bp = penrose.rosen_to_brinkmann(narrow_dip_triple(c), 0.0, (-1.0, 1.0))
    walls = [w for w in found if w is not None]
    # the first level, one walk per side, misses the wall
    assert found[:2] == [None, None] and len(walls) == 1
    assert abs(walls[0] - c) < 1e-3
    ends = (walls[0], 1.0) if c < 0 else (-1.0, walls[0])
    assert bp.truncated and bp.u_interval == ends
    # each side's panels run from u0 to its end, in order
    for (us, _), end in zip(bp.sides, ends):
        assert us[0] == 0.0 and us[-1] == end
        assert np.all(np.diff(us) * np.sign(end) > 0.0)


@pytest.mark.parametrize("triple", [cos2_triple, rotating_triple],
                         ids=["cos2", "rotating"])
def test_first_level_carries_both_wall_scans(monkeypatch, triple):
    # one batched triple per refinement level; the first holds both
    # sides' 128-point wall scans and the 12 nodes of each side's first
    # panel and its halves, and each later level 8 nodes per panel
    sizes = []
    triples = RosenProfile.triples

    def spy(self, us):
        sizes.append(len(us))
        return triples(self, us)

    monkeypatch.setattr(RosenProfile, "triples", spy)
    bp = penrose.rosen_to_brinkmann(triple, 0.0, (-1.0, 1.0))
    assert not bp.truncated
    depth = max(int(round(np.log2(1.0 / w)))
                for edges, _ in bp.sides for w in np.abs(np.diff(edges)))
    assert sizes[0] == 2 * 128 + 24
    assert len(sizes) == depth
    assert all(k % 8 == 0 for k in sizes[1:])
    if triple is cos2_triple:   # W = 0: the first level converges
        assert sizes == [280]


def test_a_cut_evaluates_only_the_fresh_panel_of_its_side(monkeypatch):
    # cos^2 meets its wall at pi/2 on the first level's upper scan; the
    # lower side's panels go on from that level's nodes, so the next
    # level holds only the 12 nodes of the fresh upper panel (0, wall)
    # and its halves
    sizes = []
    triples = RosenProfile.triples

    def spy(self, us):
        sizes.append(len(us))
        return triples(self, us)

    monkeypatch.setattr(RosenProfile, "triples", spy)
    bp = penrose.rosen_to_brinkmann(cos2_triple, 0.0, (-1.0, 2.2))
    assert bp.truncated
    assert abs(bp.u_interval[1] - np.pi / 2) <= 1e-3
    assert sizes == [280, 12]


@pytest.mark.parametrize("c", [76.5 / 128, -76.5 / 128],
                         ids=["upper", "lower"])
def test_the_uncut_side_is_its_side_converted_alone(c):
    # a wall on one side moves no bit of the other side's panels
    both = penrose.rosen_to_brinkmann(narrow_dip_triple(c), 0.0, (-1.0, 1.0))
    uncut = 0 if c > 0 else 1
    interval = [0.0, 0.0]
    interval[uncut] = (-1.0, 1.0)[uncut]
    alone = penrose.rosen_to_brinkmann(narrow_dip_triple(c), 0.0, interval)
    assert len(both.sides[uncut][0]) > 2
    for got, want in zip(both.sides[uncut], alone.sides[uncut]):
        assert got.tobytes() == want.tobytes()


def dip_triple(u, at=float(penrose._GL_C[0]), width=5e-4, depth=1.5):
    """diag(1 - depth exp(-x^2), 1), x = (u - at) / width: h loses
    positivity only in a dip, by default far narrower than the wall
    scan's grid."""
    x = (u - at) / width
    e = depth * np.exp(-x * x)
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


@pytest.mark.parametrize("depth", [1.5, 1.0 + 1e-7],
                         ids=["below-scan-points", "between-scan-points"])
def test_scan_finds_a_dip_the_panel_nodes_step_over(depth):
    # W = 0 for a diagonal h, so the first level's panels converge with
    # no node near this dip, midway between two points of the wall scan
    # of (0, 1]: the scan points beside it fall below the floor, or, for
    # the shallow dip, are its flat bottom, whose touch root is u = at
    at = 32.5 / 128

    def triple(u):
        return dip_triple(u, at=at, width=0.01, depth=depth)

    bp = penrose.rosen_to_brinkmann(triple, 0.0, (-0.5, 1.0))
    wall = at - 0.01 * np.sqrt(np.log(depth / (1 - 1e-8)))
    assert bp.truncated
    assert bp.u_interval[0] == -0.5
    assert abs(bp.u_interval[1] - wall) <= 1e-10


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
        hm, m, a = res.brinkmann.fields_on([u])[0]
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
