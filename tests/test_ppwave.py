import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import fixtures, jets
from finsler import lagrangian as lg
from finsler import ppwave
from finsler.connection import (
    GeodesicPath,
    VectorField,
    christoffel,
    geodesic,
)
from finsler.errors import ConfigError, SolverError
from finsler.lagrangian import QuadraticLagrangian

from helpers import E0, jacobi_first_zero


# -- lightlike chart template ------------------------------------------------

def test_brinkmann_template_exact():
    L = lg.build_brinkmann_quadratic("x2")
    rep = ppwave.lightlike_form_check(L, E0, [0.1, 0.2, 0.3, -0.4])
    assert rep.shape_ok
    assert rep.h_posdef
    assert np.array_equal(rep.h_block, np.eye(2))
    assert rep.minors == [1.0, 1.0]
    assert max(rep.residuals.values()) == 0.0


def test_parallel_example_template_has_free_row():
    L = lg.catalog()["parallel_example"]
    rep = ppwave.lightlike_form_check(L, E0, [0.3, 0.2, 0.1, -0.2])
    assert rep.shape_ok
    # the g_1i row is unconstrained by the template and genuinely nonzero
    assert np.max(np.abs(rep.g[1, 2:])) > 1e-3
    assert rep.h_posdef


def test_minkowski_standard_coords_fail_template():
    L = lg.build_minkowski()
    rep = ppwave.lightlike_form_check(L, E0, [0.0, 0.0, 0.0, 0.0])
    assert not rep.shape_ok
    assert rep.residuals["g00"] == 1.0
    assert rep.residuals["g01"] == 1.0
    assert not rep.passed


def test_rosen_cross_template():
    L = fixtures.rosen_cross()
    x = [0.4, 0.1, 0.2, 0.3]
    rep = ppwave.lightlike_form_check(L, E0, x)
    assert rep.shape_ok
    assert abs(rep.h_block[0, 0] - np.cos(0.4) ** 2) < 1e-14
    assert np.max(np.abs(rep.g[1, 1:])) > 0.1


def test_posdef_verdict_by_minors():
    entries = {(0, 1): 1.0, (2, 2): lambda x: -(x[0] - 1.0), (3, 3): -1.0}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0])
    rep = ppwave.lightlike_form_check(L, E0, [0.0, 0.0, 0.0, 0.0])
    assert rep.shape_ok
    assert rep.minors[0] < 0.0
    assert not rep.h_posdef
    assert not rep.passed


def test_posdef_verdict_needs_positive_minors():
    # h2 = 1 - x0 vanishes at x0 = 1: a zero leading minor is not positive
    rep = ppwave.lightlike_form_check(fixtures.linear_wall(), E0,
                                      [1.0, 0.1, 0.2, 0.3])
    assert rep.shape_ok
    assert rep.minors == [0.0, 0.0]
    assert not rep.h_posdef
    assert not rep.passed


@pytest.mark.parametrize("g00,passes", [(1e-9, True), (1.5e-9, False)])
def test_template_tolerance_has_a_unit_scale_floor(g00, passes):
    # every entry of g is below 1 in size, so the tolerance is 1e-9 itself,
    # not 1e-9 times the largest entry: a residual of exactly 1e-9 passes
    entries = {(0, 0): g00, (0, 1): 1.0 - 2.0 ** -30, (2, 2): -0.5,
               (3, 3): -0.5}
    L = QuadraticLagrangian(entries, 4, [1.0, 1.0, 0.0, 0.0])
    rep = ppwave.lightlike_form_check(L, E0, [0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(rep.g)) < 1.0
    assert rep.residuals["g00"] == g00
    assert rep.shape_ok is passes


def test_a_nan_g00_fails_the_template(monkeypatch):
    # the residual after a zero "N-e0" is NaN, and fails the template
    real = ppwave.fundamental_tensor

    def poisoned(L, x, v):
        g = np.array(real(L, x, v))
        g[..., 0, 0] = np.nan
        return g

    monkeypatch.setattr(ppwave, "fundamental_tensor", poisoned)
    rep = ppwave.lightlike_form_check(lg.build_brinkmann_quadratic("x2-y2"),
                                      E0, [0.0, 0.1, 0.2, 0.3])
    assert np.isnan(rep.residuals["g00"])
    assert not rep.shape_ok


def test_template_report_serializes():
    L = lg.build_brinkmann_quadratic("x2-y2")
    rep = ppwave.lightlike_form_check(L, E0, [0.0, 0.1, 0.2, 0.3])
    assert rep.passed is True
    assert set(rep.residuals) == {"N-e0", "g00", "g01", "g02", "g03"}
    assert rep.minors == [1.0, 1.0]
    assert all(type(m) is float for m in rep.minors)


@pytest.mark.parametrize("n", [3, jets.LANE_BLOCK + 1])
@pytest.mark.parametrize("build", [fixtures.rosen_cross, fixtures.linear_wall,
                                   lg.build_minkowski,
                                   lg._default_parallel_example])
def test_template_on_a_stack_is_the_template_at_each_point(build, n):
    # one stacked fundamental_tensor; every report is that of its point
    # alone, bit for bit, failing templates included
    L = build()
    xs = np.random.default_rng(n).uniform(-0.9, 0.9, (n, 4))
    reps = ppwave.lightlike_form_check(L, E0, xs)
    assert len(reps) == n
    for x, rep in zip(xs, reps):
        want = ppwave.lightlike_form_check(L, E0, x)
        assert rep.g.tobytes() == want.g.tobytes()
        assert rep.x.tobytes() == want.x.tobytes()
        assert rep.h_block.tobytes() == want.h_block.tobytes()
        assert (rep.residuals, rep.minors, rep.shape_ok, rep.h_posdef) == (
            want.residuals, want.minors, want.shape_ok, want.h_posdef)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(-1.2, 1.2), x2=st.floats(-0.5, 0.5))
def test_rosen_template_holds_everywhere(u, x2):
    L = fixtures.rosen_cos2()
    rep = ppwave.lightlike_form_check(L, E0, [u, 0.0, x2, -0.3])
    assert rep.shape_ok
    assert abs(rep.h_block[0, 0] - np.cos(u) ** 2) < 1e-12


# -- parallelism criterion ----------------------------------------------------

SAMPLES = [[0.1, 0.2, 0.3, -0.4], [0.0, 0.5, -0.2, 0.1]]


@pytest.mark.parametrize("profile", ["zero", "x2", "x2-y2", "uxy"])
def test_parallel_criterion_brinkmann(profile):
    L = lg.build_brinkmann_quadratic(profile)
    rep = ppwave.parallel_criterion(L, E0, SAMPLES)
    assert rep.passed
    assert np.max([c.residual for c in rep.checks]) <= 1e-12


def test_parallel_criterion_finsler_example():
    L = lg.catalog()["parallel_example"]
    rep = ppwave.parallel_criterion(L, E0, SAMPLES)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert any("d0 g_N" in n for n in names)
    assert any("nabla N" in n for n in names)


def test_parallel_criterion_negative_control():
    L = fixtures.broken_parallel(eps=0.1)
    rep = ppwave.parallel_criterion(L, E0, [[0.0, 0.1, 0.2, 0.3]])
    assert not rep.passed
    by_name = {c.name: c for c in rep.checks}
    jet = by_name["sample 0: d0 g_N"]
    direct = by_name["sample 0: nabla N"]
    assert abs(jet.residual - 0.1) < 1e-12
    assert not jet.passed
    assert direct.residual > 1e-3
    assert not direct.passed


# -- focal scan ----------------------------------------------------------------

def test_delta_flat():
    L = fixtures.rosen_flat()
    ray = geodesic(L, [-1.0, 0.0, 0.2, -0.1], E0, (0.0, 2.0), n_samples=81)
    dc = ppwave.delta_scan(L, E0, ray)
    assert np.max(np.abs(dc.delta - 1.0)) == 0.0
    assert dc.roots == []
    assert dc.flagged == []
    assert np.max(np.abs(dc.delta4 - dc.delta)) == 0.0


def test_delta_cos2_tangential_root():
    L = fixtures.rosen_cos2()
    ray = geodesic(L, [0.0, 0.0, 0.1, 0.1], E0, (0.0, 2.0), n_samples=161)
    dc = ppwave.delta_scan(L, E0, ray)
    assert len(dc.roots) == 1
    assert abs(dc.roots[0] - np.pi / 2) <= 1e-9
    assert dc.kinds == [ppwave.DEGENERATE_KIND]
    assert np.nanmax(np.abs(dc.delta - np.abs(np.cos(dc.params)))) < 1e-12
    assert np.nanmax(np.abs(dc.delta4 - dc.delta)) <= 1e-10
    assert dc.flagged == []


def test_delta_sign_change_root_and_flag():
    L = fixtures.linear_wall()
    ray = geodesic(L, [0.0, 0.0, 0.0, 0.0], E0, (0.0, 2.0), n_samples=81)
    dc = ppwave.delta_scan(L, E0, ray)
    assert len(dc.roots) == 1
    assert abs(dc.roots[0] - 1.0) <= 1e-10
    assert dc.kinds == ["simple"]
    assert len(dc.flagged) == 1
    lo, hi = dc.flagged[0]
    assert lo > 1.0 and hi == 2.0
    assert np.isnan(dc.delta[dc.params > lo]).all()


def test_delta_positive_dip_is_not_a_root():
    L = fixtures.rosen_diag(lambda u: jets.cos(u) ** 2 + 0.01,
                            lambda u: 1.0, name="dip")
    ray = geodesic(L, [0.0, 0.0, 0.0, 0.0], E0, (0.0, 2.0), n_samples=161)
    dc = ppwave.delta_scan(L, E0, ray)
    assert dc.roots == []
    assert np.nanmin(dc.det_h) > 0.009


def _straight_ray(t):
    """A hand-built ray x = (t, 0, 0, 0), v = e0 at the times t, with its
    dense state."""
    t = np.array(t, dtype=float)
    x = np.zeros((len(t), 4))
    x[:, 0] = t
    return GeodesicPath(t=t, x=x, v=np.tile(E0, (len(t), 1)),
                        ldrift=np.zeros(len(t)), l0=0.0, tol=1e-9,
                        sol=lambda s: np.concatenate([[s, 0.0, 0.0, 0.0],
                                                      E0]))


@pytest.mark.parametrize("model,t,kind", [
    # det h = 1 - t: zeros at the last and first sample, a sign change
    ("wall", [0.0, 0.5, 1.0], "simple"),
    ("wall", [1.0, 1.5, 2.0], "simple"),
    # det h = (1 - t)^2: a zero at the last sample with zero slope
    ("double", [0.0, 0.5, 1.0], ppwave.DEGENERATE_KIND),
    # interior zeros take their kind from the neighbours' signs
    ("wall", [0.0, 0.5, 1.0, 1.5, 2.0], "simple"),
    ("double", [0.0, 0.5, 1.0, 1.5, 2.0], ppwave.DEGENERATE_KIND),
])
def test_delta_scan_exact_zero_at_a_sample(model, t, kind):
    L = (fixtures.linear_wall() if model == "wall" else
         fixtures.rosen_diag(lambda u: (1 - u) ** 2, lambda u: 1.0))
    dc = ppwave.delta_scan(L, E0, _straight_ray(t))
    assert 0.0 in dc.det_h
    assert dc.roots == [1.0]
    assert dc.kinds == [kind]


def test_delta_scan_needs_two_samples():
    # a ray cut at its first sample has no interpolant to scan
    L = fixtures.rosen_cos2()
    ray = GeodesicPath(t=np.array([0.0]), x=np.zeros((1, 4)), v=E0[None, :],
                       ldrift=np.zeros(1), l0=0.0, tol=1e-9, truncated=True)
    with pytest.raises(SolverError, match="at least 2 samples"):
        ppwave.delta_scan(L, E0, ray)


def test_delta_scan_of_a_ray_with_two_samples():
    # the fewest samples a focal run takes: the one interval brackets the
    # sign change of det h = 1 - t
    L = fixtures.linear_wall()
    ray = geodesic(L, [0.0, 0.0, 0.0, 0.0], E0, (0.0, 2.0), n_samples=2)
    dc = ppwave.delta_scan(L, E0, ray)
    assert dc.params.tolist() == [0.0, 2.0]
    assert len(dc.roots) == 1 and abs(dc.roots[0] - 1.0) <= 1e-10
    assert dc.kinds == ["simple"]


def test_delta_scan_needs_increasing_times():
    # three samples at t = 0, 0, 5e-324 have no interpolant either
    L = fixtures.rosen_cos2()
    ray = GeodesicPath(t=np.array([0.0, 0.0, 5e-324]), x=np.zeros((3, 4)),
                       v=np.tile(E0, (3, 1)), ldrift=np.zeros(3), l0=0.0,
                       tol=1e-9, truncated=False)
    with pytest.raises(SolverError, match="at strictly increasing times"):
        ppwave.delta_scan(L, E0, ray)


def test_delta_csv_and_json():
    L = fixtures.rosen_cos2()
    ray = geodesic(L, [0.0, 0.0, 0.0, 0.0], E0, (0.0, 2.0), n_samples=41)
    dc = ppwave.delta_scan(L, E0, ray)
    lines = dc.to_csv().splitlines()
    assert lines[0] == "t,delta,det_h"
    assert len(lines) == 42
    back = np.array([[float(a) for a in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(back[:, 0], dc.params)
    assert np.allclose(back[:, 2], dc.det_h)
    assert dc.kinds == [ppwave.DEGENERATE_KIND]


@pytest.mark.parametrize("d,touch,found", [
    (-1e-14, 1e-12, True), (-1e-14, 0.0, False), (0.0, 0.0, True),
    (1e-3, 0.0, True), (1e-3, -1e-2, False),
])
def test_touch_root_polishes_the_bottom_of_a_dip(d, touch, found):
    # f = (t - c)^2 - d: the slope 2 (t - c) turns from - to + at c, and
    # f(c) = -d decides whether the dip touches
    c = 0.3 + 1.0 / 7.0

    def f(t):
        return (t - c) ** 2 - d

    def slope(t):
        return 2.0 * (t - c)

    r = ppwave.touch_root(f, slope, 0.0, 1.0, touch, 1e-12)
    if found:
        assert abs(r - c) <= 1e-12
    else:
        assert r is None


@pytest.mark.parametrize("sign,a,b", [(1.0, 0.5, 1.0), (1.0, 0.0, 0.4),
                                      (-1.0, 0.0, 1.0)],
                         ids=["rising", "falling", "bump"])
def test_touch_root_needs_a_turning_slope(sign, a, b):
    # the slope keeps its sign on [a, b], or turns from + to - at a bump
    c = 0.45
    assert ppwave.touch_root(lambda t: sign * ((t - c) ** 2 - 1.0),
                             lambda t: sign * 2.0 * (t - c), a, b, 0.0,
                             1e-12) is None


@pytest.mark.parametrize("vals,ceiling,want", [
    ([0.5, 0.2, 0.4, 0.1, 0.3], 1.0, [1, 3]),
    # the ends have one neighbour each and are never dips
    ([0.1, 0.5, 0.05], 1.0, []),
    # minima at or below zero are walls, not dips
    ([0.5, 0.0, 0.5, -0.1, 0.5], 1.0, []),
    # the ceiling is inclusive
    ([0.5, 0.2, 0.5, 0.3, 0.5], 0.2, [1]),
    # every sample of a flat bottom counts
    ([0.5, 0.2, 0.2, 0.5], 1.0, [1, 2]),
    ([], 1.0, []), ([0.1], 1.0, []), ([0.2, 0.1], 1.0, []),
], ids=["minima", "ends", "nonpositive", "ceiling", "flat", "empty", "one",
        "two"])
def test_dips_are_interior_minima_under_the_ceiling(vals, ceiling, want):
    assert ppwave.dips(np.array(vals), ceiling).tolist() == want


def test_focal_matches_jacobi_zero():
    # independent oracle: transverse Jacobi system in a parallel frame
    L = fixtures.rosen_cos2()
    ray = geodesic(L, [0.0, 0.0, 0.0, 0.0], E0, (0.0, 2.0), n_samples=81)
    dc = ppwave.delta_scan(L, E0, ray)
    tz = jacobi_first_zero(L, E0, ray)
    assert tz is not None
    assert abs(tz - dc.roots[0]) <= 1e-6


# -- Brinkmann closed forms -----------------------------------------------------

def test_oracle_zero_profile():
    oracle = ppwave.brinkmann_oracle("zero")
    assert np.array_equal(oracle([0.3, -0.2, 0.5, 0.1]), np.zeros((4, 4, 4)))


def test_oracle_frozen_x2():
    oracle = ppwave.brinkmann_oracle("x2")
    gam = oracle([0.0, 0.2, 0.37, -0.5])
    assert abs(gam[0, 1, 2] - 0.37) < 1e-15
    assert abs(gam[0, 2, 1] - 0.37) < 1e-15
    # raised transverse symbol: same sign as the lowered derivative here
    assert abs(gam[2, 1, 1] - 0.37) < 1e-15
    assert np.count_nonzero(gam) == 3


@pytest.mark.parametrize("profile", ["zero", "x2", "x2-y2", "uxy"])
def test_oracle_against_solver(profile):
    L = lg.build_brinkmann_quadratic(profile)
    oracle = ppwave.brinkmann_oracle(profile)
    rng = np.random.default_rng(11)
    N = VectorField.constant(E0)
    for _ in range(2):
        x = rng.uniform(-0.8, 0.8, size=4)
        table = christoffel(L, N, x)
        assert np.max(np.abs(oracle(x) - table.gamma)) <= 1e-9


def test_oracle_unknown_profile():
    with pytest.raises(ConfigError):
        ppwave.brinkmann_oracle("nope")
