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


def test_template_report_serializes():
    L = lg.build_brinkmann_quadratic("x2-y2")
    rep = ppwave.lightlike_form_check(L, E0, [0.0, 0.1, 0.2, 0.3])
    assert rep.passed is True
    assert set(rep.residuals) == {"N-e0", "g00", "g01", "g02", "g03"}
    assert rep.minors == [1.0, 1.0]
    assert all(type(m) is float for m in rep.minors)


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
    assert rep.max_residual() <= 1e-12


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


def test_delta_scan_needs_two_samples():
    # a ray cut at its first sample has no interpolant to scan
    L = fixtures.rosen_cos2()
    ray = GeodesicPath(t=np.array([0.0]), x=np.zeros((1, 4)), v=E0[None, :],
                       ldrift=np.zeros(1), l0=0.0, tol=1e-9, truncated=True)
    with pytest.raises(SolverError, match="at least 2 samples"):
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
