import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import cli, fixtures, jets, quotient
from finsler import lagrangian as lg
from finsler.connection import VectorField, christoffel
from finsler.curvature import chern_curvature
from finsler.errors import (ChartError, ConeError, ConstructionError,
                            SolverError)
from finsler.quotient import _transport_loop
from helpers import scipy_dop853

E0 = np.array([1.0, 0.0, 0.0, 0.0])
REPS = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


# -- quotient metric ----------------------------------------------------------

def test_brinkmann_gbar_identity():
    L = lg.build_brinkmann_quadratic("x2-y2")
    frame = quotient.quotient_metric(L, E0, [0.1, 0.2, 0.3, -0.4], REPS)
    assert np.array_equal(frame.gbar, np.eye(2))


def test_rosen_gbar_reads_off_blocks():
    L = fixtures.rosen_cos2()
    frame = quotient.quotient_metric(L, E0, [0.4, 0.0, 0.1, 0.2], REPS)
    assert abs(frame.gbar[0, 0] - np.cos(0.4) ** 2) < 1e-15
    assert frame.gbar[1, 1] == 1.0
    assert frame.gbar[0, 1] == 0.0

    Le = fixtures.rosen_exp()
    fe = quotient.quotient_metric(Le, E0, [0.3, 0.0, 0.0, 0.0], REPS)
    assert abs(fe.gbar[0, 0] - np.exp(0.6)) < 1e-12
    assert abs(fe.gbar[1, 1] - np.exp(-0.6)) < 1e-12


def test_rep_shift_leaves_gbar():
    L = lg.build_brinkmann_quadratic("x2")
    x = [0.1, 0.2, 0.3, -0.4]
    base = quotient.quotient_metric(L, E0, x, REPS)
    shifted = REPS + np.array([[7.0], [-3.0]]) * E0
    frame = quotient.quotient_metric(L, E0, x, shifted)
    assert np.max(np.abs(frame.gbar - base.gbar)) == 0.0


@settings(max_examples=30, deadline=None)
@given(f1=st.floats(-5, 5), f2=st.floats(-5, 5))
def test_rep_shift_invariance_property(f1, f2):
    L = fixtures.rosen_cos2()
    x = [0.4, 0.1, 0.2, -0.3]
    base = quotient.quotient_metric(L, E0, x, REPS)
    shifted = REPS + np.array([[f1], [f2]]) * E0
    frame = quotient.quotient_metric(L, E0, x, shifted)
    assert np.max(np.abs(frame.gbar - base.gbar)) <= 1e-12


def test_rep_not_orthogonal_raises():
    L = lg.build_brinkmann_quadratic("x2")
    bad = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ConstructionError, match="orthogonal"):
        quotient.quotient_metric(L, E0, [0.0, 0.0, 0.0, 0.0], bad)


def test_reps_dependent_mod_N_raise():
    L = lg.build_brinkmann_quadratic("x2")
    bad = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 2.0, 0.0]])
    with pytest.raises(ConstructionError, match="dependent"):
        quotient.quotient_metric(L, E0, [0.0, 0.0, 0.0, 0.0], bad)


def test_non_lightlike_N_raises():
    L = lg.build_minkowski()
    with pytest.raises(ConstructionError, match="lightlike"):
        quotient.quotient_metric(L, E0, [0.0, 0.0, 0.0, 0.0], REPS)


# -- holonomy -----------------------------------------------------------------

def test_flat_loop_defect():
    L = fixtures.rosen_flat()
    loop = quotient.rectangle_loop([0.0, 0.0, 0.0, 0.0], 2, 3, 0.1)
    assert quotient.holonomy_defect(L, E0, loop, REPS) <= 1e-9


def test_loop_of_zero_length_has_no_defect():
    # the curved control has a defect on every loop of positive size
    L = fixtures.curved_null_control()
    loop = quotient.rectangle_loop([0.0, 0.0, 0.3, 0.0], 2, 3, 0.0)
    assert quotient.holonomy_defect(L, E0, loop, REPS) == 0.0


def test_triangle_polyline_accepted():
    L = fixtures.rosen_flat()
    loop = np.array([[0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.1, 0.0],
                     [0.0, 0.0, 0.0, 0.15]])
    assert quotient.holonomy_defect(L, E0, loop, REPS) <= 1e-9


def test_ppwave_quotient_is_flat():
    # flat quotient connection on a pp-wave, loop in the (u, x) plane
    L = lg.build_brinkmann_quadratic("x2-y2")
    loop = quotient.rectangle_loop([0.0, 0.0, 0.3, -0.2], 1, 2, 0.1)
    defect = quotient.holonomy_defect(L, E0, loop, REPS)
    assert defect <= 1e-7 * 0.1 * 0.1


def test_curved_control_defect_tracks_curvature():
    L = fixtures.curved_null_control()
    base = np.array([0.0, 0.0, 0.2, -0.1])
    side = 0.05
    loop = quotient.rectangle_loop(base, 2, 3, side)
    defect = quotient.holonomy_defect(L, E0, loop, REPS)

    frame = quotient.quotient_metric(L, E0, base, REPS)
    R = chern_curvature(L, base, E0)
    C = np.column_stack([
        frame.class_coords(R.apply(np.eye(4)[2], np.eye(4)[3],
                                   frame.reps[b]))
        for b in range(2)
    ])
    predicted = float(np.linalg.norm(C, 2))
    area = side * side
    assert predicted > 0.5
    assert abs(defect / area - predicted) <= 0.1 * predicted
    assert defect >= 0.5 * predicted * area


def test_transport_well_defined_mod_N():
    L = fixtures.curved_null_control()
    loop = quotient.rectangle_loop([0.0, 0.0, 0.2, -0.1], 2, 3, 0.05)
    frame = quotient.quotient_metric(L, E0, loop[0], REPS)
    N = VectorField.constant(E0)
    y1 = _transport_loop(L, N, loop, REPS.T, 64)
    y2 = _transport_loop(L, N, loop, (REPS + 5.0 * E0).T, 64)
    c1 = np.column_stack([frame.class_coords(y1[:, k]) for k in range(2)])
    c2 = np.column_stack([frame.class_coords(y2[:, k]) for k in range(2)])
    assert np.max(np.abs(c1 - c2)) <= 1e-8

    d1 = quotient.holonomy_defect(L, E0, loop, REPS)
    d2 = quotient.holonomy_defect(L, E0, loop, REPS + 5.0 * E0)
    assert abs(d1 - d2) <= 1e-8


def test_a_transport_that_overflows_has_no_holonomy():
    # pieces of length 5e99: the ordered product of their propagators
    # overflows, silently, and the holonomy is not finite
    L = fixtures.rosen_cross()
    base = [476.80349998474236, -91.03305950744311, -154.16300752990853,
            -499.15987230359815]
    loop = quotient.rectangle_loop(base, 2, 0, 1e100)
    with pytest.raises(SolverError, match="holonomy is not finite"):
        quotient.holonomy_defect(L, E0, loop, REPS, n_segments=4)


def test_transport_requires_parallel_N():
    L = fixtures.broken_parallel(eps=0.5)
    loop = quotient.rectangle_loop([0.0, 0.0, 0.0, 0.0], 0, 2, 0.4)
    with pytest.raises(ChartError, match="not parallel"):
        quotient.holonomy_defect(L, E0, loop, REPS, tol=1e-8)


# -- the transport against independent oracles ---------------------------------

def test_holonomy_is_the_gauss_bonnet_rotation_on_the_conformal_bump():
    # L = 2 v0 v1 - e^{2 phi} (|v2|^2 + |v3|^2), phi = c y^2 z^2 with
    # y = x2, z = x3: the transverse plane is conformal to the flat one,
    # K dA = -(Laplacian of phi) dy dz, and the holonomy of a rectangle
    # rotates classes by theta = -(its integral), whose defect
    # ||R(theta) - I||_2 is 2 |sin(theta / 2)|.  The Laplacian 2c (z^2 + y^2)
    # depends on both coordinates, so opposite edges do not cancel the
    # step's error
    c, side = 0.8, 0.5
    y0, z0 = 0.1, 0.2
    y1, z1 = y0 + side, z0 + side
    theta = -2.0 * c * side * ((z1 ** 3 - z0 ** 3) + (y1 ** 3 - y0 ** 3)) / 3.0
    want = 2.0 * abs(np.sin(theta / 2.0))
    assert abs(want - 0.14653524521928782) <= 1e-16

    L = fixtures.conformal_bump(c)
    loop = quotient.rectangle_loop([0.0, 0.0, y0, z0], 2, 3, side)
    err = {n: abs(quotient.holonomy_defect(L, E0, loop, REPS, n_segments=n)
                  - want) for n in (4, 8, 16)}
    assert err[4] <= 1e-8
    assert err[16] <= 1e-12
    # order 8 in the piece length: halving the pieces gains at least 2^6
    assert err[4] / err[8] >= 64


def test_transport_along_an_edge_matches_dop853():
    # the edge of the loop that moves x3, cut into the 16 pieces that the
    # default 64-piece loop gives it: the product of their Gauss
    # propagators against scipy's DOP853 of Y' = -Γ(x(s))·x' Y
    L = fixtures.curved_null_control()
    N = VectorField.constant(E0)
    loop = quotient.rectangle_loop([0.0, 0.0, 0.2, -0.1], 2, 3, 0.1)
    a, b = loop[1], loop[2]
    assert np.flatnonzero(b - a).tolist() == [3]
    got = _transport_loop(L, N, np.array([a, b]), np.eye(4), 16)

    def rhs(s, y):
        gamma = christoffel(L, N, a + s * (b - a)).gamma
        w = np.einsum("kij,i->kj", gamma, b - a)
        return -(w @ y.reshape(4, 4)).ravel()

    _, ys, status = scipy_dop853(rhs, (0.0, 1.0), np.eye(4).ravel(), 1e-13)
    want = ys[-1].reshape(4, 4)
    assert status == 0
    assert not np.allclose(want, np.eye(4), rtol=0.0, atol=1e-3)
    assert np.max(np.abs(got - want)) <= 1e-12


# -- the frame's gates, at their thresholds -----------------------------------
#
# A flat model whose g_N has scale max|g| = 4: each gate is tested just
# inside and just outside its threshold, where a threshold divided by the
# scale (or by max |Y| in the holonomy drift) instead of multiplied falls
# on the other side.

def _flat(g00=0.0):
    # g = [[g00, 1], [1, 0]] + diag(-4, -1): L(e0) = g00, scale 4
    return lg.QuadraticLagrangian({(0, 0): g00, (0, 1): 1.0, (2, 2): -4.0,
                                   (3, 3): -1.0}, 4, [1.0, 1.0, 0.0, 0.0],
                                  name="flat-scale-4")


FLAT_SCALE = 4.0
ORIGIN = np.zeros(4)


@pytest.mark.parametrize("factor,passes", [(0.99, True), (1.01, False)])
def test_lightlike_gate_scales_with_the_frame(factor, passes):
    light = factor * quotient._FRAME_TOL * FLAT_SCALE
    L = _flat(light)
    assert L.value(ORIGIN, E0) == light
    if passes:
        quotient.quotient_metric(L, E0, ORIGIN, REPS)
    else:
        with pytest.raises(ConstructionError, match="not lightlike"):
            quotient.quotient_metric(L, E0, ORIGIN, REPS)


@pytest.mark.parametrize("factor,passes", [(0.99, True), (1.01, False)])
def test_orthogonality_gate_scales_with_the_frame(factor, passes):
    # g_N(N, e1) = 1, so the first representative's residual is its e1 part
    off = factor * quotient._FRAME_TOL * FLAT_SCALE
    reps = REPS + off * np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    if passes:
        quotient.quotient_metric(_flat(), E0, ORIGIN, reps)
    else:
        with pytest.raises(ConstructionError, match="not g_N-orthogonal"):
            quotient.quotient_metric(_flat(), E0, ORIGIN, reps)


@pytest.mark.parametrize("eps,passes", [(2e-9, True), (5e-10, False)])
def test_dependence_gate_scales_with_the_largest_singular_value(eps, passes):
    # 3 N + eps e2 is g_N-orthogonal to N and almost N itself: the stack
    # [N; reps] has singular values about sqrt(10), 1 and eps / sqrt(10)
    reps = np.array([[3.0, 0.0, eps, 0.0], [0.0, 0.0, 0.0, 1.0]])
    sv = np.linalg.svd(np.vstack([E0, reps]), compute_uv=False)
    assert sv[0] > 3.0
    assert (sv[-1] > 1e-10 * sv[0]) == passes
    assert sv[-1] > 1e-10 / sv[0]
    if passes:
        frame = quotient.quotient_metric(_flat(), E0, ORIGIN, reps)
        assert np.all(np.linalg.eigvalsh(frame.gbar) > 0.0)
    else:
        with pytest.raises(ConstructionError, match="dependent"):
            quotient.quotient_metric(_flat(), E0, ORIGIN, reps)


@pytest.mark.parametrize("factor,passes", [(0.99, True), (1.01, False)])
def test_holonomy_drift_is_relative_to_the_transported_class(factor, passes):
    # the flat transport is the identity, so each class drifts by its own
    # g_N(N, rep) residual; the rep 3 e2 + off e1 has max |Y| = 3, which
    # the drift divides by
    tol = 1e-9
    off = factor * tol * FLAT_SCALE * 3.0
    reps = np.array([[0.0, off, 3.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    loop = quotient.rectangle_loop(ORIGIN, 1, 2, 0.5)
    if passes:
        defect = quotient.holonomy_defect(_flat(), E0, loop, reps, tol=tol)
        assert defect == 0.0
    else:
        with pytest.raises(ChartError, match="left N\\^perp"):
            quotient.holonomy_defect(_flat(), E0, loop, reps, tol=tol)


# -- one frame per base point, one stacked vertex gate ---------------------------

def spied_quotient_run(monkeypatch, tmp_path, config):
    """The points of `fundamental_tensor` calls and the pairs of
    `is_admissible` calls of one ``quotient`` run of ``config``."""
    points, pairs = [], []
    tensor = quotient.fundamental_tensor
    gate = lg.Lagrangian.is_admissible

    def counted_tensor(L, x, v):
        points.append(np.asarray(x, dtype=float).tolist())
        return tensor(L, x, v)

    def counted_gate(self, x, v, *args, **kwargs):
        pairs.append(len(np.atleast_2d(v)))
        return gate(self, x, v, *args, **kwargs)

    monkeypatch.setattr(quotient, "fundamental_tensor", counted_tensor)
    monkeypatch.setattr(lg.Lagrangian, "is_admissible", counted_gate)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["quotient", "--config", str(path)])
    return code, points, pairs


def test_the_example_run_builds_one_frame_and_gates_once(monkeypatch,
                                                        tmp_path, capsys):
    # the representative check and the holonomy reuse the base frame (3
    # tensors before), and the 4 vertices are one stacked gate (4 before)
    config = json.loads((Path(__file__).resolve().parents[1] / "configs"
                         / "quotient_wave.json").read_text())
    code, points, pairs = spied_quotient_run(monkeypatch, tmp_path, config)
    assert code == 0
    assert points == [config["params"]["base"]]
    assert pairs == [4]


def test_a_loop_away_from_the_base_builds_its_frame_at_its_first_vertex(
        monkeypatch, tmp_path, capsys):
    vertices = [[0.0, 0.0, 0.3, 0.4], [0.0, 0.0, 0.8, 0.4],
                [0.0, 0.0, 0.8, 0.9]]
    config = {"spacetime": {"type": "plugin", "params": {
        "module": "finsler.fixtures", "builder": "conformal_bump"}},
        "command": "quotient",
        "params": {"base": [0.0, 0.0, 0.1, 0.2], "n_segments": 8,
                   "loop": {"vertices": vertices}}}
    code, points, pairs = spied_quotient_run(monkeypatch, tmp_path, config)
    assert code == 1
    assert points == [config["params"]["base"], vertices[0]]
    assert pairs == [3]


def test_a_given_frame_gives_the_bits_of_a_built_one():
    # the frame of the loop's first vertex is the one holonomy_defect
    # builds; a frame at another point is refused, not rebuilt
    L = fixtures.conformal_bump(0.8)
    loop = quotient.rectangle_loop([0.0, 0.0, 0.1, 0.2], 2, 3, 0.5)
    frame = quotient.quotient_metric(L, E0, loop[0], REPS)
    built = quotient.holonomy_defect(L, E0, loop, REPS, n_segments=8)
    given = quotient.holonomy_defect(L, E0, loop, REPS, n_segments=8,
                                     frame=frame)
    assert np.float64(given).tobytes() == np.float64(built).tobytes()
    with pytest.raises(ConstructionError, match="first vertex"):
        quotient.holonomy_defect(L, E0, loop[1:], REPS, n_segments=8,
                                 frame=frame)


def looped_gate(L, N, points):
    """The vertex gate as a loop: one scalar `check_admissible` a vertex,
    its error named as `jets._row` names a point of the set."""
    for p in points:
        jets._row(L.check_admissible, (p, N), points)


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def test_the_stacked_vertex_gate_fails_as_the_loop_does():
    # N = (1, 0.5, 0, 0) is lightlike where H = x^2 - y^2 = -4, outside the
    # cone where H < -4; x = 1e200 overflows the cone reference, which
    # fails the stack before any vertex is tested
    L = lg.build_brinkmann_quadratic("x2-y2")
    N = np.array([1.0, 0.5, 0.0, 0.0])
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(60):
        pts = np.zeros((int(rng.integers(1, 6)), 4))
        pts[:, 3] = rng.uniform(1.5, 2.4, len(pts))
        pts[rng.random(len(pts)) < 0.3, 2] = 1e200
        want = raised(looped_gate, L, N, pts)
        assert raised(quotient._gate_vertices, L, VectorField.constant(N),
                      pts) == want
        seen.add(None if want is None else want[1][:12])
    # a vertex outside the cone is named; an overflowing cone reference
    # names its vertex itself
    assert seen == {None, "vector outsi", "at x=[0.0, 0", "cone_ref is "}


def test_a_warning_in_the_stacked_gate_reruns_vertex_by_vertex():
    # no built-in model warns in the gate, but a cone reference that
    # computes with numpy does: its overflow at the second vertex, a
    # warning turned into an error, fails the stacked check before the
    # first vertex, outside the cone, is tested; the rerun raises the
    # first vertex's error, as a loop does
    L = lg.Lagrangian(lambda x, v: v[0] * v[0] - v[1] * v[1] - v[2] * v[2],
                      3, lambda x: np.array([np.cosh(x[2]), 0.0, 0.0]),
                      name="numpy-reference")
    N = np.array([0.1, 1.0, 0.0])
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1000.0]])
    with pytest.raises(RuntimeWarning, match="overflow"):
        L.check_admissible(pts, np.tile(N, (2, 1)))
    want = raised(looped_gate, L, N, pts)
    assert want[0] is ConeError and want[1].startswith("at x=[0.0, 0.0, 0.0]")
    assert raised(quotient._gate_vertices, L, VectorField.constant(N),
                  pts) == want


def test_a_loop_of_one_vertex_has_no_defect():
    # its vertex set, the loop without its closing vertex, is empty
    L = lg.build_brinkmann_quadratic("x2-y2")
    loop = [[0.1, 0.2, 0.3, 0.0]]
    assert quotient.holonomy_defect(L, E0, loop, REPS, n_segments=8) == 0.0


@pytest.mark.parametrize("n", [1, jets.LANE_BLOCK + 1])
def test_the_vertex_gate_passes_a_last_block_of_one_vertex(n):
    # a one-row block tests its vertex alone, as a plain pair
    L = lg.build_brinkmann_quadratic("x2-y2")
    pts = np.zeros((n, 4))
    pts[:, 2] = np.linspace(0.0, 0.3, n)
    quotient._gate_vertices(L, VectorField.constant([1.0, 0.5, 0.0, 0.0]),
                            pts)
