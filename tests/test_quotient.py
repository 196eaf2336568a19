import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import fixtures, quotient
from finsler import lagrangian as lg
from finsler.connection import VectorField, christoffel
from finsler.curvature import chern_curvature
from finsler.errors import ChartError, ConstructionError
from finsler.quotient import _expm, _pieces, _transport_loop
from helpers import scipy_expm

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
    (y1,) = _transport_loop(L, N, loop, REPS.T, (64,))
    (y2,) = _transport_loop(L, N, loop, (REPS + 5.0 * E0).T, (64,))
    c1 = np.column_stack([frame.class_coords(y1[:, k]) for k in range(2)])
    c2 = np.column_stack([frame.class_coords(y2[:, k]) for k in range(2)])
    assert np.max(np.abs(c1 - c2)) <= 1e-8

    d1 = quotient.holonomy_defect(L, E0, loop, REPS)
    d2 = quotient.holonomy_defect(L, E0, loop, REPS + 5.0 * E0)
    assert abs(d1 - d2) <= 1e-8


def test_transport_requires_parallel_N():
    L = fixtures.broken_parallel(eps=0.5)
    loop = quotient.rectangle_loop([0.0, 0.0, 0.0, 0.0], 0, 2, 0.4)
    with pytest.raises(ChartError, match="not parallel"):
        quotient.holonomy_defect(L, E0, loop, REPS, tol=1e-8)


# -- the stacked matrix exponential ------------------------------------------------

def expm_error(stack):
    want = scipy_expm(stack)
    return np.max(np.abs(_expm(stack) - want)) / max(1.0, np.max(np.abs(want)))


def scaled(stack, norms):
    """``stack`` with the 1-norms ``norms``."""
    own = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
    return stack * (norms / own)[:, None, None]


def test_expm_matches_scipy_on_random_stacks():
    # ||A||_1 up to 2: no squaring up to 1/2, then one or two
    rng = np.random.default_rng(8)
    for n in (2, 4, 5):
        A = scaled(rng.standard_normal((100, n, n)), rng.uniform(0, 2, 100))
        assert expm_error(A) <= 1e-14


def test_expm_on_the_squaring_path():
    # up to ||A||_1 = 10, five squarings.  scipy's own error grows past
    # 1e-14 there (3.4e-13 on one of these symmetric matrices, against a
    # 40-digit reference), so the oracle is the spectral exponential
    rng = np.random.default_rng(9)
    M = rng.standard_normal((200, 4, 4))
    A = scaled(M + np.swapaxes(M, 1, 2), np.linspace(0.1, 10.0, 200))
    lam, Q = np.linalg.eigh(A)
    want = np.einsum("bij,bj,bkj->bik", Q, np.exp(lam), Q)
    got = _expm(A)
    err = np.max(np.abs(got - want), axis=(1, 2))
    assert np.all(err <= 1e-14 * np.max(np.abs(want), axis=(1, 2)))
    # one stack mixing every number of squarings gives each its own
    for b in (0, 57, 199):
        assert np.array_equal(_expm(A[b]), got[b])


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(_expm(np.zeros((3, 4, 4))),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert np.array_equal(_expm(np.zeros((4, 4))), np.eye(4))


def test_expm_matches_scipy_on_the_quotient_example_loop():
    # the 196 transport generators of configs/quotient_wave.json, on a
    # curved (non-pp-wave) model so that they do not commute
    L = fixtures.curved_null_control()
    loop = quotient.rectangle_loop([0.0, 0.1, 0.2, -0.1], 1, 2, 0.1)
    a, b = (np.concatenate(c) for c in zip(_pieces(loop, 64),
                                           _pieces(loop, 128)))
    gamma = christoffel(L, VectorField.constant(E0), 0.5 * (a + b)).gamma
    G = -np.einsum("bkij,bi->bkj", gamma, b - a)
    assert G.shape == (196, 4, 4) and np.any(G)
    assert expm_error(G) <= 1e-14


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
