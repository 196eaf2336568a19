"""Fundamental/Cartan tensor tests with finite-difference oracles."""

import numpy as np
import pytest

from finsler import fixtures, jets
from finsler.errors import EvaluationError
from finsler.lagrangian import (
    Lagrangian,
    build_brinkmann_quadratic,
    build_minkowski,
    catalog,
)
from finsler.tensors import (
    cartan_tensor,
    fundamental_tensor,
    homogeneity_report,
    leading_minors,
    signature_of,
)

RNG = np.random.default_rng(11)


def fd_g(L, x, v, i, j, h=1e-4):
    """Second difference oracle for g_ij = 1/2 d2 L/dvi dvj."""
    def at(si, sj):
        w = np.array(v, dtype=float)
        w[i] += si * h
        w[j] += sj * h
        return L.value(x, w)

    if i == j:
        return 0.5 * (at(1, 0) - 2.0 * at(0, 0) + at(-1, 0)) / h ** 2
    return 0.5 * (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)


def test_minkowski_fundamental_any_v():
    L = build_minkowski()
    for _ in range(5):
        v = RNG.uniform(-1.0, 1.0, 4)  # g is v-independent, any v will do
        g = fundamental_tensor(L, [0.0] * 4, v)
        assert np.allclose(g, np.diag([1.0, -1, -1, -1]), atol=1e-13)


def test_brinkmann_matrix_shape_with_H_entry():
    L = build_brinkmann_quadratic("x2")
    x = [0.0, 0.0, 1.2, 0.7]
    N = [1.0, 0.0, 0.0, 0.0]
    g = fundamental_tensor(L, x, N)
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 1.44, 0.0, 0.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ])
    assert np.allclose(g, expected, atol=1e-13)


def test_fundamental_matches_difference_quotients_on_finsler_model():
    L = catalog()["ppwave_example"]
    x = [0.2, -0.4, 0.6, 0.1]
    v = L.sample_admissible(x, RNG)[0]
    g = fundamental_tensor(L, x, v)
    assert np.allclose(g, g.T)
    for i in range(4):
        for j in range(i, 4):
            assert g[i, j] == pytest.approx(fd_g(L, x, v, i, j),
                                            rel=2e-5, abs=2e-6)


def test_quadratic_models_have_v_independent_g_and_zero_cartan():
    for name in ("minkowski", "brinkmann-x2-y2"):
        L = catalog()[name]
        x = [0.1, 0.7, -0.3, 0.5]
        vs = L.sample_admissible(x, RNG, count=4)
        mats = [fundamental_tensor(L, x, v) for v in vs]
        for m in mats[1:]:
            assert np.max(np.abs(m - mats[0])) <= 1e-12
        C = cartan_tensor(L, x, vs[0])
        assert np.max(np.abs(C)) <= 1e-13


def test_cartan_symmetry_and_euler_contraction():
    L = catalog()["parallel_example"]
    x = [0.0] * 4
    v = L.sample_admissible(x, RNG)[0]
    C = cartan_tensor(L, x, v)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(C, np.transpose(C, perm), atol=0.0)
    contr = np.einsum("ijk,i->jk", C, v)
    scale = 1.0 + np.max(np.abs(C)) * np.linalg.norm(v)
    assert np.max(np.abs(contr)) / scale < 1e-10


def test_ppwave_example_is_genuinely_finsler():
    L = catalog()["ppwave_example"]
    x = [0.0, 0.9, 0.3, -0.2]
    v = L.sample_admissible(x, np.random.default_rng(5))[0]
    C = cartan_tensor(L, x, v)
    g = fundamental_tensor(L, x, v)
    scale = max(1.0, float(np.max(np.abs(g))))
    assert np.max(np.abs(C)) > 1e-6 * scale


def test_euler_identity_links_dL_and_g():
    for name in ("parallel_example", "ppwave_example", "brinkmann-uxy"):
        L = catalog()[name]
        x = [0.0, 0.4, -0.6, 0.2]
        v = L.sample_admissible(x, RNG)[0]
        g = fundamental_tensor(L, x, v)
        _, vj = jets.variables(v, 1)
        dL = jets.derivative_tensor(L(x, vj), range(4), 1)
        for _ in range(3):
            u = RNG.uniform(-1.0, 1.0, 4)
            lhs = 0.5 * float(dL @ u)
            rhs = float(v @ g @ u)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_signature_of_with_threshold_and_degenerate_verdict():
    s = signature_of(np.diag([1.0, -1.0, -1.0, -1.0]))
    assert (s.plus, s.minus, s.zero) == (1, 3, 0)
    assert s.verdict == "lorentzian"
    s = signature_of(np.diag([2.0, -1.0, 1e-12]))
    assert s.zero == 1 and s.verdict == "degenerate"
    s = signature_of(np.diag([1.0, 1.0, -1.0]))
    assert s.verdict == "other"


def test_leading_minors_of_a_stack_match_each_matrix():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((6, 3, 3))
    got = leading_minors(h)
    assert got.shape == (6, 3)
    for row, m in zip(got, h):
        want = [np.linalg.det(m[:k, :k]) for k in (1, 2, 3)]
        assert row.tobytes() == np.array(want).tobytes()
    assert leading_minors(h[0]).tobytes() == got[0].tobytes()


def test_a_leading_minor_that_overflows_is_inf_without_a_warning():
    # the suite makes warnings errors
    h = np.diag([1e200, -1e200, 1e200])
    for minors in (leading_minors(h), leading_minors(np.stack([h, h]))[1]):
        assert np.isfinite(minors[0])
        assert minors[1:].tolist() == [-np.inf, -np.inf]


def test_homogeneity_report_passes_on_catalog():
    for L in catalog().values():
        x = RNG.uniform(-1.0, 1.0, L.dim)
        v = L.sample_admissible(x, RNG)[0]
        rep = homogeneity_report(L, x, v)
        assert rep.passed, (L.name, rep.to_dict())
        assert np.max([c.residual for c in rep.checks]) < 1e-9


def test_homogeneity_report_flags_corrupted_lagrangian():
    def L_bad(x, v):
        return v[0] * v[0] - v[1] * v[1] - v[2] * v[2] - v[3] * v[3] \
            + 0.1 * v[0] * v[0] * v[0]

    rep = homogeneity_report(Lagrangian(L_bad, 4, [1.0, 0.0, 0.0, 0.0]),
                             [0.0] * 4, [1.0, 0.2, 0.1, 0.0])
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert any(c.residual > 1e-3 for c in failed)


def test_report_serialization_shape():
    L = build_minkowski()
    rep = homogeneity_report(L, [0.0] * 4, [1.0, 0.0, 0.0, 0.0])
    d = rep.to_dict()
    assert {"report", "checks", "pass"} <= set(d)
    for c in d["checks"]:
        assert {"check", "residual", "tol", "pass"} <= set(c)
    assert '"pass": true' in rep.to_json()


MODELS = {**catalog(), **{k: b() for k, b in fixtures.BUILDERS.items()}}

# g, C and L, each with its shape at one pair; each takes one pair or a
# stack of pairs
QUANTITIES = {
    "g": (lambda L, x, v: fundamental_tensor(L, x, v), (4, 4)),
    "C": (lambda L, x, v: cartan_tensor(L, x, v), (4, 4, 4)),
    "L": (lambda L, x, v: np.asarray(L.value(x, v)), ()),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fundamental_tensor_on_lanes_are_bitwise(name):
    L = MODELS[name]
    rng = np.random.default_rng(21)
    xs = 0.4 * rng.standard_normal((2 * jets.LANE_BLOCK + 3, 4))
    vs = L.cone_ref_at(np.zeros(4)) + 0.3 * rng.standard_normal(xs.shape)
    for quantity, (of, shape) in QUANTITIES.items():
        got = of(L, xs, vs)
        assert got.shape == (len(xs),) + shape, quantity
        for x, v, lane in zip(xs, vs, got):
            assert lane.tobytes() == of(L, x, v).tobytes(), quantity


def test_fundamental_tensor_on_names_the_first_failing_point():
    def func(x, v):
        return jets.sqrt(1.0 - x[1]) * v[0] * v[0] - v[1] * v[1]

    L = Lagrangian(func, 3, [1.0, 0.0, 0.0], name="sqrt-wall")
    xs = np.zeros((40, 3))
    xs[35, 1] = 2.0
    xs[38, 1] = 3.0
    with pytest.raises(EvaluationError, match=r"^at x=\[0\.0, 2\.0, 0\.0\]: "):
        fundamental_tensor(L, xs, np.ones((40, 3)))
    # the bad point is index 32 of 33, a block of one row by itself
    xs = np.zeros((jets.LANE_BLOCK + 1, 3))
    xs[-1, 1] = 2.0
    with pytest.raises(EvaluationError, match=r"^at x=\[0\.0, 2\.0, 0\.0\]: "):
        fundamental_tensor(L, xs, np.ones(xs.shape))
    # a stack of one point raises the text of the call at that point
    with pytest.raises(EvaluationError) as want:
        fundamental_tensor(L, xs[-1], np.ones(3))
    with pytest.raises(EvaluationError) as got:
        fundamental_tensor(L, xs[-1:], np.ones((1, 3)))
    assert str(got.value) == str(want.value)
