"""Model catalog and cone-membership tests."""

import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import fixtures, jets, lagrangian, tensors
from finsler.errors import (
    ConeError,
    ConfigError,
    ConstructionError,
    EvaluationError,
)
from finsler.lagrangian import (
    _SEGMENT_T,
    Lagrangian,
    QuadraticLagrangian,
    RandersNorm,
    build_brinkmann_quadratic,
    build_minkowski,
    build_parallel_example,
    build_ppwave_example,
    catalog,
    from_descriptor,
)
from finsler.tensors import fundamental_tensor, signature_of
from helpers import full_randers

RNG = np.random.default_rng(20240817)


class TestMinkowskiMembership:
    L = build_minkowski()

    def test_timelike_future(self):
        m = self.L.is_admissible([0.0] * 4, [1.0, 0.0, 0.0, 0.0])
        assert m.inside and m.value == pytest.approx(1.0)

    def test_spacelike(self):
        m = self.L.is_admissible([0.0] * 4, [0.0, 1.0, 0.0, 0.0])
        assert not m.inside and m.value == pytest.approx(-1.0)

    def test_opposite_component_excluded(self):
        # L(-e0) = 1 > 0 but the segment to cone_ref pinches through zero
        m = self.L.is_admissible([0.0] * 4, [-1.0, 0.0, 0.0, 0.0])
        assert not m.inside and m.value == pytest.approx(1.0)
        closed = self.L.is_admissible([0.0] * 4, [-1.0, 0.0, 0.0, 0.0],
                                      closed=True)
        assert not closed.inside

    def test_zero_vector_rejected(self):
        with pytest.raises(ConeError):
            self.L.is_admissible([0.0] * 4, [0.0] * 4)

    def test_lightlike_boundary_closed_only(self):
        v = [1.0, 1.0, 0.0, 0.0]
        assert not self.L.is_admissible([0.0] * 4, v).inside
        assert self.L.is_admissible([0.0] * 4, v, closed=True).inside


@settings(max_examples=80, deadline=None)
@given(v0=st.floats(0.1, 3.0), s=st.floats(-1.0, 1.0),
       a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0))
def test_minkowski_membership_matches_norm_comparison(v0, s, a, b):
    L = build_minkowski()
    v = np.array([v0, s, a, b])
    spatial = math.sqrt(s * s + a * a + b * b)
    m = L.is_admissible([0.0] * 4, v)
    if v0 > spatial + 1e-9:
        assert m.inside
    elif v0 < spatial - 1e-9:
        assert not m.inside


def test_brinkmann_value_hand_computed():
    L = build_brinkmann_quadratic("x2")
    x = [0.0, 0.0, 1.5, 0.0]
    v = [0.3, 1.0, 0.2, 0.0]
    # 2*0.3*1 + (1.5^2)*1 - 0.2^2
    assert L.value(x, v) == pytest.approx(2.81, rel=1e-14)
    assert isinstance(L, QuadraticLagrangian)


def test_brinkmann_lightlike_ray_admissible_closed():
    L = build_brinkmann_quadratic("x2-y2")
    x = [0.0, 0.4, 0.8, 2.0]  # H = 0.64 - 4 < 0 here
    N = [1.0, 0.0, 0.0, 0.0]
    m = L.is_admissible(x, N, closed=True)
    assert m.inside and m.value == pytest.approx(0.0, abs=1e-15)
    assert not L.is_admissible(x, N).inside


def test_catalog_cone_refs_are_timelike_everywhere():
    models = catalog()
    assert set(models) == {
        "minkowski", "brinkmann-zero", "brinkmann-x2", "brinkmann-x2-y2",
        "brinkmann-uxy", "parallel_example", "ppwave_example",
    }
    for L in models.values():
        for _ in range(25):
            x = RNG.uniform(-2.0, 2.0, size=L.dim)
            ref = L.cone_ref_at(x)
            assert L.value(x, ref) > 0, L.name


def test_catalog_two_homogeneity_and_signature():
    for L in catalog().values():
        for _ in range(5):
            x = RNG.uniform(-1.5, 1.5, size=L.dim)
            v = L.sample_admissible(x, RNG)[0]
            Lv = L.value(x, v)
            for lam in (0.5, 2.0, 3.0):
                val = L.value(x, lam * v)
                assert val == pytest.approx(lam * lam * Lv, rel=1e-10), L.name
            sig = signature_of(fundamental_tensor(L, x, v))
            assert sig.verdict == "lorentzian", (L.name, sig)


def test_sample_admissible_returns_interior_vectors():
    L = build_brinkmann_quadratic("uxy")
    x = [0.0, 0.3, -0.7, 1.1]
    ws = L.sample_admissible(x, np.random.default_rng(7), count=10)
    assert ws.shape == (10, 4)
    for w in ws:
        assert L.is_admissible(x, w).inside


class TestParallelExample:
    def test_quadratic_instance_matches_flat_lightlike_metric(self):
        # Euclidean F, omega per the construction: L collapses to
        # (v0+v1)^2 - |v|^2 = 2 v0 v1 - (v2)^2 - (v3)^2
        F = RandersNorm(np.eye(4), np.zeros(4), 4)
        L = build_parallel_example(F)
        g = fundamental_tensor(L, [0.0] * 4, [1.0, 0.25, 0.0, 0.0])
        expected = np.array([[0.0, 1, 0, 0], [1, 0, 0, 0],
                             [0, 0, -1, 0], [0, 0, 0, -1.0]])
        assert np.allclose(g, expected, atol=1e-12)

    def test_lightlike_row_at_N(self):
        L = catalog()["parallel_example"]
        N = [1.0, 0.0, 0.0, 0.0]
        g = fundamental_tensor(L, [0.0] * 4, N)
        assert g[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert g[0, 1] == pytest.approx(1.0, rel=1e-12)
        assert abs(g[0, 2]) < 1e-12 and abs(g[0, 3]) < 1e-12

    def test_fundamental_identity_against_closed_form(self):
        # g^L_v(u,w) = omega(u) omega(w) - g^F_v(u,w) at random admissible v
        L = catalog()["parallel_example"]
        F = L.meta["F"]
        omega = np.asarray(L.meta["omega"])
        x = [0.0] * 4
        rng = np.random.default_rng(3)
        ws = L.sample_admissible(x, rng, count=20)
        for v in ws:
            gL = fundamental_tensor(L, x, v)
            gF = np.array([[float(e) for e in row]
                           for row in F.fundamental(x, list(v))])
            oracle = np.outer(omega, omega) - gF
            scale = max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(gL - oracle)) / scale < 1e-9

    def test_v_coordinate_independence_of_metric(self):
        L = catalog()["parallel_example"]
        N = [1.0, 0.0, 0.0, 0.0]
        g0 = fundamental_tensor(L, [0.0, 0.2, -0.4, 0.9], N)
        g1 = fundamental_tensor(L, [5.0, 0.2, -0.4, 0.9], N)
        assert np.max(np.abs(g0 - g1)) < 1e-13


class TestPpwaveExample:
    def test_gN_has_brinkmann_shape(self):
        L = catalog()["ppwave_example"]
        N = [1.0, 0.0, 0.0, 0.0]
        for x in ([0.3, 0.7, -0.2, 0.4], [0.0, -1.1, 0.5, 0.2]):
            g = fundamental_tensor(L, x, N)
            assert np.allclose(g[0], [0.0, 1.0, 0.0, 0.0], atol=1e-9)
            assert g[2, 2] == pytest.approx(-1.0, rel=1e-12)
            assert g[3, 3] == pytest.approx(-1.0, rel=1e-12)
            for (i, j) in ((1, 2), (1, 3), (2, 3)):
                assert abs(g[i, j]) < 1e-9, (i, j)

    def test_transverse_vectors_have_negative_L(self):
        L = catalog()["ppwave_example"]
        for wx, wy in ((1.0, 0.0), (0.3, -0.8), (0.0, 2.0)):
            val = L.value([0.1, 0.2, 0.3, 0.4], [0.0, 0.0, wx, wy])
            assert val == pytest.approx(-(wx ** 2 + wy ** 2), rel=1e-12)

    def test_degenerate_choice_is_quadratic(self):
        from finsler.tensors import cartan_tensor
        F2 = RandersNorm(np.eye(2), np.zeros(2), 2)
        L = build_ppwave_example(F2)
        x = [0.0, 0.5, 0.2, -0.1]
        v = L.sample_admissible(x, np.random.default_rng(1))[0]
        C = cartan_tensor(L, x, v)
        assert np.max(np.abs(C)) < 1e-10
        g1 = fundamental_tensor(L, x, v)
        g2 = fundamental_tensor(L, x, 2.0 * v + 0.3)
        assert np.max(np.abs(g1 - g2)) < 1e-10


# every built-in type and every fixture, by name
BUILDS = {**{kind: (lambda kind=kind: from_descriptor({"type": kind}))
             for kind in lagrangian._TYPES if kind != "plugin"},
          **fixtures.BUILDERS}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_builds_evaluate_no_tensor(monkeypatch, name):
    # a build probes its cone and nothing more
    def refuse(*args):
        raise AssertionError("a model build evaluated a tensor")

    monkeypatch.setattr(tensors, "_v_partials", refuse)
    assert isinstance(BUILDS[name](), Lagrangian)


class TestDescriptors:
    def test_minkowski_descriptor(self):
        L = from_descriptor({"type": "minkowski", "dim": 5,
                             "name": "mink5"})
        assert L.dim == 5 and L.name == "mink5"

    def test_brinkmann_descriptor_profile(self):
        L = from_descriptor({"type": "brinkmann",
                             "params": {"profile": "x2-y2"}})
        assert L.name == "brinkmann-x2-y2"

    def test_cone_ref_override_validated(self):
        L = from_descriptor({"type": "minkowski",
                             "cone_ref": [2.0, 0.5, 0.0, 0.0]})
        assert np.allclose(L.cone_ref_at([0.0] * 4), [2.0, 0.5, 0.0, 0.0])
        with pytest.raises(ConfigError):
            from_descriptor({"type": "minkowski",
                             "cone_ref": [0.0, 1.0, 0.0, 0.0]})
        with pytest.raises(ConfigError):
            from_descriptor({"type": "minkowski", "cone_ref": [1.0, 0.0]})

    @pytest.mark.parametrize("desc", [
        {"type": "nope"},
        {"type": "minkowski", "dim": 2},
        {"type": "minkowski", "dim": "4"},
        {"type": "brinkmann", "dim": 5},
        {"type": "brinkmann", "params": {"profile": "cubic"}},
        {"type": "plugin", "params": {}},
        {"type": "plugin", "params": {"module": "finsler.missing",
                                      "builder": "f"}},
        "not-a-dict",
        # an int default takes an integer; a relative module cannot load
        {"type": "plugin", "params": {"module": "finsler.lagrangian",
                                      "builder": "build_minkowski",
                                      "dim": 2.5}},
        {"type": "plugin", "params": {"module": ".fixtures",
                                      "builder": "rosen_cos2"}},
        # a builder that takes a param only by position cannot be called
        {"type": "plugin", "params": {"module": "math", "builder": "sqrt"}},
        # the dim bound holds for a plug-in's model too
        {"type": "plugin", "params": {"module": "finsler.lagrangian",
                                      "builder": "build_minkowski",
                                      "dim": lagrangian.MAX_DIM + 1}},
    ])
    def test_bad_descriptors_raise_config_error(self, desc):
        with pytest.raises(ConfigError):
            from_descriptor(desc)

    @pytest.mark.parametrize("dim", [lagrangian.MAX_DIM + 1, 10 ** 9])
    def test_a_dim_above_the_bound_builds_no_model(self, monkeypatch, dim):
        def refuse(**kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setitem(lagrangian._TYPES, "minkowski", (refuse, {}))
        with pytest.raises(ConfigError, match=r"^spacetime\.dim must be an "
                           r"integer in \[3, 8\]$"):
            from_descriptor({"type": "minkowski", "dim": dim})

    @pytest.mark.parametrize("module,builder", [
        (3, "f"), ("", "rosen_cos2"), ("finsler.fixtures", ["x"])])
    def test_plugin_names_must_be_strings(self, module, builder):
        with pytest.raises(ConfigError, match=r"^spacetime\.params\."
                           r"(module|builder) must be a non-empty string$"):
            from_descriptor({"type": "plugin", "params": {
                "module": module, "builder": builder}})

    def test_plugin_descriptor_loads_builder(self):
        desc = {"type": "plugin",
                "params": {"module": "finsler.lagrangian",
                           "builder": "build_minkowski", "dim": 4}}
        L = from_descriptor(desc)
        assert L.name == "minkowski"

    def test_plugin_shared_instance_is_not_configured(self, monkeypatch):
        # a builder that hands out one shared model: each descriptor
        # configures its own copy, so name and cone_ref do not leak
        shared = build_minkowski()
        mod = types.ModuleType("shared_model_plugin")
        mod.build = lambda: shared
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
        desc = {"type": "plugin",
                "params": {"module": mod.__name__, "builder": "build"}}
        first = from_descriptor({**desc, "name": "first",
                                 "cone_ref": [2.0, 0.5, 0.0, 0.0]})
        second = from_descriptor(desc)
        origin = [0.0] * 4
        assert first.name == "first"
        assert np.array_equal(first.cone_ref_at(origin), [2.0, 0.5, 0.0, 0.0])
        assert second.name == shared.name == "minkowski"
        assert np.array_equal(second.cone_ref_at(origin),
                              shared.cone_ref_at(origin))
        assert not np.array_equal(shared.cone_ref_at(origin),
                                  [2.0, 0.5, 0.0, 0.0])


def test_randers_norm_validation():
    with pytest.raises(ConstructionError):
        RandersNorm(np.diag([1.0, -1.0]), np.zeros(2), 2)
    with pytest.raises(ConstructionError):
        RandersNorm(np.eye(2), [0.8, 0.8], 2)


# -- plain-lane evaluation ---------------------------------------------------------

MODELS = {**catalog(), **{k: b() for k, b in fixtures.BUILDERS.items()}}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_value_on_is_bitwise_value(name):
    L = MODELS[name]
    rng = np.random.default_rng(5)
    xs = 0.4 * rng.standard_normal((40, L.dim))
    vs = L.cone_ref_at(np.zeros(L.dim)) + rng.standard_normal(xs.shape)
    got = L.value(xs, vs)
    assert got.tobytes() == np.array(
        [L.value(x, v) for x, v in zip(xs, vs)]).tobytes()
    got = L.value(xs[0], vs)
    assert got.tobytes() == np.array([L.value(xs[0], v) for v in vs]).tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_is_admissible_is_the_scalar_segment_sweep(name):
    L = MODELS[name]
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = 0.4 * rng.standard_normal(L.dim)
        ref = L.cone_ref_at(x)
        v = ref + 0.8 * rng.standard_normal(L.dim)
        vals = [L.value(x, (1.0 - t) * ref + t * v) for t in _SEGMENT_T[:, 0]]
        for closed in (False, True):
            m = L.is_admissible(x, v, closed=closed)
            assert (m.value, m.margin) == (vals[-1], min(vals))
            interior = all(val > 0.0 for val in vals[:-1])
            end = (vals[-1] >= -1e-12 * max(1.0, abs(vals[0]), abs(vals[-1]))
                   if closed else vals[-1] > 0.0)
            assert m.inside == (interior and end)


def test_value_on_fails_as_a_failing_pair_fails_alone():
    L = fixtures.rosen_cos2()

    def func(x, v):
        return L(x, v) + jets.log(x[1]) * v[2] * v[2]

    W = Lagrangian(func, 4, [1.0, 1.0, 0.0, 0.0], name="log-wall")
    xs = np.full((5, 4), 0.5)
    assert W.value(xs, np.ones((5, 4))).tolist() == [
        W.value(x, np.ones(4)) for x in xs]
    xs[3, 1] = 0.0
    with pytest.raises(EvaluationError):
        W.value(xs[3], np.ones(4))
    with pytest.raises(EvaluationError):
        W.value(xs, np.ones((5, 4)))


def _same_bits(got, want):
    if isinstance(want, jets.Jet):
        assert got.c.tobytes() == want.c.tobytes()
        assert got.mask & ~want.mask == 0
    else:
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_zero_randers_terms_are_skipped_bit_for_bit():
    # zero coefficients of either sign in A and b, on floats, lanes, seeds
    # of one to three orders (unbatched and stacked), and seeds beside a
    # float, as in the Penrose ray context
    A = [[1.2, 0.0, -0.3], [0.0, 0.9, -0.0], [-0.3, -0.0, 1.1]]
    b = [0.0, -0.2, -0.0]
    pts = np.array([[0.7, -0.4, 0.2], [-0.5, 0.0, 0.3], [0.1, 0.6, -0.8]])
    for coeffs in ((A, b), (np.array(A), np.array(b))):
        F = RandersNorm(*coeffs, 3)
        for p in pts.tolist():
            _same_bits(F._from_coeffs(*coeffs, p), full_randers(*coeffs, p))
        lanes = [jets.lanes(c) for c in pts.T]
        _same_bits(F._from_coeffs(*coeffs, lanes),
                   full_randers(*coeffs, lanes))
        for order in (1, 2, 3):
            for values in (pts[0].tolist(), pts):
                _, s = jets.variables(values, order)
                for v in (s, [values[..., 0] if isinstance(values, np.ndarray)
                              else values[0]] + s[1:]):
                    _same_bits(F._from_coeffs(*coeffs, v),
                               full_randers(*coeffs, v))


def test_zero_randers_coefficients_that_are_jets_are_kept():
    # A and b of the base point u: a jet coefficient that is zero is not a
    # constant, and a constant zero beside jets is skipped
    _, (u, v0, v1) = jets.variables([0.3, 0.8, -0.5], 2, (0, 1, 1), (2, 2))
    A = [[1.0 + 0.1 * u * u, 0.0 * u], [0.0, 1.0 - 0.2 * u]]
    b = [0.0, -0.1 * jets.sin(u)]
    F = RandersNorm(lambda x: A, lambda x: b, 2)
    for v in ([v0, v1], [0.8, v1], [0.8, -0.5]):
        _same_bits(F._from_coeffs(A, b, v), full_randers(A, b, v))
