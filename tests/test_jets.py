"""Jet engine tests.

Finite differences are the independent oracle here: every derivative the
engine reports is cross-checked against central difference quotients over a
step sweep, plus a handful of hand-frozen closed forms.  The products
that support masks filter are checked bitwise against
`helpers.dense_product`, which sums the full pair table; the series that
stop at their argument's degree cap against `helpers.full_series`, which
runs to the full order; and the template seeds against
`helpers.per_generator_seeds`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import fixtures, jets
from finsler.errors import EvaluationError
from finsler.jets import Jet, derivative_tensor, variables
from finsler.lagrangian import catalog
from helpers import dense_product, full_series, per_generator_seeds


def basis(i, n=4):
    e = [0.0] * n
    e[i] = 1.0
    return e


def L_quartic(x, v):
    # (v0)^4 / ((v0)^2 - (v1)^2), smooth off the light cone
    return v[0] ** 4 / (v[0] ** 2 - v[1] ** 2)


def L_wavy(x, v):
    # deliberately mixes every elementary function the engine supports
    s = jets.exp(0.3 * v[0]) * (v[0] * v[0] - 0.5 * v[1] * v[2])
    return s + jets.sin(v[3]) * v[1] + jets.sqrt(2.0 + v[2]) * jets.cosh(0.2 * v[3])


def L_xv(x, v):
    # base-point dependent quadratic with non-polynomial coefficients
    return jets.exp(x[0]) * v[0] * v[0] - jets.cos(x[1]) * v[1] * v[1] + x[0] * x[1] * v[0] * v[1]


def directional(L, x, v, dirs, order):
    """L at x with v + sum_i t_i dirs[i], one generator t_i per direction."""
    _, ts = variables([0.0] * len(dirs), order)
    vj = [vk + sum(d[k] * t for d, t in zip(dirs, ts))
          for k, vk in enumerate(v)]
    return jets._call(L, x, vj)


def fd1(f, v, d, h):
    vp = [a + h * b for a, b in zip(v, d)]
    vm = [a - h * b for a, b in zip(v, d)]
    return (f(vp) - f(vm)) / (2.0 * h)


def fd2(f, v, d, h):
    vp = [a + h * b for a, b in zip(v, d)]
    vm = [a - h * b for a, b in zip(v, d)]
    return (f(vp) - 2.0 * f(v) + f(vm)) / (h * h)


def fd3(f, v, d, h):
    def at(t):
        return f([a + t * b for a, b in zip(v, d)])

    return (at(2 * h) - 2.0 * at(h) + 2.0 * at(-h) - at(-2 * h)) / (2.0 * h ** 3)


def best_fd(fd, f, v, d):
    # step sweep: pick the pair of adjacent steps that agree best, a cheap
    # guard against both truncation and roundoff plateaus
    steps = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]
    vals = [fd(f, v, d, h) for h in steps]
    best = vals[0]
    gap = float("inf")
    for a, b in zip(vals, vals[1:]):
        g = abs(a - b)
        if g < gap:
            gap, best = g, b
    return best


class TestAgainstDifferenceQuotients:
    V0 = [2.0, 1.0, 0.3, -0.4]

    def scalar(self, L):
        return lambda v: L([0.0] * 4, v)

    @pytest.mark.parametrize("L", [L_quartic, L_wavy])
    @pytest.mark.parametrize("i", range(4))
    def test_first_derivatives(self, L, i):
        _, vj = variables(self.V0, 1)
        d1 = derivative_tensor(L([0.0] * 4, vj), range(4), 1)
        ref = best_fd(fd1, self.scalar(L), self.V0, basis(i))
        assert d1[i] == pytest.approx(ref, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("L", [L_quartic, L_wavy])
    def test_second_and_third_derivatives(self, L):
        d = [0.7, -0.2, 0.5, 0.1]
        w = directional(L, [0.0] * 4, self.V0, [d], 3)
        f = self.scalar(L)
        assert derivative_tensor(w, [0], 2)[0, 0] == pytest.approx(
            best_fd(fd2, f, self.V0, d), rel=1e-5, abs=1e-7)
        assert derivative_tensor(w, [0], 3)[0, 0, 0] == pytest.approx(
            best_fd(fd3, f, self.V0, d), rel=1e-4, abs=1e-5)

    def test_mixed_second_derivative(self, ):
        u, w = basis(0), basis(1)
        _, vj = variables(self.V0, 2)
        d2 = derivative_tensor(L_quartic([0.0] * 4, vj), range(4), 2)

        def g(v):
            return fd1(self.scalar(L_quartic), v, w, 1e-4)

        ref = best_fd(fd1, lambda vv: g(vv), self.V0, u)
        assert d2[0, 1] == pytest.approx(ref, rel=1e-4)


def test_quartic_first_derivative_frozen_value():
    # dL/dv1 of (v0)^4/((v0)^2-(v1)^2) at v=(2,1,0,0) is 2*(v0)^4*v1/(den)^2
    # = 32/9; the value itself is 16/3
    _, vj = variables([2.0, 1.0, 0.0, 0.0], 1)
    w = L_quartic([0.0] * 4, vj)
    assert w.value == pytest.approx(16.0 / 3.0, rel=1e-14)
    assert derivative_tensor(w, range(4), 1)[1] == pytest.approx(32.0 / 9.0,
                                                                 rel=1e-12)


def test_elementary_functions_match_math_module():
    (ctx, (t,)) = variables([0.37], 3)
    checks = [
        (jets.sqrt(1.3 + t), lambda s: math.sqrt(1.3 + s)),
        (jets.exp(t), math.exp),
        (jets.log(2.0 + t), lambda s: math.log(2.0 + s)),
        (jets.sin(t), math.sin),
        (jets.cos(t), math.cos),
        (jets.sinh(t), math.sinh),
        (jets.cosh(t), math.cosh),
    ]
    for jet, f in checks:
        h1, h2 = 1e-5, 1e-4  # second differences need the larger step
        val = f(0.37)
        d1 = (f(0.37 + h1) - f(0.37 - h1)) / (2 * h1)
        d2 = (f(0.37 + h2) - 2 * val + f(0.37 - h2)) / h2 ** 2
        assert jet.value == pytest.approx(val, rel=1e-14)
        assert jet.deriv((1,)) == pytest.approx(d1, rel=1e-8)
        assert jet.deriv((2,)) == pytest.approx(d2, rel=1e-6, abs=1e-7)


def test_division_and_fractional_powers():
    (ctx, (t,)) = variables([0.5], 3)
    w = (1.0 + t) ** -2.5
    f = lambda s: (1.0 + s) ** -2.5
    h = 1e-4
    assert w.value == pytest.approx(f(0.5), rel=1e-14)
    assert w.deriv((1,)) == pytest.approx((f(0.5 + h) - f(0.5 - h)) / (2 * h), rel=1e-7)
    q = 3.0 / (2.0 + t)
    assert q.value == pytest.approx(1.2, rel=1e-14)
    assert q.deriv((1,)) == pytest.approx(-3.0 / 6.25, rel=1e-12)


def test_xjet_mixed_base_fiber_derivatives():
    x0 = [0.3, -0.7]
    v0 = [1.5, 0.4]
    # generators (x0, x1 | v0, v1): base degree <= 2, fiber degree <= 2
    _, s = variables(x0 + v0, 3, groups=(0, 0, 1, 1), group_orders=(2, 2))
    w = L_xv(s[:2], s[2:])
    d1 = derivative_tensor(w, range(4), 1)
    d2 = derivative_tensor(w, range(4), 2)
    d3 = derivative_tensor(w, range(4), 3)
    # d/dx0 of dL/dv0 with L = e^{x0} v0^2 - cos(x1) v1^2 + x0 x1 v0 v1:
    # dL/dv0 = 2 e^{x0} v0 + x0 x1 v1, so d/dx0 = 2 e^{x0} v0 + x1 v1
    expected = 2.0 * math.exp(0.3) * 1.5 + (-0.7) * 0.4
    assert d2[0, 2] == pytest.approx(expected, rel=1e-12)
    # the pure fiber derivative itself
    assert d1[2] == pytest.approx(2.0 * math.exp(0.3) * 1.5 + 0.3 * (-0.7) * 0.4,
                                  rel=1e-12)
    # second-order fiber block: d/dx1 of d2L/dv1dv1 = 2 sin(x1)
    assert d2[3, 3] == pytest.approx(-2.0 * math.cos(-0.7), rel=1e-12)
    assert d3[1, 3, 3] == pytest.approx(2.0 * math.sin(-0.7), rel=1e-12)
    # two base directions: d2/dx0dx1 of (2 e^{x0} v0 + x0 x1 v1) = v1
    assert d3[0, 1, 2] == pytest.approx(0.4, rel=1e-12)


def test_group_caps_truncate_base_degree():
    groups = [0] * 4 + [1] * 4
    ctx, gens = variables([1.0, 1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0], 3,
                          groups=groups, group_orders=[1, 3])
    assert ctx.size == 95
    x, v = gens[:4], gens[4:]
    w = x[0] * x[1]  # base degree 2: must vanish from the expansion
    assert w.value == pytest.approx(1.0)
    assert w.coeff((1, 1, 0, 0, 0, 0, 0, 0)) == 0.0
    assert w.coeff((1, 0, 0, 0, 0, 0, 0, 0)) == pytest.approx(1.0)
    # mixed base*fiber^2 monomials survive (the D-tensor path)
    m = x[0] * v[0] * v[1]
    assert m.deriv((1, 0, 0, 0, 1, 1, 0, 0)) == pytest.approx(1.0)


def test_nested_jets_give_second_derivatives():
    # outer: a; inner: t, in one grouped context of degree <= 1 in each.
    # d/da [ d/dt (a+t)^3 |_{t=0} ] = d/da 3a^2 = 6a
    _, (a, t) = variables([0.8, 0.0], 2, groups=(0, 1), group_orders=(1, 1))
    w = (a + t) ** 3
    assert derivative_tensor(w, [1], 1)[0] == pytest.approx(3 * 0.8 ** 2,
                                                            rel=1e-14)
    assert derivative_tensor(w, [0, 1], 2)[0, 1] == pytest.approx(6 * 0.8,
                                                                  rel=1e-14)
    # the same through a transcendental function
    s = jets.exp(a + t)
    assert derivative_tensor(s, [1], 1)[0] == pytest.approx(math.exp(0.8),
                                                            rel=1e-13)
    assert derivative_tensor(s, [0, 1], 2)[0, 1] == pytest.approx(
        math.exp(0.8), rel=1e-13)


def test_context_mismatch_raises():
    _, (a,) = variables([1.0], 2)
    _, (b,) = variables([1.0], 3)
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        float(a)


def test_numpy_scalars_interoperate():
    _, (t,) = variables([2.0], 2)
    w = np.float64(3.0) * t + np.float64(1.0)
    assert isinstance(w, Jet)
    assert w.value == pytest.approx(7.0)
    assert w.deriv((1,)) == pytest.approx(3.0)


def test_nonfinite_evaluation_is_reported():
    def L_bad(x, v):
        return v[0] / (v[0] - v[0])  # 0/0

    with pytest.raises(EvaluationError):
        directional(L_bad, [0.0], [1.0], [[1.0]], 3)

    def L_sqrt_neg(x, v):
        return jets.sqrt(v[0] - 2.0)

    with pytest.raises(EvaluationError):
        directional(L_sqrt_neg, [0.0], [1.0], [[1.0]], 3)


def test_direction_count_limits():
    # a jet cannot hold partials above its order
    _, vj = variables([2.0, 0.0, 0.0, 0.0], 3)
    with pytest.raises(ValueError):
        derivative_tensor(L_quartic([0.0] * 4, vj), range(4), 4)
    _, s = variables([0.0, 0.0, 1.0, 0.0], 3, groups=(0, 0, 1, 1),
                     group_orders=(2, 2))
    with pytest.raises(ValueError):
        derivative_tensor(L_xv(s[:2], s[2:]), range(4), 4)


finite = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(a=finite, b=finite, s=st.floats(min_value=-3.0, max_value=3.0,
                                       allow_nan=False, allow_infinity=False))
def test_first_derivative_linear_in_direction(a, b, s):
    v0 = [2.0, 0.5, 0.1, -0.3]
    u = [a, b, 0.25, -1.0]
    w = [0.5, -a, b, 0.75]
    mix = [s * p + q for p, q in zip(u, w)]
    f = lambda d: derivative_tensor(directional(L_quartic, [0.0] * 4, v0, [d], 1),
                                    [0], 1)[0]
    assert f(mix) == pytest.approx(s * f(u) + f(w), rel=1e-10, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(a=finite, b=finite)
def test_mixed_partials_symmetric(a, b):
    v0 = [2.0, 0.4, -0.2, 0.6]
    u = [1.0, a, 0.3, b]
    w = [b, 0.2, a, -0.5]
    z = [0.1, -b, 1.0, a]
    fwd = directional(L_wavy, [0.0] * 4, v0, [u, w, z], 3)
    rev = directional(L_wavy, [0.0] * 4, v0, [z, u, w], 3)
    # same geometric derivative, permuted direction labels
    assert derivative_tensor(fwd, range(3), 2)[0, 1] == pytest.approx(
        derivative_tensor(rev, range(3), 2)[1, 2], rel=1e-12, abs=1e-12)
    assert derivative_tensor(fwd, range(3), 3)[0, 1, 2] == pytest.approx(
        derivative_tensor(rev, range(3), 3)[1, 2, 0], rel=1e-12, abs=1e-12)


# -- the array engine against loop references -----------------------------

CHRISTOFFEL = (8, 3, (0,) * 4 + (1,) * 4, (1, 3))

# every context signature the package builds: fields and quadratic
# matrices (order 1), the fundamental tensor and gradients (2), the Cartan
# tensor (3), the Brinkmann oracle (3 generators) and the Christoffel solve
SIGNATURES = [(n, order, None, None) for n in (1, 2, 3, 4)
              for order in (1, 2, 3)] + [CHRISTOFFEL]


def filtered_exponents(nvars, order, groups, group_orders):
    """Admissible exponents by filtering all of range(order+1)^nvars."""
    import itertools
    if groups is None:
        groups, group_orders = (0,) * nvars, (order,)

    def admissible(e):
        gd = [0] * len(group_orders)
        for k, ek in enumerate(e):
            gd[groups[k]] += ek
        return sum(e) <= order and all(d <= c for d, c in zip(gd, group_orders))

    exps = [e for e in itertools.product(range(order + 1), repeat=nvars)
            if admissible(e)]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


@pytest.mark.parametrize("sig", SIGNATURES)
def test_direct_enumeration_matches_filtered_enumeration(sig):
    ctx = jets._context(*sig)
    exps = filtered_exponents(*sig)
    assert ctx.exponents == exps
    index = {e: k for k, e in enumerate(exps)}
    pairs = [(i, j, index[s]) for i, ei in enumerate(exps)
             for j, ej in enumerate(exps)
             if (s := tuple(a + b for a, b in zip(ei, ej))) in index]
    assert list(zip(*(p.tolist() for p in ctx.pairs))) == pairs


def test_christoffel_context_size_and_pairs():
    ctx = jets._context(*CHRISTOFFEL)
    assert ctx.size == 95
    assert len(ctx.pairs[0]) == 525
    assert len(jets._context(4, 2).pairs[0]) == 45


def dict_product(ctx, a, b, groups, group_orders):
    """Truncated product of {exponent: coefficient} dicts, in loop order."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            gd = [0] * len(group_orders)
            for k, ek in enumerate(e):
                gd[groups[k]] += ek
            if sum(e) <= ctx.order and all(
                    d <= c for d, c in zip(gd, group_orders)):
                out[e] = out.get(e, 0.0) + ca * cb
    return out


coefficient = st.one_of(st.just(0.0), finite)


@pytest.mark.parametrize("sig", [(3, 3, (0, 0, 0), (3,)), CHRISTOFFEL])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_matches_dict_product(sig, data):
    ctx = jets._context(*sig)
    ca, cb = (np.array(data.draw(st.lists(coefficient, min_size=ctx.size,
                                          max_size=ctx.size)))
              for _ in range(2))
    got = (Jet(ctx, ca) * Jet(ctx, cb)).c
    ref = dict_product(ctx, dict(zip(ctx.exponents, ca)),
                       dict(zip(ctx.exponents, cb)), sig[2], sig[3])
    # same pairs summed in the same order: equal, not merely close
    assert got.tolist() == [ref.get(e, 0.0) for e in ctx.exponents]


def test_derivative_tensor_agrees_with_deriv():
    import itertools
    n = 4
    _, s = variables([0.3, -0.2, 0.1, 0.5, 1.2, 0.4, -0.3, 0.2], 3,
                     groups=CHRISTOFFEL[2], group_orders=CHRISTOFFEL[3])
    w = L_xv(s[:n], s[n:]) + L_wavy(None, s[n:]) * jets.sin(s[2] - s[3])
    for order in (1, 2, 3):
        T = derivative_tensor(w, range(2 * n), order)
        for combo in itertools.product(range(2 * n), repeat=order):
            e = [0] * (2 * n)
            for c in combo:
                e[c] += 1
            assert T[combo] == w.deriv(e)
    assert not np.any(derivative_tensor(2.5, range(n), 2))


# -- batched jets: one lane per evaluation point ----------------------------

def every_operation(s):
    """Each `Jet` operation and elementary function of the generators
    ``s``, kept apart so that a lane mismatch names its operation."""
    a, b, c = s
    pos = 2.5 + a * a + b * b   # keeps sqrt, log and fractional powers real
    return {
        "add": a + b, "add-const": a + 1.5, "radd": 1.5 + a,
        "sub": a - c, "sub-const": a - 0.5, "rsub": 0.5 - a, "neg": -b,
        "mul": a * b, "mul-const": 3.0 * c, "mul-self": c * c,
        "div": a / pos, "div-const": b / 4.0, "rdiv": 2.0 / pos,
        "pow-int": a ** 3, "pow-float-int": b ** 2.0, "pow-zero": c ** 0,
        "pow-neg": pos ** -2, "pow-frac": pos ** 1.5, "pow-neg-frac": pos ** -0.5,
        "sqrt": jets.sqrt(pos), "exp": jets.exp(a - b), "log": jets.log(pos),
        "sin": jets.sin(a + c), "cos": jets.cos(b), "sinh": jets.sinh(c),
        "cosh": jets.cosh(a * b),
        "nested": jets.exp(jets.sin(a) * b) / jets.sqrt(pos) - jets.log(pos) ** 2,
    }


point = st.lists(finite, min_size=3, max_size=3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(points=st.lists(point, min_size=1, max_size=5),
       sig=st.sampled_from([(3, None, None), (3, (0, 1, 1), (2, 2)),
                            (4, (0, 1, 1), (2, 2))]))
def test_batched_lanes_are_bitwise_unbatched(points, sig):
    order, groups, group_orders = sig
    batch = np.array(points)
    _, lanes = variables(batch, order, groups, group_orders)
    got = every_operation(lanes)
    slots = range(3)
    for lane, p in enumerate(points):
        _, s = variables(p, order, groups, group_orders)
        for name, want in every_operation(s).items():
            assert got[name].c[:, lane].tobytes() == want.c.tobytes(), name
            assert (np.float64(got[name].value[lane]).tobytes()
                    == np.float64(want.value).tobytes()), name
            assert (got[name].deriv((1, 0, 1))[lane].tobytes()
                    == np.float64(want.deriv((1, 0, 1))).tobytes()), name
            for k in range(1, 3):
                assert (derivative_tensor(got[name], slots, k)[lane].tobytes()
                        == derivative_tensor(want, slots, k).tobytes()), name


# (L, good lanes, bad lane): L fails at the bad lane alone
FAILING_LANE = pytest.mark.parametrize("L,good,bad", [
    (lambda x, v: jets.sqrt(v[0] - 1.0), (2.5, 3.0), 0.5),
    (lambda x, v: 1.0 / (v[0] - 1.5), (2.5, 3.0), 1.5),
    (lambda x, v: jets.exp(400.0 * v[0]), (1.0, 1.5), 2.0),
    (lambda x, v: jets.log(v[0] - 1.5), (2.5, 3.0), 1.5),
    (lambda x, v: (v[0] * 1e200) * (v[0] * 1e200), (1e-150, 2e-150), 1.0),
], ids=["sqrt-negative", "reciprocal-zero", "exp-overflow", "log-zero",
        "product-overflow"])


@FAILING_LANE
def test_a_failing_lane_fails_the_batch_as_it_fails_alone(L, good, bad):
    # the middle lane raises (or, for the product, overflows to inf) alone
    def raised(v):
        try:
            L([0.0], v)
        except Exception as e:
            return type(e)
        return None

    for v0 in good:
        jets._call(L, [0.0], variables([v0, 1.0], 2)[1])
    alone = variables([bad, 1.0], 2)[1]
    with pytest.raises(EvaluationError):
        jets._call(L, [0.0], alone)
    _, lanes = variables(np.array([[good[0], 1.0], [bad, 1.0],
                                   [good[1], 1.0]]), 2)
    with pytest.raises(EvaluationError):
        jets._call(L, [0.0], lanes)
    # the same exception, before `_call` maps it
    with np.errstate(over="ignore"):
        assert raised(lanes) is raised(alone)


def test_batched_jets_reject_other_batch_shapes():
    _, (a, b) = variables(np.array([[1.0, 2.0], [3.0, 4.0]]), 2)
    _, (c, _) = variables(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), 2)
    _, (d, _) = variables([1.0, 2.0], 2)
    assert (a * b).c.shape == (6, 2)
    for other in (c, d):
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            a + other


@FAILING_LANE
def test_a_failing_plain_lane_fails_the_call_as_it_fails_alone(L, good, bad):
    for v0 in good:
        jets._call(L, [0.0], [v0, 1.0])
    with pytest.raises(EvaluationError):
        jets._call(L, [0.0], [bad, 1.0])
    out = jets._call(L, [0.0], [jets.lanes(good), jets.lanes([1.0, 1.0])])
    assert out.tolist() == [jets._call(L, [0.0], [v0, 1.0]) for v0 in good]
    lanes = jets.lanes([good[0], bad, good[1]])
    with pytest.raises(EvaluationError):
        jets._call(L, [0.0], [lanes, jets.lanes(np.ones(3))])


def test_plain_lanes_are_bitwise_float_evaluation():
    # numpy squares x ** 2 as x * x, where a float calls C pow: the two
    # differ in the last bit for about one value in a thousand
    rng = np.random.default_rng(3)
    a = rng.standard_normal(20000) * np.exp(rng.uniform(-5.0, 5.0, 20000))
    b = rng.uniform(0.1, 3.0, 20000)

    def f(x, y):
        return (jets.cos(x) ** 2 - x ** 3 * y + 2.0 ** y
                + jets.sqrt(y) / (1.0 + x * x) - jets.exp(-y) * x)

    got = f(jets.lanes(a), jets.lanes(b))
    assert isinstance(got, jets.Lanes)
    want = [f(s, t) for s, t in zip(a.tolist(), b.tolist())]
    assert got.tobytes() == np.array(want).tobytes()
    for fn in (jets.sin, jets.cosh, jets.sinh, jets.log):
        assert fn(jets.lanes(b)).tolist() == [fn(t) for t in b.tolist()]


def test_lanes_times_a_jet_keeps_plain_coefficients():
    _, (v,) = variables(np.array([[1.0], [2.0]]), 2)
    w = jets.lanes([3.0, 4.0]) * v * v
    assert type(w.c) is np.ndarray
    assert type(derivative_tensor(w, [0], 2)) is np.ndarray
    assert derivative_tensor(w, [0], 2).tolist() == [[[6.0]], [[8.0]]]


def test_twin_cache_keeps_only_recent_lane_counts():
    ctx = jets._Context(3, 3)
    a = [0.3, -1.2, 0.7]
    b = [1.1, 0.4, -0.5]
    want = (Jet.variable(ctx, 0, a[0]) * Jet.variable(ctx, 1, b[1])
            * Jet.variable(ctx, 2, a[2]))
    for lanes in list(range(1, 40)) + [3, 3, 2]:
        twin = ctx.batched(lanes)
        assert len(ctx._batches) <= jets._TWINS
        assert twin is ctx.batched(lanes)
        col = np.ones(lanes)
        got = (Jet.variable(twin, 0, a[0] * col)
               * Jet.variable(twin, 1, b[1] * col)
               * Jet.variable(twin, 2, a[2] * col))
        for lane in range(lanes):
            assert got.c[:, lane].tobytes() == want.c.tobytes()
    assert list(ctx._batches)[-2:] == [3, 2]


# -- support masks: products skip the pairs with a structural zero ---------

BASE_FIBER = (0,) * 4 + (1,) * 4

# the grouped contexts the package evaluates L on in four dimensions: the
# spray, the Christoffel solve, the curvature and the Penrose ray profile
MASKED = {
    "spray": (8, 2, BASE_FIBER, (1, 2)),
    "christoffel": CHRISTOFFEL,
    "curvature": (8, 4, BASE_FIBER, (2, 3)),
    "penrose-ray": (3, 4, (0, 1, 1), (2, 2)),
}


def random_jet(ctx, rng, mask):
    """Finite coefficients with some exact zeros inside the support
    ``mask`` and zeros of either sign outside it."""
    shape = (ctx.size,) if ctx.lanes is None else (ctx.size, ctx.lanes)
    c = rng.standard_normal(shape) * np.exp(rng.uniform(-3.0, 3.0, shape))
    c[rng.random(shape) < 0.2] = 0.0
    outside = (ctx.supports & ~mask) != 0
    c[outside] = np.where(rng.random(c[outside].shape) < 0.5, 0.0, -0.0)
    return Jet(ctx, c, mask)


@pytest.mark.parametrize("lanes", [None, 1, 3, 32])
@pytest.mark.parametrize("sig", list(MASKED.values()), ids=list(MASKED))
def test_masked_products_are_bitwise_dense_products(sig, lanes):
    ctx = jets._context(*sig)
    if lanes is not None:
        ctx = ctx.batched(lanes)
    rng = np.random.default_rng([17, ctx.size, lanes or 0])
    for mask_a in range(ctx.full + 1):
        for mask_b in range(ctx.full + 1):
            a, b = random_jet(ctx, rng, mask_a), random_jet(ctx, rng, mask_b)
            got = a * b
            assert got.mask == mask_a | mask_b
            assert got.c.tobytes() == dense_product(a, b).tobytes()
    # the full table is the (full, full) entry of the lookup
    assert ctx.product_pairs(ctx.full, ctx.full) is ctx.pairs


@pytest.mark.parametrize("lanes", [2, 3, 33])
@pytest.mark.parametrize("sig", ["christoffel", "curvature"])
def test_a_batched_product_is_each_lanes_product(sig, lanes):
    # the twin gathers rows of lanes with take; each lane keeps the bits
    # of the product of its own columns in the unbatched context
    ctx = jets._context(*MASKED[sig])
    twin = ctx.batched(lanes)
    rng = np.random.default_rng([29, ctx.size, lanes])
    for mask_a in range(ctx.full + 1):
        for mask_b in range(ctx.full + 1):
            a, b = random_jet(twin, rng, mask_a), random_jet(twin, rng, mask_b)
            got = a * b
            for lane in range(lanes):
                want = (Jet(ctx, a.c[:, lane].copy(), mask_a)
                        * Jet(ctx, b.c[:, lane].copy(), mask_b))
                assert got.c[:, lane].tobytes() == want.c.tobytes()


def evaluate_on(sig_name, L, lanes):
    """L on the seeds of a `MASKED` context as the package seeds them, at
    a point near the origin with v at the cone reference; the connection
    contexts carry a field Jacobian, and ``lanes`` seeds that many
    points."""
    rng = np.random.default_rng(5)
    nvars, order, groups, group_orders = MASKED[sig_name]
    x = [0.1, 0.2, -0.1, 0.15]
    ref = [float(t) for t in L.cone_ref_at(x)]
    if sig_name == "penrose-ray":
        values = np.array([0.1] + ref[2:])
    else:
        values = np.array(x + ref)
    jac = None
    if sig_name in ("christoffel", "curvature"):
        jac = np.zeros((8, 8))
        jac[:4, 4:] = 0.1 * rng.standard_normal((4, 4))
        jac[1, 5] = 0.0
    if lanes:
        values = values + 0.01 * rng.standard_normal((lanes, nvars))
        if jac is not None:
            jac = jac * (1.0 + rng.random((lanes, 8, 8)))
    _, s = variables(values, order, groups, group_orders, jac)
    if sig_name == "penrose-ray":
        return jets._call(L, [s[0], 0.0, 0.0, 0.0], ref[:2] + s[1:])
    return jets._call(L, s[:4], s[4:])


MODELS = sorted(catalog()) + sorted(fixtures.BUILDERS)


@pytest.mark.parametrize("name", MODELS)
def test_every_jet_is_zero_outside_its_support(monkeypatch, name):
    assert len(MODELS) == 16
    L = (fixtures.BUILDERS[name]() if name in fixtures.BUILDERS
         else catalog()[name])
    created = []
    init = Jet.__init__

    def recording(self, ctx, c, mask=None):
        init(self, ctx, c, mask)
        created.append(self)

    monkeypatch.setattr(Jet, "__init__", recording)
    for sig_name in MASKED:
        for lanes in (0, 3):
            evaluate_on(sig_name, L, lanes)
    assert any(w.mask != w.ctx.full for w in created)
    for w in created:
        outside = (w.ctx.supports & ~w.mask) != 0
        assert not np.any(w.c[outside] != 0.0)


def test_an_infinite_coefficient_beside_a_structural_zero_passes():
    # x0 * 1e310 overflows its eps_x0 coefficient to inf at the finite
    # value 1.0.  The fiber factor is non-zero at every monomial of its
    # support and exactly zero at every base monomial: the full table
    # would pair the inf with such a zero into inf * 0.0 = nan, and
    # `_call` would raise on the invalid operation.  The masked product
    # skips those pairs, as an infinite higher coefficient of a finite
    # value passes.
    def base(x):
        return x[0] * 1e300 * 1e10 + 1.0

    def fiber(v):
        return jets.exp(v[0] + v[1] + v[2] + v[3])

    _, s = variables([0.0] * 8, 4, BASE_FIBER, (2, 3))
    w = jets._call(lambda x, v: base(x) * fiber(v), s[:4], s[4:])
    assert w.value == 1.0
    assert w.coeff((1, 0, 0, 0, 0, 0, 0, 0)) == math.inf
    with np.errstate(over="ignore"):
        a = base(s[:4])
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        dense_product(a, fiber(s[4:]))


def test_seeds_take_a_jacobian_and_its_support():
    jac = np.zeros((4, 4))
    jac[0, 2] = 0.5
    jac[1, 3] = -0.0      # a signed zero adds nothing
    ctx, s = variables([1.0, 2.0, 3.0, 4.0], 2, (0, 0, 1, 1), (1, 2), jac)
    assert [w.mask for w in s] == [1, 1, 3, 2]
    assert s[2].deriv((1, 0, 0, 0)) == 0.5
    assert s[2].deriv((0, 0, 1, 0)) == 1.0
    assert np.signbit(s[3].c).tolist() == [False] * ctx.size
    lanes = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    stacked = np.stack([jac, 2.0 * jac])
    _, b = variables(lanes, 2, (0, 0, 1, 1), (1, 2), stacked)
    assert b[2].deriv((1, 0, 0, 0)).tolist() == [0.5, 1.0]
    assert [w.mask for w in b] == [1, 1, 3, 2]


# -- series to the support's degree ----------------------------------------

# each composition the engine makes, with its Taylor coefficients
SERIES = {
    "reciprocal": (Jet._reciprocal, jets._reciprocal_series),
    "sqrt": (jets.sqrt, jets._sqrt_series),
    "exp": (jets.exp, jets._exp_series),
    "log": (jets.log, jets._log_series),
    "sin": (jets.sin, jets._sin_series),
    "cos": (jets.cos, jets._cos_series),
    "sinh": (jets.sinh, jets._sinh_series),
    "cosh": (jets.cosh, jets._cosh_series),
    "power": (lambda x: x ** 1.5, jets._power_series(1.5)),
}


def signed_zero_jet(ctx, rng, mask):
    """`random_jet` at a value in (0.3, 0.8), with zeros of either sign
    inside its support too."""
    x = random_jet(ctx, rng, mask)
    zero = rng.random(x.c.shape) < 0.2
    x.c[zero] = np.where(rng.random(x.c.shape) < 0.5, 0.0, -0.0)[zero]
    x.c[0] = rng.uniform(0.3, 0.8, x.c.shape[1:])
    return x


@pytest.mark.parametrize("lanes", [None, 1, 3, 32])
@pytest.mark.parametrize("sig", list(MASKED.values()), ids=list(MASKED))
def test_series_to_the_support_degree_are_the_full_order_series(sig, lanes):
    ctx = jets._context(*sig)
    if lanes is not None:
        ctx = ctx.batched(lanes)
    rng = np.random.default_rng([23, ctx.size, lanes or 0])
    for mask in range(ctx.full + 1):
        x = signed_zero_jet(ctx, rng, mask)
        for name, (f, coeffs) in SERIES.items():
            got = f(x)
            assert got.mask == mask, name
            # tobytes: a zero of the wrong sign fails too
            assert got.c.tobytes() == full_series(x, coeffs).c.tobytes(), (
                name, mask)


def test_degree_caps_of_the_masked_contexts():
    # (base, fiber, both) per context; a mask of no group is a constant
    caps = {name: [jets._context(*sig).degree_cap(m) for m in range(4)]
            for name, sig in MASKED.items()}
    assert caps == {"spray": [0, 1, 2, 2], "christoffel": [0, 1, 3, 3],
                    "curvature": [0, 2, 3, 4], "penrose-ray": [0, 2, 2, 4]}


def test_a_power_needs_no_coefficient_above_the_base_order():
    # the spray context has base order 1: x0 ** 1.5 at x0 = 0 takes
    # 0 ** 1.5 and 0 ** 0.5 only.  The full order also took 0 ** -0.5,
    # which raised, and `_call` raised EvaluationError
    _, s = variables([0.0, 0.2, 0.1, 0.0, 1.0, 0.0, 0.0, 0.0],
                     *MASKED["spray"][1:])
    w = jets._call(lambda x, v: x[0] ** 1.5 + v[0] * v[0], s[:4], s[4:])
    assert w.value == 1.0
    assert w.deriv((1, 0, 0, 0, 0, 0, 0, 0)) == 0.0
    with pytest.raises(ZeroDivisionError):
        full_series(s[0], jets._power_series(1.5))


def test_an_overflow_above_the_support_degree_does_not_raise():
    # log at 1e-200: its second coefficient -1e400 / 2 overflows to -inf.
    # The full order multiplied it by the zero value of the nilpotent
    # part into a nan, and `_call` raised on the invalid operation; a
    # base generator of order 1 never takes that coefficient
    _, s = variables([1e-200, 0.2, 0.1, 0.0, 1.0, 0.0, 0.0, 0.0],
                     *MASKED["spray"][1:])
    w = jets._call(lambda x, v: jets.log(x[0]) * v[0], s[:4], s[4:])
    assert w.value == math.log(1e-200)
    assert w.deriv((1, 0, 0, 0, 0, 0, 0, 0)) == 1.0 / 1e-200
    with np.errstate(over="ignore", invalid="raise"), \
            pytest.raises(FloatingPointError):
        full_series(s[0], jets._log_series)


# -- seeds from a template --------------------------------------------------

@pytest.mark.parametrize("lanes", [None, 1, 3, 32])
@pytest.mark.parametrize("sig", list(MASKED.values()), ids=list(MASKED))
def test_template_seeds_are_the_per_generator_seeds(sig, lanes):
    nvars, order, groups, group_orders = sig
    rng = np.random.default_rng([29, nvars, order, lanes or 0])
    stack = () if lanes is None else (lanes,)
    values = rng.standard_normal(stack + (nvars,))
    if lanes is None:
        values = values.tolist()
    jac = 0.1 * rng.standard_normal(stack + (nvars, nvars))
    jac[..., 0, :] = 0.0     # a generator that reaches no seed
    jac[..., 1, 2] = -0.0
    for jacobian in (None, jac):
        for _ in range(2):   # the second call meets the cached template
            _, got = variables(values, order, groups, group_orders,
                               jacobian)
            _, want = per_generator_seeds(values, order, groups,
                                          group_orders, jacobian)
            assert [w.mask for w in got] == [w.mask for w in want]
            for g, w in zip(got, want):
                assert g.ctx is w.ctx
                assert g.c.tobytes() == w.c.tobytes()
                g.c[...] = np.nan    # no seed writes into the template


@pytest.mark.parametrize("names_it", [True, False])
def test_in_blocks_names_a_failing_point_once(names_it):
    # the set spans two lane blocks; its row 3 fails
    points = np.arange(2.0 * (jets.LANE_BLOCK + 3)).reshape(-1, 2)
    bad = [float(t) for t in points[3]]

    def kernel(x):
        rows = np.atleast_2d(x)
        if np.any(np.all(rows == bad, axis=1)):
            raise EvaluationError("L fails at x=%r" % (bad,) if names_it
                                  else "L fails")
        return rows[:, 0] if x.ndim > 1 else x[0]

    assert np.array_equal(jets.in_blocks(kernel, np.delete(points, 3, 0)),
                          np.delete(points, 3, 0)[:, 0])
    with pytest.raises(EvaluationError) as e:
        jets.in_blocks(kernel, points)
    named = "x=%r" % (bad,)
    assert str(e.value).count(named) == 1
    assert str(e.value) == ("L fails at %s" % named if names_it
                            else "at %s: L fails" % named)


def test_a_jet_composes_its_reciprocal_once(monkeypatch):
    # every division by the same jet multiplies by one kept reciprocal,
    # with the bits of a reciprocal composed afresh; a new jet, even one
    # equal to it, composes its own
    _, (x, y) = jets.variables([0.7, -1.3], 3)
    a = x * x + 2.0 * y + 3.0
    fresh = a._series(jets._reciprocal_series)
    calls = []
    compose = Jet._series

    def counted(self, coeffs):
        calls.append(coeffs)
        return compose(self, coeffs)

    monkeypatch.setattr(Jet, "_series", counted)
    got = [x / a, 1.5 / a, y / a, a ** -2]
    want = [x * fresh, fresh * 1.5, y * fresh, fresh * fresh]
    assert calls == [jets._reciprocal_series]
    assert [g.c.tobytes() for g in got] == [w.c.tobytes() for w in want]
    (a + 0.0)._reciprocal()
    assert len(calls) == 2
