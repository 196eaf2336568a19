"""`finsler.ode` against scipy's solvers, the oracles of `helpers`.

DOP853 must reproduce scipy's states bit for bit, its dense solution at
scipy's output times included, and Brent's roots must lie within ``xtol``
of ``brentq``'s.
"""

import math

import numpy as np
import pytest

from finsler import fixtures, ode, penrose
from finsler.connection import _spray
from finsler.errors import SolverError
from finsler.lagrangian import _default_ppwave_example
from helpers import (scipy_brentq, scipy_dop853, scipy_dop853_result,
                     scipy_dop853_tableau)


def counted(fun):
    """``fun`` and the list of the times it is called at."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return fun(t, y)

    return rhs, calls


def spray_rhs(L):
    n = L.dim
    spray = _spray(L)

    def rhs(t, y):
        return np.concatenate([y[n:], spray(y)])

    return rhs


# the start points and spans of the benchmark's geodesic ops
SPRAYS = {
    "ppwave_example": (_default_ppwave_example, [0.0, 0.1, -0.15, 0.05],
                       [1.0, 0.45, 0.05, -0.08], 0.45),
    "rosen_cos2": (fixtures.rosen_cos2, [0.0] * 4, [1.0, 0.8, 0.2, 0.0],
                   1.2),
}


def test_dop853_tableau_is_scipy_tableau():
    want = scipy_dop853_tableau()
    got = {"A": ode._A, "C": ode._C, "E3": ode._E3, "E5": ode._E5,
           "D": ode._D}
    assert sorted(got) == sorted(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("name", sorted(SPRAYS))
@pytest.mark.parametrize("tol", [1e-7, 1e-9, 1e-12])
def test_dop853_is_scipy_bitwise_on_the_spray(name, tol):
    build, x0, v0, t1 = SPRAYS[name]
    rhs = spray_rhs(build())
    y0 = np.concatenate([x0, v0])
    for span in ((0.0, t1), (t1, 0.0)):
        t_eval = np.linspace(span[0], span[1], 40)
        _, want_y, status = scipy_dop853(rhs, span, y0, tol, t_eval)
        got = ode.dop853(rhs, span, y0, tol)
        assert got.status == status == 0
        assert np.array_equal(got.sol(t_eval), want_y)
    # t0 and every step end
    want_t, want_y, _ = scipy_dop853(rhs, (0.0, t1), y0, tol)
    got = ode.dop853(rhs, (0.0, t1), y0, tol)
    assert np.array_equal(got.t, want_t)
    assert np.array_equal(got.y, want_y)


def test_roundtrip_event_is_scipy_event_time(monkeypatch):
    # E = diag(cos u, 1) from u0 = 0: the degenerate event
    # det E = 1e-8 fires at +-acos(1e-8), just inside the cos^2 focal
    # points +-pi/2
    calls = []
    dop853 = ode.dop853

    def recording(rhs, span, y0, tol, event):
        out = dop853(rhs, span, y0, tol, event=event)
        calls.append((rhs, span, y0, tol, event, out))
        return out

    monkeypatch.setattr(ode, "dop853", recording)
    rep = penrose.brinkmann_roundtrip(lambda u: np.diag([-1.0, 0.0]),
                                      (-2.0, 2.0))
    assert rep.passed and rep.meta["truncated"]
    assert [span for _, span, *_ in calls] == [(0.0, -2.0), (0.0, 2.0)]
    for rhs, span, y0, tol, event, out in calls:
        assert tol == penrose._ODE_TOL
        t, _, status = scipy_dop853(rhs, span, y0, tol, event=event)
        assert status == out.status == 1
        assert out.t[-1] == t[-1]
        assert abs(abs(out.t[-1]) - math.acos(1e-8)) <= 1e-10


def test_dop853_stops_before_the_first_step_below_100_eps():
    calls = []

    def rhs(t, y):
        calls.append(t)
        return -y

    res = ode.dop853(rhs, (0.0, 1.0), [1.0], 1e-300)
    assert res.status == -1 and not res.success
    assert "100 machine epsilons" in res.message
    assert res.t.tolist() == [0.0] and res.y.tolist() == [[1.0]]
    assert res.sol is None
    assert calls == []


def test_dop853_stops_at_its_step_budget(monkeypatch):
    def rhs(t, y):
        return np.cos(40.0 * t) * y

    full = ode.dop853(rhs, (0.0, 10.0), [1.0], 1e-12)
    assert full.status == 0 and len(full.t) > 8
    monkeypatch.setattr(ode, "_MAX_STEPS", 7)
    res = ode.dop853(rhs, (0.0, 10.0), [1.0], 1e-12)
    assert res.status == -2 and not res.success
    assert len(res.t) == 7 + 1
    assert res.message == ("the integrator's budget of 7 steps ran out at "
                           "t=%r" % float(res.t[-1]))
    # the steps before the budget are those of an unbudgeted run
    assert np.array_equal(full.t[:8], res.t)
    assert np.array_equal(full.y[:8], res.y)
    assert np.array_equal(res.sol(res.t[:-1]), full.sol(res.t[:-1]))


def test_dop853_budget_is_not_spent_by_a_run_that_ends_on_it(monkeypatch):
    rhs = spray_rhs(_default_ppwave_example())
    y0 = np.concatenate([SPRAYS["ppwave_example"][1],
                         SPRAYS["ppwave_example"][2]])
    steps = len(ode.dop853(rhs, (0.0, 0.45), y0, 1e-12).t) - 1
    monkeypatch.setattr(ode, "_MAX_STEPS", steps)
    assert ode.dop853(rhs, (0.0, 0.45), y0, 1e-12).status == 0
    monkeypatch.setattr(ode, "_MAX_STEPS", steps - 1)
    assert ode.dop853(rhs, (0.0, 0.45), y0, 1e-12).status == -2


@pytest.mark.parametrize("name", sorted(SPRAYS) + ["decay"])
def test_dop853_calls_fun_as_often_as_scipy_without_dense_output(name):
    # a step's interpolant runs its three extra stages when first read
    if name == "decay":
        fun, y0, t1 = (lambda t, y: -y), np.array([1.0]), 2.0
    else:
        build, x0, v0, t1 = SPRAYS[name]
        fun, y0 = spray_rhs(build()), np.concatenate([x0, v0])
    for span in ((0.0, t1), (t1, 0.0)):
        want = scipy_dop853_result(fun, span, y0, 1e-9)
        rhs, calls = counted(fun)
        res = ode.dop853(rhs, span, y0, 1e-9)
        assert res.status == want.status == 0
        assert len(res.t) > 2
        assert len(calls) == want.nfev
        # the first step, inside and at the end it shares with the second,
        # where the earlier step answers
        inside = 0.5 * (res.t[0] + res.t[1])
        first = res.sol(inside)
        assert len(calls) == want.nfev + 3
        assert np.array_equal(res.sol(inside), first)
        res.sol(res.t[1])
        res.sol(np.array([res.t[1], inside]))
        assert len(calls) == want.nfev + 3


def test_dop853_fails_on_a_blow_up_as_scipy_does():
    # y = 1 / (1 - t): the step size falls below the spacing of floats
    # short of t = 1
    def square(t, y):
        return y * y

    want = scipy_dop853_result(square, (0.0, 2.0), [1.0], 1e-9)
    rhs, calls = counted(square)
    res = ode.dop853(rhs, (0.0, 2.0), [1.0], 1e-9)
    assert res.status == want.status == -1 and not res.success
    assert res.message == "the step size fell below the spacing of floats"
    assert len(res.t) == 201
    assert np.array_equal(res.t, want.t)
    assert np.array_equal(res.y, want.y.T)
    assert len(calls) == want.nfev == 4790


def test_dop853_over_a_span_of_length_zero_is_one_constant_step():
    def decay(t, y):
        return -y

    y0 = np.array([1.0, -2.0])
    want = scipy_dop853_result(decay, (0.5, 0.5), y0, 1e-9,
                               dense_output=True)
    rhs, calls = counted(decay)
    res = ode.dop853(rhs, (0.5, 0.5), y0, 1e-9)
    assert res.status == want.status == 0
    assert res.t.tolist() == want.t.tolist() == [0.5, 0.5]
    assert np.array_equal(res.y, want.y.T)
    assert len(calls) == want.nfev == 1
    assert np.array_equal(res.sol(0.5), want.sol(0.5))
    times = np.full(3, 0.5)
    assert np.array_equal(res.sol(times), want.sol(times).T)
    assert len(calls) == 1


@pytest.mark.parametrize("span", [(0.0, 1.2), (1.2, 0.0)])
def test_dense_solution_of_an_array_is_each_time_alone(span):
    rhs = spray_rhs(fixtures.rosen_cos2())
    res = ode.dop853(rhs, span, [0.0] * 4 + [1.0, 0.8, 0.2, 0.0], 1e-9)
    assert len(res.t) > 3
    rng = np.random.default_rng(5)
    # the step ends, shared by two steps, and times inside and between
    # them, in no particular order and with repeats
    times = np.concatenate([res.t, rng.uniform(*sorted(span), 50),
                            res.t[1:-1:2]])
    times = rng.permutation(times)
    got = res.sol(times)
    assert got.shape == (len(times), 8)
    for t, row in zip(times, got):
        assert np.array_equal(row, res.sol(float(t)))
    assert res.sol(np.empty(0)).shape == (0, 8)


def test_brent_is_within_xtol_of_brentq_on_random_brackets():
    rng = np.random.default_rng(20261018)
    same = total = 0
    for _ in range(400):
        root = rng.uniform(-2.0, 2.0)
        c = rng.normal(size=3)

        def f(x):
            s = x - root
            return (math.tanh(s) * (1.0 + c[0] ** 2) + c[1] * s ** 3
                    + 1e-3 * c[2] * s)

        a = root - rng.uniform(0.01, 3.0)
        b = root + rng.uniform(0.01, 3.0)
        if rng.uniform() < 0.5:
            a, b = b, a
        if not f(a) * f(b) < 0.0:
            continue
        for xtol in (1e-6, 1e-12, 4 * ode.EPS):
            want = scipy_brentq(f, a, b, xtol)
            got = ode.brent(f, a, b, xtol)
            assert abs(got - want) <= xtol + 4 * ode.EPS * abs(want)
            same += got == want
            total += 1
    assert total > 900
    print("brent: %d of %d roots bitwise equal to brentq's" % (same, total))


def test_brent_raises_solver_errors(monkeypatch):
    with pytest.raises(SolverError, match="no sign change"):
        ode.brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    # a product of the end values would underflow to 0: signs decide
    with pytest.raises(SolverError, match="no sign change"):
        ode.brent(lambda x: 1e-200 * (1.0 + x), 0.0, 1.0, 1e-12)
    with pytest.raises(SolverError, match="NaN"):
        ode.brent(lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                  0.0, 1.0, 1e-12)
    assert ode.brent(lambda x: x - 0.25, 0.25, 1.0, 1e-12) == 0.25
    monkeypatch.setattr(ode, "_BRENT_MAXITER", 2)
    with pytest.raises(SolverError, match="did not converge in 2"):
        ode.brent(lambda x: math.exp(x) - 1.5, 0.0, 1.0, 1e-12)
