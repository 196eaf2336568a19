"""The sampled commands run one stacked pass per sample set.

`check`, `connection`, `curvature` and `ppwave` evaluate all their
samples at once (the curvature jet is one per lane block), and
their reports must keep the bytes of a loop over the samples, one scalar
evaluation at a time (`tests/helpers.py`), and its first error.  Each lane
block gates its own samples, and `jets.in_blocks` reruns a failing block
row by row, so a failing set raises the loop's first error with its sample
named (``at x=[...]: ``).  33 samples cross `jets.LANE_BLOCK`.
"""

import json
import warnings

import numpy as np
import pytest

from finsler import cli, connection, fixtures, jets, ppwave
from finsler.curvature import ppwave_condition
from finsler.errors import FinslerError
from finsler.lagrangian import Lagrangian, catalog, from_descriptor
from finsler.tensors import (cartan_tensor, fundamental_tensor,
                             homogeneity_report)

from helpers import (per_sample_check, per_sample_connection,
                     per_sample_curvature, per_sample_ppwave)

MODELS = {**catalog(), **{k: b() for k, b in fixtures.BUILDERS.items()}}
E0 = np.array([1.0, 0.0, 0.0, 0.0])

ORACLES = {"check": per_sample_check, "connection": per_sample_connection,
           "curvature": per_sample_curvature, "ppwave": per_sample_ppwave}
SIZES = (1, 5, jets.LANE_BLOCK + 1)


def outcome(run, L, seed, tol, params):
    """The report's bytes, or the error's type and text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rep, _ = run(L, np.random.default_rng(seed), tol, **params)
        except (FinslerError, np.linalg.LinAlgError) as e:
            return type(e).__name__, str(e)
    return rep.to_json()


@pytest.mark.parametrize("command", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_reports_are_the_per_sample_bytes(command, name):
    L = MODELS[name]
    default = cli.COMMANDS[command].tol
    # each seed and size at the command's default tol, and one explicit
    # tol, which the connection command sets on all but its torsion rows
    for seed, n, tol in [*((seed, n, default) for seed in (3, 17, 101)
                           for n in SIZES), (3, 5, 1e-30)]:
        params = {"n_samples": n, "box": 0.8}
        if command != "check":
            params["N"] = E0
        got = outcome(cli.COMMANDS[command].run, L, seed, tol, params)
        assert got == outcome(ORACLES[command], L, seed, tol, params), (
            seed, n, tol)


class Points:
    """A generator stand-in whose uniform draws take the values of the
    given points in turn, as a generator's stream does, whatever the
    shape of each draw."""

    def __init__(self, points):
        self._values = np.concatenate([np.ravel(p) for p in points])

    def uniform(self, lo, hi, size):
        out, self._values = np.split(self._values, [np.prod(size)])
        return out.reshape(size)


# N = (1, 1, 1, 0) has L = 2 - h2(x0) = 1 + x0 on linear_wall (h2 =
# 1 - x0): outside the cone for x0 < -1, and g is singular at x0 = 1
N_WALL = np.array([1.0, 1.0, 1.0, 0.0])
INSIDE = [0.0, 0.1, 0.2, 0.3]
OUTSIDE = [-1.5, 0.1, 0.2, 0.3]
DEGENERATE = [1.0, 0.1, 0.2, 0.3]


@pytest.mark.parametrize("command", ["connection", "curvature", "ppwave"])
@pytest.mark.parametrize("bad", [(OUTSIDE, DEGENERATE),
                                 (DEGENERATE, OUTSIDE)])
def test_a_failing_set_raises_the_per_sample_loops_first_error(
        command, bad, capsys, monkeypatch, tmp_path):
    L = fixtures.linear_wall()
    points = [INSIDE, *bad, INSIDE]
    # curvature draws 3 spots of 4 vectors after each sample
    spots = np.full(12 * 4, 0.5) if command == "curvature" else []
    draws = [v for p in points for v in (p, spots)]
    with pytest.raises(FinslerError) as want:
        ORACLES[command](L, Points(draws), 1e-6, len(points), 0.8, N_WALL)
    # a sample is named once: the singular-metric error names it already
    first = str(want.value)
    if "x=%r" % (bad[0],) not in first:
        first = "at x=%r: %s" % (bad[0], first)
    # the gated stacked solve meets the same error, and names its sample
    with pytest.raises(FinslerError) as got:
        connection._table(
            L, np.array(points), np.tile(N_WALL, (len(points), 1)),
            np.zeros((len(points), 4, 4)), gate=True)
    assert (type(got.value), str(got.value)) == (type(want.value), first)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Points(draws))
    cfg = tmp_path / "wall.json"
    cfg.write_text(json.dumps({
        "spacetime": {"type": "plugin",
                      "params": {"module": "finsler.fixtures",
                                 "builder": "linear_wall"}},
        "params": {"n_samples": len(points), "N": N_WALL.tolist()}}))
    assert cli.main([command, "--config", str(cfg)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "numerical failure: %s" % first


@pytest.mark.parametrize("seed", [0, 4])
def test_check_names_the_first_sample_whose_state_fails(
        seed, capsys, tmp_path):
    # the Randers A-part of ppwave_example turns indefinite at eps 50:
    # the first failing sample of 8 is sample 0 at seed 0, and sample 6
    # at seed 4
    spacetime = {"type": "ppwave_example", "params": {"eps": 50}}
    L = from_descriptor(spacetime)
    box = cli.COMMANDS["check"].params["box"][1]
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(-box, box, 4), rng.uniform(-1.0, 1.0, 4))
             for _ in range(8)]
    # a loop over the draws, one sample set of one sample each, which
    # names no sample
    for x, noise in draws:
        try:
            cli._sample_states(L, Points([x, noise]), 1, box)
        except FinslerError as e:
            assert not str(e).startswith("at x=")
            first = "at x=%r: %s" % (x.tolist(), e)
            break
    else:
        pytest.fail("no sample fails")

    cfg = tmp_path / "eps50.json"
    cfg.write_text(json.dumps({"spacetime": spacetime,
                               "params": {"n_samples": 8}}))
    code = cli.main(["check", "--config", str(cfg), "--seed", str(seed)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "numerical failure: %s" % first


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_a_failing_homogeneity_stack_raises_its_first_pairs_error(order):
    # L cannot be evaluated past x1 = 1; e1 is outside the cone
    L = Lagrangian(lambda x, v: jets.sqrt(1.0 - x[1]) * v[0] * v[0]
                   - v[1] * v[1], 3, [1.0, 0.0, 0.0], name="sqrt-wall")
    pairs = [([0.0, 0.0, 0.0], [1.0, 0.1, 0.0]),
             ([0.0, 2.0, 0.0], [1.0, 0.0, 0.0]),     # 1: L fails
             ([0.0, 0.5, 0.0], [0.0, 1.0, 0.0])]     # 2: outside
    xs, vs = map(np.array, zip(*(pairs[k] for k in (0, *order))))
    bad = pairs[order[0]]
    with pytest.raises(FinslerError) as want:
        homogeneity_report(L, *bad)
    for n in (3, jets.LANE_BLOCK + 3):
        with pytest.raises(FinslerError) as got:
            homogeneity_report(L, np.resize(xs, (n, 3)),
                               np.resize(vs, (n, 3)))
        assert type(got.value) is type(want.value)
        assert str(got.value) == "at x=%r: %s" % (bad[0], want.value)


def test_ppwave_solves_the_symbols_of_each_sample_once(monkeypatch):
    L = MODELS["ppwave_example"]
    lanes = []
    symbols = connection._symbols

    def counted(L, x, v, J):
        lanes.append(len(np.atleast_2d(x)))
        return symbols(L, x, v, J)

    monkeypatch.setattr(connection, "_symbols", counted)
    cli._cmd_ppwave(L, np.random.default_rng(5), 1e-6, 3, 0.8, E0)
    assert lanes == [3]


def test_an_empty_sample_set_gives_empty_reports():
    V = connection.VectorField.constant(E0)
    none = np.zeros((0, 4))
    for name in ("brinkmann-x2", "ppwave_example"):
        L = MODELS[name]
        assert ppwave.parallel_criterion(L, E0, []).checks == []
        assert ppwave_condition(L, E0, []).checks == []
        rep, _ = connection.connection_report(L, V, none)
        assert rep.checks == []
        assert homogeneity_report(L, none, none).checks == []
        # the stacked entries give results with a lane axis of no lanes
        m = L.is_admissible(none, none)
        assert m.inside.shape == m.value.shape == m.margin.shape == (0,)
        assert L.value(none, none).shape == (0,)
        assert fundamental_tensor(L, none, none).shape == (0, 4, 4)
        assert cartan_tensor(L, none, none).shape == (0, 4, 4, 4)
        table = connection.christoffel(L, V, none)
        assert table.gamma.shape == table.dmetric.shape == (0, 4, 4, 4)
        assert table.g.shape == (0, 4, 4)
