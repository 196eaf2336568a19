"""Command-line frontend: run verification pipelines from JSON configs.

`main` parses argv, and `run(ns)` takes argparse's namespace from there
to the report: it reads the config file, merges ``--seed`` and
``--tol`` into its root, parses the root once, resolves ``--out`` and
the format into that parsed dict, builds the model its spacetime
descriptor names, parses the command's ``params`` against its `COMMANDS`
table (after building the model, whose dimension sets vector lengths),
runs its pipeline on the typed values, and emits a JSON report (plus a
CSV curve for the commands that produce one), titled by its command.
Every value the run reads comes from that one parsed dict.  All of these
tables go through `schema.parse`, so unknown keys fail at every level.
A sampled command whose check the library reports as a whole is one
call to that public report: ``check`` prints `homogeneity_report` and
``ppwave`` `ppwave_condition`; no runner imports a private kernel.
Reports are deterministic: sample points come from a seeded generator
recorded in the header, floats are printed with 17 significant digits,
and nothing time- or host-dependent is written.

Exit codes: 0 all checks pass, 1 verification failure, 2 schema
violation, 3 numerical failure.
"""

import argparse
import functools
import json
import math
import sys
from collections import namedtuple

import numpy as np

from . import jets
from .connection import VectorField, connection_report, geodesic
from .curvature import chern_curvature, ppwave_condition
from .errors import ConfigError, FinslerError
from .lagrangian import from_descriptor
from .penrose import penrose_limit
from .ppwave import delta_scan
from .quotient import holonomy_defect, quotient_metric, rectangle_loop
from .report import Report
from .schema import (axes, count, interval, listof, obj, parse, positive,
                     require, string, vector)
from .tensors import homogeneity_report

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3


# -- config -------------------------------------------------------------------

def load_config(path):
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e)) from e
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid JSON: %s"
                          % (path, e)) from e


# -- params kinds -------------------------------------------------------------
# `schema` holds the parser and the generic kinds; these two read a chart

def frame(val, path, dim):
    """dim - 2 vectors, one per transverse class, as an array."""
    return np.array(listof(val, path, dim, dim - 2, True, vector))


_LOOP = {"vertices": (listof, None, 3, False, vector), "plane": (axes, None),
         "side": (positive, None), "sides": (listof, None, 2, True, positive)}


def loop(val, path, dim):
    """A polygon {vertices}, or a rectangle at base {plane, side | sides},
    which comes back with both its sides and its area."""
    got = {k: v for k, v in parse(_LOOP, val, path, dim).items()
           if v is not None}
    require(set(got) in ({"vertices"}, {"plane", "side"}, {"plane", "sides"}),
            "%s takes {vertices} or {plane, side | sides}" % path)
    if "side" in got:
        got["sides"] = (got.pop("side"),) * 2
    if "sides" in got:
        got["area"] = abs(got["sides"][0] * got["sides"][1])
        require(got["area"] > 0.0, "%s sides are too small: the loop "
                "area underflows to zero" % path)
    return got


def _sample_states(L, rng, n, box):
    """Seeded (x, v) pairs with v strictly inside the cone near cone_ref.

    Each sample draws its x, then its noise; a sample whose cone
    reference or L fails is named by its x (`jets._row`)."""
    draws = [(rng.uniform(-box, box, L.dim), rng.uniform(-1.0, 1.0, L.dim))
             for _ in range(n)]

    def state(x, noise):
        ref = np.asarray(L.cone_ref_at(x), dtype=float)
        v = ref
        delta = 0.25 * max(1.0, float(np.linalg.norm(ref)))
        for _ in range(8):
            cand = ref + delta * noise
            if L.value(x, cand) > 0.0:
                v = cand
                break
            delta *= 0.5
        return x, v

    xs = np.array([x for x, _ in draws])
    return [jets._row(state, draw, xs) for draw in draws]


# -- commands ----------------------------------------------------------------------
# A runner returns the report and None, or a callable building the CSV
# text, so a curve is only tabulated when the CSV is written.

def _cmd_check(L, rng, tol, n_samples, box):
    xs, vs = map(np.array, zip(*_sample_states(L, rng, n_samples, box)))
    return homogeneity_report(L, xs, vs, tol), None


def _draw_points(L, rng, n_samples, box):
    """n_samples points drawn uniformly from the box, one row each."""
    return np.array([rng.uniform(-box, box, L.dim)
                     for _ in range(n_samples)])


def _cmd_connection(L, rng, tol, n_samples, box, N):
    rep, _ = connection_report(L, VectorField.constant(N),
                               _draw_points(L, rng, n_samples, box), tol)
    return rep, None


def _cmd_curvature(L, rng, tol, n_samples, box, N):
    # pair symmetry is an identity at the parallel reference direction,
    # not at a generic cone point of a non-quadratic model
    draws = [(rng.uniform(-box, box, L.dim),
              rng.uniform(-1, 1, (3, 4, L.dim))) for _ in range(n_samples)]
    curvatures = chern_curvature(L, np.array([x for x, _ in draws]), N)
    rep = Report(title="curvature", meta={"samples": []})
    worst = []
    for (x, spots), R in zip(draws, curvatures):
        X, Y, U, W = np.swapaxes(spots, 0, 1)     # three draws each
        worst.append(np.max(np.abs(R.rm(X, Y, U, W) - R.rm(U, W, X, Y)))
                     / max(1.0, R.scale))
        rep.meta["samples"].append({"x": x.tolist(), "scale": R.scale})
    rep.add_samples(["pair symmetry"], worst, tol)
    return rep, None


def _cmd_geodesic(L, rng, tol, x0, v0, t_span, n_samples, ode_tol):
    path = geodesic(L, x0, v0, t_span, tol=ode_tol, n_samples=n_samples)
    rep = Report(title="geodesic",
                 meta={"l0": float(path.l0),
                       "t_final": float(path.t[-1]),
                       "truncated": bool(path.truncated),
                       "reason": path.reason})
    rep.add("lagrangian drift", float(np.max(np.abs(path.ldrift))), tol)
    return rep, path.to_csv


def _cmd_ppwave(L, rng, tol, n_samples, box, N):
    return ppwave_condition(L, N, _draw_points(L, rng, n_samples, box),
                            tol), None


def _cmd_focal(L, rng, tol, N, x0, v0, t_span, n_samples, ode_tol):
    ray = geodesic(L, x0, v0, t_span, tol=ode_tol, n_samples=n_samples)
    curve = delta_scan(L, N, ray)
    both = np.isfinite(curve.delta) & np.isfinite(curve.delta4)
    resid = (float(np.max(np.abs(curve.delta[both] - curve.delta4[both])))
             if np.any(both) else 0.0)
    # delta is NaN wherever det h < 0, possibly on the whole span
    scale = float(np.max(np.abs(curve.delta), initial=1.0,
                         where=np.isfinite(curve.delta)))
    rep = Report(title="focal",
                 meta={"roots": [float(r) for r in curve.roots],
                       "kinds": list(curve.kinds),
                       "flagged": [[float(a), float(b)]
                                   for a, b in curve.flagged],
                       "ray_truncated": bool(ray.truncated)})
    rep.add("delta4 agrees with delta", resid, tol * scale)
    return rep, curve.to_csv


def _cmd_quotient(L, rng, tol, N, base, reps, n_segments, loop):
    # one frame at the base: the shifted representatives reuse its g and
    # N, and so does the holonomy of a loop that starts at the base
    frame = quotient_metric(L, N, base, reps)
    # quotient_metric raises where gbar is not positive definite
    rep = Report(title="quotient", meta={"gbar": frame.gbar.tolist()})
    shifted = frame.with_reps(reps + 2.0 * N)
    rep.add("representative independence",
            float(np.max(np.abs(frame.gbar - shifted.gbar))), 1e-8)

    if loop is None:
        return rep, None
    pts = (np.array(loop["vertices"], dtype=float) if "vertices" in loop
           else rectangle_loop(base, *loop["plane"], *loop["sides"]))
    at_base = np.array_equal(pts[0], base)
    defect = holonomy_defect(L, N, pts, reps, n_segments=n_segments,
                             frame=frame if at_base else None)
    rep.meta["holonomy"] = {"defect": defect}
    if "area" in loop:
        rep.add("holonomy defect / area", defect / loop["area"], tol)
        rep.meta["holonomy"]["area"] = loop["area"]
    else:
        rep.add("holonomy defect", defect, tol)
    return rep, None


def _cmd_penrose(L, rng, tol, N, u_interval, omegas, n_csv):
    res = penrose_limit(L, N, u_interval, omegas=omegas, tol=tol)
    brink = res.brinkmann
    lo, hi = brink.u_interval
    pad = (0.05 if brink.truncated else 0.02) * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, n_csv)

    rep = Report(title="penrose",
                 meta={"u_interval": [float(lo), float(hi)],
                       "truncated": bool(brink.truncated),
                       "reason": brink.reason,
                       "offblock": res.offblock,
                       "A_mid": brink.A(0.5 * (lo + hi)).tolist()})
    for row in res.homothety_residuals:
        rep.add("omega=%g homothety" % row["omega"], row["max_residual"],
                tol)
    rep.extend(brink.m_conditions(np.linspace(lo + pad, hi - pad, 9)))
    return rep, lambda: res.to_csv(grid)


# a command's runner, default headline tolerance (the rows it sets are
# listed in README's config table), whether it writes a CSV curve, and
# its params table
Command = namedtuple("Command", "run tol curve params")

# the sampling box has width 2 box, which must be finite
_BOX = (positive, 0.8, 0.0, sys.float_info.max / 2)
_N = (vector, lambda dim, got: np.eye(dim)[0].tolist())
# rtol and atol of `ode.dop853`, which stops before its first step below
# 100 machine epsilons
_ODE_TOL = (positive, 1e-9, 100.0 * np.finfo(float).eps)

COMMANDS = {
    "check": Command(_cmd_check, 1e-9, False, {
        "n_samples": (count, 6), "box": _BOX}),
    "connection": Command(_cmd_connection, 1e-8, False, {
        "n_samples": (count, 4), "box": _BOX, "N": _N}),
    "curvature": Command(_cmd_curvature, 1e-6, False, {
        "n_samples": (count, 3), "box": _BOX, "N": _N}),
    "geodesic": Command(_cmd_geodesic, 1e-7, True, {
        "x0": (vector, ...), "v0": (vector, ...),
        "t_span": (interval, ...), "n_samples": (count, 200, 2),
        "ode_tol": _ODE_TOL}),
    "ppwave": Command(_cmd_ppwave, 1e-6, False, {
        "n_samples": (count, 6), "box": _BOX, "N": _N}),
    # x0 defaults to the origin and v0 to the N given
    "focal": Command(_cmd_focal, 1e-10, True, {
        "N": _N, "x0": (vector, lambda dim, got: [0.0] * dim),
        "v0": (vector, lambda dim, got: got["N"].tolist()),
        "t_span": (interval, ...), "n_samples": (count, 200, 2),
        "ode_tol": _ODE_TOL}),
    # reps defaults to e2, ..., e(n-1)
    "quotient": Command(_cmd_quotient, 1e-6, False, {
        "N": _N, "base": (vector, ...),
        "reps": (frame, lambda dim, got: np.eye(dim)[2:].tolist()),
        "n_segments": (count, 64, 4), "loop": (loop, None)}),
    # the rescaled model divides by omega^2, which must stay a normal float
    "penrose": Command(_cmd_penrose, 1e-9, True, {
        "N": _N, "u_interval": (interval, ...),
        "omegas": (listof, [0.5, 0.1], 1, False, positive,
                   math.sqrt(sys.float_info.min), 1.0),
        "n_csv": (count, 101, 2)}),
}

# the config root and its output; `from_descriptor` parses the spacetime
# and `run` the params
_OUTPUT = {"path": (string, None), "format": (string, None, ("json", "csv"))}
_CONFIG = {
    "spacetime": (obj, ...), "command": (string, None, COMMANDS),
    "params": (obj, {}), "output": (obj, {}, _OUTPUT),
    "seed": (count, 0, 0, 2 ** 64 - 1), "tol": (positive, None)}


# -- runner ------------------------------------------------------------------------

def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
    except OSError as e:
        raise ConfigError("cannot write %s: %s" % (path, e)) from e


def run(ns):
    """Run the invocation argparse parsed into ``ns``, from its config file
    to its report (see the module docstring); returns the process exit
    status."""
    raw = load_config(ns.config)
    if isinstance(raw, dict):
        raw = {**raw, **{k: v for k, v in (("seed", ns.seed), ("tol", ns.tol))
                         if v is not None}}
    config = parse(_CONFIG, raw, "")
    require(config["command"] in (None, ns.command),
            "config command %r does not match invocation %r"
            % (config["command"], ns.command))
    config["command"] = ns.command
    command = COMMANDS[config["command"]]
    output = config["output"]
    if ns.out is not None:
        output["path"] = string(ns.out, "output.path", None)
    if output["format"] is None:
        output["format"] = ("csv" if output["path"] is not None
                            and output["path"].endswith(".csv") else "json")
    if output["format"] == "csv":
        require(command.curve,
                "command %s produces no CSV curve" % config["command"])
        require(output["path"] is not None, "csv output needs a path")

    L = from_descriptor(config["spacetime"])
    params = parse(command.params, config["params"], "params", L.dim)
    rng = np.random.default_rng(config["seed"])
    tol = command.tol if config["tol"] is None else config["tol"]
    rep, curve_csv = command.run(L, rng, tol, **params)
    header = {"command": config["command"],
              "model": getattr(L, "name", "?"),
              "seed": config["seed"],
              "generator": "PCG64"}
    if config["tol"] is not None:
        header["tol"] = config["tol"]
    rep.title = config["command"]
    rep.meta = {**header, **rep.meta}
    text = rep.to_json()

    if output["format"] == "csv":
        _write(output["path"], curve_csv())
        sys.stdout.write(text)
    elif output["path"] is not None:
        _write(output["path"], text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if rep.passed else EXIT_VERIFICATION


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="finsler",
        description="Finsler spacetime verification pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON run configuration")
        p.add_argument("--out", help="output path (json report or csv "
                                     "curve by extension)")
        p.add_argument("--seed", type=int, help="sample-point seed")
        p.add_argument("--tol", type=float, help="headline tolerance")
    return parser


def main(argv=None):
    ns = _parser().parse_args(argv)
    try:
        return run(ns)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA
    except (FinslerError, np.linalg.LinAlgError) as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
