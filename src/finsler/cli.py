"""Command-line frontend: run verification pipelines from JSON configs.

Every subcommand loads a spacetime descriptor, runs its pipeline, and
emits a JSON report (plus a CSV curve for the commands that produce
one).  Reports are deterministic: sample points come from a seeded
generator recorded in the header, floats are printed with 17 significant
digits, and nothing time- or host-dependent is written.

Exit codes: 0 all checks pass, 1 verification failure, 2 schema
violation, 3 numerical failure.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .connection import VectorField, connection_report, geodesic
from .curvature import chern_curvature, ppwave_condition
from .errors import ConfigError, FinslerError
from .lagrangian import from_descriptor, is_finite_number
from .penrose import penrose_limit
from .ppwave import delta_scan, parallel_criterion
from .quotient import holonomy_defect, quotient_metric, rectangle_loop
from .report import Report
from .tensors import fundamental_tensor, homogeneity_report, signature_of

COMMANDS = ("check", "connection", "curvature", "geodesic", "ppwave",
            "focal", "quotient", "penrose")
_CURVE_COMMANDS = ("geodesic", "focal", "penrose")

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3


# -- config -------------------------------------------------------------------

@dataclass
class RunConfig:
    """Validated invocation: spacetime, command, params, output routing."""

    spacetime: dict
    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    tol: float = None
    path: str = None
    format: str = "json"


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fp:
            raw = json.load(fp)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e)) from e
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid JSON: %s"
                          % (path, e)) from e
    _require(isinstance(raw, dict), "config root must be a JSON object")
    return raw


def parse_config(raw, command, out=None, seed=None, tol=None):
    """Merge the config file with CLI overrides into a RunConfig."""
    known = {"spacetime", "command", "params", "output", "seed", "tol"}
    extra = sorted(set(raw) - known)
    _require(not extra, "unknown config keys: %s" % ", ".join(extra))

    _require(command in COMMANDS,
             "command must be one of %s" % "|".join(COMMANDS))
    if "command" in raw:
        _require(raw["command"] == command,
                 "config command %r does not match invocation %r"
                 % (raw["command"], command))

    spacetime = raw.get("spacetime")
    _require(isinstance(spacetime, dict),
             "config needs a spacetime descriptor object")

    params = raw.get("params", {})
    _require(isinstance(params, dict), "params must be an object")

    if seed is None:
        seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and 0 <= seed < 2 ** 64, "seed must be an integer in [0, 2^64)")

    if tol is None:
        tol = raw.get("tol")
    if tol is not None:
        _require(is_finite_number(tol) and tol > 0,
                 "tol must be a positive number")
        tol = float(tol)

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output must be an object")
    _require(set(output) <= {"path", "format"},
             "output accepts only path and format")
    path = out if out is not None else output.get("path")
    if path is not None:
        _require(isinstance(path, str) and path, "output path must be a "
                 "non-empty string")
    fmt = output.get("format")
    if fmt is None:
        fmt = "csv" if path is not None and path.endswith(".csv") else "json"
    _require(fmt in ("json", "csv"), "output format must be json or csv")
    if fmt == "csv":
        _require(command in _CURVE_COMMANDS,
                 "command %s produces no CSV curve" % command)
        _require(path is not None, "csv output needs a path")
    return RunConfig(spacetime=spacetime, command=command, params=params,
                     seed=seed, tol=tol, path=path, format=fmt)


# -- parameter helpers ----------------------------------------------------------

def _num(params, key, default, positive=False):
    val = params.get(key, default)
    _require(is_finite_number(val), "params.%s must be a finite number" % key)
    if positive:
        _require(val > 0, "params.%s must be positive" % key)
    return float(val)


def _box(params):
    """Half-width of the sampling box; its width 2 box must be finite."""
    box = _num(params, "box", 0.8, positive=True)
    _require(np.isfinite(2.0 * box), "params.box is too large")
    return box


def _count(params, key, default, least=1):
    val = params.get(key, default)
    _require(isinstance(val, int) and not isinstance(val, bool)
             and val >= least, "params.%s must be an integer >= %d"
             % (key, least))
    return val


def _vector(params, key, dim, default=None):
    val = params.get(key, default)
    _require(val is not None, "params.%s is required" % key)
    _require(isinstance(val, list) and len(val) == dim
             and all(is_finite_number(t) for t in val),
             "params.%s must be a number list of length %d" % (key, dim))
    return np.asarray(val, dtype=float)


def _interval(params, key):
    val = params.get(key)
    _require(isinstance(val, list) and len(val) == 2
             and all(is_finite_number(t) for t in val) and val[0] < val[1],
             "params.%s must be [lo, hi] with lo < hi" % key)
    return float(val[0]), float(val[1])


def _chart_field(params, L):
    if "N" in params:
        return _vector(params, "N", L.dim)
    n = np.zeros(L.dim)
    n[0] = 1.0
    return n


def _sample_states(L, rng, n, box):
    """Seeded (x, v) pairs with v strictly inside the cone near cone_ref."""
    out = []
    for _ in range(n):
        x = rng.uniform(-box, box, L.dim)
        ref = np.asarray(L.cone_ref_at(x), dtype=float)
        v = ref
        delta = 0.25 * max(1.0, float(np.linalg.norm(ref)))
        noise = rng.uniform(-1.0, 1.0, L.dim)
        for _ in range(8):
            cand = ref + delta * noise
            if L.value(x, cand) > 0.0:
                v = cand
                break
            delta *= 0.5
        out.append((x, v))
    return out


# -- commands ----------------------------------------------------------------------

def _cmd_check(L, params, rng, tol):
    tol = 1e-9 if tol is None else tol
    n = _count(params, "n_samples", 6)
    box = _box(params)
    rep = Report(title="check")
    want = (1, L.dim - 1, 0)
    for k, (x, v) in enumerate(_sample_states(L, rng, n, box)):
        sub = homogeneity_report(L, x, v, tol=tol)
        for c in sub.checks:
            rep.add("sample %d: %s" % (k, c.name), c.residual, c.tol)
        sig = signature_of(fundamental_tensor(L, x, v).matrix)
        ok = (sig.plus, sig.minus, sig.zero) == want
        rep.add("sample %d: signature (1, %d, 0)" % (k, L.dim - 1),
                0.0 if ok else 1.0, 0.5)
    return rep, None


def _cmd_connection(L, params, rng, tol):
    n = _count(params, "n_samples", 4)
    box = _box(params)
    V = VectorField.constant(_chart_field(params, L))
    rep = Report(title="connection")
    for k in range(n):
        x = rng.uniform(-box, box, L.dim)
        sub, _ = connection_report(L, V, x)
        for c in sub.checks:
            use = c.tol if tol is None or "torsion" in c.name else tol
            rep.add("sample %d: %s" % (k, c.name), c.residual, use)
    return rep, None


def _cmd_curvature(L, params, rng, tol):
    tol = 1e-6 if tol is None else tol
    n = _count(params, "n_samples", 3)
    box = _box(params)
    # pair symmetry is an identity at the parallel reference direction,
    # not at a generic cone point of a non-quadratic model
    v = _chart_field(params, L)
    rep = Report(title="curvature", meta={"samples": []})
    for k in range(n):
        x = rng.uniform(-box, box, L.dim)
        R = chern_curvature(L, x, v)
        scale = max(1.0, R.scale)
        worst = 0.0
        for _ in range(3):
            X, Y, U, W = (rng.uniform(-1.0, 1.0, L.dim) for _ in range(4))
            worst = max(worst, abs(R.rm(X, Y, U, W) - R.rm(U, W, X, Y)))
        rep.add("sample %d: pair symmetry" % k, worst / scale, tol)
        rep.meta["samples"].append({"x": x.tolist(), "scale": R.scale})
    return rep, None


def _cmd_geodesic(L, params, rng, tol):
    tol = 1e-7 if tol is None else tol
    x0 = _vector(params, "x0", L.dim)
    v0 = _vector(params, "v0", L.dim)
    t_span = _interval(params, "t_span")
    n = _count(params, "n_samples", 200, least=2)
    ode_tol = _num(params, "ode_tol", 1e-9, positive=True)
    path = geodesic(L, x0, v0, t_span, tol=ode_tol, n_samples=n)
    rep = Report(title="geodesic",
                 meta={"l0": float(path.l0),
                       "t_final": float(path.t[-1]),
                       "truncated": bool(path.truncated),
                       "reason": path.reason})
    rep.add("lagrangian drift", float(np.max(np.abs(path.ldrift))), tol)
    return rep, path.to_csv


def _cmd_ppwave(L, params, rng, tol):
    n = _count(params, "n_samples", 6)
    box = _box(params)
    nvec = _chart_field(params, L)
    samples = [rng.uniform(-box, box, L.dim) for _ in range(n)]
    rep = Report(title="ppwave")
    par = parallel_criterion(L, nvec, samples)
    cond = ppwave_condition(L, nvec, samples,
                            tol_factor=1e-6 if tol is None else tol)
    rep.extend(par)
    rep.extend(cond)
    rep.meta["curvature_scale"] = cond.meta["curvature_scale"]
    rep.meta["samples"] = cond.meta["samples"]
    return rep, None


def _cmd_focal(L, params, rng, tol):
    tol = 1e-10 if tol is None else tol
    nvec = _chart_field(params, L)
    x0 = _vector(params, "x0", L.dim, default=[0.0] * L.dim)
    v0 = _vector(params, "v0", L.dim, default=nvec.tolist())
    t_span = _interval(params, "t_span")
    n = _count(params, "n_samples", 200, least=2)
    ode_tol = _num(params, "ode_tol", 1e-9, positive=True)
    ray = geodesic(L, x0, v0, t_span, tol=ode_tol, n_samples=n)
    curve = delta_scan(L, nvec, ray)
    both = np.isfinite(curve.delta) & np.isfinite(curve.delta4)
    resid = (float(np.max(np.abs(curve.delta[both] - curve.delta4[both])))
             if np.any(both) else 0.0)
    scale = max(1.0, float(np.nanmax(np.abs(curve.delta))))
    rep = Report(title="focal",
                 meta={"roots": [float(r) for r in curve.roots],
                       "kinds": list(curve.kinds),
                       "flagged": [[float(a), float(b)]
                                   for a, b in curve.flagged],
                       "ray_truncated": bool(ray.truncated)})
    rep.add("delta4 agrees with delta", resid, tol * scale)
    return rep, curve.to_csv


def _cmd_quotient(L, params, rng, tol):
    tol = 1e-6 if tol is None else tol
    nvec = _chart_field(params, L)
    base = _vector(params, "base", L.dim)
    if "reps" in params:
        raw = params["reps"]
        _require(isinstance(raw, list) and len(raw) == L.dim - 2,
                 "params.reps must list %d vectors" % (L.dim - 2))
        reps = np.array([_vector({"r": r}, "r", L.dim) for r in raw])
    else:
        reps = np.zeros((L.dim - 2, L.dim))
        for a in range(L.dim - 2):
            reps[a, 2 + a] = 1.0
    n_segments = _count(params, "n_segments", 64, least=4)

    frame = quotient_metric(L, nvec, base, reps)
    rep = Report(title="quotient", meta={"gbar": frame.gbar.tolist()})
    rep.add("gbar positive definite", 0.0, 0.5)
    shifted = quotient_metric(L, nvec, base, reps + 2.0 * nvec)
    rep.add("representative independence",
            float(np.max(np.abs(frame.gbar - shifted.gbar))), 1e-8)

    loop = params.get("loop")
    if loop is not None:
        _require(isinstance(loop, dict), "params.loop must be an object")
        if "vertices" in loop:
            verts = loop["vertices"]
            _require(isinstance(verts, list) and len(verts) >= 3,
                     "loop.vertices needs at least 3 points")
            pts = np.array([_vector({"p": p}, "p", L.dim) for p in verts])
            defect = holonomy_defect(L, nvec, pts, reps,
                                     n_segments=n_segments)
            rep.add("holonomy defect", defect, tol)
            rep.meta["holonomy"] = {"defect": defect}
        else:
            _require(set(loop) <= {"plane", "side", "sides"},
                     "loop accepts vertices | plane + side(s)")
            plane = loop.get("plane")
            _require(isinstance(plane, list) and len(plane) == 2
                     and all(isinstance(i, int) and not isinstance(i, bool)
                             and 0 <= i < L.dim for i in plane)
                     and plane[0] != plane[1],
                     "loop.plane must be two distinct axis indices")
            if "sides" in loop:
                sides = loop["sides"]
                _require(isinstance(sides, list) and len(sides) == 2
                         and all(is_finite_number(s) and s > 0
                                 for s in sides),
                         "loop.sides must be two positive numbers")
                si, sj = float(sides[0]), float(sides[1])
            else:
                si = sj = _num(loop, "side", None, positive=True)
            _require(si * sj > 0.0, "loop sides are too small: the loop "
                     "area underflows to zero")
            pts = rectangle_loop(base, plane[0], plane[1], si, sj)
            defect = holonomy_defect(L, nvec, pts, reps,
                                     n_segments=n_segments)
            area = abs(si * sj)
            rep.add("holonomy defect / area", defect / area, tol)
            rep.meta["holonomy"] = {"defect": defect, "area": area}
    return rep, None


def _cmd_penrose(L, params, rng, tol):
    tol = 1e-9 if tol is None else tol
    nvec = _chart_field(params, L)
    u_interval = _interval(params, "u_interval")
    omegas = params.get("omegas", [0.5, 0.1])
    _require(isinstance(omegas, list) and omegas
             and all(is_finite_number(w) and 0.0 < w <= 1.0
                     for w in omegas),
             "params.omegas must be numbers in (0, 1]")
    # the rescaled model divides by omega^2, which must stay a normal float
    _require(all(w * w >= sys.float_info.min for w in omegas),
             "params.omegas are too small: omega^2 underflows")
    n_csv = _count(params, "n_csv", 101, least=2)

    res = penrose_limit(L, nvec, u_interval, omegas=tuple(omegas), tol=tol)
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


_RUNNERS = {
    "check": _cmd_check,
    "connection": _cmd_connection,
    "curvature": _cmd_curvature,
    "geodesic": _cmd_geodesic,
    "ppwave": _cmd_ppwave,
    "focal": _cmd_focal,
    "quotient": _cmd_quotient,
    "penrose": _cmd_penrose,
}


# -- runner ------------------------------------------------------------------------

def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
    except OSError as e:
        raise ConfigError("cannot write %s: %s" % (path, e)) from e


def run(config):
    """Execute a validated RunConfig; returns the process exit status."""
    L = from_descriptor(config.spacetime)
    rng = np.random.default_rng(config.seed)
    # curve_csv: None, or a callable building the CSV text, so a curve is
    # only tabulated when the CSV is written
    rep, curve_csv = _RUNNERS[config.command](L, config.params, rng,
                                              config.tol)
    header = {"command": config.command,
              "model": getattr(L, "name", "?"),
              "seed": config.seed,
              "generator": "PCG64"}
    if config.tol is not None:
        header["tol"] = config.tol
    rep.meta = {**header, **rep.meta}
    text = rep.to_json()

    if config.format == "csv":
        if curve_csv is None:
            raise ConfigError("command %s produced no CSV curve"
                              % config.command)
        _write(config.path, curve_csv())
        sys.stdout.write(text)
    elif config.path is not None:
        _write(config.path, text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if rep.passed else EXIT_VERIFICATION


def main(argv=None):
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
    ns = parser.parse_args(argv)
    try:
        raw = load_config(ns.config)
        config = parse_config(raw, ns.command, out=ns.out, seed=ns.seed,
                              tol=ns.tol)
        return run(config)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_SCHEMA
    except (FinslerError, np.linalg.LinAlgError) as e:
        print("numerical failure: %s" % e, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
