"""Seeded op streams for the three benchmark workloads.

An op is one ``finsler <command> --config <file>`` run.  A stream is an
endless sequence of rounds; every round holds the same families in the
same cost strata, and the seed varies only the continuous inputs (sample
seeds, base points, spans, epsilons).  A run that stops part way through
a round therefore keeps nearly the same mix on every seed and commit.

Every ``configs/*.json`` example appears verbatim, once, at the head of
exactly one workload (`VERBATIM`).  No two ops of a stream share a
config: the determinism repeats of ``child.Runner.loop`` are the only
exception.
"""

import json
import math
import os

import numpy as np

WORKLOADS = ("curvature", "transport", "rays")

# why each workload exists; copied into BENCHMARK.json
WHY = {
    "curvature": "95-term jets context and chern_curvature FD stencil do "
                 "most work (18 of 20 Christoffel solves per sample skip "
                 "the cone gate); cone checks and ODEs do almost none",
    "transport": "connection solves at spread-out points, each behind "
                 "the 17-evaluation is_admissible gate, also inside the "
                 "DOP853 RHS, so one-cone-gate changes show here and not "
                 "in curvature",
    "rays": "thousands of small-context fundamental_tensor calls, eigh, "
            "penrose _fd/_fd2 and solve_ivp but no Christoffel solves: "
            "batch-axis and exact-Penrose work move it",
}

VERBATIM = {
    "curvature": ("ppwave_example.json",),
    "transport": ("quotient_wave.json", "check_minkowski.json"),
    "rays": ("focal_cos2.json", "penrose_cos2.json",
             "geodesic_brinkmann.json"),
}

CURVE_COMMANDS = ("geodesic", "focal", "penrose")

# a determinism repeat follows every REPEAT_EVERY fresh ops
REPEAT_EVERY = 16


def _plugin(builder):
    return {"type": "plugin", "name": builder.replace("_", "-"),
            "params": {"module": "finsler.fixtures", "builder": builder}}


def _brinkmann(profile):
    return {"type": "brinkmann", "params": {"profile": profile}}


class Op:
    """One CLI invocation: command, config text and closed-form oracles."""

    __slots__ = ("family", "command", "text", "oracle")

    def __init__(self, family, command, config, oracle=None):
        self.family = family
        self.command = command
        self.text = (config if isinstance(config, str)
                     else json.dumps(config, sort_keys=True))
        self.oracle = oracle or {}

    @property
    def suffix(self):
        return ".csv" if self.command in CURVE_COMMANDS else ".json"


def _r(x, digits=6):
    return round(float(x), digits)


def _seed(rng):
    return int(rng.integers(0, 2 ** 31))


def _eps(rng):
    return {"eps": _r(rng.uniform(0.05, 0.2))}


# -- curvature --------------------------------------------------------------

def _curvature_round(rng):
    # two Brinkmann ops near 15 ms, three single-sample non-quadratic ops
    # near 50 ms and two two-sample ppwave_example ops near 100 ms: an
    # odd count puts p50 inside the middle band and p90 inside the top
    rows = [("ppwave", "brinkmann-x2-y2", _brinkmann("x2-y2"), 1),
            ("curvature", "brinkmann-uxy", _brinkmann("uxy"), 1),
            ("ppwave", "parallel_example", "parallel_example", 1),
            ("curvature", "parallel_example", "parallel_example", 1),
            ("curvature", "ppwave_example", "ppwave_example", 1),
            ("curvature", "ppwave_example", "ppwave_example", 2),
            ("ppwave", "ppwave_example", "ppwave_example", 2)]
    ops = []
    for command, name, st, n in rows:
        if isinstance(st, str):
            st = {"type": st, "params": _eps(rng)}
        ops.append(Op("%s/%s/n%d" % (command, name, n), command, {
            "spacetime": st, "command": command,
            "params": {"n_samples": n, "box": _r(rng.uniform(0.5, 0.8))},
            "seed": _seed(rng)}))
    return ops


# -- transport --------------------------------------------------------------

_PLANES = ([1, 2], [1, 3], [2, 3], [0, 2])


def _quotient(rng, family, st, segments):
    n_segments = int(rng.integers(segments[0], segments[1] + 1))
    base = [0.0] + [_r(rng.uniform(-0.3, 0.3)) for _ in range(3)]
    plane = _PLANES[int(rng.integers(len(_PLANES)))]
    return Op(family, "quotient", {
        "spacetime": st, "command": "quotient",
        "params": {"base": base,
                   "loop": {"plane": list(plane),
                            "side": _r(rng.uniform(0.05, 0.15))},
                   "n_segments": n_segments}})


def _transport_round(rng):
    # two ops near 5 ms, three near 20 ms and two near 95 ms: an odd
    # count puts p50 inside the middle band and p90 inside the top
    ops = [
        _quotient(rng, "quotient/brinkmann-x2-y2", _brinkmann("x2-y2"),
                  (4, 6)),
        _quotient(rng, "quotient/parallel_example",
                  {"type": "parallel_example", "params": _eps(rng)},
                  (8, 12)),
    ]
    for name, st, n in (
            ("ppwave_example", {"type": "ppwave_example",
                                "params": _eps(rng)}, 5),
            ("brinkmann-x2", _brinkmann("x2"), 2)):
        ops.append(Op("connection/" + name, "connection", {
            "spacetime": st, "command": "connection",
            "params": {"n_samples": n, "box": _r(rng.uniform(0.5, 0.8))},
            "seed": _seed(rng)}))
    for name, st, n in (("minkowski", {"type": "minkowski", "dim": 4}, 4),
                        ("parallel_example",
                         {"type": "parallel_example", "params": _eps(rng)},
                         5)):
        ops.append(Op("check/" + name, "check", {
            "spacetime": st, "command": "check",
            "params": {"n_samples": n, "box": _r(rng.uniform(0.5, 0.8))},
            "seed": _seed(rng)}))
    x0 = [0.0] + [_r(rng.uniform(-0.2, 0.2)) for _ in range(3)]
    v0 = [1.0, _r(rng.uniform(0.3, 0.6)), _r(rng.uniform(-0.1, 0.1)),
          _r(rng.uniform(-0.1, 0.1))]
    ops.append(Op("geodesic/ppwave_example", "geodesic", {
        "spacetime": {"type": "ppwave_example", "params": _eps(rng)},
        "command": "geodesic",
        "params": {"x0": x0, "v0": v0,
                   "t_span": [0.0, _r(rng.uniform(0.3, 0.5))],
                   "n_samples": 20}}))
    return ops


# -- rays -------------------------------------------------------------------

_A_COS2 = [[-1.0, 0.0], [0.0, 0.0]]


def _rays_round(rng):
    ops = []
    for builder, span, roots in (
            ("rosen_cos2", (1.8, 3.0), [math.pi / 2]),
            ("rosen_cross", (1.8, 3.0), [math.pi / 2]),
            ("rosen_exp", (1.0, 1.6), [])):
        ops.append(Op("focal/" + builder, "focal", {
            "spacetime": _plugin(builder), "command": "focal",
            "params": {"t_span": [0.0, _r(rng.uniform(*span))],
                       "n_samples": int(rng.integers(100, 161))}},
            oracle={"roots": roots}))
    ops.append(Op("focal/brinkmann-x2", "focal", {
        "spacetime": _brinkmann("x2"), "command": "focal",
        "params": {"t_span": [0.0, _r(rng.uniform(1.0, 2.0))],
                   "n_samples": int(rng.integers(100, 161))}},
        oracle={"roots": []}))

    lo, hi = -_r(rng.uniform(0.9, 1.2)), _r(rng.uniform(0.9, 1.2))
    ops.append(Op("penrose/rosen_cos2", "penrose", {
        "spacetime": _plugin("rosen_cos2"), "command": "penrose",
        "params": {"u_interval": [lo, hi],
                   "omegas": [0.5, _r(rng.uniform(0.05, 0.2))]}},
        oracle={"A_mid": _A_COS2}))
    # the g_1i cross terms must drop out of the limit
    lo, hi = -_r(rng.uniform(0.4, 0.6)), _r(rng.uniform(0.4, 0.6))
    ops.append(Op("penrose/rosen_cross", "penrose", {
        "spacetime": _plugin("rosen_cross"), "command": "penrose",
        "params": {"u_interval": [lo, hi],
                   "omegas": [_r(rng.uniform(0.2, 0.8))]}},
        oracle={"A_mid": _A_COS2}))

    x0 = [0.0, 0.0] + [_r(rng.uniform(-0.4, 0.4)) for _ in range(2)]
    v0 = [1.0, 1.0, _r(rng.uniform(-0.2, 0.2)), _r(rng.uniform(-0.2, 0.2))]
    ops.append(Op("geodesic/brinkmann-x2", "geodesic", {
        "spacetime": _brinkmann("x2"), "command": "geodesic",
        "params": {"x0": x0, "v0": v0,
                   "t_span": [0.0, _r(rng.uniform(2.0, 4.0))]}}))
    # spans end before x0 reaches the pi/2 wall, where the integrator
    # would grind on NaN right-hand sides for seconds
    for builder in ("rosen_cos2", "rosen_exp"):
        v0 = [1.0, _r(rng.uniform(0.5, 1.0)), _r(rng.uniform(-0.3, 0.3)),
              0.0]
        ops.append(Op("geodesic/" + builder, "geodesic", {
            "spacetime": _plugin(builder), "command": "geodesic",
            "params": {"x0": [0.0] * 4, "v0": v0,
                       "t_span": [0.0, _r(rng.uniform(0.8, 1.2))],
                       "n_samples": 100}}))
    return ops


_ROUNDS = {"curvature": _curvature_round, "transport": _transport_round,
           "rays": _rays_round}

_VERBATIM_ORACLES = {
    "focal_cos2.json": {"roots": [math.pi / 2]},
    "penrose_cos2.json": {"A_mid": _A_COS2},
}


def verbatim_ops(workload, configs_dir):
    ops = []
    for name in VERBATIM[workload]:
        with open(os.path.join(configs_dir, name), encoding="utf-8") as fp:
            text = fp.read()
        command = json.loads(text)["command"]
        ops.append(Op("verbatim/" + name, command, text,
                      _VERBATIM_ORACLES.get(name)))
    return ops


def warmup_ops(workload, seed):
    """One op per family, drawn apart from every `stream` part."""
    return _ROUNDS[workload](np.random.default_rng([seed, 0]))


def stream(workload, seed, configs_dir, part=0):
    """Endless fresh ops: seeded rounds, after the verbatim examples in
    part 0.  Parts draw from disjoint seeded generators."""
    if part == 0:
        yield from verbatim_ops(workload, configs_dir)
    rng = np.random.default_rng([seed, 1 + part])
    make = _ROUNDS[workload]
    while True:
        ops = make(rng)
        for k in rng.permutation(len(ops)):
            yield ops[k]
