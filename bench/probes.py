"""Per-call layer probes at the ROADMAP baseline point.

Each probe times one public call at x = (0.1, 0.2, 0.3, -0.1) with
N = e0, on ``ppwave_example`` and ``brinkmann-x2-y2``, as the minimum
over `BATCHES` batches in reference microseconds (``calibrate.py``);
its spread is (median - min) / min of the batch figures.  ``jets.mul``
is timed on dense jets of the 95-term grouped context the Christoffel
solve uses and of the 15-term context of the fundamental tensor.  A
probe whose API is gone reports 0.
"""

import statistics
import sys
import time

import calibrate

BATCHES = 7
BATCH_SECONDS = 0.01

MODELS = {
    "ppwave_example": {"type": "ppwave_example", "params": {"eps": 0.1}},
    "brinkmann-x2-y2": {"type": "brinkmann", "params": {"profile": "x2-y2"}},
}

NAMES = ["lagrangian.value", "lagrangian.is_admissible",
         "tensors.fundamental_tensor", "tensors.cartan_tensor",
         "connection.christoffel", "curvature.chern_curvature"]


def _calls(L):
    import numpy as np
    from finsler.connection import VectorField, christoffel
    from finsler.curvature import chern_curvature
    from finsler.tensors import cartan_tensor, fundamental_tensor
    x = np.array([0.1, 0.2, 0.3, -0.1])
    N = np.array([1.0, 0.0, 0.0, 0.0])
    V = VectorField.constant(N)
    return {
        "lagrangian.value": lambda: L.value(x, N),
        "lagrangian.is_admissible": lambda: L.is_admissible(x, N),
        "tensors.fundamental_tensor":
            lambda: fundamental_tensor(L, x, N, check=False),
        "tensors.cartan_tensor": lambda: cartan_tensor(L, x, N, check=False),
        "connection.christoffel": lambda: christoffel(L, V, x),
        "curvature.chern_curvature": lambda: chern_curvature(L, x, N),
    }


def _dense_pair(groups=None, group_orders=None, order=3, nvars=8):
    from finsler import jets
    _, xs = jets.variables([0.1 * (k + 1) for k in range(nvars)], order,
                           groups=groups, group_orders=group_orders)
    s = xs[0]
    for t in xs[1:]:
        s = s + t
    return jets.exp(s), jets.exp(0.5 * s)


def _mul_calls():
    a95, b95 = _dense_pair((0,) * 4 + (1,) * 4, (1, 3))
    a15, b15 = _dense_pair(order=2, nvars=4)
    return {"jets.mul.dense95": lambda: a95 * b95,
            "jets.mul.dense15": lambda: a15 * b15}


def time_call(fn):
    """(min, spread) of the per-call reference seconds over `BATCHES`
    batches, each scaled by a kernel timing taken just before it."""
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(BATCH_SECONDS / max(time.perf_counter() - t0, 1e-7)))
    per_call = []
    for _ in range(BATCHES):
        scale = calibrate.scale()
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append(scale * (time.perf_counter() - t0) / reps)
    best = min(per_call)
    return best, statistics.median(per_call) / best - 1.0


def metric_names():
    keys = ["%s.%s" % (name, model) for model in MODELS for name in NAMES]
    keys += ["jets.mul.dense95", "jets.mul.dense15"]
    return keys


def run():
    """{probe key: (microseconds, spread)}; 0 where the API is gone."""
    from finsler.lagrangian import from_descriptor
    out = {key: (0.0, 0.0) for key in metric_names()}
    table = {}
    for model, desc in MODELS.items():
        try:
            calls = _calls(from_descriptor(desc))
        except Exception as e:  # a probe must never end the run
            print("probe %s unavailable: %s" % (model, e), file=sys.stderr)
            continue
        table.update({"%s.%s" % (name, model): fn
                      for name, fn in calls.items()})
    try:
        table.update(_mul_calls())
    except Exception as e:
        print("probe jets.mul unavailable: %s" % e, file=sys.stderr)
    for key, fn in table.items():
        try:
            best, spread = time_call(fn)
        except Exception as e:
            print("probe %s failed: %s" % (key, e), file=sys.stderr)
            continue
        out[key] = (best * 1e6, spread)
    return out
