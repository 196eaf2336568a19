"""Machine-speed reference kernel, independent of finsler.

On a host shared with other tenants the same op can take up to twice as
long from one minute to the next, and the whole interpreter slows alike,
in CPU time as much as in wall time.  The benchmark therefore times a fixed kernel next to the ops and reports every time in
*reference seconds*: raw seconds times ``REFERENCE_S / kernel seconds``,
i.e. the time the op would take on a machine where the kernel takes
`REFERENCE_S`.  The kernel spends about half its time on pure-Python
float products over index tables (the shape of the jet arithmetic) and
half on small numpy calls (eigh, inv, einsum, as in the tensors, the
Koszul solve and the ODE right-hand sides); it calls nothing from
finsler, so a change to the program moves the reported times in full.
"""

import time

import numpy as np

REFERENCE_S = 2e-3

_A = [0.5 + 0.001 * i for i in range(96)]
_PAIRS = tuple((i, j, (i + j) % 96) for i in range(96)
               for j in range(i % 5, 96, 5))
_M = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4)
_H = np.array([[2.0, 0.3], [0.3, 1.5]])


def _kernel():
    out = [0.0] * 96
    a = _A
    for _ in range(8):
        for i, j, k in _PAIRS:
            out[k] = out[k] + a[i] * a[j]
    m = _M
    for _ in range(10):
        m = np.linalg.inv(m) @ _M
    for _ in range(60):
        w, q = np.linalg.eigh(_H)
        h = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
        np.einsum("ij,jk->ik", m, _M)
        np.concatenate([h.ravel(), _H.ravel()])
    return out, m


def scale(reps=3):
    """Factor from raw to reference seconds: the median of ``reps``
    kernel calls."""
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        ts.append(time.perf_counter() - t0)
    return REFERENCE_S / sorted(ts)[len(ts) // 2]
