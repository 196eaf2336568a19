"""The quotient bundle N^perp/N: metric, induced transport, holonomy.

For a lightlike N the restriction of g_N to N^perp degenerates exactly
along N, so classes modulo N carry a definite inner product.  With the
transverse blocks negative in this signature, the quotient metric is
gbar([X],[Y]) = -g_N(X,Y), which is the positive-definite object the
flatness statement is about: the induced connection [nabla_W Y] is flat
precisely on pp-waves, and a small-loop holonomy defect measures the
curvature component otherwise.
"""

from dataclasses import dataclass

import numpy as np

from .connection import as_vector_field, christoffel
from .errors import ChartError, ConstructionError, SignatureError
from .tensors import fundamental_tensor

__all__ = ["QuotientFrame", "quotient_metric", "rectangle_loop",
           "holonomy_defect"]


@dataclass
class QuotientFrame:
    """A point, representatives spanning N^perp mod N, and gbar on them."""

    base: np.ndarray
    nvec: np.ndarray
    reps: np.ndarray          # (n-2, n) rows
    gbar: np.ndarray          # (n-2, n-2), positive definite
    g: np.ndarray             # g_N at base

    def class_coords(self, vec):
        """Coordinates of [vec] in the representative basis."""
        proj = -self.reps @ self.g @ np.asarray(vec, dtype=float)
        return np.linalg.solve(self.gbar, proj)


# scale-relative tolerance of the lightlike and orthogonality checks
_FRAME_TOL = 1e-8


def quotient_metric(L, N, x, reps):
    """Build the quotient frame at x from representatives of N^perp/N.

    Raises if N is not lightlike at x, if a representative fails
    g_N(N, rep) = 0, or if the representatives are dependent modulo N.
    """
    N = as_vector_field(N)
    x = np.asarray(x, dtype=float)
    nvec = np.asarray(N(x), dtype=float)
    g = fundamental_tensor(L, x, nvec).matrix
    scale = max(1.0, float(np.max(np.abs(g))))

    light = abs(float(L.value(x, nvec)))
    if light > _FRAME_TOL * scale:
        raise ConstructionError("N is not lightlike at the base point "
                                "(|L| = %.3e)" % light)

    reps = np.atleast_2d(np.asarray(reps, dtype=float))
    w = g @ nvec
    for k, r in enumerate(reps):
        off = abs(float(r @ w))
        if off > _FRAME_TOL * scale * max(1.0, float(np.max(np.abs(r)))):
            raise ConstructionError(
                "representative %d is not g_N-orthogonal to N "
                "(residual %.3e)" % (k, off))

    stack = np.vstack([nvec[None, :], reps])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise ConstructionError("representatives are dependent modulo N")

    gbar = -(reps @ g @ reps.T)
    gbar = 0.5 * (gbar + gbar.T)
    minors = [np.linalg.det(gbar[:k, :k]) for k in range(1, len(reps) + 1)]
    if not all(m > 0.0 for m in minors):
        raise SignatureError("quotient metric is not positive definite")
    return QuotientFrame(base=x, nvec=nvec, reps=reps, gbar=gbar, g=g)


def rectangle_loop(base, i, j, side_i, side_j=None):
    """Closed axis-aligned rectangle through ``base`` in the (i, j) plane."""
    base = np.asarray(base, dtype=float)
    if side_j is None:
        side_j = side_i
    ei = np.zeros_like(base)
    ej = np.zeros_like(base)
    ei[i] = float(side_i)
    ej[j] = float(side_j)
    return np.array([base, base + ei, base + ei + ej, base + ej, base])


def _transport_loop(L, N, vertices, columns, n_segments):
    """Parallel-transport ``columns`` around the closed polyline."""
    from scipy.linalg import expm

    edges = [(vertices[k], vertices[k + 1]) for k in range(len(vertices) - 1)]
    lengths = np.array([np.linalg.norm(q - p) for p, q in edges])
    total = float(lengths.sum())
    if total == 0.0:
        return columns.copy()
    Y = columns.copy()
    for (p, q), ln in zip(edges, lengths):
        m = max(1, int(np.ceil(n_segments * ln / total)))
        for s in range(m):
            a = p + (q - p) * (s / m)
            b = p + (q - p) * ((s + 1) / m)
            mid = 0.5 * (a + b)
            table = christoffel(L, N, mid)
            G = np.einsum("kij,i->kj", table.gamma, b - a)
            Y = expm(-G) @ Y
    return Y


def holonomy_defect(L, N, loop, reps, n_segments=64, tol=1e-6):
    """Operator-norm distance from identity of the quotient holonomy.

    The loop is subdivided into at least ``n_segments`` pieces, each
    transported with the midpoint matrix exponential, and the resulting
    holonomy matrix is Richardson-extrapolated in the segment count so
    the reported defect reflects the connection, not the step size.
    A transported class drifting out of N^perp means N was not parallel
    along the loop, which violates the precondition.  N is tested for
    cone membership at each loop vertex, not at the segment midpoints.
    """
    N = as_vector_field(N)
    vertices = np.atleast_2d(np.asarray(loop, dtype=float))
    if np.max(np.abs(vertices[0] - vertices[-1])) > 0.0:
        vertices = np.vstack([vertices, vertices[0]])
    for p in vertices[:-1]:
        L.check_admissible(p, N(p))
    frame = quotient_metric(L, N, vertices[0], reps)
    cols = frame.reps.T

    def holonomy(n_seg):
        Y = _transport_loop(L, N, vertices, cols, n_seg)
        scale = max(1.0, float(np.max(np.abs(frame.g))))
        w = frame.g @ frame.nvec
        for k in range(Y.shape[1]):
            drift = abs(float(w @ Y[:, k])) / max(
                1.0, float(np.max(np.abs(Y[:, k]))))
            if drift > tol * scale:
                raise ChartError("transport left N^perp (drift %.3e): N is "
                                 "not parallel along the loop" % drift)
        return np.column_stack([frame.class_coords(Y[:, k])
                                for k in range(Y.shape[1])])

    h1 = holonomy(n_segments)
    h2 = holonomy(2 * n_segments)
    hol = (4.0 * h2 - h1) / 3.0
    eye = np.eye(hol.shape[0])
    return float(np.linalg.norm(hol - eye, 2))
