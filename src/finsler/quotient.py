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

from .connection import as_vector_field, christoffel_on
from .errors import ChartError, ConstructionError, SignatureError
from .tensors import fundamental_tensor, leading_minors

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
    if not np.all(leading_minors(gbar) > 0.0):
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


# Taylor degree of `_expm` and its bound on the scaled 1-norm
_EXPM_DEGREE = 18
_EXPM_THETA = 1.0


def _expm(A):
    """exp of every matrix of the stack ``A[..., n, n]``.

    Scaling and squaring (Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005)
    around the degree-18 Taylor polynomial, evaluated by Horner's rule:
    each matrix is scaled by the least power of two 2^s with
    ||A / 2^s||_1 <= 1, so the truncated tail, bounded by 1/19! (8e-18),
    stays under roundoff, and each matrix is squared s times.
    """
    A = np.asarray(A, dtype=float)
    norm = np.max(np.sum(np.abs(A), axis=-2), axis=-1)
    s = np.maximum(np.frexp(norm / _EXPM_THETA)[1], 0)
    X = A / np.ldexp(1.0, s)[..., None, None]
    eye = np.eye(A.shape[-1])
    E = eye + X / _EXPM_DEGREE
    for k in range(_EXPM_DEGREE - 1, 0, -1):
        E = eye + (X @ E) / k
    for k in range(int(np.max(s, initial=0))):
        more = s > k
        E[more] = E[more] @ E[more]
    return E


def _pieces(vertices, n_segments):
    """Start and end points of the transport pieces of a closed polyline:
    each edge is cut into equal pieces, about ``n_segments`` in all in
    proportion to length; None for a loop of zero length."""
    p, q = vertices[:-1], vertices[1:]
    lengths = np.array([np.linalg.norm(b - a) for a, b in zip(p, q)])
    total = float(lengths.sum())
    if total == 0.0:
        return None
    starts, ends = [], []
    for a, b, ln in zip(p, q, lengths):
        m = max(1, int(np.ceil(n_segments * ln / total)))
        frac = np.arange(m + 1)[:, None] / m
        cut = a + (b - a) * frac
        starts.append(cut[:-1])
        ends.append(cut[1:])
    return np.concatenate(starts), np.concatenate(ends)


def _transport_loop(L, N, vertices, columns, levels):
    """Parallel-transport ``columns`` around the closed polyline once per
    segment count in ``levels``; returns the transported columns per level.

    Every piece is transported by the exponential of minus its midpoint
    generator Γ(mid)·(b - a).  The midpoints of all levels are gathered
    up front, so the whole transport is one `christoffel_on` call, one
    stacked `_expm` and, per level, the ordered product of its pieces.
    """
    cuts = [_pieces(vertices, n) for n in levels]
    if cuts[0] is None:
        return [columns.copy() for _ in levels]
    a = np.concatenate([c[0] for c in cuts])
    b = np.concatenate([c[1] for c in cuts])
    gamma = christoffel_on(L, N, 0.5 * (a + b))
    steps = _expm(-np.einsum("...kij,...i->...kj", gamma, b - a))
    out = []
    lo = 0
    for start, _ in cuts:
        Y = columns.copy()
        for E in steps[lo:lo + len(start)]:
            Y = E @ Y
        out.append(Y)
        lo += len(start)
    return out


def holonomy_defect(L, N, loop, reps, n_segments=64, tol=1e-6):
    """Operator-norm distance from identity of the quotient holonomy.

    The loop is subdivided into at least ``n_segments`` pieces, each
    transported with the midpoint matrix exponential, and the resulting
    holonomy matrix is Richardson-extrapolated in the segment count so
    the reported defect reflects the connection, not the step size.  Both
    subdivisions (n and 2n pieces) are transported together: one stacked
    Christoffel solve and one stacked exponential (`_transport_loop`).
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

    def holonomy(Y):
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

    h1, h2 = (holonomy(Y) for Y in _transport_loop(
        L, N, vertices, cols, (n_segments, 2 * n_segments)))
    hol = (4.0 * h2 - h1) / 3.0
    eye = np.eye(hol.shape[0])
    return float(np.linalg.norm(hol - eye, 2))
