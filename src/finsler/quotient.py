"""The quotient bundle N^perp/N: metric, induced transport, holonomy.

For a lightlike N the restriction of g_N to N^perp degenerates exactly
along N, so classes modulo N carry a definite inner product.  With the
transverse blocks negative in this signature, the quotient metric is
gbar([X],[Y]) = -g_N(X,Y), which is the positive-definite object the
flatness statement is about: the induced connection [nabla_W Y] is flat
precisely on pp-waves, and a small-loop holonomy defect measures the
curvature component otherwise.  The transport cuts the loop into pieces
and takes one Gauss collocation step (`ode._gauss_step`, the propagator
of the Penrose O-equation too) per piece; the symbols at the 4 Gauss
nodes of all pieces come from one stacked `christoffel` call.

A frame is built from one `fundamental_tensor` at its point, and a frame
of other representatives at the same point (`QuotientFrame.with_reps`)
reuses its g and N; `holonomy_defect` starts from a given frame at the
loop's first vertex, so the ``quotient`` command evaluates g once at its
base when its loop starts there.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .connection import as_vector_field, christoffel
from .errors import ChartError, ConstructionError, SignatureError, SolverError
from .ode import _GL_C, _gauss_step
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

    def with_reps(self, reps):
        """The frame of other representatives at the same point, from
        this frame's g and N, with the checks of `quotient_metric` on
        the representatives."""
        return _frame(self.base, self.nvec, self.g, reps)


# scale-relative tolerance of the lightlike and orthogonality checks
_FRAME_TOL = 1e-8


def quotient_metric(L, N, x, reps):
    """Build the quotient frame at x from representatives of N^perp/N.

    Raises if N is not lightlike at x, if a representative fails
    g_N(N, rep) = 0, or if the representatives are dependent modulo N.
    """
    N = as_vector_field(N)
    x = np.asarray(x, dtype=float)
    nvec = N(x)
    g = fundamental_tensor(L, x, nvec)
    scale = max(1.0, float(np.max(np.abs(g))))

    light = abs(float(L.value(x, nvec)))
    if light > _FRAME_TOL * scale:
        raise ConstructionError("N is not lightlike at the base point "
                                "(|L| = %.3e)" % light)
    return _frame(x, nvec, g, reps)


def _frame(x, nvec, g, reps):
    """The frame of ``reps`` at x from g_N there, checked as
    `quotient_metric` says."""
    scale = max(1.0, float(np.max(np.abs(g))))
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


def _pieces(vertices, n_segments):
    """Start and end points of the transport pieces of a closed polyline:
    each edge is cut into equal pieces, about ``n_segments`` in all in
    proportion to length; None for a loop of zero length.  Raises
    `SolverError` when the length overflows."""
    p, q = vertices[:-1], vertices[1:]
    with np.errstate(over="ignore"):
        lengths = np.array([np.linalg.norm(b - a) for a, b in zip(p, q)])
    total = float(lengths.sum())
    if total == 0.0:
        return None
    if not np.isfinite(total):
        raise SolverError("the loop's length overflows: an edge is too "
                          "long to measure")
    starts, ends = [], []
    for a, b, ln in zip(p, q, lengths):
        m = max(1, int(np.ceil(n_segments * ln / total)))
        frac = np.arange(m + 1)[:, None] / m
        cut = a + (b - a) * frac
        starts.append(cut[:-1])
        ends.append(cut[1:])
    return np.concatenate(starts), np.concatenate(ends)


def _transport_loop(L, N, vertices, columns, n_segments):
    """Parallel-transport ``columns`` along the polyline ``vertices`` (a
    loop closes it), cut into at least ``n_segments`` pieces by `_pieces`.

    Along the piece x(s) = a + s (b - a), s in [0, 1], the transport solves
    Y' = -W(s) Y with W = Γ(x(s))·(b - a), and its propagator is one Gauss
    collocation step (`ode._gauss_step`) over the unit step.  Γ at the 4
    Gauss nodes of every piece is one stacked `christoffel` call, and the
    transported columns are the ordered product of the propagators.
    Overflow passes silently: a transport that overflows is not finite.
    A piece whose collocation system is singular raises `SolverError`.
    """
    cut = _pieces(vertices, n_segments)
    if cut is None:
        return columns.copy()
    a, b = cut
    pieces, n = a.shape
    nodes = a[:, None] + _GL_C[:, None] * (b - a)[:, None]
    gamma = christoffel(L, N, nodes.reshape(-1, n)).gamma
    Y = columns.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.einsum("pskij,pi->pskj",
                      gamma.reshape(pieces, len(_GL_C), n, n, n), b - a)
        try:
            steps = _gauss_step(w, np.ones(pieces))
        except np.linalg.LinAlgError as e:
            raise SolverError("the loop's transport is singular: a piece's "
                              "Gauss collocation system cannot be solved "
                              "(%s)" % e) from e
        for E in steps:
            Y = E @ Y
    return Y


def _gate_vertices(L, N, points):
    """The cone gate of N at ``points``, in lane blocks (`jets.in_blocks`)."""
    jets.in_blocks(lambda x, v: L.check_admissible(x, v).margin, points,
                   N(points))


def holonomy_defect(L, N, loop, reps, n_segments=64, tol=1e-6, frame=None):
    """Operator-norm distance from identity of the quotient holonomy.

    The loop is cut into at least ``n_segments`` pieces, and each piece
    is transported by one order-8 Gauss collocation step from Γ at its 4
    Gauss nodes (`_transport_loop`): one stacked Christoffel solve for the
    whole loop.  A transported class drifting out of N^perp means N was
    not parallel along the loop, which violates the precondition.  N is
    tested for cone membership at each loop vertex, not at the Gauss
    nodes, in lane blocks (`_gate_vertices`).  A loop whose length
    overflows a float, or whose holonomy is not finite, raises
    `SolverError`.

    ``frame`` is the `quotient_metric` frame of ``reps`` at the loop's
    first vertex, for a caller that has it already; a frame at another
    point raises `ConstructionError`.  Without it, the frame is built.
    """
    N = as_vector_field(N)
    vertices = np.atleast_2d(np.asarray(loop, dtype=float))
    if np.max(np.abs(vertices[0] - vertices[-1])) > 0.0:
        vertices = np.vstack([vertices, vertices[0]])
    _gate_vertices(L, N, vertices[:-1])
    if frame is None:
        frame = quotient_metric(L, N, vertices[0], reps)
    elif not np.array_equal(frame.base, vertices[0]):
        raise ConstructionError("the holonomy's frame is not at the "
                                "loop's first vertex")
    Y = _transport_loop(L, N, vertices, frame.reps.T, n_segments)
    if not np.all(np.isfinite(Y)):
        raise SolverError("the holonomy is not finite: the transport "
                          "overflows along the loop")

    scale = max(1.0, float(np.max(np.abs(frame.g))))
    w = frame.g @ frame.nvec
    for k in range(Y.shape[1]):
        drift = abs(float(w @ Y[:, k])) / max(
            1.0, float(np.max(np.abs(Y[:, k]))))
        if drift > tol * scale:
            raise ChartError("transport left N^perp (drift %.3e): N is "
                             "not parallel along the loop" % drift)
    hol = np.column_stack([frame.class_coords(Y[:, k])
                           for k in range(Y.shape[1])])
    eye = np.eye(hol.shape[0])
    return float(np.linalg.norm(hol - eye, 2))
