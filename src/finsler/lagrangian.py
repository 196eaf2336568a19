"""Lorentz-Finsler Lagrangians, admissible cones, and the model catalog.

Chart convention used throughout the package: coordinates are ordered
``(v, u, x, y, ...)`` — index 0 is the lightlike direction carrying the
distinguished field N = e0 in wave models, index 1 is the wave parameter u,
and indices >= 2 are transverse.  The fundamental tensor has signature
(+, -, ..., -), so timelike vectors have L > 0.

A Lagrangian is any callable L(x, v) that is jet-evaluable: x and v arrive
as lists of floats or `finsler.jets.Jet` values and the body may only use
arithmetic plus the `finsler.jets` math functions.  `Lagrangian.value`
and the cone test take one pair or a (B, n) stack of pairs, which they
evaluate at once on plain `finsler.jets.Lanes`.
"""

from __future__ import annotations

import copy
import importlib
import inspect
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (ConeError, ConfigError, ConstructionError,
                     EvaluationError)
from .schema import (MAX_COUNT, count, listof, number, obj, parse, require,
                     string, value)

__all__ = [
    "Lagrangian",
    "QuadraticLagrangian",
    "RandersNorm",
    "ConeMembership",
    "PROFILES",
    "wave_profile",
    "build_minkowski",
    "build_brinkmann_quadratic",
    "build_parallel_example",
    "build_ppwave_example",
    "catalog",
    "from_descriptor",
]

# 16 equispaced samples of the segment miss its exact midpoint, where the
# segment from cone_ref to the antipodal vector pinches through zero
_SEGMENT_T = np.array(sorted({j / 15.0 for j in range(16)} | {0.5}))[:, None]


@dataclass(frozen=True)
class ConeMembership:
    """Admissibility verdict for one (x, v), or arrays of verdicts, one
    entry per pair of a stack."""

    inside: bool
    value: float
    margin: float


class Lagrangian:
    """A positively 2-homogeneous Lagrangian with its admissible cone.

    Parameters
    ----------
    func : callable(x, v) -> scalar, jet-evaluable
    dim : int, chart dimension (>= 3)
    cone_ref : array, or callable x -> array
        One interior (timelike) vector of the cone at each point.
    name : str, the model's name in reports and error messages
    meta : dict, construction data that tests read back (the
        parallel example's omega and F)
    """

    quadratic = False   # True on `QuadraticLagrangian` alone

    def __init__(self, func, dim, cone_ref, name="model", meta=None):
        if dim < 3:
            raise ConstructionError("Lagrangian needs dim >= 3, got %d" % dim)
        self._func = func
        self.dim = int(dim)
        self._cone_ref = cone_ref
        self.name = name
        self.meta = dict(meta or {})

    def __call__(self, x, v):
        return self._func(x, v)

    def __repr__(self):
        return "Lagrangian(%r, dim=%d)" % (self.name, self.dim)

    def value(self, x, v):
        """L at (x, v) as a float; for a (B, n) stack v, L at each row
        pair of x and v (a 1-D x serves every row) as a float array, from
        one evaluation on plain `jets.Lanes` that gives each entry the
        bits of its float evaluation.  A failing or non-finite evaluation,
        at any pair, raises EvaluationError (`jets._call`)."""
        if np.ndim(v) == 1:
            w = jets._call(self._func, [float(t) for t in x],
                           [float(t) for t in v])
            return float(w.value if isinstance(w, jets.Jet) else w)
        vs = np.asarray(v, dtype=float)
        x = np.asarray(x, dtype=float)
        xs = [float(t) for t in x] if x.ndim == 1 else list(jets.lanes(x.T))
        w = jets._call(self._func, xs, list(jets.lanes(vs.T)))
        return np.broadcast_to(np.asarray(w, dtype=float), len(vs)).copy()

    def cone_ref_at(self, x):
        """cone_ref at x, or at each row of a (B, n) stack, stacked;
        EvaluationError where it is not finite."""
        if np.ndim(x) == 2:
            return np.array([self.cone_ref_at(row) for row in x]).reshape(
                np.shape(x))
        ref = self._cone_ref
        x = [float(t) for t in x]
        if callable(ref):
            ref = ref(x)
        ref = np.asarray(ref, dtype=float)
        if not np.all(np.isfinite(ref)):
            raise EvaluationError("cone_ref is not finite at x=%r: %r"
                                  % (x, ref.tolist()))
        return ref

    # -- cone membership -------------------------------------------------

    def is_admissible(self, x, v, closed=False):
        """Segment-sampling membership test against the cone component.

        v is inside when L stays positive along the straight segment from
        cone_ref(x) to v; ``closed`` relaxes only the endpoint, admitting
        lightlike boundary vectors.  x and v are one pair, or (B, n)
        stacks of B pairs, whose verdict then holds one entry per pair.
        The 17 segment points of every pair are one stacked `value`
        evaluation; a single pair keeps its base point a plain point.
        """
        v = np.asarray(v, dtype=float)
        vs = np.atleast_2d(v)
        if not np.all(np.any(vs, axis=1)):
            raise ConeError("zero vector has no cone membership")
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        refs = self.cone_ref_at(xs)
        t = _SEGMENT_T
        seg = (1.0 - t) * refs[:, None, :] + t * vs[:, None, :]
        base = xs[0] if len(xs) == 1 else np.repeat(xs, len(t), axis=0)
        vals = self.value(base, seg.reshape(-1, vs.shape[1])).reshape(
            len(vs), len(t))
        value = vals[:, -1]
        margin = np.min(vals, axis=1)
        interior_ok = np.all(vals[:, :-1] > 0.0, axis=1)
        if closed:
            scale = np.maximum(1.0, np.maximum(np.abs(vals[:, 0]),
                                               np.abs(value)))
            inside = interior_ok & (value >= -1e-12 * scale)
        else:
            inside = interior_ok & (value > 0.0)
        if v.ndim == 1:
            return ConeMembership(inside=bool(inside[0]),
                                  value=float(value[0]),
                                  margin=float(margin[0]))
        return ConeMembership(inside=inside, value=value, margin=margin)

    def check_admissible(self, x, v):
        """Closed-cone `is_admissible`, raising ConeError for the first
        pair outside."""
        m = self.is_admissible(x, v, closed=True)
        out = np.flatnonzero(~np.atleast_1d(m.inside))
        if len(out):
            k = out[0]
            raise ConeError(
                "vector outside the closed cone of %r (L=%.6g, margin=%.6g)"
                % (self.name, np.atleast_1d(m.value)[k],
                   np.atleast_1d(m.margin)[k]))
        return m

    def sample_admissible(self, x, rng, count=1):
        """Draw ``count`` interior vectors near cone_ref(x) by rejection."""
        ref = self.cone_ref_at(x)
        scale = float(np.linalg.norm(ref))
        out = []
        s = 0.35       # spread of the draws, relative to |cone_ref|
        tries = 0
        while len(out) < count:
            w = ref * float(rng.uniform(0.6, 1.6)) \
                + s * scale * rng.standard_normal(self.dim)
            tries += 1
            if tries > 400 * count:
                raise ConeError("rejection sampling failed to find interior "
                                "vectors at x=%r" % (list(x),))
            if tries % 50 == 0:
                s *= 0.7  # pull samples toward the reference ray
            try:
                m = self.is_admissible(x, w)
            except ConeError:
                continue
            if m.inside:
                out.append(w)
        return np.asarray(out)


class QuadraticLagrangian(Lagrangian):
    """L(x, v) = sum of a_ij(x) v^i v^j over upper-triangle entries.

    ``entries`` maps (i, j) with i <= j to a constant or a jet-evaluable
    callable of x; off-diagonal entries carry the usual factor two.
    ``dim``, ``cone_ref`` and ``name`` are those of `Lagrangian`.
    """

    quadratic = True

    def __init__(self, entries, dim, cone_ref, name="quadratic"):
        items = []
        for (i, j), a in entries.items():
            if not (0 <= i <= j < dim):
                raise ConstructionError("bad entry index (%d, %d)" % (i, j))
            coeff = 1.0 if i == j else 2.0
            items.append((i, j, a, coeff))
        self._items = items

        def func(x, v):
            s = 0.0
            for i, j, a, coeff in items:
                aij = a(x) if callable(a) else a
                s = s + (coeff * aij) * v[i] * v[j]
            return s

        super().__init__(func, dim, cone_ref, name=name)

    def matrix(self, x):
        """The symmetric coefficient matrix at x as a float array."""
        xs = [float(t) for t in x]
        g = np.zeros((self.dim, self.dim))
        for i, j, a, _ in self._items:
            aij = float(a(xs)) if callable(a) else float(a)
            g[i, j] = aij
            g[j, i] = aij
        return g

    def d_matrix(self, x):
        """First coordinate partials dg[k, i, j] = d/dx^k of entry (i, j)."""
        n = self.dim
        _, xj = jets.variables([float(t) for t in x], 1)
        dg = np.zeros((n, n, n))
        for i, j, a, _ in self._items:
            if callable(a):
                dg[:, i, j] = dg[:, j, i] = jets.derivative_tensor(
                    a(xj), range(n), 1)
        return dg


class RandersNorm:
    """F(x, v) = sqrt(v^T A(x) v) + b(x).v with A positive definite.

    A and b are constants or jet-evaluable callables of x, or they come
    from one jet-evaluable callable x -> (A(x), b(x)) (`from_joint`), so
    that the factors A and b share are evaluated once per base point.  F
    can thus be consumed by the derivative engine in both arguments.  A
    constant A must be positive definite, and a constant pair must keep
    |b|_{A^-1} < 1.  ``fundamental`` gives the closed-form fundamental
    tensor of F^2 (the independent oracle used against the generic jet
    path).
    """

    def __init__(self, A, b, dim):
        self.dim = int(dim)
        if not callable(A):
            A0 = np.asarray(A, dtype=float)
            if np.linalg.eigvalsh(A0).min() <= 0:
                raise ConstructionError("Randers A-part must be positive "
                                        "definite")
            b0 = None if callable(b) else np.asarray(b, dtype=float)
            if b0 is not None and b0 @ np.linalg.solve(A0, b0) >= 1.0:
                raise ConstructionError("Randers drift too large: "
                                        "|b|_A^{ -1} must be < 1")

        def coeffs(x):
            return A(x) if callable(A) else A, b(x) if callable(b) else b

        self._coeffs = coeffs

    @classmethod
    def from_joint(cls, coeffs, dim):
        """The norm whose A and b at x are ``coeffs(x)``, one
        jet-evaluable callable x -> (A(x), b(x))."""
        if not callable(coeffs):
            raise ConstructionError("joint Randers coefficients must be "
                                    "one callable x -> (A, b)")
        F = cls.__new__(cls)
        F.dim = int(dim)
        F._coeffs = coeffs
        return F

    def coeffs(self, x):
        """(A, b) at x."""
        return self._coeffs(x)

    def __call__(self, x, v):
        A, b = self.coeffs(x)
        return self._from_coeffs(A, b, v)

    def _from_coeffs(self, A, b, v):
        """F(v) from coefficients already evaluated at the base point.

        A float coefficient that is exactly zero (0.0 or -0.0) is
        skipped, term and all.  Its term is a zero of either sign, which
        changes no bit of F: a float sum, and the value of a jet sum,
        starts at +0.0 and never holds -0.0, and where v holds a jet, the
        diagonal term of that jet is a product, which makes every zero of
        alpha^2, and so of sqrt(alpha^2) + beta, +0.0.  A coefficient that
        is a jet or lanes is always kept.
        """
        n = self.dim
        alpha2 = 0.0
        for i in range(n):
            row = A[i]
            for j in range(n):
                a = row[j]
                if not (isinstance(a, float) and a == 0.0):
                    alpha2 = alpha2 + a * v[i] * v[j]
        beta = 0.0
        for i in range(n):
            a = b[i]
            if not (isinstance(a, float) and a == 0.0):
                beta = beta + a * v[i]
        return jets.sqrt(alpha2) + beta

    def fundamental(self, x, v):
        """Closed-form fundamental tensor of F^2 at (x, v), as nested lists.

        g = (F/a)(A - l l^T) + (l + b)(l + b)^T with l = Av/a, a = |v|_A.
        Entries are scalars or jets depending on the inputs.
        """
        A, b = self.coeffs(x)
        n = self.dim
        Av = [sum(A[i][j] * v[j] for j in range(n)) for i in range(n)]
        alpha2 = sum(Av[i] * v[i] for i in range(n))
        alpha = jets.sqrt(alpha2)
        inv_alpha = 1.0 / alpha
        ell = [Av[i] * inv_alpha for i in range(n)]
        F = alpha + sum(b[i] * v[i] for i in range(n))
        ratio = F * inv_alpha
        g = []
        for i in range(n):
            row = []
            for j in range(n):
                row.append(ratio * (A[i][j] - ell[i] * ell[j])
                           + (ell[i] + b[i]) * (ell[j] + b[j]))
            g.append(row)
        return g


# -- wave profiles -----------------------------------------------------

# Brinkmann wave profiles H(u, x, y), jet-evaluable
PROFILES = {
    "zero": lambda u, x, y: 0.0,
    "x2": lambda u, x, y: x * x,
    "x2-y2": lambda u, x, y: x * x - y * y,
    "uxy": lambda u, x, y: u * x * y,
}


def wave_profile(profile):
    """The H(u, x, y) of the key ``profile`` of `PROFILES`; ConfigError
    for any other value."""
    try:
        return PROFILES[profile]
    except (KeyError, TypeError):
        raise ConfigError("unknown wave profile %r (have %s)"
                          % (profile, sorted(PROFILES))) from None


# -- catalog builders ----------------------------------------------------

def build_minkowski(dim=4):
    """L = (v0)^2 - sum_i (v^i)^2 with cone_ref e0."""
    entries = {(0, 0): 1.0}
    for i in range(1, dim):
        entries[(i, i)] = -1.0
    ref = np.zeros(dim)
    ref[0] = 1.0
    return QuadraticLagrangian(entries, dim, ref, name="minkowski")

def build_brinkmann_quadratic(profile):
    """Quadratic pp-wave L = 2 v^v v^u + H(u,x,y) (v^u)^2 - |v_t|^2.

    ``profile`` is a key of `PROFILES`, and the model is named
    "brinkmann-<profile>".  This is the Lorentzian comparison case: its
    Christoffels and curvature have closed forms used as oracles
    elsewhere.
    """
    H = wave_profile(profile)
    entries = {
        (0, 1): 1.0,
        (1, 1): lambda x: H(x[1], x[2], x[3]),
        (2, 2): -1.0,
        (3, 3): -1.0,
    }

    def cone_ref(x):
        h = float(H(float(x[1]), float(x[2]), float(x[3])))
        return np.array([1.0 + abs(h), 1.0, 0.0, 0.0])

    return QuadraticLagrangian(entries, 4, cone_ref,
                               name="brinkmann-" + profile)


def _cone_ref_near_e0(func, n):
    """cone_ref(x): the first e0 + delta e1 that func makes timelike.

    The probe evaluates through `jets._call`, so a model that cannot be
    evaluated at x raises EvaluationError rather than a bare ValueError.
    """
    def cone_ref(x):
        xs = [float(t) for t in x]
        for delta in (0.5, 0.25, 0.1, 0.05, 0.02):
            ref = [1.0, delta] + [0.0] * (n - 2)
            val = jets._call(func, xs, ref)
            if float(val.value if isinstance(val, jets.Jet) else val) > 0:
                return np.asarray(ref)
        raise ConstructionError("no interior cone vector found near N")

    return cone_ref


def build_parallel_example(F):
    """L = omega(v)^2 - F(v)^2 on a flat chart, with omega derived from F.

    F must be a positive norm with coefficients independent of the
    x0-coordinate (here: constant).  omega is constructed so that N = e0
    is lightlike with metric row (0, 1, 0, ..., 0).  ``meta`` keeps
    ``"omega"`` and ``"F"``, the inputs of the closed form
    g^L = omega omega^T - g^F.  The build evaluates L only in the cone
    probe at the origin.
    """
    n = F.dim
    N = [0.0] * n
    N[0] = 1.0
    x0 = [0.0] * n
    F0 = F(x0, N)
    F0 = float(F0.value if isinstance(F0, jets.Jet) else F0)
    if not F0 > 0:
        raise ConstructionError("F(N) must be positive")
    gN = F.fundamental(x0, N)
    gN = [[float(e) for e in row] for row in gN]
    omega = [F0, (1.0 + gN[1][0]) / F0]
    omega += [gN[0][k] / F0 for k in range(2, n)]

    def func(x, v):
        w = 0.0
        for i in range(n):
            w = w + omega[i] * v[i]
        f = F(x, v)
        return w * w - f * f

    cone_ref = _cone_ref_near_e0(func, n)
    cone_ref(x0)  # fail fast if the cone is empty at the origin
    return Lagrangian(func, n, cone_ref, name="parallel_example",
                      meta={"omega": list(omega), "F": F})


def build_ppwave_example(F2):
    """L = omega^2 - F^2 - (v^x)^2 - (v^y)^2 on the (v,u|x,y) chart.

    F2 is a norm on the 2-dimensional (v, u) fiber whose coefficients may
    depend on (u, x, y) but not on the v-coordinate; omega is built from F2
    pointwise, so its coefficients inherit that dependence, and makes
    N = e0 lightlike with metric row (0, 1, 0, 0).  An evaluation of L
    evaluates F2's coefficients once, and divides three times by the
    same alpha: on jets, each division multiplies by alpha's one kept
    reciprocal (`jets.Jet._reciprocal`), while floats and lanes divide.
    As for `build_parallel_example`, the build evaluates L only in the
    cone probe at the origin.
    """
    if F2.dim != 2:
        raise ConstructionError("ppwave example needs a fiber norm on the "
                                "(v, u) plane")
    n = 4

    def omega_coeffs(A, b):
        # closed-form g^F_N(e1, e0) at the fiber vector N = (1, 0):
        # alpha = sqrt(A00), l = (A00, A01)/alpha
        alpha = jets.sqrt(A[0][0])
        F0 = alpha + b[0]
        l0 = A[0][0] / alpha
        l1 = A[0][1] / alpha
        ratio = F0 / alpha
        g10 = ratio * (A[1][0] - l1 * l0) + (l1 + b[1]) * (l0 + b[0])
        return F0, (1.0 + g10) / F0

    def func(x, v):
        A, b = F2.coeffs(x)
        w0, w1 = omega_coeffs(A, b)
        w = w0 * v[0] + w1 * v[1]
        f = F2._from_coeffs(A, b, [v[0], v[1]])
        return w * w - f * f - v[2] * v[2] - v[3] * v[3]

    cone_ref = _cone_ref_near_e0(func, n)
    cone_ref([0.0] * 4)
    return Lagrangian(func, n, cone_ref, name="ppwave_example")


def _default_parallel_example(eps=0.1):
    b = eps * np.array([0.0, 1.0, 0.3, 0.1])
    F = RandersNorm(np.eye(4), b, 4)
    return build_parallel_example(F)


def _default_ppwave_example(eps=0.1):
    def coeffs(x):
        # the bump and sin(u) enter A and b alike, so they are composed once
        m = jets.exp(-0.5 * (x[2] * x[2] + x[3] * x[3]))
        s = jets.sin(x[1])
        s1 = eps * 0.3 * s * m
        s2 = eps * 0.2 * jets.cos(x[1]) * m
        s3 = eps * 0.4 * jets.cos(2.0 * x[1]) * m
        return [[1.0 + s1, s2], [s2, 1.0 + s3]], [0.0, eps * 0.5 * s * m]

    return build_ppwave_example(RandersNorm.from_joint(coeffs, 2))


def catalog():
    """All named models, freshly built (immutable once constructed)."""
    models = [build_minkowski()]
    for key in ("zero", "x2", "x2-y2", "uxy"):
        models.append(build_brinkmann_quadratic(key))
    models.append(_default_parallel_example())
    models.append(_default_ppwave_example())
    return {L.name: L for L in models}


# -- descriptors -----------------------------------------------------------

# the largest spacetime dimension: a model's jet contexts grow steeply
# with it, and at this bound curvature, the heaviest command, peaks near
# 125 MB (231 MB at 9), within the budget of `schema.MAX_COUNT`
MAX_DIM = 8

_PLUGIN = {"module": (string, ...), "builder": (string, ...)}

# type -> its builder and params table; a plug-in names its builder in
# params, and the builder's signature gives the table of the others
_TYPES = {
    "minkowski": (build_minkowski, {}),
    "brinkmann": (build_brinkmann_quadratic,
                  {"profile": (string, "x2", PROFILES)}),
    "parallel_example": (_default_parallel_example, {"eps": (number, 0.1)}),
    "ppwave_example": (_default_ppwave_example, {"eps": (number, 0.1)}),
    "plugin": (None, _PLUGIN),
}

_DESCRIPTOR = {
    "type": (string, ..., _TYPES), "name": (string, None),
    "dim": (count, 4, 3, MAX_DIM), "params": (obj, {}),
    "cone_ref": (listof, None, 1, False, number)}

# the kind of a plug-in param whose default has this type; any other
# param takes any JSON value
_BY_DEFAULT = {int: (count, -MAX_COUNT), float: (number,), str: (string,)}


def _builder(type_, params):
    """The builder of a descriptor's type, and the table of its params;
    a plug-in's builder is loaded, and its signature gives the table."""
    build, table = _TYPES[type_]
    if build is not None:
        return build, table
    names = parse(_PLUGIN, {k: params[k] for k in _PLUGIN if k in params},
                  "spacetime.params")
    name = "%s.%s" % (names["module"], names["builder"])
    try:
        build = getattr(importlib.import_module(names["module"]),
                        names["builder"])
        sig = inspect.signature(build) if callable(build) else None
    except (ImportError, AttributeError, TypeError, ValueError) as e:
        raise ConfigError("cannot load plugin %s: %s" % (name, e)) from e
    require(sig is not None, "plugin builder %s is not callable" % name)
    table = dict(_PLUGIN)
    for key, p in sig.parameters.items():
        require(p.kind is not p.POSITIONAL_ONLY or p.default is not p.empty,
                "plugin builder %s takes %s only by position" % (name, key))
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY):
            kind, *constraint = _BY_DEFAULT.get(type(p.default), (value,))
            table[key] = (kind, ... if p.default is p.empty else None,
                          *constraint)
    return build, table


def from_descriptor(desc):
    """Build a Lagrangian from a JSON catalog descriptor.

    Schema: {"type", "name"?, "dim"?, "params"?, "cone_ref"?} with type in
    minkowski | brinkmann | parallel_example | ppwave_example | plugin.
    Plug-ins reference a compiled builder: params {"module", "builder", ...},
    whose other params are passed to it as keywords.
    """
    got = parse(_DESCRIPTOR, desc, "spacetime")
    kind = got["type"]
    build, table = _builder(kind, got["params"])
    params = parse(table, got["params"], "spacetime.params")
    if kind == "plugin":
        params = {k: params[k] for k in got["params"] if k not in _PLUGIN}
    # minkowski builds at the descriptor's dim, the others at their own
    L = build(dim=got["dim"]) if kind == "minkowski" else build(**params)
    require(isinstance(L, Lagrangian),
            "the %s builder did not return a Lagrangian" % kind)
    require("dim" not in desc or L.dim == got["dim"],
            "spacetime.dim is %d, but the %s model is %d-dimensional"
            % (got["dim"], kind, L.dim))
    count(L.dim, "spacetime.dim", None, *_DESCRIPTOR["dim"][2:])

    # configure a copy: a builder may hand out one shared instance
    L = copy.copy(L)
    if got["name"] is not None:
        L.name = got["name"]
    ref = got["cone_ref"]
    if ref is not None:
        require(len(ref) == L.dim, "spacetime.cone_ref must be a number "
                "list of length %d" % L.dim)
        require(L.value([0.0] * L.dim, ref) > 0,
                "supplied cone_ref is not timelike at the origin")
        L._cone_ref = np.asarray(ref, dtype=float)
    return L
