"""Lorentz-Finsler Lagrangians, admissible cones, and the model catalog.

Chart convention used throughout the package: coordinates are ordered
``(v, u, x, y, ...)`` — index 0 is the lightlike direction carrying the
distinguished field N = e0 in wave models, index 1 is the wave parameter u,
and indices >= 2 are transverse.  The fundamental tensor has signature
(+, -, ..., -), so timelike vectors have L > 0.

A Lagrangian is any callable L(x, v) that is jet-evaluable: x and v arrive
as lists of floats or `finsler.jets.Jet` values and the body may only use
arithmetic plus the `finsler.jets` math functions.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ConeError, ConfigError, ConstructionError
from .tensors import fundamental_tensor

__all__ = [
    "Lagrangian",
    "QuadraticLagrangian",
    "RandersNorm",
    "ConeMembership",
    "HProfile",
    "PROFILES",
    "build_minkowski",
    "build_brinkmann_quadratic",
    "build_parallel_example",
    "build_ppwave_example",
    "catalog",
    "from_descriptor",
    "is_finite_number",
]

_SEGMENT_SAMPLES = [j / 15.0 for j in range(16)]
if 0.5 not in _SEGMENT_SAMPLES:
    # 16 equispaced samples miss the exact midpoint, where the segment from
    # cone_ref to the antipodal vector pinches through zero
    _SEGMENT_SAMPLES = sorted(_SEGMENT_SAMPLES + [0.5])


@dataclass(frozen=True)
class ConeMembership:
    """Admissibility verdict for one (x, v)."""

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
    quadratic : bool
        Marks models whose L is exactly quadratic in v (fundamental tensor
        independent of v, Cartan tensor zero).
    """

    def __init__(self, func, dim, cone_ref, name="model", params=None,
                 quadratic=False, meta=None):
        if dim < 3:
            raise ConstructionError("Lagrangian needs dim >= 3, got %d" % dim)
        self._func = func
        self.dim = int(dim)
        self._cone_ref = cone_ref
        self.name = name
        self.params = dict(params or {})
        self.quadratic = bool(quadratic)
        self.meta = dict(meta or {})

    def __call__(self, x, v):
        return self._func(x, v)

    def __repr__(self):
        return "Lagrangian(%r, dim=%d)" % (self.name, self.dim)

    def value(self, x, v):
        """Plain float evaluation of L."""
        w = self._func([float(t) for t in x], [float(t) for t in v])
        return float(w.value if isinstance(w, jets.Jet) else w)

    def cone_ref_at(self, x):
        ref = self._cone_ref
        if callable(ref):
            ref = ref([float(t) for t in x])
        return np.asarray(ref, dtype=float)

    # -- cone membership -------------------------------------------------

    def is_admissible(self, x, v, closed=False):
        """Segment-sampling membership test against the cone component.

        v is inside when L stays positive along the straight segment from
        cone_ref(x) to v; ``closed`` relaxes only the endpoint, admitting
        lightlike boundary vectors.
        """
        v = np.asarray(v, dtype=float)
        if not np.any(v):
            raise ConeError("zero vector has no cone membership")
        ref = self.cone_ref_at(x)
        vals = [self.value(x, (1.0 - t) * ref + t * v)
                for t in _SEGMENT_SAMPLES]
        value = vals[-1]
        margin = min(vals)
        interior_ok = all(val > 0.0 for val in vals[:-1])
        if closed:
            scale = max(1.0, abs(vals[0]), abs(value))
            inside = interior_ok and value >= -1e-12 * scale
        else:
            inside = interior_ok and value > 0.0
        return ConeMembership(inside=inside, value=value, margin=margin)

    def check_admissible(self, x, v, closed=True):
        m = self.is_admissible(x, v, closed=closed)
        if not m.inside:
            raise ConeError(
                "vector outside the %s cone of %r (L=%.6g, margin=%.6g)"
                % ("closed" if closed else "open", self.name,
                   m.value, m.margin))
        return m

    def sample_admissible(self, x, rng, count=1, spread=0.35):
        """Draw ``count`` interior vectors near cone_ref(x) by rejection."""
        ref = self.cone_ref_at(x)
        scale = float(np.linalg.norm(ref))
        out = []
        s = spread
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
    """

    def __init__(self, entries, dim, cone_ref, name="quadratic",
                 params=None, meta=None):
        items = []
        for (i, j), a in entries.items():
            if not (0 <= i <= j < dim):
                raise ConstructionError("bad entry index (%d, %d)" % (i, j))
            coeff = 1.0 if i == j else 2.0
            items.append((i, j, a, coeff))
        self._entries = dict(entries)
        self._items = items

        def func(x, v):
            s = 0.0
            for i, j, a, coeff in items:
                aij = a(x) if callable(a) else a
                s = s + (coeff * aij) * v[i] * v[j]
            return s

        super().__init__(func, dim, cone_ref, name=name, params=params,
                         quadratic=True, meta=meta)

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

    Coefficients are constants or jet-evaluable callables of x, so F can be
    consumed by the derivative engine in both arguments.  ``fundamental``
    gives the closed-form fundamental tensor of F^2 (the independent oracle
    used against the generic jet path).
    """

    def __init__(self, A, b, dim):
        self.dim = int(dim)
        self._A = A
        self._b = b
        if not callable(A):
            A0 = np.asarray(A, dtype=float)
            w = np.linalg.eigvalsh(A0)
            if w.min() <= 0:
                raise ConstructionError("Randers A-part must be positive "
                                        "definite")
            b0 = np.asarray(b, dtype=float)
            if b0 @ np.linalg.solve(A0, b0) >= 1.0:
                raise ConstructionError("Randers drift too large: "
                                        "|b|_A^{ -1} must be < 1")

    def coeffs(self, x):
        A = self._A(x) if callable(self._A) else self._A
        b = self._b(x) if callable(self._b) else self._b
        return A, b

    def __call__(self, x, v):
        A, b = self.coeffs(x)
        return self._from_coeffs(A, b, v)

    def _from_coeffs(self, A, b, v):
        """F(v) from coefficients already evaluated at the base point."""
        n = self.dim
        alpha2 = 0.0
        for i in range(n):
            for j in range(n):
                alpha2 = alpha2 + A[i][j] * v[i] * v[j]
        beta = 0.0
        for i in range(n):
            beta = beta + b[i] * v[i]
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

@dataclass(frozen=True)
class HProfile:
    """Brinkmann wave profile H(u, x, y), jet-evaluable."""

    name: str
    func: object

    def __call__(self, u, x, y):
        return self.func(u, x, y)


PROFILES = {
    "zero": HProfile("zero", lambda u, x, y: 0.0),
    "x2": HProfile("x2", lambda u, x, y: x * x),
    "x2-y2": HProfile("x2-y2", lambda u, x, y: x * x - y * y),
    "uxy": HProfile("uxy", lambda u, x, y: u * x * y),
}


# -- catalog builders ----------------------------------------------------

def build_minkowski(dim=4):
    """L = (v0)^2 - sum_i (v^i)^2 with cone_ref e0."""
    entries = {(0, 0): 1.0}
    for i in range(1, dim):
        entries[(i, i)] = -1.0
    ref = np.zeros(dim)
    ref[0] = 1.0
    return QuadraticLagrangian(entries, dim, ref, name="minkowski",
                               params={"dim": dim})

def build_brinkmann_quadratic(profile, name=None):
    """Quadratic pp-wave L = 2 v^v v^u + H(u,x,y) (v^u)^2 - |v_t|^2.

    ``profile`` is an `HProfile` or a key of `PROFILES`.  This is the
    Lorentzian comparison case: its Christoffels and curvature have closed
    forms used as oracles elsewhere.
    """
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ConfigError("unknown wave profile %r (have %s)"
                              % (profile, sorted(PROFILES))) from None
    H = profile.func
    entries = {
        (0, 1): 1.0,
        (1, 1): lambda x: H(x[1], x[2], x[3]),
        (2, 2): -1.0,
        (3, 3): -1.0,
    }

    def cone_ref(x):
        h = float(H(float(x[1]), float(x[2]), float(x[3])))
        return np.array([1.0 + abs(h), 1.0, 0.0, 0.0])

    return QuadraticLagrangian(
        entries, 4, cone_ref,
        name=name or ("brinkmann-" + profile.name),
        params={"profile": profile.name},
        meta={"profile": profile})


def _omega_row_report(L, N):
    """Residuals of the lightlike-row normalization g_N(N, .) = (0,1,0,...)."""
    n = L.dim
    x0 = [0.0] * n
    target = np.zeros(n)
    target[1] = 1.0
    row = np.asarray(N) @ fundamental_tensor(L, x0, N).matrix
    return {"g_N_row": row.tolist(),
            "row_residual": float(np.max(np.abs(row - target)))}


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


def build_parallel_example(F, omega=None, name="parallel_example",
                           params=None):
    """L = omega(v)^2 - F(v)^2 on a flat chart, with omega derived from F.

    F must be a positive norm with coefficients independent of the
    x0-coordinate (here: constant).  omega is constructed so that N = e0
    is lightlike with metric row (0, 1, 0, ..., 0); passing an explicit
    omega overrides the construction (it is then checked, not trusted).
    """
    n = F.dim
    N = [0.0] * n
    N[0] = 1.0
    x0 = [0.0] * n
    F0 = float(F(x0, N).value if isinstance(F(x0, N), jets.Jet)
               else F(x0, N))
    if not F0 > 0:
        raise ConstructionError("F(N) must be positive")
    gN = F.fundamental(x0, N)
    gN = [[float(e) for e in row] for row in gN]
    if omega is None:
        omega = [F0, (1.0 + gN[1][0]) / F0]
        omega += [gN[0][k] / F0 for k in range(2, n)]
    omega = [float(w) for w in omega]

    def func(x, v):
        w = 0.0
        for i in range(n):
            w = w + omega[i] * v[i]
        f = F(x, v)
        return w * w - f * f

    cone_ref = _cone_ref_near_e0(func, n)
    cone_ref(x0)  # fail fast if the cone is empty at the origin
    L = Lagrangian(func, n, cone_ref, name=name, params=params or {},
                   meta={"omega": list(omega), "F": F, "N": list(N)})
    cond = [abs(omega[0] - F0),
            abs(omega[1] - (1.0 + gN[1][0]) / F0)]
    cond += [abs(omega[k] - gN[0][k] / F0) for k in range(2, n)]
    L.meta["omega_report"] = {
        "conditions_residual": max(cond),
        **_omega_row_report(L, N),
    }
    return L


def build_ppwave_example(F2, name="ppwave_example", params=None):
    """L = omega^2 - F^2 - (v^x)^2 - (v^y)^2 on the (v,u|x,y) chart.

    F2 is a norm on the 2-dimensional (v, u) fiber whose coefficients may
    depend on (u, x, y) but not on the v-coordinate; omega is built from F2
    pointwise, so its coefficients inherit that dependence.
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
    L = Lagrangian(func, n, cone_ref, name=name, params=params or {},
                   meta={"F": F2, "N": [1.0, 0.0, 0.0, 0.0]})
    L.meta["omega_report"] = _omega_row_report(L, [1.0, 0.0, 0.0, 0.0])
    return L


def _default_parallel_example(eps=0.1):
    b = eps * np.array([0.0, 1.0, 0.3, 0.1])
    F = RandersNorm(np.eye(4), b, 4)
    return build_parallel_example(F, params={"eps": eps})


def _default_ppwave_example(eps=0.1):
    def bump(x):
        return jets.exp(-0.5 * (x[2] * x[2] + x[3] * x[3]))

    def A(x):
        m = bump(x)
        s1 = eps * 0.3 * jets.sin(x[1]) * m
        s2 = eps * 0.2 * jets.cos(x[1]) * m
        s3 = eps * 0.4 * jets.cos(2.0 * x[1]) * m
        return [[1.0 + s1, s2], [s2, 1.0 + s3]]

    def b(x):
        return [0.0, eps * 0.5 * jets.sin(x[1]) * bump(x)]

    F2 = RandersNorm(A, b, 2)
    return build_ppwave_example(F2, params={"eps": eps})


def catalog():
    """All named models, freshly built (immutable once constructed)."""
    models = [build_minkowski()]
    for key in ("zero", "x2", "x2-y2", "uxy"):
        models.append(build_brinkmann_quadratic(key))
    models.append(_default_parallel_example())
    models.append(_default_ppwave_example())
    return {L.name: L for L in models}


# -- descriptors -----------------------------------------------------------

_TYPES = ("minkowski", "brinkmann", "parallel_example", "ppwave_example",
          "plugin")


def is_finite_number(val):
    """True for a JSON number (int or float, not bool) with a finite float
    value; huge ints and the NaN/Infinity literals are rejected."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _eps(params):
    eps = params.get("eps", 0.1)
    if not is_finite_number(eps):
        raise ConfigError("spacetime.params.eps must be a finite number")
    return float(eps)


def from_descriptor(desc):
    """Build a Lagrangian from a JSON catalog descriptor.

    Schema: {"name"?, "type", "dim"?, "params"?, "cone_ref"?} with type in
    minkowski | brinkmann | parallel_example | ppwave_example | plugin.
    Plug-ins reference a compiled builder: params {"module", "builder", ...}.
    """
    if not isinstance(desc, dict):
        raise ConfigError("spacetime descriptor must be an object")
    kind = desc.get("type")
    if kind not in _TYPES:
        raise ConfigError("spacetime.type must be one of %s, got %r"
                          % ("|".join(_TYPES), kind))
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("spacetime.params must be an object")
    dim = desc.get("dim", 4)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 3:
        raise ConfigError("spacetime.dim must be an integer >= 3")

    if kind == "minkowski":
        L = build_minkowski(dim=dim)
    elif kind == "brinkmann":
        if dim != 4:
            raise ConfigError("brinkmann models are 4-dimensional")
        profile = params.get("profile", "x2")
        if not isinstance(profile, str):
            raise ConfigError("spacetime.params.profile must be one of %s"
                              % sorted(PROFILES))
        L = build_brinkmann_quadratic(profile)
    elif kind == "parallel_example":
        L = _default_parallel_example(eps=_eps(params))
    elif kind == "ppwave_example":
        L = _default_ppwave_example(eps=_eps(params))
    else:
        module = params.get("module")
        builder = params.get("builder")
        if not module or not builder:
            raise ConfigError("plugin spacetimes need params.module and "
                              "params.builder")
        try:
            mod = importlib.import_module(module)
            fn = getattr(mod, builder)
        except (ImportError, AttributeError) as e:
            raise ConfigError("cannot load plugin %s.%s: %s"
                              % (module, builder, e)) from e
        kwargs = {k: v for k, v in params.items()
                  if k not in ("module", "builder")}
        sig = inspect.signature(fn)
        try:
            sig.bind(**kwargs)
        except TypeError as e:
            raise ConfigError("plugin builder %s.%s does not take params "
                              "%s: %s" % (module, builder, sorted(kwargs), e)
                              ) from e
        for key, val in kwargs.items():
            # a param whose default is a number must be given as one
            default = getattr(sig.parameters.get(key), "default", None)
            if is_finite_number(default) and not is_finite_number(val):
                raise ConfigError("plugin param %s must be a finite number"
                                  % key)
        L = fn(**kwargs)
        if not isinstance(L, Lagrangian):
            raise ConfigError("plugin builder %s.%s did not return a "
                              "Lagrangian" % (module, builder))

    if "name" in desc and desc["name"]:
        L.name = str(desc["name"])
    if "cone_ref" in desc and desc["cone_ref"] is not None:
        ref = desc["cone_ref"]
        if (not isinstance(ref, list) or len(ref) != L.dim
                or not all(is_finite_number(t) for t in ref)):
            raise ConfigError("spacetime.cone_ref must be a number list of "
                              "length dim")
        if L.value([0.0] * L.dim, ref) <= 0:
            raise ConfigError("supplied cone_ref is not timelike at the "
                              "origin")
        L._cone_ref = np.asarray(ref, dtype=float)
    return L
