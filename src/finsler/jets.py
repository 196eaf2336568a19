"""Truncated multivariate Taylor (jet) arithmetic.

This is the derivative engine for the whole package.  Lagrangians and fields
are evaluated on ``Jet`` values carrying truncated Taylor expansions in a
small set of infinitesimal generators; reading a coefficient off the result
gives the corresponding mixed partial derivative exactly (up to roundoff).
No finite differencing happens here — difference quotients exist only as
test oracles.

A jet's coefficients are a float64 vector over the admissible monomials
of its `_Context`, or a ``(size, B)`` array whose B columns are
independent lanes: one jet then carries B evaluation points at once.  A
context is built once per signature: it enumerates its monomials directly
and precomputes the ``(i, j, k)`` index arrays of every product pair
``x^e_i * x^e_j = x^e_k`` that survives truncation, so a product is one
gather, one elementwise multiply and one ``np.bincount`` (Taylor
arithmetic as in Griewank & Walther, *Evaluating Derivatives*, ch. 13).
B-lane jets live in the context's batched twin, whose product keys the
bincount by ``k * B + lane``.

Every lane of a batched jet is bitwise equal to the unbatched evaluation
at that lane's point: each lane sums its product terms in the same order,
and the elementary functions take their Taylor coefficients from the
`math` module one lane at a time, so a lane that would raise
``ValueError``, ``ZeroDivisionError`` or ``OverflowError`` alone raises
it in the batch too.  Coefficients are always floats: jets do not nest.
Mixed orders in different generator sets come from grouped contexts
instead, and `derivative_tensor` reads whole blocks of partials through
a cached gather.  Binary operations between jets of different contexts
(batch sizes included) are rejected.

Plain float64 arrays are lanes too, as `Lanes`.  The elementary
functions apply `math` to them one lane at a time, their power is
Python's float power lane by lane, and numpy's + - * / round as Python
floats do, so a model evaluated with lanes in place of floats (L on many
vectors at once, or a base point's coordinates next to a batched fiber
jet) gives each lane the bits of its scalar evaluation.  `_call`
evaluates jets and lanes under ``np.errstate`` with division by zero
and invalid operations raising, so a lane whose float evaluation would
raise fails the whole call with `EvaluationError`.  Callers pass point
sets through `in_blocks`, in lane blocks of `LANE_BLOCK`, which bounds
the product temporaries.
"""

from __future__ import annotations

import contextlib
import copy
import math
import operator
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

from .errors import EvaluationError, FinslerError

__all__ = [
    "LANE_BLOCK",
    "in_blocks",
    "Jet",
    "Lanes",
    "lanes",
    "variables",
    "derivative_tensor",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "sinh",
    "cosh",
]


# lanes per batched evaluation of a point set: about 20 KB of product
# temporaries per lane in the 95-term Christoffel context
LANE_BLOCK = 32

# batched twins a context keeps, most recently used last
_TWINS = 4

# floats raise on their own
_FLOAT_ERRORS = contextlib.nullcontext()


def _monomials(groups, budgets, total):
    """Exponent tuples over generators in ``groups`` whose degree stays
    within ``total`` and within ``budgets[g]`` in each group g."""
    if not groups:
        return [()]
    g = groups[0]
    out = []
    for e in range(min(total, budgets[g]) + 1):
        rest = budgets[:g] + (budgets[g] - e,) + budgets[g + 1:]
        out += [(e,) + t for t in _monomials(groups[1:], rest, total - e)]
    return out


def _factorial_scale(expo):
    f = 1.0
    for e in expo:
        f *= math.factorial(e)
    return f


class _Context:
    """Monomial bookkeeping for jets in ``nvars`` generators.

    ``groups`` assigns each generator to a degree group and ``group_orders``
    caps the total degree within each group, on top of the overall ``order``
    cap.  The connection solver uses this to track base-point generators to
    first order while fiber generators go to third.

    ``pairs`` holds the product table: index arrays ``(i, j, k)`` with
    ``exponents[i] + exponents[j] == exponents[k]``, i-major and j
    ascending, so `np.bincount` sums each output coefficient in a fixed
    order.  ``lanes`` is None here and B in the twin `batched` returns.
    """

    __slots__ = ("nvars", "order", "exponents", "index", "size", "pairs",
                 "lanes", "_var_index", "_gathers", "_batches")

    def __init__(self, nvars, order, groups=None, group_orders=None):
        self.nvars = nvars
        self.order = order
        if groups is None:
            groups = (0,) * nvars
            group_orders = (order,)
        exps = _monomials(tuple(groups), tuple(group_orders), order)
        exps.sort(key=lambda e: (sum(e), e))
        self.exponents = exps
        self.index = {e: i for i, e in enumerate(exps)}
        self.size = len(exps)
        self._var_index = [
            self.index[tuple(1 if k == j else 0 for k in range(nvars))]
            for j in range(nvars)
        ]
        self._gathers = {}
        self._batches = {}
        self.lanes = None
        # Encode exponents in base order+1.  Pairs within the total order
        # cap add without digit carries, so a sum's code names its monomial.
        E = np.array(exps, dtype=np.int64).reshape(self.size, nvars)
        deg = E.sum(axis=1)
        code = E @ (order + 1) ** np.arange(nvars, dtype=np.int64)
        i, j = np.nonzero(deg[:, None] + deg[None, :] <= order)
        s = code[i] + code[j]
        by_code = np.argsort(code)
        pos = np.minimum(np.searchsorted(code[by_code], s), self.size - 1)
        keep = code[by_code[pos]] == s
        self.pairs = (i[keep], j[keep], by_code[pos[keep]])

    def var_index(self, j):
        return self._var_index[j]

    def batched(self, lanes):
        """The context of ``lanes``-lane jets: the same monomials, with the
        product's third index array replaced by the bincount keys
        ``k * lanes + lane``, pair-major like the ``(P, lanes)`` array of
        the product terms, so each lane sums its terms in the order of an
        unbatched product.  The `_TWINS` most recently used twins are
        cached; each holds a P x lanes key array."""
        twin = self._batches.pop(lanes, None)
        if twin is None:
            twin = copy.copy(self)
            i, j, k = self.pairs
            twin.pairs = (i, j, (k[:, None] * lanes
                                 + np.arange(lanes)).ravel())
            twin.lanes = lanes
            twin._batches = None
            if len(self._batches) >= _TWINS:
                del self._batches[next(iter(self._batches))]
        self._batches[lanes] = twin
        return twin

    def gather(self, slots, order):
        """Cached (coefficient index, factorial scale) arrays for
        `derivative_tensor`; truncated partials get scale 0."""
        key = (slots, order)
        hit = self._gathers.get(key)
        if hit is None:
            if order > self.order:
                raise ValueError("derivative order %d exceeds the jet "
                                 "order %d" % (order, self.order))
            idx, scale = [], []
            for combo in _iproduct(slots, repeat=order):
                e = [0] * self.nvars
                for s in combo:
                    e[s] += 1
                k = self.index.get(tuple(e))
                idx.append(0 if k is None else k)
                scale.append(0.0 if k is None else _factorial_scale(e))
            hit = (np.array(idx, dtype=np.intp), np.array(scale))
            self._gathers[key] = hit
        return hit


@lru_cache(maxsize=None)
def _context(nvars, order, groups=None, group_orders=None):
    return _Context(nvars, order, groups, group_orders)


class Jet:
    """A truncated Taylor polynomial over the generators of a `_Context`;
    with coefficients of shape ``(size, B)``, B of them side by side."""

    __slots__ = ("ctx", "c")
    __array_ufunc__ = None  # make numpy defer to our reflected operators

    def __init__(self, ctx, c):
        self.ctx = ctx
        self.c = c

    # -- constructors --------------------------------------------------

    @classmethod
    def variable(cls, ctx, j, value):
        """Generator ``j`` at ``value``: a float, or the array of the lane
        values of a batched context."""
        c = np.zeros(ctx.size if ctx.lanes is None else (ctx.size, ctx.lanes))
        c[0] = value
        c[ctx.var_index(j)] = 1.0
        return cls(ctx, c)

    # -- inspection ----------------------------------------------------

    @property
    def value(self):
        # a Python float, so that 1.0 / value raises ZeroDivisionError
        # where a numpy scalar would return inf; the lanes of a batched
        # jet come as an array
        c0 = self.c[0]
        return float(c0) if c0.ndim == 0 else c0.copy()

    def coeff(self, expo):
        """Raw Taylor coefficient for the exponent tuple ``expo``."""
        i = self.ctx.index.get(tuple(expo))
        c = np.zeros(self.c.shape[1:]) if i is None else self.c[i]
        return float(c) if c.ndim == 0 else c.copy()

    def deriv(self, expo):
        """Mixed partial derivative for the exponent tuple ``expo``."""
        return self.coeff(expo) * _factorial_scale(expo)

    def __repr__(self):
        return "Jet(%r)" % (self.c.tolist(),)

    def __float__(self):
        # Refuse silent truncation (math.sqrt on a jet would drop all
        # derivative information); callers must use .value explicitly.
        raise TypeError("Jet does not coerce to float; use .value or the "
                        "finsler.jets math functions")

    def __bool__(self):
        raise TypeError("Jet has no truth value")

    # -- arithmetic ----------------------------------------------------

    def _peer(self, other):
        if other.ctx is not self.ctx:
            raise TypeError("jet context mismatch")
        return other.c

    def _add_const(self, s):
        c = self.c.copy()
        c[0] += s
        return Jet(self.ctx, c)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.ctx, self.c + self._peer(other))
        return self._add_const(other)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.ctx, self.c - self._peer(other))
        return self._add_const(-other)

    def __rsub__(self, other):
        return (-self)._add_const(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, ctx = self.c, self._peer(other), self.ctx
            i, j, k = ctx.pairs
            if ctx.lanes is None:
                return Jet(ctx, np.bincount(k, a[i] * b[j],
                                            minlength=ctx.size))
            c = np.bincount(k, (a[i] * b[j]).ravel(),
                            minlength=ctx.size * ctx.lanes)
            return Jet(ctx, c.reshape(ctx.size, ctx.lanes))
        if isinstance(other, Lanes):
            other = other.view(np.ndarray)  # coefficients stay plain
        return Jet(self.ctx, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, np.ndarray):
            return self * (1.0 / other)     # lanes: `_call` raises on 0
        return self * (1.0 / float(other))  # float: see `value`

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p < 0:
                return self._reciprocal() ** (-p)
            if p == 0:
                c = np.zeros_like(self.c)
                c[0] = 1.0
                return Jet(self.ctx, c)
            result, base = None, self
            while True:
                if p & 1:
                    result = base if result is None else result * base
                p >>= 1
                if not p:
                    return result
                base = base * base

        def coeffs(a0, order):
            out = []
            coef = 1.0
            for k in range(order + 1):
                out.append(a0 ** (p - k) * coef)
                coef *= (p - k) / (k + 1.0)
            return out

        return self._series(coeffs)

    # -- composition with smooth scalar functions ----------------------

    def _series(self, coeffs):
        """Compose with f, where ``coeffs(a0, order)`` lists the Python
        floats f^(k)(a0) / k!; a batched jet takes them lane by lane, so
        each lane computes (and raises) exactly as an unbatched jet."""
        order = self.ctx.order
        a0 = self.c[0]
        if a0.ndim == 0:
            return self._compose(coeffs(float(a0), order))
        return self._compose(np.array([coeffs(a, order)
                                       for a in a0.tolist()]).T)

    def _compose(self, coeffs):
        """Horner-evaluate sum_k coeffs[k] * (self - value)^k.

        ``coeffs[k]`` must equal f^(k)(value) / k!, one entry per lane for
        a batched jet.  The leading step is a scalar multiple of the
        nilpotent part, not a full product.
        """
        d = self.c.copy()
        d[0] = 0.0
        d = Jet(self.ctx, d)
        acc = d * coeffs[-1]
        for k in range(len(coeffs) - 2, 0, -1):
            acc = acc._add_const(coeffs[k]) * d
        return acc._add_const(coeffs[0])

    def _reciprocal(self):
        return self._series(_reciprocal_series)

    def sqrt(self):
        return self._series(_sqrt_series)

    def exp(self):
        return self._series(_exp_series)

    def log(self):
        return self._series(_log_series)

    def sin(self):
        return self._series(lambda a0, order: _cycle(
            math.sin(a0), math.cos(a0), (1.0, 1.0, -1.0, -1.0), order))

    def cos(self):
        return self._series(lambda a0, order: _cycle(
            math.cos(a0), math.sin(a0), (1.0, -1.0, -1.0, 1.0), order))

    def sinh(self):
        return self._series(lambda a0, order: _cycle(
            math.sinh(a0), math.cosh(a0), (1.0, 1.0, 1.0, 1.0), order))

    def cosh(self):
        return self._series(lambda a0, order: _cycle(
            math.cosh(a0), math.sinh(a0), (1.0, 1.0, 1.0, 1.0), order))


# -- Taylor coefficients f^(k)(a0) / k! of the elementary functions ---------

def _reciprocal_series(a0, order):
    inv = 1.0 / a0
    coeffs = []
    term = inv
    for _ in range(order + 1):
        coeffs.append(term)
        term = term * (-1.0) * inv
    return coeffs


def _sqrt_series(a0, order):
    s = math.sqrt(a0)
    inv = 1.0 / a0
    coeffs = []
    term = s
    half_minus_k = 0.5
    for k in range(order + 1):
        coeffs.append(term)
        term = term * inv * (half_minus_k / (k + 1.0))
        half_minus_k -= 1.0
    return coeffs


def _exp_series(a0, order):
    e = math.exp(a0)
    coeffs = []
    fk = 1.0
    for k in range(order + 1):
        coeffs.append(e * (1.0 / fk))
        fk *= (k + 1)
    return coeffs


def _log_series(a0, order):
    inv = 1.0 / a0
    coeffs = [math.log(a0)]
    term = inv
    for k in range(1, order + 1):
        coeffs.append(term * ((-1.0) ** (k - 1) / k))
        term = term * inv
    return coeffs


def _cycle(even, odd, signs, order):
    coeffs = []
    fk = 1.0
    for k in range(order + 1):
        base = even if k % 2 == 0 else odd
        coeffs.append(base * (signs[k % 4] / fk))
        fk *= (k + 1)
    return coeffs


# -- plain lanes ----------------------------------------------------------

class Lanes(np.ndarray):
    """Plain float64 lanes, one evaluation point each, for model code.

    numpy's elementwise + - * / round as Python floats do, but its power
    does not: it squares ``x ** 2`` as x * x where a float calls C pow.
    So ``**`` here is Python's float power, one lane at a time.
    """

    def __pow__(self, p):
        return _each(operator.pow, self, p)

    def __rpow__(self, b):
        return _each(operator.pow, b, self)


def lanes(a):
    """``a`` as float64 `Lanes`."""
    return np.asarray(a, dtype=float).view(Lanes)


def _each(f, *args):
    """``f`` on Python floats one lane at a time, over the broadcast
    ``args``: the bits and the exceptions of scalar evaluation."""
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    vals = [f(*t) for t in zip(*(a.ravel().tolist() for a in arrs))]
    return lanes(np.array(vals, dtype=float).reshape(arrs[0].shape))


# -- elementary functions of floats, lanes and jets alike -------------------

def _plain(f, x):
    """``f`` from `math` on a float, or on each lane of an array."""
    return _each(f, x) if isinstance(x, np.ndarray) else f(x)


def sqrt(x):
    """Square root usable inside jet-evaluable model code."""
    return x.sqrt() if isinstance(x, Jet) else _plain(math.sqrt, x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else _plain(math.exp, x)


def log(x):
    return x.log() if isinstance(x, Jet) else _plain(math.log, x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else _plain(math.sin, x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else _plain(math.cos, x)


def sinh(x):
    return x.sinh() if isinstance(x, Jet) else _plain(math.sinh, x)


def cosh(x):
    return x.cosh() if isinstance(x, Jet) else _plain(math.cosh, x)


# -- seeding and reading -------------------------------------------------

def variables(values, order, groups=None, group_orders=None):
    """Seed one generator per entry of ``values``.

    Returns ``(ctx, jets)`` with ``jets[i] = values[i] + eps_i``.  A 2-D
    array of shape ``(B, nvars)`` seeds B lanes, one per row.
    """
    batch = isinstance(values, np.ndarray) and values.ndim == 2
    if batch:
        lanes = len(values)
        values = list(values.astype(float).T)
    else:
        values = [float(v) for v in values]
    if groups is not None:
        groups = tuple(groups)
        group_orders = tuple(group_orders)
    ctx = _context(len(values), order, groups, group_orders)
    if batch:
        ctx = ctx.batched(lanes)
    return ctx, [Jet.variable(ctx, j, v) for j, v in enumerate(values)]


def derivative_tensor(w, slots, order):
    """All ``order``-th partials of ``w`` along the generators ``slots``.

    Returns T of shape ``(len(slots),) * order`` with
    ``T[a, b, ...] = d^order w / d eps_slots[a] d eps_slots[b] ...``.
    A batched ``w`` gives T a leading batch axis, one row per lane, laid
    out C-contiguous like an unbatched T, so that numpy reduces each lane
    in the order it reduces an unbatched T.  Partials the context
    truncates read as zero, and so does every partial of a plain number.
    """
    slots = tuple(slots)
    shape = (len(slots),) * order
    if not isinstance(w, Jet):
        return np.zeros(shape)
    idx, scale = w.ctx.gather(slots, order)
    if w.ctx.lanes is None:
        return (w.c[idx] * scale).reshape(shape)
    return np.ascontiguousarray((w.c[idx] * scale[:, None]).T).reshape(
        w.c.shape[1:] + shape)


def _call(L, x, v):
    """Evaluate a Lagrangian-like callable, wrapping arithmetic failures;
    a batched result fails if any lane does.  Where x or v holds jets or
    plain lanes, division by zero and invalid operations raise, as
    ``x / 0.0`` and ``math.sqrt(-1)`` do on floats, while overflow and
    underflow pass silently, as ``x * y`` does on floats: an infinite
    value then fails the finiteness test, while an infinite higher
    coefficient of a finite value passes."""
    arrays = isinstance(x[0], (np.ndarray, Jet)) or isinstance(
        v[0], (np.ndarray, Jet))
    try:
        with (np.errstate(divide="raise", invalid="raise", over="ignore",
                          under="ignore") if arrays else _FLOAT_ERRORS):
            w = L(x, v)
    except (ZeroDivisionError, OverflowError, ValueError,
            FloatingPointError) as e:
        raise EvaluationError("Lagrangian evaluation failed: %s" % e) from e
    val = w.value if isinstance(w, Jet) else w
    if isinstance(val, np.ndarray):
        finite = bool(np.isfinite(val).all())
    else:
        finite = not isinstance(val, float) or math.isfinite(val)
    if not finite:
        raise EvaluationError("Lagrangian evaluation returned a non-finite "
                              "value")
    return w


def in_blocks(kernel, alone, *arrays):
    """``kernel(*blocks)`` over the rows of ``arrays`` in lane blocks of
    `LANE_BLOCK`, concatenated.

    A block fails as a whole.  The error raised then is the one
    ``alone(*row)`` raises at the block's first row that fails alone,
    with that row's point (its entry of ``arrays[0]``) named; if no row
    fails alone, the block's own error.
    """
    out = []
    for lo in range(0, len(arrays[0]), LANE_BLOCK):
        block = [a[lo:lo + LANE_BLOCK] for a in arrays]
        try:
            out.append(kernel(*block))
        except FinslerError:
            for row in zip(*block):
                try:
                    alone(*row)
                except FinslerError as e:
                    raise type(e)("at x=%r: %s" % (
                        [float(t) for t in row[0]], e)) from e
            raise
    return np.concatenate(out)
