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
bincount by ``k * B + lane``, and gathers the factors' rows with
``take`` along the monomial axis: it copies each row of B lanes whole,
where fancy indexing ``a[i]`` of a ``(size, B)`` array goes element by
element and made a 2-lane product cost about three single-lane ones.
The gathered values, the multiply and the bincount order are those of
``a[i]``, so no lane moves a bit.  Each context also keeps the
coefficients of all its generators as one template, and `variables`
seeds them all from one copy of it, stacked for the lanes of a twin.

Each jet carries a support mask: the generator groups its coefficients
depend on, so that every coefficient of a monomial outside it is exactly
zero.  A seed's mask is its own group (and the groups its ``jacobian``
row reaches), sums and products take the union of their operands'
masks, and scalar factors and composition keep it.  A product sums only
the pairs whose factors lie inside their supports, from a table the
context filters once per pair of masks.  The pairs it skips would add
a term ±0.0 to a sum that starts at +0.0, which changes no bit, so the
product equals the full table's, except that a structural zero times an
infinite coefficient no longer makes a nan.

A composition with an elementary function (`Jet._series`) runs its Horner
scheme only to the degree cap of its argument's support, the highest
total degree of a monomial inside the mask (`_Context.degree_cap`), and
asks the function for no more Taylor coefficients than that.  Above the
cap every power of the argument's nilpotent part is structurally zero,
so the steps left out would add only exact zeros.  A jet of base-point
generators in a context of base order 1 (the spray, the Christoffel
solve) composes as c0 + c1 * d in one scaled copy, with every zero made
+0.0 as the full scheme's products leave it, so no bit moves.  Fewer
coefficients also mean fewer chances to raise: ``x ** 1.5`` at x = 0 in
such a context has value 0 and slope 0, where the second coefficient
0 ** -0.5 raised, and an infinite coefficient above the cap is never
multiplied by a zero into a nan that raises.

Every lane of a batched jet is bitwise equal to the unbatched evaluation
at that lane's point: each lane sums its product terms in the same order,
and the elementary functions take the leading value of their Taylor
coefficients from the `math` module one lane at a time, so a lane that
would raise ``ValueError``, ``ZeroDivisionError`` or ``OverflowError``
unbatched raises it in the batch too; the recurrences for the higher
coefficients then run over all lanes at once, as numpy rounds a product
of floats as Python does.  Coefficients are always floats: jets do not
nest.
Mixed orders in different generator sets come from grouped contexts
instead, and `derivative_tensor` reads whole blocks of partials through
a cached gather.  Binary operations between jets of different contexts
(batch sizes included) are rejected.

Plain float64 arrays are lanes too, as `Lanes`.  Each elementary
function (`sqrt`, `exp`, `log`, `sin`, `cos`, `sinh`, `cosh`) is one
module function for floats, lanes and jets alike: a jet composes with
the function's Taylor series (`Jet._series`), and lanes take `math` one
lane at a time.  The power of lanes is Python's float power lane by
lane, and numpy's + - * / round as Python floats do, so a model
evaluated with lanes in place of floats (L on many vectors at once, or
a base point's coordinates next to a batched fiber jet) gives each lane
the bits of its scalar evaluation.  `_call`
evaluates jets and lanes under ``np.errstate`` with division by zero
and invalid operations raising, so a lane whose float evaluation would
raise fails the whole call with `EvaluationError`.  Callers pass point
sets through `in_blocks`, in lane blocks of `LANE_BLOCK`, which bounds
the product temporaries; a block of one row is a scalar evaluation, so
a set of one point fails with the error of that evaluation, unchanged,
and an empty set is one block of no lanes, with empty results.  A
failing block reruns row by row, and its first failing row's error
names the point; kernels gate each block, not the whole set, so that is
the error a loop over the points meets first.
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
    order.  A support mask is a bit set of groups, bit g for group g;
    ``supports[k]`` is the mask of the groups whose generators monomial k
    contains, and ``full`` the mask of every group.  `product_pairs`
    filters the table to the pairs a product of two supports can make,
    and ``pairs`` is its (full, full) entry.  ``lanes`` is None here and B
    in the twin `batched` returns.
    """

    __slots__ = ("nvars", "order", "groups", "exponents", "index", "size",
                 "degrees", "supports", "full", "pairs", "lanes",
                 "_var_index", "_gathers", "_tables", "_batches", "_caps",
                 "_seeds")

    def __init__(self, nvars, order, groups=None, group_orders=None):
        self.nvars = nvars
        self.order = order
        if groups is None:
            groups = (0,) * nvars
            group_orders = (order,)
        self.groups = tuple(groups)
        exps = _monomials(self.groups, tuple(group_orders), order)
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
        self._caps = {}
        self._seeds = None
        self.lanes = None
        # Encode exponents in base order+1.  Pairs within the total order
        # cap add without digit carries, so a sum's code names its monomial.
        E = np.array(exps, dtype=np.int64).reshape(self.size, nvars)
        deg = self.degrees = E.sum(axis=1)
        code = E @ (order + 1) ** np.arange(nvars, dtype=np.int64)
        i, j = np.nonzero(deg[:, None] + deg[None, :] <= order)
        s = code[i] + code[j]
        by_code = np.argsort(code)
        pos = np.minimum(np.searchsorted(code[by_code], s), self.size - 1)
        keep = code[by_code[pos]] == s
        self.pairs = (i[keep], j[keep], by_code[pos[keep]])
        self.supports = np.bitwise_or.reduce(
            np.where(E > 0, 1 << np.array(self.groups, dtype=np.int64), 0),
            axis=1)
        self.full = (1 << len(group_orders)) - 1
        self._tables = {(self.full, self.full): self.pairs}

    def var_index(self, j):
        return self._var_index[j]

    def degree_cap(self, mask):
        """The highest total degree of a monomial inside the support
        ``mask``: a jet with that support is zero above it, and so is
        every power of its nilpotent part.  Cached per mask."""
        cap = self._caps.get(mask)
        if cap is None:
            cap = self._caps[mask] = int(
                self.degrees[(self.supports & ~mask) == 0].max())
        return cap

    def seeds(self):
        """Fresh coefficients of every generator at value 0, one row per
        generator: shape ``(nvars, size)``, or ``(nvars, size, lanes)``
        in a batched twin: one copy of a template the context builds
        once, stacked for the lanes of a twin."""
        if self._seeds is None:
            t = np.zeros((self.nvars, self.size))
            t[np.arange(self.nvars), self._var_index] = 1.0
            self._seeds = t
        if self.lanes is None:
            return self._seeds.copy()
        return np.repeat(self._seeds[:, :, None], self.lanes, axis=2)

    def product_pairs(self, mask_a, mask_b):
        """The product table of a jet with support ``mask_a`` times one
        with ``mask_b``: the pairs of ``pairs`` whose factors lie inside
        those supports, in the same order, cached per mask pair.  Every
        pair left out has a factor that is exactly zero, and a sum that
        starts at +0.0 is not changed by adding a zero, so the product
        keeps the bits of the full table's."""
        key = (mask_a, mask_b)
        hit = self._tables.get(key)
        if hit is None:
            i, j, k = self.pairs
            keep = (((self.supports[i] & ~mask_a) == 0)
                    & ((self.supports[j] & ~mask_b) == 0))
            if self.lanes is not None:
                k = k.reshape(-1, self.lanes)
            hit = (i[keep], j[keep], k[keep].ravel())
            self._tables[key] = hit
        return hit

    def batched(self, lanes):
        """The context of ``lanes``-lane jets: the same monomials, with the
        product's third index array replaced by the bincount keys
        ``k * lanes + lane``, pair-major like the ``(P, lanes)`` array of
        the product terms, so each lane sums its terms in the order of an
        unbatched product.  Its `product_pairs` caches the keys of each
        filtered table the same way.  The `_TWINS` most recently used
        twins are cached; each holds a P x lanes key array."""
        twin = self._batches.pop(lanes, None)
        if twin is None:
            twin = copy.copy(self)
            i, j, k = self.pairs
            twin.pairs = (i, j, (k[:, None] * lanes
                                 + np.arange(lanes)).ravel())
            twin.lanes = lanes
            twin._tables = {(self.full, self.full): twin.pairs}
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
    with coefficients of shape ``(size, B)``, B of them side by side.

    ``mask`` is the jet's support: the groups its coefficients depend on.
    Every coefficient of a monomial outside it is exactly zero.  A jet
    built without a mask gets the context's full one, which is always
    true.  A jet's coefficients are not changed once it is built: its
    reciprocal is composed once and kept (`_reciprocal`)."""

    __slots__ = ("ctx", "c", "mask", "_inv")
    __array_ufunc__ = None  # make numpy defer to our reflected operators

    def __init__(self, ctx, c, mask=None):
        self.ctx = ctx
        self.c = c
        self.mask = ctx.full if mask is None else mask

    # -- constructors --------------------------------------------------

    @classmethod
    def variable(cls, ctx, j, value):
        """Generator ``j`` at ``value``: a float, or the array of the lane
        values of a batched context."""
        c = ctx.seeds()[j]
        c[0] = value
        return cls(ctx, c, 1 << ctx.groups[j])

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
        return Jet(self.ctx, c, self.mask)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.ctx, self.c + self._peer(other),
                       self.mask | other.mask)
        return self._add_const(other)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.c, self.mask)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.ctx, self.c - self._peer(other),
                       self.mask | other.mask)
        return self._add_const(-other)

    def __rsub__(self, other):
        return (-self)._add_const(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, ctx = self.c, self._peer(other), self.ctx
            i, j, k = ctx.product_pairs(self.mask, other.mask)
            mask = self.mask | other.mask
            if ctx.lanes is None:
                return Jet(ctx, np.bincount(k, a[i] * b[j],
                                            minlength=ctx.size), mask)
            c = np.bincount(k, (a.take(i, 0) * b.take(j, 0)).ravel(),
                            minlength=ctx.size * ctx.lanes)
            return Jet(ctx, c.reshape(ctx.size, ctx.lanes), mask)
        if isinstance(other, Lanes):
            other = other.view(np.ndarray)  # coefficients stay plain
        return Jet(self.ctx, self.c * other, self.mask)

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
                return Jet(self.ctx, c, 0)
            result, base = None, self
            while True:
                if p & 1:
                    result = base if result is None else result * base
                p >>= 1
                if not p:
                    return result
                base = base * base
        return self._series(_power_series(p))

    # -- composition with smooth scalar functions ----------------------

    def _series(self, coeffs):
        """Compose with f, where ``coeffs(a0, n)`` lists f^(k)(a0) / k!
        for k = 0..n, for a Python float a0, or for the array of a
        batched jet's lanes (see `_leading`), so each lane computes (and
        raises) exactly as an unbatched jet.

        n is the context's order, capped at the degree cap of the jet's
        support (`_Context.degree_cap`), but at least 1: the nilpotent
        part's powers above that degree are structurally zero, so the
        Horner steps that would multiply by them add only exact zeros,
        and f needs no more terms.  A jet of base-point generators with
        base order 1 composes to first order in any context.
        """
        a0 = self.c[0]
        n = min(self.ctx.order, max(1, self.ctx.degree_cap(self.mask)))
        return self._compose(coeffs(float(a0) if a0.ndim == 0 else a0, n))

    def _compose(self, coeffs):
        """Horner-evaluate sum_k coeffs[k] * (self - value)^k.

        ``coeffs[k]`` must equal f^(k)(value) / k!, one entry per lane for
        a batched jet.  The leading step is a scalar multiple of the
        nilpotent part, not a full product.  With two coefficients in a
        context of order 2 or more, the result is that scalar multiple
        plus the value, with each zero made +0.0, as the product of the
        full order's Horner scheme leaves every zero it sums.
        """
        d = self.c.copy()
        d[0] = 0.0
        if len(coeffs) == 2 and self.ctx.order >= 2:
            c = d * coeffs[1]
            c += 0.0
            c[0] += coeffs[0]
            return Jet(self.ctx, c, self.mask)
        d = Jet(self.ctx, d, self.mask)
        acc = d * coeffs[-1]
        for k in range(len(coeffs) - 2, 0, -1):
            acc = acc._add_const(coeffs[k]) * d
        return acc._add_const(coeffs[0])

    def _reciprocal(self):
        """1 / self, composed on the first call and kept in the slot
        ``_inv``, which a new jet leaves unset: every division by the
        same jet multiplies by the same reciprocal, which gives each
        quotient the bits of composing it afresh."""
        try:
            return self._inv
        except AttributeError:
            self._inv = self._series(_reciprocal_series)
            return self._inv


# -- Taylor coefficients f^(k)(a0) / k! of the elementary functions ---------
#
# a0 is a Python float or an array of lanes.  The leading values come from
# `_leading`, one lane at a time; the recurrences after it multiply by
# Python floats, which numpy rounds over the lanes as Python rounds one
# float.

def _leading(f, a0):
    """``f`` of a float ``a0``, or of each lane of an array ``a0`` as a
    Python float in turn, so every lane gets the bits and the exceptions
    of `math` and float arithmetic only.  The entries of a sequence
    ``f`` returns come back as one lane array each."""
    if isinstance(a0, float):
        return f(a0)
    return np.array([f(a) for a in a0.tolist()]).T


def _reciprocal_series(a0, order):
    inv = _leading(lambda a: 1.0 / a, a0)
    coeffs = []
    term = inv
    for _ in range(order + 1):
        coeffs.append(term)
        term = term * (-1.0) * inv
    return coeffs


def _sqrt_series(a0, order):
    s, inv = _leading(lambda a: (math.sqrt(a), 1.0 / a), a0)
    coeffs = []
    term = s
    half_minus_k = 0.5
    for k in range(order + 1):
        coeffs.append(term)
        term = term * inv * (half_minus_k / (k + 1.0))
        half_minus_k -= 1.0
    return coeffs


def _exp_series(a0, order):
    e = _leading(math.exp, a0)
    coeffs = []
    fk = 1.0
    for k in range(order + 1):
        coeffs.append(e * (1.0 / fk))
        fk *= (k + 1)
    return coeffs


def _log_series(a0, order):
    inv, log_a0 = _leading(lambda a: (1.0 / a, math.log(a)), a0)
    coeffs = [log_a0]
    term = inv
    for k in range(1, order + 1):
        coeffs.append(term * ((-1.0) ** (k - 1) / k))
        term = term * inv
    return coeffs


def _power_series(p):
    """The series of x ** p for a non-integer float p."""
    def coeffs(a0, order):
        powers = _leading(
            lambda a: [a ** (p - k) for k in range(order + 1)], a0)
        out = []
        coef = 1.0
        for k in range(order + 1):
            out.append(powers[k] * coef)
            coef *= (p - k) / (k + 1.0)
        return out

    return coeffs


def _cycle(even, odd, signs):
    """The series of sin, cos, sinh or cosh: ``even`` and ``odd`` give the
    even and odd derivatives up to ``signs``, cycling with period 4."""
    def coeffs(a0, order):
        values = _leading(lambda a: (even(a), odd(a)), a0)
        out = []
        fk = 1.0
        for k in range(order + 1):
            out.append(values[k % 2] * (signs[k % 4] / fk))
            fk *= (k + 1)
        return out

    return coeffs


_sin_series = _cycle(math.sin, math.cos, (1.0, 1.0, -1.0, -1.0))
_cos_series = _cycle(math.cos, math.sin, (1.0, -1.0, -1.0, 1.0))
_sinh_series = _cycle(math.sinh, math.cosh, (1.0, 1.0, 1.0, 1.0))
_cosh_series = _cycle(math.cosh, math.sinh, (1.0, 1.0, 1.0, 1.0))


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

def _elementary(f, series):
    """The model-code function of ``f`` from `math`: on a jet, the
    composition with ``series``; on an array, ``f`` on each lane; on a
    float, ``f`` itself."""
    def elementary(x):
        if isinstance(x, Jet):
            return x._series(series)
        return _each(f, x) if isinstance(x, np.ndarray) else f(x)

    elementary.__name__ = elementary.__qualname__ = f.__name__
    return elementary


sqrt = _elementary(math.sqrt, _sqrt_series)
exp = _elementary(math.exp, _exp_series)
log = _elementary(math.log, _log_series)
sin = _elementary(math.sin, _sin_series)
cos = _elementary(math.cos, _cos_series)
sinh = _elementary(math.sinh, _sinh_series)
cosh = _elementary(math.cosh, _cosh_series)


# -- seeding and reading -------------------------------------------------

def variables(values, order, groups=None, group_orders=None, jacobian=None):
    """Seed one generator per entry of ``values``.

    Returns ``(ctx, jets)`` with ``jets[i] = values[i] + eps_i``.  A 2-D
    array of shape ``(B, nvars)`` seeds B lanes, one per row.  A
    ``jacobian`` of shape ``(nvars, nvars)``, or ``(B, nvars, nvars)``
    for B lanes, gives the seeds a first-order dependence on each other:
    ``jets[m]`` gains ``jacobian[..., i, m] * eps_i`` for every (i, m)
    that is non-zero in some lane, and its support gains the group of
    generator i.

    The seeds are the rows of one copy of the context's template
    (`_Context.seeds`), whose value column takes ``values`` in one store.
    """
    batch = isinstance(values, np.ndarray) and values.ndim == 2
    if batch:
        lanes = len(values)
        values = values.astype(float).T
    else:
        values = [float(v) for v in values]
    if groups is not None:
        groups = tuple(groups)
        group_orders = tuple(group_orders)
    ctx = _context(len(values), order, groups, group_orders)
    if batch:
        ctx = ctx.batched(lanes)
    c = ctx.seeds()
    c[:, 0] = values
    masks = [1 << g for g in ctx.groups]
    if jacobian is not None:
        nonzero = jacobian != 0.0
        if nonzero.ndim == 3:
            nonzero = nonzero.any(axis=0)   # in any lane of a stacked J
        for i, m in zip(*np.nonzero(nonzero)):
            c[m, ctx.var_index(i)] += jacobian[..., i, m]
            masks[m] |= 1 << ctx.groups[i]
    return ctx, [Jet(ctx, c[j], masks[j]) for j in range(len(masks))]


def derivative_tensor(w, slots, order):
    """All ``order``-th partials of ``w`` along the generators ``slots``.

    Returns T of shape ``(len(slots),) * order`` with
    ``T[a, b, ...] = d^order w / d eps_slots[a] d eps_slots[b] ...``.
    A batched ``w`` gives T a leading batch axis, one row per lane, laid
    out C-contiguous like an unbatched T, so that numpy reduces each lane
    in the order it reduces an unbatched T; its rows of lanes are
    gathered with ``take``, as a batched product gathers them.  Partials
    the context truncates read as zero, and so does every partial of a
    plain number.
    """
    slots = tuple(slots)
    shape = (len(slots),) * order
    if not isinstance(w, Jet):
        return np.zeros(shape)
    idx, scale = w.ctx.gather(slots, order)
    if w.ctx.lanes is None:
        return (w.c[idx] * scale).reshape(shape)
    T = w.c.take(idx, 0) * scale[:, None]
    return np.ascontiguousarray(T.T).reshape(w.c.shape[1:] + shape)


def _call(L, x, v):
    """Evaluate a Lagrangian-like callable, wrapping arithmetic failures;
    a batched result fails if any lane does.  Where x or v holds jets or
    plain lanes, division by zero and invalid operations raise, as
    ``x / 0.0`` and ``math.sqrt(-1)`` do on floats, while overflow and
    underflow pass silently, as ``x * y`` does on floats: an infinite
    value then fails the finiteness test, while an infinite higher
    coefficient of a finite value passes, also where a product meets it
    with a structural zero, a pair the product skips.  Over no lanes it
    evaluates nothing and returns an empty result."""
    arrays = isinstance(x[0], (np.ndarray, Jet)) or isinstance(
        v[0], (np.ndarray, Jet))
    if arrays and not np.size(getattr(v[0], "c", v[0])):
        return v[0] * 0.0
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


def in_blocks(kernel, *arrays):
    """``kernel(*blocks)`` over the rows of ``arrays`` in lane blocks of
    `LANE_BLOCK`, concatenated; a kernel that returns a tuple of arrays
    has each of them concatenated.  The kernel takes a block of rows or
    a single row: a block of one row runs as that row, at the cost of a
    scalar evaluation, and its outputs, floats too, gain a lane axis of
    one.  An empty set is one block of no lanes, which `_call` evaluates
    to empty results.

    A block fails as a whole, with a `FinslerError`, a ``LinAlgError``
    or a warning turned into an error (by a model's own numpy arithmetic,
    outside `_call`).  The kernel then runs on each row of the block in
    turn, and the first row that fails raises its error, with its point
    (its entry of ``arrays[0]``) named where the set holds more than one
    point and the error, not a warning, does not name it already; if no
    row fails by itself, the block's error.  A kernel that gates each
    block thus fails as a loop over the rows does.
    """
    out = []
    for lo in range(0, max(len(arrays[0]), 1), LANE_BLOCK):
        block = [a[lo:lo + LANE_BLOCK] for a in arrays]
        if len(block[0]) == 1:
            res = _row(kernel, [a[0] for a in block], arrays[0])
            out.append(tuple(np.asanyarray(r)[None] for r in res)
                       if isinstance(res, tuple) else np.asanyarray(res)[None])
            continue
        try:
            out.append(kernel(*block))
        except (FinslerError, np.linalg.LinAlgError, RuntimeWarning):
            for row in zip(*block):
                _row(kernel, row, arrays[0])
            raise
    if len(out) == 1:
        return out[0]
    if isinstance(out[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*out))
    return np.concatenate(out)


def _row(kernel, row, points):
    """``kernel`` on one row, with the row's point named in its error
    where ``points`` holds more than one point and the error does not
    name it already."""
    try:
        return kernel(*row)
    except (FinslerError, np.linalg.LinAlgError) as e:
        where = "x=%r" % ([float(t) for t in row[0]],)
        if not np.any(points != points[:1]) or where in str(e):
            raise
        raise type(e)("at %s: %s" % (where, e)) from e
