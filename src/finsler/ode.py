"""Integrator and root finder on numpy only.

`dop853` integrates y' = f(t, y) with the explicit Runge-Kutta pair of
Dormand and Prince of order 8(5,3), its step-size controller and its
7th-order dense output (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., Sec. II.5 and II.10).  It repeats
scipy's ``solve_ivp(method="DOP853")`` operation for operation: the
initial step, the error norm, the controller, the dense output and the
location of a terminal event, so its states are scipy's bit for bit, and
its dense solution at scipy's output times is scipy's samples.  It is one
loop over accepted steps, and each step keeps its own stages: a step's
interpolant, with its three extra stages, is built the first time it is
read, so a run whose steps are not read calls ``fun`` as often as scipy
without dense output.  Two differences are deliberate: below 100
machine epsilons, where scipy raises the tolerance with a warning, it
stops before the first step, and it stops after `_MAX_STEPS` accepted
steps.

`brent` is Brent's bracketing root finder (*Algorithms for Minimization
without Derivatives*, 1973, ch. 4), iterate for iterate scipy's
``brentq`` with its ``xtol`` and its default ``rtol`` and ``maxiter``.

`_gauss_step` is the propagator of a linear equation Y' = -W(t) Y over
one step: 4-stage Gauss-Legendre collocation (order 8), batched over
lanes, from W at the step's 4 Gauss nodes `_GL_C`.  The Penrose
O-equation takes it per panel and the quotient holonomy per loop piece.

`dop853` (with the ``fun`` and ``event`` it calls, unless they set their
own error state, as `jets._call` does) and its dense solution run under
``np.errstate(all="ignore")``: overflow and NaN pass without a warning,
with the same values, and a non-finite error estimate rejects the step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

__all__ = ["OdeResult", "dop853", "brent"]

EPS = np.finfo(float).eps

# -- the Dormand-Prince 8(5,3) tableau -------------------------------------------
# Rows 0-11 of A and C are the stages of a step and row 12 is B; rows
# 13-15 are the extra stages of the dense output.

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778])

_A = np.zeros((16, 16))
_A[1, [0]] = [5.26001519587677318785587544488e-2]
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2,
                 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]

_B = _A[12, :12]

# the 5th- and 3rd-order error estimators, over the 12 stages and f(t + h)
_E3 = np.zeros(13)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]

# the dense output's coefficients of order 4-7 over all 16 stages
_D = np.zeros((4, 16))
_D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2,
     -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3]]

_A_STEP, _C_STEP = _A[:12, :12], _C[:12]
_A_EXTRA, _C_EXTRA = _A[13:], _C[13:]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
# the error estimate is of order 7
_ERROR_EXPONENT = -1 / 8


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, tol):
    """The first step size of Hairer, Norsett & Wanner, Sec. II.4."""
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _rk_stages(fun, t, y, f, h, K):
    """The stages of a step of size h from (t, y), with f = fun(t, y):
    the 12 stages into K[:12] and f at the step's end into K[12].
    Returns the new state."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_A_STEP[1:], _C_STEP[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:12].T, _B)
    K[12] = fun(t + h, y_new)
    return y_new


def _error_norm(K, h, scale):
    """The error norm of a step of size h whose stages are K[:13]."""
    err5 = np.dot(K[:13].T, _E5) / scale
    err3 = np.dot(K[:13].T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


class _Step:
    """One accepted step from (t_old, y_old) to (t, y) and its 7th-order
    interpolant, at a float or a 1-D array of times (rows).

    The step owns its (16, n) stage array ``K``, rows 0-12 filled.  Its
    first evaluation runs the three extra stages into rows 13-15 and
    builds the seven coefficients, then lets the stages and ``fun`` go:
    a step that is never read costs no evaluation."""

    def __init__(self, fun, t_old, t, y_old, y, K):
        self.fun = fun
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.y = y
        self.K = K
        self.F = None

    def _build(self):
        K, h, t_old, y_old = self.K, self.h, self.t_old, self.y_old
        for s, (a, c) in enumerate(zip(_A_EXTRA, _C_EXTRA), start=13):
            dy = np.dot(K[:s].T, a[:s]) * h
            K[s] = self.fun(t_old + c * h, y_old + dy)
        F = np.empty((7, len(y_old)))
        f_old = K[0]
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (K[12] + f_old)
        F[3:] = h * np.dot(_D, K)
        self.F = F
        self.fun = self.y = self.K = None

    @np.errstate(all="ignore")
    def __call__(self, t):
        if self.F is None:
            self._build()
        x = (np.asarray(t) - self.t_old) / self.h
        if x.ndim:
            x = x[:, None]
        y = np.zeros(x.shape[:1] + self.y_old.shape)
        for i, f in enumerate(reversed(self.F)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old
        return y


def _piecewise(ts, steps):
    """The dense solution over the step ends ``ts``, at a float or a 1-D
    array of times (rows): at an end shared by two steps the earlier step
    answers.  An array is evaluated one step at a time, with that step's
    times as one array, so each row is bitwise the row's time alone."""
    ts = np.asarray(ts)
    ascending = ts[-1] >= ts[0]
    ts_sorted = ts if ascending else ts[::-1]
    side = "left" if ascending else "right"
    last = len(steps) - 1

    def index(t):
        k = np.clip(np.searchsorted(ts_sorted, t, side=side) - 1, 0, last)
        return k if ascending else last - k

    def sol(t):
        if np.ndim(t) == 0:
            return steps[index(t)](t)
        t = np.asarray(t, dtype=float)
        if t.size == 0:
            return steps[0](t)
        # group the times by step, keeping their order within a step
        k = index(t)
        order = np.argsort(k, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(k[order])) + 1)
        y = np.concatenate([steps[k[g[0]]](t[g]) for g in groups])
        y[order] = y.copy()
        return y

    return sol


@dataclass
class OdeResult:
    """What `dop853` returns.

    ``t`` holds t0 and every step end, the last one the event's location
    if it fired, and ``y`` their states, one row each.  ``sol(t)`` is the
    dense state anywhere in the integrated range, at a float or a 1-D
    array of times, and None where no step was taken; a step's interpolant
    is built the first time ``sol`` reads it.  ``status`` is 0 at the end
    of the span, 1 where the event fired, -1 where the integration failed
    and -2 where it ran out of its `_MAX_STEPS` steps, for the reason
    ``message`` gives.
    """

    t: np.ndarray
    y: np.ndarray
    status: int
    message: str
    sol: object = None

    @property
    def success(self):
        return self.status >= 0


# the work budget of one `dop853` integration, in accepted steps
_MAX_STEPS = 1000


@np.errstate(all="ignore")
def dop853(fun, t_span, y0, tol, event=None):
    """Integrate y' = fun(t, y) over ``t_span`` at rtol = atol = ``tol``;
    ``fun`` returns a float array.

    The result carries every step end and the dense solution, one 7th-order
    interpolant per step, which costs its three extra evaluations of
    ``fun`` only when it is first read.  The integration stops where the
    scalar ``event(t, y)`` reaches or crosses zero; its root is located by
    `brent` on the dense output of the step to 4 machine epsilons.  A
    ``tol`` below 100 machine epsilons fails before the first step.  An
    integration that has taken `_MAX_STEPS` steps short of its end fails
    with status -2 and a message that names the budget and the t reached;
    its result keeps the steps taken.  A span of length 0 is one constant
    step.
    """
    t0, tf = map(float, t_span)
    t, y = t0, np.asarray(y0, dtype=float)
    ts, ys, steps = [t], [y], []
    if not tol >= 100 * EPS:
        return OdeResult(np.array(ts), np.array(ys), -1,
                         "tolerance %g is below 100 machine epsilons" % tol)
    direction = np.sign(tf - t0) if tf != t0 else 1
    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, tf, f, direction, tol)
    if event is not None:
        g = event(t0, y)

    status, message = None, ""
    while status is None:
        if len(steps) == _MAX_STEPS:
            status = -2
            message = ("the integrator's budget of %d steps ran out at t=%r"
                       % (_MAX_STEPS, float(t)))
            break
        t_old, y_old = t, y
        if t == tf:
            # a span of length 0: one constant step, as in scipy
            def step(s, y=y):
                return np.tile(y, (np.size(s), 1)) if np.ndim(s) else y
            status = 0
        else:
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            # the step's own stages, which its rejected attempts overwrite
            K = np.empty((16, len(y)))
            rejected = False
            while not h_abs < min_step:
                t = t_old + h_abs * direction
                if direction * (t - tf) > 0:
                    t = tf
                h = t - t_old
                h_abs = np.abs(h)
                y = _rk_stages(fun, t_old, y_old, f, h, K)
                scale = tol + np.maximum(np.abs(y_old), np.abs(y)) * tol
                error_norm = _error_norm(K, h, scale)
                if error_norm < 1:
                    break
                h_abs *= max(_MIN_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            else:
                status = -1
                message = "the step size fell below the spacing of floats"
                break
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            h_abs *= factor
            f = K[12]
            step = _Step(fun, t_old, t, y_old, y, K)
            status = 0 if direction * (t - tf) >= 0 else None
        if event is not None:
            g_new = event(t, y)
            if g <= 0 <= g_new or g_new <= 0 <= g:
                t = brent(lambda s: event(s, step(s)), t_old, t, 4 * EPS)
                y = step(t)
                status = 1
            g = g_new
        ts.append(t)
        ys.append(y)
        steps.append(step)

    return OdeResult(np.array(ts), np.array(ys), status, message,
                     _piecewise(ts, steps) if steps else None)


# brentq's defaults: the relative part of the tolerance and the
# iteration limit of `brent`
_BRENT_RTOL = 4 * EPS
_BRENT_MAXITER = 100


def brent(f, a, b, xtol):
    """A root of ``f`` between a and b, where f changes sign, to within
    xtol + 4 eps |root|.

    Raises `SolverError` if f(a) and f(b) have the same sign, if f
    returns NaN, or if 100 iterations do not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise SolverError("the root finder's function is NaN at x=%r"
                              % x)
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolverError("no sign change of f between %r and %r"
                          % (xpre, xcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic; a zero denominator means bisection
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SolverError("the root finder did not converge in %d iterations"
                      % _BRENT_MAXITER)


# -- Gauss-Legendre collocation for linear equations ------------------------------
# 4-stage Gauss-Legendre collocation (order 8): nodes c, weights b and
# the collocation matrix a (a c^(k-1) = c^k / k for k = 1..4), whose rows
# integrate the Lagrange basis on c
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_GL_C = 0.5 * (_GL_X + 1.0)
_GL_B = 0.5 * _GL_W
_GL_A = np.linalg.solve(
    np.vander(_GL_C, 4, increasing=True).T,
    (_GL_C[:, None] ** np.arange(1, 5) / np.arange(1, 5)).T).T


def _gauss_step(w, step):
    """Propagators of the linear equation Y' = -W Y from the identity over
    ``step``: one Gauss collocation step per lane, from W at its nodes
    t0 + c_i step, shape (B, 4, m, m), and ``step`` of shape (B,).

    The stage values Y_i = I - step sum_j a_ij W_j Y_j are one
    (4m) x (4m) linear solve, and Phi = I - step sum_i b_i W_i Y_i.  A
    skew W gives an orthogonal Phi to roundoff.
    """
    lanes, s, m, _ = w.shape
    blocks = (step[:, None, None, None, None] * _GL_A[:, :, None, None]
              * w[:, None])
    lhs = (blocks.transpose(0, 1, 3, 2, 4).reshape(lanes, s * m, s * m)
           + np.eye(s * m))
    y = np.linalg.solve(lhs, np.broadcast_to(np.tile(np.eye(m), (s, 1)),
                                             (lanes, s * m, m)))
    kick = (_GL_B[:, None, None] * (w @ y.reshape(lanes, s, m, m))).sum(1)
    return np.eye(m) - step[:, None, None] * kick
