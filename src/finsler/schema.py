"""Config schema: tables of typed keys, and the one parser that checks a
JSON object against a table.

A table maps each key to ``(kind, default, *constraint)``.  A default of
``...`` marks a required key, and None an optional key that stays None
when absent; a callable default ``default(dim, got)`` depends on the
model's dimension or on the keys parsed before it.  A kind
``kind(val, path, dim, *constraint)`` checks one value, names its full
path in errors, and returns it converted.  Unknown keys fail at every
level.
"""

import math
import sys

import numpy as np

from .errors import ConfigError

# the largest count a table takes: memory grows linearly in a count, and
# at this bound penrose (n_csv) peaks near 212 MB
MAX_COUNT = 10_000


def require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def parse(table, raw, path, dim=None):
    """The typed values of the object ``raw`` checked against ``table``;
    ``path`` names the object in errors, "" the config root."""
    where = path or "config"
    require(isinstance(raw, dict), "%s must be an object" % where)
    extra = sorted(set(raw) - set(table))
    require(not extra, "unknown %s keys: %s" % (where, ", ".join(extra)))
    got = {}
    for key, (kind, default, *constraint) in table.items():
        sub = "%s.%s" % (path, key) if path else key
        if key in raw:
            val = raw[key]
        else:
            val = default(dim, got) if callable(default) else default
        require(val is not ..., "%s is required" % sub)
        got[key] = (None if val is None and key not in raw
                    else kind(val, sub, dim, *constraint))
    return got


def _finite(val):
    """True for a JSON number (int or float, not bool) with a finite float
    value; huge ints and the NaN/Infinity literals are rejected."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def count(val, path, dim, least=1, most=MAX_COUNT):
    """An integer (not a bool) in [least, most]."""
    require(isinstance(val, int) and not isinstance(val, bool)
            and least <= val <= most,
            "%s must be an integer in [%d, %s]" % (path, least, most))
    return val


def number(val, path, dim):
    """A finite number, as a float."""
    require(_finite(val), "%s must be a finite number" % path)
    return float(val)


def positive(val, path, dim, least=0.0, most=math.inf):
    """A finite number > 0 in [least, most], as a float."""
    require(_finite(val) and 0 < val and least <= val <= most,
            "%s must be a positive number in [%.3g, %.3g]"
            % (path, least, most))
    return float(val)


def string(val, path, dim, choices=None):
    """A non-empty string, one of ``choices`` when they are given."""
    require(isinstance(val, str) and val
            and (choices is None or val in choices),
            "%s must be %s" % (path, "a non-empty string" if choices is None
                               else "one of " + "|".join(choices)))
    return val


def obj(val, path, dim, table=None):
    """An object, or the typed values of one checked against ``table``."""
    if table is not None:
        return parse(table, val, path, dim)
    require(isinstance(val, dict), "%s must be an object" % path)
    return val


def value(val, path, dim):
    """Any JSON value, as given."""
    return val


def vector(val, path, dim):
    """dim finite numbers, as a float array."""
    require(isinstance(val, list) and len(val) == dim
            and all(_finite(t) for t in val),
            "%s must be a number list of length %d" % (path, dim))
    return np.asarray(val, dtype=float)


def interval(val, path, dim):
    """[lo, hi] with finite lo < hi, as a float pair."""
    require(isinstance(val, list) and len(val) == 2
            and all(_finite(t) for t in val) and val[0] < val[1],
            "%s must be [lo, hi] with lo < hi" % path)
    return float(val[0]), float(val[1])


def axes(val, path, dim):
    """Two distinct axis indices, as a pair."""
    require(isinstance(val, list) and len(val) == 2 and val[0] != val[1]
            and all(isinstance(i, int) and not isinstance(i, bool)
                    and 0 <= i < dim for i in val),
            "%s must be two distinct axis indices below %d" % (path, dim))
    return val[0], val[1]


def listof(val, path, dim, size, exact, kind, *constraint):
    """``size`` values of one kind, or at least ``size`` unless ``exact``,
    as a tuple."""
    require(isinstance(val, list) and len(val) >= size
            and (len(val) == size or not exact),
            "%s must list %s%d %s values" % (
                path, "" if exact else "at least ", size, kind.__name__))
    return tuple(kind(v, "%s[%d]" % (path, k), dim, *constraint)
                 for k, v in enumerate(val))
