"""Check/Report containers and deterministic serialization.

All verification operations return a `Report`: a list of named checks with a
residual, a tolerance and a pass flag.  A check over a point set gives one
report, whose rows `Report.add_samples` writes sample by sample from a
residual table, each named "sample k: <check>".  Each row is written
once, by the code that computes its residual, at the tolerance it is
checked against: no caller reads rows back to reduce them or to reset
their tolerances.  Serialization is deterministic byte-for-byte for a
fixed input: floats are printed with 17 significant digits (round-trip
exact), keys keep insertion order, no timestamps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return format(float(x), ".17g")


def csv_text(header, rows) -> str:
    """CSV text: the header line, then one line a row, one cell a header
    column.  Each row is formatted by one ``%.17g`` template, which
    prints every float, nan and the infinities included, as `fmt_float`
    does."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float)
    template = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [template % tuple(row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


# what a JSON string escapes: the quote, the backslash and the control
# characters below U+0020, each as \u00XX
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\",
                 **{chr(i): "\\u%04x" % i for i in range(0x20)}}
_JSON_SPECIAL = re.compile(r'["\\\x00-\x1f]')


def _json_escape(s: str) -> str:
    return _JSON_SPECIAL.sub(lambda m: _JSON_ESCAPES[m.group()], s)


def dump_json(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data to JSON deterministically.

    Unlike ``json.dumps`` this prints every float with 17 significant digits.
    Non-finite floats become null (JSON has no representation for them).
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            items.append('%s  "%s": %s' % (pad, _json_escape(str(k)), dump_json(v, indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [pad + "  " + dump_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return "null"
        return fmt_float(obj)
    if isinstance(obj, str):
        return '"' + _json_escape(obj) + '"'
    # numpy scalars and anything float-like
    try:
        return dump_json(float(obj), indent)
    except (TypeError, ValueError):
        return '"' + _json_escape(str(obj)) + '"'


@dataclass
class Check:
    """A single named verification: it passes when residual <= tol."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }


@dataclass
class Report:
    """A titled list of checks plus free-form metadata."""

    title: str
    checks: list[Check] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float) -> Check:
        """Append and return the check of ``residual`` against ``tol``."""
        c = Check(name, float(residual), float(tol))
        self.checks.append(c)
        return c

    def add_samples(self, names, residuals, tols) -> None:
        """Append the checks of a point set, sample by sample: row
        "sample k: <names[j]>" holds ``residuals[k, j]`` against
        ``tols[k, j]``, where ``tols`` broadcasts against the
        (samples, checks) table of ``residuals``.  A single point is
        sample 0."""
        res = np.reshape(np.asarray(residuals, dtype=float),
                         (-1, len(names)))
        tols = np.broadcast_to(np.asarray(tols, dtype=float), res.shape)
        for k, (row, trow) in enumerate(zip(res.tolist(), tols.tolist())):
            for name, r, t in zip(names, row, trow):
                self.add("sample %d: %s" % (k, name), r, t)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        d = {"report": self.title, "pass": self.passed}
        if self.meta:
            d["meta"] = dict(self.meta)
        d["checks"] = [c.to_dict() for c in self.checks]
        return d

    def to_json(self) -> str:
        return dump_json(self.to_dict()) + "\n"
