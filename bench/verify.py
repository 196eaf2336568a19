"""Run one op through ``finsler.cli.main`` in process and verify it.

An op fails on a non-zero exit, an exception out of ``main``, a report
whose ``pass`` or any check's ``pass`` is false, a broken closed-form
oracle, or (for a determinism repeat) report or CSV bytes that differ
from the first run of the same config.
"""

import contextlib
import io
import json
import os

FOCAL_ROOT_TOL = 1e-8
A_MID_TOL = 1e-6


class Outcome:
    """What one op produced, and why it failed (``error`` is None if not)."""

    __slots__ = ("report", "csv", "error")

    def __init__(self, report=b"", csv=b"", error=None):
        self.report = report
        self.csv = csv
        self.error = error


def check_report(report, oracle):
    """Return a failure reason for a parsed report, or None."""
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if report.get("pass") is not True:
        return "report pass is false"
    bad = [c.get("check") for c in report.get("checks", [])
           if c.get("pass") is not True]
    if bad:
        return "failed checks: %s" % ", ".join(map(str, bad))
    meta = report.get("meta", {})
    if "roots" in oracle:
        want = oracle["roots"]
        got = meta.get("roots")
        if (not isinstance(got, list) or len(got) != len(want)
                or any(abs(a - b) > FOCAL_ROOT_TOL
                       for a, b in zip(got, want))):
            return "focal roots %r differ from %r" % (got, want)
    if "A_mid" in oracle:
        got = meta.get("A_mid")
        want = oracle["A_mid"]
        if (not isinstance(got, list) or len(got) != len(want)
                or max(abs(a - b) for ra, rb in zip(got, want)
                       for a, b in zip(ra, rb)) > A_MID_TOL):
            return "A_mid %r differs from %r" % (got, want)
    return None


def execute(main, op, config_path, out_path):
    """Call ``main`` on a written config and verify what it produced."""
    stdout = io.StringIO()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([op.command, "--config", config_path,
                         "--out", out_path])
    except Exception as e:  # a traceback out of main is a failed op
        return Outcome(error="%s: %s" % (type(e).__name__, e))
    if code != 0:
        tail = stderr.getvalue().strip().splitlines()[-1:]
        return Outcome(error="exit %s %s" % (code, " ".join(tail)))
    try:
        with open(out_path, "rb") as fp:
            written = fp.read()
        os.remove(out_path)
    except OSError as e:
        return Outcome(error="no output at --out: %s" % e)
    if out_path.endswith(".csv"):
        text, csv = stdout.getvalue().encode("utf-8"), written
    else:
        text, csv = written, b""
    try:
        report = json.loads(text)
    except ValueError as e:
        return Outcome(text, csv, "report is not JSON: %s" % e)
    return Outcome(text, csv, check_report(report, op.oracle))
