"""The deterministic serializers of `finsler.report`, and the rows
`Report.add_samples` writes for a point set."""

import json
import random

import numpy as np

from finsler.report import Report, _json_escape, csv_text, fmt_float


def test_csv_row_template_prints_every_float_as_fmt_float():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
               -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               1.0, -1.0, 0.1]
    vals = np.concatenate([bits.view(np.float64), special])
    rows = vals[: len(vals) // 9 * 9].reshape(-1, 9)
    rows = np.vstack([rows, np.resize(vals[-len(special):], (2, 9))])
    header = ["c%d" % k for k in range(9)]
    want = "\n".join([",".join(header)] + [
        ",".join(fmt_float(a) for a in row) for row in rows]) + "\n"
    assert csv_text(header, rows) == want


def test_csv_text_takes_an_iterable_of_rows():
    rows = [np.array([0.5, 1.0]), np.array([np.inf, -0.0])]
    assert csv_text(["a", "b"], iter(rows)) == "a,b\n0.5,1\ninf,-0\n"
    assert csv_text(["a", "b"], []) == "a,b\n"


def test_json_escape_of_quote_backslash_and_control_characters():
    assert _json_escape('say "a\\b"') == 'say \\"a\\\\b\\"'
    for code in range(0x20):
        assert _json_escape(chr(code)) == "\\u%04x" % code
    # DEL and everything above U+001F but the quote and backslash pass
    kept = "\x7f é ∇ \u024f ~ /"
    assert _json_escape(kept) == kept


def test_json_escape_round_trips_through_json_loads():
    rng = random.Random(11)
    for _ in range(2000):
        s = "".join(chr(rng.randrange(0x250))
                    for _ in range(rng.randrange(12)))
        assert json.loads('"%s"' % _json_escape(s)) == s


def rows(rep):
    return [(c.name, c.residual, c.tol, c.passed) for c in rep.checks]


def test_add_samples_writes_each_sample_before_the_next():
    rep = Report(title="t")
    rep.add_samples(["a", "b"], [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], 1.0)
    assert [c.name for c in rep.checks] == [
        "sample 0: a", "sample 0: b", "sample 1: a", "sample 1: b",
        "sample 2: a", "sample 2: b"]
    assert [c.residual for c in rep.checks] == [0.1, 0.2, 0.3, 0.4, 0.5,
                                                0.6]


def test_add_samples_broadcasts_its_tolerances():
    res = np.array([[1.0, 2.0], [3.0, 4.0]])
    scalar, per_check, per_sample = (Report(title="t") for _ in range(3))
    scalar.add_samples(["a", "b"], res, 2.5)
    per_check.add_samples(["a", "b"], res, [0.5, 4.0])
    per_sample.add_samples(["a", "b"], res, np.array([[2.0], [3.5]]))
    assert [c.tol for c in scalar.checks] == [2.5] * 4
    assert [c.passed for c in scalar.checks] == [True, True, False, False]
    assert [c.tol for c in per_check.checks] == [0.5, 4.0, 0.5, 4.0]
    assert [c.passed for c in per_check.checks] == [False, True, False,
                                                    True]
    assert [c.tol for c in per_sample.checks] == [2.0, 2.0, 3.5, 3.5]
    assert [c.passed for c in per_sample.checks] == [True, True, True,
                                                     False]


def test_add_samples_of_an_empty_set_writes_no_rows():
    rep = Report(title="t")
    rep.add_samples(["a", "b"], np.zeros((0, 2)), [1.0, 2.0])
    rep.add_samples(["a"], [], 1.0)
    assert rep.checks == [] and rep.passed


def test_add_samples_fails_a_nan_residual():
    rep = Report(title="t")
    rep.add_samples(["a"], [[0.0], [np.nan]], np.inf)
    assert rows(rep)[0] == ("sample 0: a", 0.0, np.inf, True)
    name, res, tol, passed = rows(rep)[1]
    assert (name, res != res, passed) == ("sample 1: a", True, False)
    assert not rep.passed


def test_add_samples_keeps_each_residual_as_given():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300,
                                                              (7, 3))
    vals[0] = [5e-324, -0.0, 1.7976931348623157e308]
    rep = Report(title="t")
    rep.add_samples(["a", "b", "c"], vals, 1.0)
    assert all(type(c.residual) is float for c in rep.checks)
    got = np.array([c.residual for c in rep.checks]).reshape(vals.shape)
    assert got.tobytes() == vals.tobytes()
