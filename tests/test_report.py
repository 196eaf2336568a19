"""The deterministic serializers of `finsler.report`."""

import json
import random

import numpy as np

from finsler.report import _json_escape, csv_text, fmt_float


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
