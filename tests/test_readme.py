"""The Python examples of README.md run, and give what their comments say.

    python tests/test_readme.py

runs them without pytest, as the runtime-only CI job does; pytest
collects the same test.
"""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks():
    """The fenced ```python blocks of README.md, in order."""
    return re.findall(r"^```python\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_examples_run():
    blocks = readme_blocks()
    assert len(blocks) == 3
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), scope)
    assert scope["report"].passed is True
    assert out.getvalue() == "True\n"
    roots = scope["curve"].roots
    assert len(roots) == 1 and abs(roots[0] - math.pi / 2) <= 1e-8


if __name__ == "__main__":
    test_readme_examples_run()
    print("README examples: ok")
