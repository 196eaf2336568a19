"""Static hygiene: no module imports a name it never uses.

No linter is a declared dependency, so this stdlib-`ast` scan is the
repository's lint.  Package ``__init__.py`` files re-export by import and
are exempt; a name listed in a module's ``__all__`` counts as used.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "finsler").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by import statements in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_unused_and_keeps_used():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
           "__all__ = ['d']\nnp.zeros(1)\n")
    assert unused_imports(src) == [(1, "os"), (3, "c")]


def test_no_unused_imports():
    found = []
    for path in SCANNED:
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    assert not found, "unused imports: " + ", ".join(found)
