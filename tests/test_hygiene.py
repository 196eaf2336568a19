"""Static hygiene: no module imports a name it never uses, and the
runtime imports no scipy.

No linter is a declared dependency, so these stdlib-`ast` scans are the
repository's lint.  Package ``__init__.py`` files re-export by import and
are exempt from the first; a name listed in a module's ``__all__`` counts
as used.  scipy is a test dependency only: no module under
``src/finsler`` may import it, at any depth.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNTIME = sorted((ROOT / "src" / "finsler").glob("*.py"))
SCANNED = RUNTIME + sorted((ROOT / "tests").glob("*.py"))


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


def scipy_imports(source):
    """Lines of ``source`` that import scipy, function-local ones too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.append(node.lineno)
    return sorted(found)


def test_scanner_flags_scipy_imports_at_any_depth():
    src = ("import numpy\nfrom scipy.optimize import brentq\n"
           "from .scipy import x\nimport os, scipy.linalg as sl\n"
           "def f():\n    import scipy\n    from scipy import integrate\n")
    assert scipy_imports(src) == [2, 4, 6, 7]


def test_runtime_imports_no_scipy():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in RUNTIME
             for line in scipy_imports(path.read_text(encoding="utf-8"))]
    assert not found, "scipy imported at " + ", ".join(found)
