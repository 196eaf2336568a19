"""Static hygiene: no module imports a name it never uses, the runtime
imports no scipy, and only `finsler.jets` writes jet coefficients.

No linter is a declared dependency, so these stdlib-`ast` scans are the
repository's lint.  Package ``__init__.py`` files re-export by import and
are exempt from the first; a name listed in a module's ``__all__`` counts
as used.  scipy is a test dependency only: no module under
``src/finsler`` may import it, at any depth.  A jet's support mask must
cover every non-zero coefficient, so no module but ``jets.py`` may store
into a ``.c`` attribute or an item of one (``self.c`` set on an object
of the module's own class aside).
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


def coefficient_writes(source):
    """Lines of ``source`` that store into ``<expr>.c`` or an item of it,
    augmented stores included; ``self.c = ...`` is an object setting its
    own attribute and passes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                item = isinstance(t, ast.Subscript)
                while isinstance(t, ast.Subscript):
                    t = t.value
                if (isinstance(t, ast.Attribute) and t.attr == "c"
                        and (item or not (isinstance(t.value, ast.Name)
                                          and t.value.id == "self"))):
                    found.append(node.lineno)
    return sorted(set(found))


def test_scanner_flags_coefficient_writes():
    src = ("w.c[0] += 1.0\nseeds[2].c[k, 1] = 0.5\nself.c = c\n"
           "a, w.c = 1, 2\nself.c[0] = 1.0\nx = w.c[0]\nw.coef[0] = 1\n"
           "w.c = c\n")
    assert coefficient_writes(src) == [1, 2, 4, 5, 8]


def test_only_jets_writes_jet_coefficients():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in RUNTIME if path.name != "jets.py"
             for line in coefficient_writes(path.read_text(encoding="utf-8"))]
    assert not found, "jet coefficients written at " + ", ".join(found)
