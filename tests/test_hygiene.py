"""Static hygiene: no module imports a name it never uses, the runtime
imports no scipy, and only `finsler.jets` writes jet coefficients.

No linter is a declared dependency, so these stdlib-`ast` scans are the
repository's lint.  Package ``__init__.py`` files re-export by import and
are exempt from the first; a name listed in a module's ``__all__`` counts
as used.  scipy is a test dependency only: no module under
``src/finsler`` may import it, at any depth.  A jet's support mask must
cover every non-zero coefficient, so no module but ``jets.py`` may store
into a ``.c`` attribute or an item of one (``self.c`` set on an object
of the module's own class aside).  Every module-level private name of
``src/finsler`` (a function, class or constant whose name starts with
one underscore) must be read somewhere in ``src``, ``tests`` or
``bench``: as a loaded name or attribute, or by an import; a docstring
mention is no read.  Reads are matched by name, not by module.  The
row name of a point set's check, "sample k: <check>", is written by
`Report.add_samples` alone: no module of ``src/finsler`` but
``report.py`` holds a string that starts a ``sample %d`` row, as a
literal, a ``%`` template or an f-string.  A report's rows are written
once and never read back: no module of ``src/finsler`` but
``report.py`` uses a ``checks`` or ``max_residual`` attribute.  The
command line prints the library's public reports: ``cli.py``
from-imports no underscore-prefixed name from a ``finsler`` module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNTIME = sorted((ROOT / "src" / "finsler").glob("*.py"))
SCANNED = RUNTIME + sorted((ROOT / "tests").glob("*.py"))
READERS = [path for d in ("src", "tests", "bench")
           for path in sorted((ROOT / d).rglob("*.py"))]


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


def private_names(source):
    """Module-level functions, classes and constants of ``source`` whose
    names start with one underscore, with the line of each first one."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, node.lineno)
    return found


def names_read(source):
    """Names ``source`` reads: loaded names and attributes, and the names
    its import statements fetch."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name.split(".")[-1] for alias in node.names)
    return read


def test_scanner_flags_private_names_never_read():
    src = ('"""Mentions _doc."""\n'
           "def _called():\n    pass\n"
           "def _doc():\n    '''_doc names itself only here'''\n"
           "class _Attr:\n    pass\n"
           "_CONST, _STORED = 1, 2\n__version__ = '1'\n"
           "_called()\nobj._STORED = 3\nvalue = mod._Attr\n")
    other = "from pkg.mod import _CONST as c\n"
    read = names_read(src) | names_read(other)
    assert private_names(src) == {"_called": 2, "_doc": 4, "_Attr": 6,
                                  "_CONST": 8, "_STORED": 8}
    assert sorted(set(private_names(src)) - read) == ["_STORED", "_doc"]


def test_every_private_name_is_read():
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for path in READERS))
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in RUNTIME
             for name, line in private_names(
                 path.read_text(encoding="utf-8")).items()
             if name not in read]
    assert not found, "private names never read: " + ", ".join(found)


def sample_row_formats(source):
    """Lines of ``source`` with a string that starts a sample row: a
    literal or ``%`` template beginning "sample %", or an f-string or
    ``str.format`` template beginning "sample {"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            # each replacement field of an f-string reads as "{"
            text = "".join(v.value if isinstance(v, ast.Constant) else "{"
                           for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if text.startswith(("sample %", "sample {")):
            found.append(node.lineno)
    return sorted(set(found))


def test_scanner_flags_sample_row_formats():
    src = ('rep.add("sample %d: %s" % (k, name), r, t)\n'
           'rep.add(f"sample {k}: pair symmetry", r, t)\n'
           'rep.add("sample {}: x".format(k), r, t)\n'
           'label = "sample %2d"\n'
           '"""Rows read "sample k: <check>"."""\n'
           'rep.add("homothety at sample %d" % k, r, t)\n'
           'rep.add(f"{k} sample {k}", r, t)\n'
           'x = "samples: %d"\n')
    assert sample_row_formats(src) == [1, 2, 3, 4]


def test_only_report_writes_sample_rows():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in RUNTIME if path.name != "report.py"
             for line in sample_row_formats(path.read_text(encoding="utf-8"))]
    assert not found, "sample rows written at " + ", ".join(found)


def report_row_reads(source):
    """Lines of ``source`` that use a ``checks`` or ``max_residual``
    attribute, to read a report's rows back or to rewrite them."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("checks", "max_residual")})


def test_scanner_flags_report_row_reads():
    src = ("for c in rep.checks:\n    c.tol = tol\n"
           "worst = rep.max_residual('sample')\n"
           "rows = rep.to_dict()['checks']\n"
           "rep.add('checks', r, t)\n"
           "n = len(sub.checks) + len(other.checked)\n"
           "f = rep.max_residual\n")
    assert report_row_reads(src) == [1, 3, 6, 7]


def test_only_report_reads_report_rows():
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for path in RUNTIME if path.name != "report.py"
             for line in report_row_reads(path.read_text(encoding="utf-8"))]
    assert not found, "report rows read back at " + ", ".join(found)


def private_from_imports(source):
    """(line, name) of each underscore-prefixed name that ``source``
    from-imports from a ``finsler`` module, by a relative or an absolute
    import."""
    return sorted((node.lineno, alias.name)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0]
                       == "finsler")
                  for alias in node.names if alias.name.startswith("_"))


def test_scanner_flags_private_from_imports():
    src = ("from .curvature import _condition_report, chern_curvature\n"
           "from finsler.tensors import _homogeneity as h\n"
           "from . import jets\n"
           "from numpy import _core\n"
           "from .. import _private\n"
           "from __future__ import annotations\n"
           "jets._row(f, x, xs)\n")
    assert private_from_imports(src) == [(1, "_condition_report"),
                                         (2, "_homogeneity"),
                                         (5, "_private")]


def test_cli_imports_no_private_kernel():
    path = ROOT / "src" / "finsler" / "cli.py"
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for line, name in private_from_imports(
                 path.read_text(encoding="utf-8"))]
    assert not found, "private names imported at " + ", ".join(found)
