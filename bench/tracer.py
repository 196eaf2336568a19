"""Outside-in span tracer for the finsler layers.

`Tracer.install` wraps each traced function at every binding that holds
it, matched by identity: module attributes of every loaded ``finsler.*``
module (``curvature``, ``quotient``, ``ppwave`` and ``cli`` each import
``christoffel`` by name), class attributes of finsler classes and of the
subclasses that override them, and the public scipy module that exports
an entry point, so an import deferred into a function body is caught
too.  Nothing under ``src/`` is edited.  A binding that no longer exists
is reported as 0 calls.

Spans stay in memory (span id, parent id, op id, name, start, end) and
`Tracer.dump` writes them out once the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

import functools
import importlib
import sys
import time
from array import array

# span name -> (module, attribute paths); paths bound to one function
# object share one wrapper
SPANS = {
    "cli.main": ("finsler.cli", ("main",)),
    "report.to_json": ("finsler.report", ("Report.to_json",)),
    "lagrangian.from_descriptor": ("finsler.lagrangian",
                                   ("from_descriptor",)),
    "lagrangian.value": ("finsler.lagrangian", ("Lagrangian.value",)),
    "lagrangian.is_admissible": ("finsler.lagrangian",
                                 ("Lagrangian.is_admissible",)),
    "jets.mul": ("finsler.jets", ("Jet.__mul__", "Jet.__rmul__")),
    "tensors.fundamental_tensor": ("finsler.tensors",
                                   ("fundamental_tensor",)),
    "tensors.cartan_tensor": ("finsler.tensors", ("cartan_tensor",)),
    "tensors.homogeneity_report": ("finsler.tensors",
                                   ("homogeneity_report",)),
    "connection.christoffel": ("finsler.connection", ("christoffel",)),
    "connection.parallel_extension": ("finsler.connection",
                                      ("parallel_extension",)),
    "connection.connection_report": ("finsler.connection",
                                     ("connection_report",)),
    "connection.geodesic": ("finsler.connection", ("geodesic",)),
    "curvature.chern_curvature": ("finsler.curvature",
                                  ("chern_curvature",)),
    "curvature.ppwave_condition": ("finsler.curvature",
                                   ("ppwave_condition",)),
    "ppwave.parallel_criterion": ("finsler.ppwave", ("parallel_criterion",)),
    "ppwave.delta_scan": ("finsler.ppwave", ("delta_scan",)),
    "quotient.quotient_metric": ("finsler.quotient", ("quotient_metric",)),
    "quotient.holonomy_defect": ("finsler.quotient", ("holonomy_defect",)),
    "penrose.penrose_limit": ("finsler.penrose", ("penrose_limit",)),
    "penrose.rosen_to_brinkmann": ("finsler.penrose",
                                   ("rosen_to_brinkmann",)),
    "scipy.solve_ivp": ("scipy.integrate", ("solve_ivp",)),
    "scipy.expm": ("scipy.linalg", ("expm",)),
    "scipy.brentq": ("scipy.optimize", ("brentq",)),
}


_ABSENT = object()


def _resolve(module, path):
    """(owner, name, object) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


def _subclasses(cls):
    out = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


class Tracer:
    """Wraps the `SPANS` bindings and records one span per call."""

    def __init__(self):
        self.names = list(SPANS)
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.raised = [0] * n
        self.op = -1
        # counters read from returned objects at the span boundary
        self.christoffel_dense = 0
        self.christoffel_iters = 0
        self.ivp_nfev = 0
        self._stack = []
        self._next_id = 0
        self._rec_id = array("q")
        self._rec_parent = array("q")
        self._rec_op = array("q")
        self._rec_name = array("h")
        self._rec_t0 = array("d")
        self._rec_t1 = array("d")
        self._patched = []

    # -- recording ------------------------------------------------------

    def _observer(self, name):
        if name == "connection.christoffel":
            def see(table):
                self.christoffel_dense += table.method == "dense"
                self.christoffel_iters += table.iterations
            return see
        if name == "scipy.solve_ivp":
            def see(sol):
                self.ivp_nfev += sol.nfev
            return see
        return None

    def _wrap(self, idx, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, raised = self.calls, self.self_s, self.raised
        rec = (self._rec_id.append, self._rec_parent.append,
               self._rec_op.append, self._rec_name.append,
               self._rec_t0.append, self._rec_t1.append)
        see = self._observer(self.names[idx])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                rec[0](sid)
                rec[1](-1 if parent is None else parent[0])
                rec[2](self.op)
                rec[3](idx)
                rec[4](t0)
                rec[5](t1)
            if see is not None:
                see(out)
            return out

        return traced

    # -- installation ---------------------------------------------------

    def _set(self, owner, name, value):
        self._patched.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def install(self):
        """Wrap every binding; returns the span names found nowhere."""
        missing = []
        wrappers = {}          # id(original) -> wrapper
        originals = {}         # id(original) -> original (keeps ids live)
        public = []            # (scipy module, attribute) exporting a span
        class_attrs = []       # (class, attribute name) of traced methods
        for idx, name in enumerate(self.names):
            module, paths = SPANS[name]
            found = False
            for path in paths:
                hit = _resolve(module, path)
                if hit is None:
                    continue
                owner, attr, obj = hit
                found = True
                if isinstance(owner, type):
                    for cls in [owner] + _subclasses(owner):
                        impl = cls.__dict__.get(attr)
                        if impl is not None and id(impl) not in wrappers:
                            wrappers[id(impl)] = self._wrap(idx, impl)
                            originals[id(impl)] = impl
                        if impl is not None:
                            class_attrs.append((cls, attr))
                else:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(idx, obj)
                        originals[id(obj)] = obj
                    if not module.startswith("finsler"):
                        public.append((owner, attr))
            if not found:
                missing.append(name)

        for owner, attr in dict.fromkeys(class_attrs + public):
            obj = vars(owner).get(attr, _ABSENT)
            if obj is _ABSENT:     # a lazily exported module attribute
                obj = getattr(owner, attr)
            self._set(owner, attr, wrappers[id(obj)])
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "finsler"
                                      or n.startswith("finsler."))]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and originals[id(val)] is val:
                    self._set(mod, attr, wrappers[id(val)])
        return missing

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        self._patched = []

    # -- results --------------------------------------------------------

    def index(self, name):
        return self.names.index(name)

    def dump(self, path):
        """Write every span as numpy columns (``.npz``)."""
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 id=np.frombuffer(self._rec_id, dtype=np.int64),
                 parent=np.frombuffer(self._rec_parent, dtype=np.int64),
                 op=np.frombuffer(self._rec_op, dtype=np.int64),
                 name=np.frombuffer(self._rec_name, dtype=np.int16),
                 start=np.frombuffer(self._rec_t0, dtype=np.float64),
                 end=np.frombuffer(self._rec_t1, dtype=np.float64))

    @property
    def n_spans(self):
        return len(self._rec_id)
