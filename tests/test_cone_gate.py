"""The cone gate: each public entry point tests the caller's reference once.

The tensor and connection kernels are pure per-point evaluations and never
test cone membership; `Lagrangian.check_admissible` is applied once per
public call (once per sample or loop vertex for the multi-point ones), and
a stacked call gates each of its pairs once.
"""

import numpy as np
import pytest

from finsler import cli
from finsler import lagrangian as lg
from finsler.connection import (
    ScalarField,
    VectorField,
    christoffel,
    connection_report,
    hessian,
    parallel_extension,
)
from finsler.curvature import chern_curvature, ppwave_condition
from finsler.errors import ConeError
from finsler.ppwave import parallel_criterion
from finsler.quotient import holonomy_defect, rectangle_loop
from finsler.tensors import (
    cartan_tensor,
    fundamental_tensor,
    homogeneity_report,
)

E0 = np.array([1.0, 0.0, 0.0, 0.0])
REPS = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
X = np.array([0.1, 0.2, 0.3, -0.1])

# spacelike for minkowski: L(SPACELIKE) = 0.01 - 1 < 0
SPACELIKE = np.array([0.1, 1.0, 0.0, 0.0])

ENTRY_POINTS = {
    "homogeneity_report": lambda L, v: homogeneity_report(L, X, v),
    "connection_report":
        lambda L, v: connection_report(L, VectorField.constant(v), X),
    "hessian": lambda L, v: hessian(L, ScalarField.coordinate(0), X, v),
    "parallel_extension": lambda L, v: parallel_extension(L, v, X),
    "chern_curvature": lambda L, v: chern_curvature(L, X, v),
    "chern_curvature/extension": lambda L, v: chern_curvature(
        L, X, v, extension=VectorField.constant(v)),
    "parallel_criterion": lambda L, v: parallel_criterion(L, v, [X]),
    "ppwave_condition": lambda L, v: ppwave_condition(L, v, [X]),
    "holonomy_defect": lambda L, v: holonomy_defect(
        L, v, rectangle_loop(X, 1, 2, 0.1), REPS, n_segments=8),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_rejects_reference_outside_closed_cone(name):
    L = lg.build_minkowski()
    assert L.value(X, SPACELIKE) < 0.0
    with pytest.raises(ConeError):
        ENTRY_POINTS[name](L, SPACELIKE)


SAMPLES = [X, X + 0.1, X - 0.2]
XS = np.array(SAMPLES)
VS = np.array([E0, 1.1 * E0 + 0.1, E0 + 0.05])

# gated (x, v) pairs per call: a stack of B pairs counts B
GATE_COUNTS = {
    "chern_curvature": (lambda L: chern_curvature(L, X, E0), 1),
    "chern_curvature/set": (lambda L: chern_curvature(L, XS, VS), 3),
    "homogeneity_report": (lambda L: homogeneity_report(L, X, E0), 1),
    "homogeneity_report/set": (
        lambda L: homogeneity_report(L, XS, VS), 3),
    "connection_report/set": (lambda L: connection_report(
        L, VectorField.constant(E0), XS), 3),
    "parallel_criterion": (lambda L: parallel_criterion(L, E0, SAMPLES), 3),
    "ppwave_condition": (lambda L: ppwave_condition(L, E0, SAMPLES), 3),
    "ppwave command": (lambda L: cli._cmd_ppwave(
        L, np.random.default_rng(1), 1e-6, 3, 0.8, E0), 3),
    "curvature command": (lambda L: cli._cmd_curvature(
        L, np.random.default_rng(1), 1e-6, 3, 0.8, E0), 3),
    "check command": (lambda L: cli._cmd_check(
        L, np.random.default_rng(1), 1e-9, 3, 0.8), 3),
    "holonomy_defect": (lambda L: holonomy_defect(
        L, E0, rectangle_loop(X, 1, 2, 0.1), REPS, n_segments=8), 4),
    "fundamental_tensor": (lambda L: fundamental_tensor(L, X, E0), 0),
    "cartan_tensor": (lambda L: cartan_tensor(L, X, E0), 0),
    "christoffel": (
        lambda L: christoffel(L, VectorField.constant(E0), X), 0),
}


@pytest.mark.parametrize("name", sorted(GATE_COUNTS))
def test_cone_tests_per_call(name, monkeypatch):
    L = lg.build_brinkmann_quadratic("x2-y2")
    pairs = []
    original = lg.Lagrangian.is_admissible

    def counting(self, x, v, *args, **kwargs):
        pairs.append(len(np.atleast_2d(v)))
        return original(self, x, v, *args, **kwargs)

    monkeypatch.setattr(lg.Lagrangian, "is_admissible", counting)
    fn, expected = GATE_COUNTS[name]
    fn(L)
    assert sum(pairs) == expected
