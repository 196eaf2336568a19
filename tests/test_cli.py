import copy
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import console_cases
from finsler import cli, fixtures, lagrangian, schema
from finsler.cli import main
from finsler.connection import geodesic
from finsler.lagrangian import build_minkowski

ROOT = Path(__file__).resolve().parents[1]

COS2 = {"type": "plugin", "name": "rosen-cos2",
        "params": {"module": "finsler.fixtures", "builder": "rosen_cos2"}}
QUOTIENT = {"spacetime": {"type": "brinkmann", "params": {"profile": "x2-y2"}},
            "params": {"base": [0.0, 0.1, 0.2, -0.1]}}
TRIANGLE = [[0.0, 0.1, 0.2, -0.1], [0.0, 0.2, 0.2, -0.1],
            [0.0, 0.2, 0.3, -0.1]]


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# -- happy paths ---------------------------------------------------------------

def test_check_minkowski_all_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spacetime": {"type": "minkowski"},
                                  "params": {"n_samples": 4}})
    code, rep = run_json(capsys, ["check", "--config", cfg, "--seed", "5"])
    assert code == 0
    assert rep["report"] == "check"
    assert rep["pass"] is True
    assert rep["meta"]["seed"] == 5
    assert rep["meta"]["generator"] == "PCG64"
    assert all(c["pass"] for c in rep["checks"])


def test_main_builds_its_parser_once(tmp_path, capsys):
    cli._parser.cache_clear()
    cfg = write_config(tmp_path, {"spacetime": {"type": "minkowski"},
                                  "params": {"n_samples": 1}})
    assert main(["check", "--config", cfg]) == 0
    assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    assert cli._parser.cache_info().misses == 1


def test_ppwave_example_residual_table(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spacetime": {"type": "ppwave_example"},
                                  "params": {"n_samples": 3}})
    code, rep = run_json(capsys, ["ppwave", "--config", cfg])
    assert code == 0
    names = [c["check"] for c in rep["checks"]]
    assert any("curvature condition" in n for n in names)
    assert any("nabla N" in n for n in names)
    assert len(rep["meta"]["samples"]) == 3


def test_connection_and_curvature_commands(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "brinkmann", "params": {"profile": "x2-y2"}},
        "params": {"n_samples": 2}})
    code, rep = run_json(capsys, ["connection", "--config", cfg])
    assert code == 0
    assert any("koszul" in c["check"] for c in rep["checks"])
    code, rep = run_json(capsys, ["curvature", "--config", cfg])
    assert code == 0
    assert all("pair symmetry" in c["check"] for c in rep["checks"])
    # the non-quadratic model only satisfies the identity at the
    # parallel reference, which is where the command must sample
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "ppwave_example", "params": {"eps": 0.1}},
        "params": {"n_samples": 2}, "seed": 5})
    code, rep = run_json(capsys, ["curvature", "--config", cfg])
    assert code == 0
    assert all(c["pass"] for c in rep["checks"])


def test_geodesic_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "brinkmann", "params": {"profile": "x2"}},
        "params": {"x0": [0.0, 0.0, 0.3, 0.0], "v0": [1.0, 1.0, 0.1, 0.0],
                   "t_span": [0.0, 3.0], "n_samples": 50}})
    out = tmp_path / "path.csv"
    code, rep = run_json(capsys, ["geodesic", "--config", cfg,
                                  "--out", str(out)])
    assert code == 0
    assert rep["pass"] is True
    with out.open() as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 50
    assert set(rows[0]) == {"t", "x0", "x1", "x2", "x3",
                            "v0", "v1", "v2", "v3", "L_drift"}


def test_focal_reports_degenerate_root(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spacetime": COS2,
                                  "params": {"t_span": [0.0, 2.5]}})
    out = tmp_path / "delta.csv"
    code, rep = run_json(capsys, ["focal", "--config", cfg,
                                  "--out", str(out)])
    assert code == 0
    assert abs(rep["meta"]["roots"][0] - np.pi / 2) <= 1e-6
    assert "degenerate" in rep["meta"]["kinds"][0]
    header = out.read_text().splitlines()[0]
    assert header == "t,delta,det_h"


def test_focal_flags_a_ray_with_no_positive_det_h(tmp_path, capsys):
    # h2 = 1 - x0 < 0 on the whole ray: delta is NaN at every sample
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "plugin", "params": {
            "module": "finsler.fixtures", "builder": "linear_wall"}},
        "params": {"x0": [1.5, 0, 0, 0], "v0": [1, 0, 0, 0],
                   "t_span": [0, 0.5], "n_samples": 20}})
    out = tmp_path / "delta.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run_json(capsys, ["focal", "--config", cfg,
                                      "--out", str(out)])
    assert code == 0
    assert rep["meta"]["flagged"] == [[0.0, 0.5]]
    assert rep["meta"]["roots"] == []
    with out.open() as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 20
    assert all(row["delta"] == "nan" for row in rows)


def test_penrose_csv_has_plane_wave_profile(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spacetime": COS2,
        "params": {"u_interval": [-1.2, 1.2], "omegas": [0.5, 0.1]}})
    out = tmp_path / "limit.csv"
    code, rep = run_json(capsys, ["penrose", "--config", cfg,
                                  "--out", str(out)])
    assert code == 0
    assert rep["meta"]["truncated"] is False
    a_mid = np.array(rep["meta"]["A_mid"])
    assert np.max(np.abs(a_mid - np.diag([-1.0, 0.0]))) <= 1e-6
    with out.open() as fp:
        rows = list(csv.DictReader(fp))
    for row in rows:
        u = float(row["u"])
        assert abs(float(row["h00"]) - np.cos(u) ** 2) <= 1e-12
        assert abs(float(row["A00"]) + 1.0) <= 1e-6
        assert abs(float(row["A11"])) <= 1e-6


def test_quotient_rectangle_loop(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "brinkmann", "params": {"profile": "x2-y2"}},
        "params": {"base": [0.0, 0.1, 0.2, -0.1],
                   "loop": {"plane": [1, 2], "side": 0.1}}})
    code, rep = run_json(capsys, ["quotient", "--config", cfg])
    assert code == 0
    names = [c["check"] for c in rep["checks"]]
    assert "representative independence" in names
    assert "holonomy defect / area" in names


def test_report_written_to_out_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spacetime": {"type": "minkowski"}})
    out = tmp_path / "report.json"
    code = main(["check", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["pass"] is True


def test_runs_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "brinkmann", "params": {"profile": "uxy"}},
        "params": {"n_samples": 3}})
    argv = ["connection", "--config", cfg, "--seed", "42"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


# -- exit codes -----------------------------------------------------------------

def test_verification_failure_exits_one(tmp_path, capsys):
    # transverse curvature breaks the pp-wave condition
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "plugin",
                      "params": {"module": "finsler.fixtures",
                                 "builder": "curved_null_control"}},
        "params": {"n_samples": 3}})
    code, rep = run_json(capsys, ["ppwave", "--config", cfg])
    assert code == 1
    assert rep["pass"] is False


@pytest.mark.parametrize("command,body", [pytest.param(c, b, id="body%d" % i)
                                          for i, (c, b) in enumerate([
    ("check", {"spacetime": {"type": "warp-drive"}}),
    ("check", {"spacetime": {"type": "minkowski"}, "surprise": 1}),
    ("check", {"spacetime": {"type": "minkowski"}, "command": "penrose"}),
    ("check", {"spacetime": {"type": "minkowski"},
               "output": {"format": "csv", "path": "x.csv"}}),
    ("check", {"spacetime": {"type": "minkowski"}, "seed": -3}),
    ("check", {"spacetime": {"type": "minkowski"},
               "params": {"n_samples": 0}}),
    ("check", {"spacetime": {"type": "plugin",
                             "params": {"module": "finsler.fixtures",
                                        "builder": "rosen_cos2", "zzz": 1}}}),
    ("check", {"spacetime": {"type": "ppwave_example",
                             "params": {"eps": "abc"}}}),
    ("check", {"spacetime": {"type": "minkowski"}, "params": {"box": 1e308}}),
    ("check", {"spacetime": {"type": "minkowski"}, "params": {"box": 1e400}}),
    ("check", {"spacetime": {"type": "brinkmann", "params": {"profile": 3}}}),
    ("check", {"spacetime": {"type": "brinkmann",
                             "params": {"profile": ["x"]}}}),
    ("check", {"spacetime": {"type": "plugin",
                             "params": {"module": "finsler.fixtures",
                                        "builder": "rosen_cross",
                                        "a": "z"}}}),
    ("penrose", {"spacetime": COS2,
                 "params": {"u_interval": [-1.2, 1.2], "omegas": [1e-300]}}),
    ("quotient", {"spacetime": {"type": "brinkmann",
                                "params": {"profile": "x2-y2"}},
                  "params": {"base": [0.0, 0.1, 0.2, -0.1],
                             "loop": {"plane": [1, 2],
                                      "sides": [1e-320, 1e-320]}}}),
    ("check", {"spacetime": {"type": "minkowski"},
               "output": {"path": "/nonexistent/x.json"}}),
    ("geodesic", {"spacetime": {"type": "minkowski"},
                  "params": {"x0": [0.0, 0.0, 0.0, 0.0],
                             "v0": [1.0, 0.5, 0.0, 0.0],
                             "t_span": [0.0, 1.0], "ode_tol": 1e-300}}),
    ("focal", {"spacetime": COS2,
               "params": {"t_span": [0.0, 2.0], "ode_tol": 1e-300}}),
    # misspelled or foreign params keys
    ("ppwave", {"spacetime": {"type": "ppwave_example"},
                "params": {"n_sampels": 5, "bx": 3}}),
    ("geodesic", {"spacetime": {"type": "minkowski"},
                  "params": {"x0": [0.0, 0.0, 0.0, 0.0],
                             "v0": [1.0, 0.5, 0.0, 0.0],
                             "t_span": [0.0, 1.0], "odetol": 1e-9}}),
    ("quotient", {"spacetime": {"type": "brinkmann",
                                "params": {"profile": "x2-y2"}},
                  "params": {"base": [0.0, 0.1, 0.2, -0.1],
                             "n_segment": 64}}),
    ("check", {"spacetime": {"type": "minkowski"},
               "params": {"N": [1.0, 0.0, 0.0, 0.0]}}),
    ("penrose", {"spacetime": COS2,
                 "params": {"u_interval": [-1.2, 1.2], "omega": [0.5]}}),
])] + [
    # a loop is exactly {vertices} or {plane, side | sides}
    pytest.param("quotient", {**QUOTIENT, "params": {
        **QUOTIENT["params"],
        "loop": {"vertices": TRIANGLE, "n_segemnts": 4, "sides": "abc"}}},
        id="loop-vertices-stray-keys"),
    pytest.param("quotient", {**QUOTIENT, "params": {
        **QUOTIENT["params"],
        "loop": {"vertices": TRIANGLE, "plane": [1, 2]}}},
        id="loop-vertices-and-plane"),
    pytest.param("quotient", {**QUOTIENT, "params": {
        **QUOTIENT["params"],
        "loop": {"plane": [1, 2], "side": 0.1, "sides": [0.1, 0.2]}}},
        id="loop-side-and-sides"),
    # strict spacetime descriptors
    pytest.param("check", {"spacetime": {"type": "minkowski", "nmae": "m"}},
                 id="spacetime-key-nmae"),
    pytest.param("check", {"spacetime": {"type": "minkowski",
                                         "cone_rfe": [2.0, 0.5, 0.0, 0.0]}},
                 id="spacetime-key-cone-rfe"),
    pytest.param("check", {"spacetime": {"type": "minkowski",
                                         "params": {"eps": 0.1}}},
                 id="minkowski-eps"),
    pytest.param("check", {"spacetime": {"type": "ppwave_example",
                                         "dim": 7}},
                 id="ppwave-example-dim-7"),
    pytest.param("check", {"spacetime": {"type": "parallel_example",
                                         "dim": 5}},
                 id="parallel-example-dim-5"),
    pytest.param("check", {"spacetime": {**COS2, "dim": 9}},
                 id="plugin-dim-9"),
    pytest.param("check", {"spacetime": {"type": "minkowski",
                                         "name": ["a"]}},
                 id="spacetime-name-list"),
    # plugin loading
    pytest.param("check", {"spacetime": {
        "type": "plugin", "params": {"module": "finsler.fixtures",
                                     "builder": ["x"]}}},
        id="plugin-builder-list"),
    pytest.param("check", {"spacetime": {
        "type": "plugin", "params": {"module": "finsler.fixtures",
                                     "builder": "BUILDERS"}}},
        id="plugin-builder-not-callable"),
])
def test_schema_violations_exit_two(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path, body)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")


@pytest.mark.parametrize("params,path", [
    ({"loop": {"plane": [1, 2], "side": -0.1}}, "params.loop.side"),
    ({"reps": [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, "x"]]},
     "params.reps[1]"),
    ({"loop": {"vertices": TRIANGLE[:2] + [[0.0, 0.2]]}},
     "params.loop.vertices[2]"),
    ({"loop": {"plane": [2, 2], "side": 0.1}}, "params.loop.plane"),
    ({"loop": {"plane": [1, 4], "side": 0.1}}, "params.loop.plane"),
])
def test_schema_errors_name_the_full_path(tmp_path, capsys, params, path):
    cfg = write_config(tmp_path, {**QUOTIENT, "params": {
        **QUOTIENT["params"], **params}})
    assert main(["quotient", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: %s " % path)


def test_missing_config_file_exits_two(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "nope.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err


def test_an_empty_out_path_is_a_schema_violation(tmp_path, capsys):
    # --out is checked as output.path is, before the model is built
    cfg = write_config(tmp_path, {"spacetime": {"type": "minkowski"}})
    assert main(["check", "--config", cfg, "--out", ""]) == 2
    assert capsys.readouterr().err == (
        "config error: output.path must be a non-empty string\n")


@pytest.mark.parametrize("command,body", [
    # the transverse block changes sign inside the requested window
    pytest.param("penrose", {
        "spacetime": {"type": "plugin",
                      "params": {"module": "finsler.fixtures",
                                 "builder": "linear_wall"}},
        "params": {"u_interval": [0.0, 2.0]}}, id="linear-wall"),
    # the Randers A-part turns indefinite: L cannot be evaluated
    pytest.param("check", {"spacetime": {"type": "ppwave_example",
                                         "params": {"eps": 50}}},
                 id="ppwave-eps-50"),
    pytest.param("check", {"spacetime": {"type": "parallel_example",
                                         "params": {"eps": 5}}},
                 id="parallel-eps-5"),
    # the same failure inside the cone gate's plain evaluations of L
    pytest.param("geodesic", {"spacetime": {"type": "ppwave_example",
                                            "params": {"eps": 50}},
                              "params": {"x0": [0, 1, 0, 0],
                                         "v0": [0, 1, 0, 0],
                                         "t_span": [0, 1]}},
                 id="geodesic-ppwave-eps-50"),
])
def test_numerical_failure_exits_three(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path, body)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err


BRINKMANN_X2 = {"type": "brinkmann", "params": {"profile": "x2"}}


@pytest.mark.parametrize("command,body", [
    # geodesic returns the sample times [0, 0, 5e-324]: no ray to scan
    pytest.param("focal", {"spacetime": COS2,
                           "params": {"t_span": [0, 5e-324],
                                      "n_samples": 3}},
                 id="focal-span-too-short"),
    # H = x^2 overflows, so the cone gate's reference holds inf
    pytest.param("connection", {"spacetime": BRINKMANN_X2,
                                "params": {"box": 1e200}},
                 id="connection-box-1e200"),
    pytest.param("curvature", {"spacetime": BRINKMANN_X2,
                               "params": {"box": 1e200}},
                 id="curvature-box-1e200"),
    pytest.param("ppwave", {"spacetime": BRINKMANN_X2,
                            "params": {"box": 1e200}},
                 id="ppwave-box-1e200"),
    pytest.param("quotient", {"spacetime": BRINKMANN_X2,
                              "params": {"base": [0, 0, 0, 0],
                                         "loop": {"plane": [1, 2],
                                                  "side": 1e200}}},
                 id="quotient-side-1e200"),
    pytest.param("geodesic", {"spacetime": BRINKMANN_X2,
                              "params": {"x0": [0, 0, 1e200, 0],
                                         "v0": [1, 0, 0, 0],
                                         "t_span": [0, 1]}},
                 id="geodesic-x-1e200"),
])
def test_unscannable_inputs_exit_three_without_a_warning(tmp_path, capsys,
                                                         command, body):
    cfg = write_config(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: ")
    assert ("strictly increasing times" if command == "focal"
            else "cone_ref is not finite at x=") in err


# inputs that overflow a product, the quotient metric's determinant or
# the solver's own arithmetic (rows of `console_cases.json`)
OVERFLOWING = ["quotient-sides-1e200-1e-200", "quotient-side-1e200-plane-01",
               "quotient-vertices-1e200", "quotient-minor-overflows",
               "quotient-cos2-side-1e100", "quotient-cross-side-1e100",
               "geodesic-x-1e150", "focal-span-1e300", "focal-N-1e200"]


@pytest.mark.parametrize("case_id", OVERFLOWING)
def test_overflowing_inputs_exit_alike_with_warnings_as_errors(case_id):
    # the lenient run only prints its warnings
    row = console_cases.load()[case_id]
    strict, lenient = [
        console_cases.run_in_process({**row, "warnings_as_errors": errors})
        for errors in (True, False)]
    assert strict.code == lenient.code and strict.code in (0, 3)
    if strict.code == 3:
        assert strict.err.splitlines()[0].startswith("numerical failure: ")


def test_penrose_base_point_below_the_positivity_floor_exits_three(
        tmp_path, capsys):
    # cos^2(1.5708) = 1.3e-11 is positive but below the 1e-8 floor that
    # bounds the integration range, so the base point itself is rejected
    cfg = write_config(tmp_path, {"spacetime": COS2,
                                  "params": {"u_interval": [1.5707, 1.5709]}})
    assert main(["penrose", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "u0=1.5708" in err and "floor" in err


def test_penrose_evaluates_the_ray_jet_on_batches(tmp_path, capsys,
                                                  monkeypatch):
    # the fixed grids (positivity, vielbein conditions, A_mid, CSV) are
    # one batched ray jet each, and so is each refinement level of the
    # O-equation's panels (one level: W = 0 for cos^2), whose first level
    # also carries both wall scans.  Only the base point h(u0) is scalar.
    # A grid of the Brinkmann profile carries four partial-step nodes per
    # row.
    from finsler import jets
    calls = {1: 0, 2: 0}
    lanes = []
    call = jets._call

    def counted(L, x, v):
        # the ray jet: u and the two transverse fiber generators, 18 terms
        if isinstance(x[0], jets.Jet) and x[0].ctx.size == 18:
            calls[x[0].c.ndim] += 1
            lanes.append(x[0].c.shape[1:])
        return call(L, x, v)

    monkeypatch.setattr(jets, "_call", counted)
    monkeypatch.chdir(tmp_path)
    path = ROOT / "configs" / "penrose_cos2.json"
    assert main(["penrose", "--config", str(path)]) == 0
    assert calls[1] == 1
    assert calls[2] == 5
    assert max(lanes) == (5 * 101,)


def test_penrose_config_stacks_the_omega_table(tmp_path, monkeypatch):
    # per omega, one stacked fundamental_tensor for L at the mapped
    # homothety samples and one for L_w at the samples and on the ray
    # together; the chart check takes one at its 3 ray points
    from finsler import tensors
    shapes = []
    real = tensors.fundamental_tensor

    def counted(L, x, v):
        shapes.append(np.shape(v))
        return real(L, x, v)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("finsler")
                and getattr(mod, "fundamental_tensor", None) is real):
            monkeypatch.setattr(mod, "fundamental_tensor", counted)
    monkeypatch.chdir(tmp_path)
    path = ROOT / "configs" / "penrose_cos2.json"
    assert main(["penrose", "--config", str(path)]) == 0
    assert sorted(shapes) == [(3, 4)] + [(5, 4)] * 2 + [(10, 4)] * 2


def test_a_nan_homothety_sample_fails_its_omega_row(tmp_path, capsys,
                                                    monkeypatch):
    # the L_w stack of the first omega holds a NaN at sample 2: its
    # omega row fails, and so does the report
    from finsler import penrose
    real = penrose.fundamental_tensor

    def poisoned(L, x, v):
        g = real(L, x, v)
        if getattr(L, "name", "").endswith("@omega=0.5"):
            g = np.array(g)
            g[2, 2, 2] = np.nan
        return g

    monkeypatch.setattr(penrose, "fundamental_tensor", poisoned)
    cfg = write_config(tmp_path, {"spacetime": COS2,
                                  "params": {"u_interval": [-1.2, 1.2]}})
    code, rep = run_json(capsys, ["penrose", "--config", cfg])
    rows = {c["check"]: c["pass"] for c in rep["checks"]}
    assert code == 1
    assert rep["pass"] is False
    assert rows["omega=0.5 homothety"] is False
    assert rows["omega=0.1 homothety"] is True


def test_geodesic_stopped_before_first_sample():
    # below the integrator's floor of 100 machine epsilons it gives up
    # before its first step, without a warning: the library returns a
    # one-sample path (the CLI rejects such an ode_tol as a schema
    # violation)
    path = geodesic(build_minkowski(), np.zeros(4), [1.0, 0.5, 0.0, 0.0],
                    (0.0, 1.0), tol=1e-300)
    assert path.truncated
    assert path.t.tolist() == [0.0]
    assert path.reason == "integrator stopped at t=0"


def test_tol_override_can_force_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spacetime": {"type": "ppwave_example"},
                                  "params": {"n_samples": 2}})
    code, rep = run_json(capsys, ["ppwave", "--config", cfg,
                                  "--tol", "1e-30"])
    assert code == 1
    assert rep["meta"]["tol"] == 1e-30


# -- the example configs ----------------------------------------------------------

def test_check_runs_without_importing_scipy(tmp_path):
    # the runtime needs numpy alone: with every scipy import made to fail,
    # each example config and a Penrose limit cut at a focal wall still
    # run, with warnings as errors, and load no scipy module
    wall = tmp_path / "wall.json"
    wall.write_text(json.dumps({
        "spacetime": COS2, "command": "penrose",
        "params": {"u_interval": [-1.0, 2.2]}}), encoding="utf-8")
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from finsler.cli import main\n"
              "for path in sys.argv[1:]:\n"
              "    with open(path, encoding='utf-8') as fp:\n"
              "        command = json.load(fp)['command']\n"
              "    code = main([command, '--config', path])\n"
              "    print(path, code, file=sys.stderr)\n"
              "print(sorted(m for m, mod in sys.modules.items()\n"
              "             if m.split('.')[0] == 'scipy' and mod),\n"
              "      file=sys.stderr)\n")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    paths = [str(p) for p in sorted((ROOT / "configs").glob("*.json"))]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script] + paths + [str(wall)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert lines[:-1] == ["%s 0" % p for p in paths + [str(wall)]], \
        proc.stderr
    assert lines[-1] == "[]"
    assert '"truncated": true' in proc.stdout


def test_module_entry_prints_what_main_prints(tmp_path, capsys):
    # `python -m finsler.cli` goes through the module's __main__ guard;
    # warnings are errors, so a package that imported the module first
    # would fail on runpy's double-import warning
    argv = ["check", "--config",
            str(ROOT / "configs" / "check_minkowski.json")]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m",
                           "finsler.cli", *argv],
                          capture_output=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


CONFIGS = sorted((ROOT / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_example_config_passes(tmp_path, capsys, monkeypatch, path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)     # output.path is relative to the cwd
    code, rep = run_json(capsys, [raw["command"], "--config", str(path)])
    assert code == 0
    assert rep["pass"] is True
    out = raw.get("output", {}).get("path")
    if out is not None:
        lines = (tmp_path / out).read_text(encoding="utf-8").splitlines()
        assert len(lines) > 2
        assert all(len(row.split(",")) == len(lines[0].split(","))
                   for row in lines)


# -- the schema ------------------------------------------------------------------

# every table a config goes through, by the name the README rows give it
TABLES = {"config": cli._CONFIG, "output": cli._OUTPUT,
          "spacetime": lagrangian._DESCRIPTOR,
          **{kind: table for kind, (_, table) in lagrangian._TYPES.items()},
          **{name: command.params for name, command in cli.COMMANDS.items()}}


def test_readme_params_table_matches_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\w+)", text, re.M)
    assert sorted(rows) == sorted(
        (name, key, kind.__name__) for name, table in TABLES.items()
        for key, (kind, *_) in table.items())


# Each kind of the schema maps to a strategy of JSON values it must reject,
# given the kind's constraint and the model's dimension.  A wrong-type
# group is one branch, so it is drawn no more often than a mutation that
# needs the kind's own check.
BAD_TYPE = ["abc", None, {}, {"a": 1}, True, False]
NOT_A_LIST = st.sampled_from(BAD_TYPE + [1.0])
NOT_A_NUMBER = st.sampled_from(BAD_TYPE + [[1.0], float("nan"), float("inf"),
                                           -float("inf"), 10 ** 400])


def _one_bad_item(items, bad):
    return st.tuples(st.integers(0, len(items) - 1), bad).map(
        lambda kv: items[:kv[0]] + [kv[1]] + items[kv[0] + 1:])


def _bad_count(constraint, dim):
    least, most = (list(constraint) + [1, schema.MAX_COUNT][len(constraint):])
    return st.one_of(st.sampled_from(BAD_TYPE + [[1]]), st.floats(),
                     st.integers(max_value=least - 1),
                     st.integers(min_value=most + 1))


def _bad_number(constraint, dim):
    return NOT_A_NUMBER


def _bad_positive(constraint, dim):
    least, most = (list(constraint) + [0.0, math.inf][len(constraint):])
    out = [NOT_A_NUMBER, st.floats(max_value=0.0), st.integers(max_value=0)]
    if least > 0.0:
        out.append(st.floats(0.0, least, exclude_max=True))
    if most < math.inf:
        out.append(st.floats(min_value=most, exclude_min=True))
    return st.one_of(out)


def _bad_string(constraint, dim):
    out = [st.sampled_from([3, 1.5, None, True, ["x"], {}, ""])]
    if constraint:
        out.append(st.text(min_size=1).filter(
            lambda s: s not in constraint[0]))
    return st.one_of(out)


def _bad_obj(constraint, dim):
    return st.sampled_from(["abc", None, 3, True, [1], [{}]])


def _bad_vector(constraint, dim):
    return st.one_of(
        NOT_A_LIST,
        st.lists(st.floats(-1.0, 1.0), max_size=dim + 2).filter(
            lambda v: len(v) != dim),
        _one_bad_item([0.0] * dim, NOT_A_NUMBER))


def _bad_interval(constraint, dim):
    finite = st.floats(-1e3, 1e3)
    return st.one_of(
        NOT_A_LIST, st.sampled_from([[], [0.0], [0.0, 1.0, 2.0]]),
        st.tuples(finite, finite).map(lambda ab: [max(ab), min(ab)]),
        _one_bad_item([0.0, 1.0], NOT_A_NUMBER))


def _bad_axes(constraint, dim):
    return st.one_of(NOT_A_LIST, st.sampled_from([[], [1], [1, 2, 3]]),
                     st.integers(0, dim - 1).map(lambda i: [i, i]),
                     st.sampled_from([[0, dim], [-1, 1]]),
                     st.sampled_from([[True, 2], [1.0, 2]]))


def _bad_listof(constraint, dim):
    size, exact, kind, *item = constraint
    good = [0.0] * dim if kind is schema.vector else 0.5
    sizes = [n for n in range(size + 2)
             if n < size or (exact and n != size)]
    return st.one_of(
        NOT_A_LIST, st.sampled_from(sizes).map(lambda n: [good] * n),
        _one_bad_item([good] * size, BAD[kind](item, dim)))


def _bad_frame(constraint, dim):
    return _bad_listof((dim - 2, True, schema.vector), dim)


LOOPS = [{"vertices": TRIANGLE}, {"plane": [1, 2], "side": 0.1},
         {"plane": [1, 2], "sides": [0.1, 0.2]}]


def _bad_loop_key(key, dim):
    """Loops of a valid shape holding ``key`` with a bad value there."""
    kind, _, *constraint = cli._LOOP[key]
    shape = next(s for s in LOOPS if key in s)
    return BAD[kind](constraint, dim).map(lambda v: {**shape, key: v})


def _bad_loop(constraint, dim):
    # a bad shape; the keys of a good shape are drawn by `_bad_loop_key`
    return st.one_of(
        NOT_A_LIST,
        st.sampled_from([{**a, **b}
                         for a, b in itertools.combinations(LOOPS, 2)]),
        st.sampled_from([{}, {"plane": [1, 2]}, {"side": 0.1}]),
        st.sampled_from(LOOPS).map(lambda s: {**s, "zzz": 1}))


BAD = {schema.count: _bad_count, schema.number: _bad_number,
       schema.positive: _bad_positive, schema.string: _bad_string,
       schema.obj: _bad_obj, schema.vector: _bad_vector,
       schema.interval: _bad_interval, schema.axes: _bad_axes,
       schema.listof: _bad_listof, cli.frame: _bad_frame,
       cli.loop: _bad_loop}


def _kinds(kind, constraint):
    yield kind
    if kind is schema.listof:
        yield from _kinds(constraint[2], constraint[3:])
    nested = {cli.loop: [cli._LOOP], schema.obj: constraint[:1]}
    for table in nested.get(kind, []):
        for sub, _, *c in table.values():
            yield from _kinds(sub, c)


def test_fuzz_covers_every_kind():
    # the fixture plug-ins' tables come from their builders' signatures
    tables = [*TABLES.values(), *(lagrangian._builder("plugin", {
        "module": "finsler.fixtures", "builder": name})[1]
        for name in fixtures.BUILDERS)]
    used = {k for table in tables for kind, _, *c in table.values()
            for k in _kinds(kind, c)}
    assert used <= set(BAD)


def _with(raw, path, val):
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = val
    return out


def _table_fields(table, path, dim=4):
    """(path, strategy of bad values) for an unknown key and each key of
    ``table``, and of each table nested in it."""
    out = [(path + ("zzz",), st.just(1))]
    for key, (kind, _, *constraint) in table.items():
        out.append((path + (key,), BAD[kind](constraint, dim)))
        if kind is schema.obj and constraint:
            out += _table_fields(constraint[0], path + (key,), dim)
    return out


def _other_fields(raw):
    """(path, strategy of bad values) for the fields outside ``params``,
    split into the spacetime descriptor's and the rest: each key of the
    tables they go through, and the cases no table expresses."""
    desc = raw["spacetime"]
    table = lagrangian._builder(desc["type"], desc.get("params", {}))[1]
    fields = [*_table_fields(cli._CONFIG, ()),
              *_table_fields(lagrangian._DESCRIPTOR, ("spacetime",)),
              *_table_fields(table, ("spacetime", "params")),
              (("params", "zzz"), st.just(1)),
              # the command must match the invocation
              (("command",), st.sampled_from(
                  [c for c in cli.COMMANDS if c != raw["command"]]))]
    # a stated dim must match the model
    if desc["type"] != "minkowski":
        fields.append((("spacetime", "dim"), st.sampled_from(
            [d for d in range(3, lagrangian.MAX_DIM + 1) if d != 4])))
    # the plug-in must load
    if desc["type"] == "plugin":
        fields += [(("spacetime", "params", "module"),
                    st.sampled_from(["finsler.nope", ".nope"])),
                   (("spacetime", "params", "builder"),
                    st.sampled_from(["nope", "BUILDERS"]))]
    out = {"spacetime": [], "config": []}
    for path, bad in fields:
        out["spacetime" if path[0] == "spacetime" else "config"].append(
            (path, bad))
    return out


def _mutations(raw, field):
    """(path, strategy of bad values) for each config path of one field: a
    params key, whose values are drawn per its kind, or each path of the
    spacetime descriptor or of the rest of the config."""
    params = cli.COMMANDS[raw["command"]].params
    if field.startswith("loop."):
        return [(("params", "loop"), _bad_loop_key(field[5:], 4))]
    if field in params:
        kind, _, *constraint = params[field]
        return [(("params", field), BAD[kind](constraint, 4))]
    return _other_fields(raw)[field]


def _fuzz_fields(path):
    """The fields fuzzed apart: each params key, each key of a loop the
    command reads, the spacetime descriptor, and the rest."""
    params = cli.COMMANDS[json.loads(path.read_text(encoding="utf-8"))
                          ["command"]].params
    loop = ["loop." + key for key in cli._LOOP] if "loop" in params else []
    return [*params, *loop, "spacetime", "config"]


FUZZ = [(path, field) for path in CONFIGS for field in _fuzz_fields(path)]


@pytest.mark.parametrize("path,field", FUZZ,
                         ids=["%s-%s" % (p.stem, f) for p, f in FUZZ])
@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_schema_fuzz_exits_two(tmp_path, capsys, monkeypatch, path, field,
                               data):
    # each example draws one bad value at every path of the field
    monkeypatch.chdir(tmp_path)     # a valid mutation must not write here
    raw = json.loads(path.read_text(encoding="utf-8"))
    for where, bad in _mutations(raw, field):
        cfg = write_config(tmp_path, _with(raw, where, data.draw(bad)))
        code = main([raw["command"], "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2, (where, err)
        assert err.startswith("config error: ")
