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

from finsler import cli, lagrangian
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
    # the fixed grids (positivity, both wall scans, vielbein conditions,
    # A_mid, CSV) are one batched ray jet each, and so is each refinement
    # level of the O-equation's panels (one level: W = 0 for cos^2).  Only
    # the base point h(u0) is scalar.  A grid of the Brinkmann profile
    # carries four partial-step nodes per row.
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
    assert calls[2] == 6
    assert max(lanes) == (5 * 101,)


@pytest.mark.filterwarnings("ignore")  # scipy warns at this tolerance
def test_geodesic_stopped_before_first_sample():
    # below the integrator's rtol floor it gives up before its first
    # step: the library returns a one-sample path (the CLI rejects such
    # an ode_tol as a schema violation)
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

def test_check_runs_without_importing_scipy():
    # scipy is imported only by the functions that integrate, interpolate
    # or root-find, so neither a check run nor a quotient run (holonomy
    # included) loads it
    script = ("import json, sys\n"
              "from finsler.cli import main\n"
              "with open(sys.argv[1], encoding='utf-8') as fp:\n"
              "    command = json.load(fp)['command']\n"
              "code = main([command, '--config', sys.argv[1]])\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
              "sys.exit(code)\n")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for name in ("check_minkowski.json", "quotient_wave.json"):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "configs" / name)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == "[]", name


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


# -- the params schema ------------------------------------------------------------

def test_readme_params_table_matches_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\w+)", text, re.M)
    assert sorted(rows) == sorted(
        (name, key, kind.__name__) for name, command in cli.COMMANDS.items()
        for key, (kind, *_) in command.params.items())


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
    least = constraint[0] if constraint else 1
    return st.one_of(st.sampled_from(BAD_TYPE + [[1]]), st.floats(),
                     st.integers(max_value=least - 1))


def _bad_positive(constraint, dim):
    least, most = (list(constraint) + [0.0, math.inf][len(constraint):])
    out = [NOT_A_NUMBER, st.floats(max_value=0.0), st.integers(max_value=0)]
    if least > 0.0:
        out.append(st.floats(0.0, least, exclude_max=True))
    if most < math.inf:
        out.append(st.floats(min_value=most, exclude_min=True))
    return st.one_of(out)


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
    good = 0.5 if kind is cli.positive else [0.0] * dim
    sizes = [n for n in range(size + 2)
             if n < size or (exact and n != size)]
    return st.one_of(
        NOT_A_LIST, st.sampled_from(sizes).map(lambda n: [good] * n),
        _one_bad_item([good] * size, BAD[kind](item, dim)))


def _bad_frame(constraint, dim):
    return _bad_listof((dim - 2, True, cli.vector), dim)


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


BAD = {cli.count: _bad_count, cli.positive: _bad_positive,
       cli.vector: _bad_vector, cli.interval: _bad_interval,
       cli.axes: _bad_axes, cli.listof: _bad_listof, cli.frame: _bad_frame,
       cli.loop: _bad_loop}


def _kinds(kind, constraint):
    yield kind
    if kind is cli.listof:
        yield from _kinds(constraint[2], constraint[3:])
    if kind is cli.loop:
        for sub, _, *c in cli._LOOP.values():
            yield from _kinds(sub, c)


def test_fuzz_covers_every_kind():
    used = {k for command in cli.COMMANDS.values()
            for kind, _, *c in command.params.values()
            for k in _kinds(kind, c)}
    assert used <= set(BAD)


def _with(raw, path, val):
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = val
    return out


def _other_fields(raw):
    """(path, strategy of bad values) for the fields outside ``params``,
    split into the spacetime descriptor's and the rest."""
    desc = raw["spacetime"]
    bad_dims = ["4", 4.0, True, 2, -1, None]
    if desc["type"] != "minkowski":
        bad_dims += [3, 5]
    by_field = {
        ("zzz",): [1], ("params", "zzz"): [1], ("output", "zzz"): [1],
        ("seed",): [-1, 2 ** 64, "1", 1.5, True, None],
        ("tol",): [0, -1.0, "x", True, float("nan"), 10 ** 400],
        ("command",): [3] + [c for c in cli.COMMANDS if c != raw["command"]],
        ("params",): ["abc", None, [1], 3],
        ("output",): ["x", 3, [1]],
        ("output", "format"): ["xml", 3],
        ("output", "path"): ["", 3],
        ("spacetime",): ["minkowski", None, [1]],
        ("spacetime", "zzz"): [1],
        ("spacetime", "params", "zzz"): [1],
        ("spacetime", "type"): ["warp", 3, None, ["minkowski"]],
        ("spacetime", "dim"): bad_dims,
        ("spacetime", "name"): [3, ["a"], None, {}, True],
        ("spacetime", "params"): ["x", [1], 3],
        ("spacetime", "params", "profile"): [3, ["x"], "cubic", None],
        ("spacetime", "params", "eps"): ["abc", float("nan"), True, None],
        ("spacetime", "params", "module"): [3, "", ["x"], "finsler.nope"],
        ("spacetime", "params", "builder"): [3, "", ["x"], "BUILDERS"],
    }
    own = (("module", "builder") if desc["type"] == "plugin"
           else lagrangian._TYPES[desc["type"]][1])
    out = {"spacetime": [], "config": []}
    for path, values in by_field.items():
        if len(path) == 3 and path[2] != "zzz" and path[2] not in own:
            continue
        out[path[0] if path[0] == "spacetime" else "config"].append(
            (path, st.sampled_from(values)))
    return out


def _mutations(raw, field):
    """Configs that differ from ``raw`` in one field and violate the
    schema there: a params key's value drawn per its kind, or a field of
    the spacetime descriptor or the config root."""
    params = cli.COMMANDS[raw["command"]].params
    if field.startswith("loop."):
        fields = [(("params", "loop"), _bad_loop_key(field[5:], 4))]
    elif field in params:
        kind, _, *constraint = params[field]
        fields = [(("params", field), BAD[kind](constraint, 4))]
    else:
        fields = _other_fields(raw)[field]
    return st.sampled_from(fields).flatmap(
        lambda f: f[1].map(lambda val: _with(raw, f[0], val)))


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
    monkeypatch.chdir(tmp_path)     # a valid mutation must not write here
    raw = json.loads(path.read_text(encoding="utf-8"))
    body = data.draw(_mutations(raw, field))
    cfg = write_config(tmp_path, body)
    code = main([raw["command"], "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: ")
