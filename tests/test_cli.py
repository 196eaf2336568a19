import csv
import json
from pathlib import Path

import numpy as np
import pytest

from finsler.cli import main

COS2 = {"type": "plugin", "name": "rosen-cos2",
        "params": {"module": "finsler.fixtures", "builder": "rosen_cos2"}}


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
    rows = list(csv.DictReader(out.open()))
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
    rows = list(csv.DictReader(out.open()))
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
])])
def test_schema_violations_exit_two(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path, body)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ")


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
])
def test_numerical_failure_exits_three(tmp_path, capsys, command, body):
    cfg = write_config(tmp_path, body)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.filterwarnings("ignore")  # scipy warns at this tolerance
def test_geodesic_stopped_before_first_sample(tmp_path, capsys):
    # the integrator gives up before its first step: a one-sample path
    cfg = write_config(tmp_path, {
        "spacetime": {"type": "minkowski"},
        "params": {"x0": [0.0, 0.0, 0.0, 0.0], "v0": [1.0, 0.5, 0.0, 0.0],
                   "t_span": [0.0, 1.0], "ode_tol": 1e-300}})
    code, rep = run_json(capsys, ["geodesic", "--config", cfg])
    assert code == 0
    assert rep["meta"]["truncated"] is True
    assert rep["meta"]["t_final"] == 0
    assert rep["meta"]["reason"] == "integrator stopped at t=0"


def test_tol_override_can_force_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spacetime": {"type": "ppwave_example"},
                                  "params": {"n_samples": 2}})
    code, rep = run_json(capsys, ["ppwave", "--config", cfg,
                                  "--tol", "1e-30"])
    assert code == 1
    assert rep["meta"]["tol"] == 1e-30


# -- the example configs ----------------------------------------------------------

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.json"))


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

