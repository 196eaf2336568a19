"""Smoke tests for the benchmark: verifier, generator and output schema.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q bench/tests``.  No timing is asserted.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from finsler import cli  # noqa: E402


def _runner(tmp_path, workload="curvature"):
    return child.Runner(cli, workload, 0, os.path.join(ROOT, "configs"),
                        str(tmp_path))


@pytest.mark.parametrize("builder", ["broken_parallel",
                                     "curved_null_control"])
def test_negative_control_counts_as_failed(tmp_path, builder):
    op = workloads.Op("control", "ppwave", {
        "spacetime": {"type": "plugin",
                      "params": {"module": "finsler.fixtures",
                                 "builder": builder}},
        "command": "ppwave", "params": {"n_samples": 1}, "seed": 3})
    runner = _runner(tmp_path)
    _, res = runner.one(op)
    assert res.error is not None
    assert (runner.attempted, runner.failed) == (1, 1)


def test_broken_oracle_and_changed_bytes_count_as_failed(tmp_path):
    good = workloads.verbatim_ops("rays", os.path.join(ROOT, "configs"))[0]
    runner = _runner(tmp_path, "rays")
    _, first = runner.one(good)
    assert first.error is None
    wrong = workloads.Op(good.family, good.command, good.text,
                         {"roots": [1.5]})
    _, res = runner.one(wrong)
    assert "roots" in res.error
    _, res = runner.one(good, before=verify.Outcome(b"{}", first.csv))
    assert "different bytes" in res.error
    _, res = runner.one(good, before=first)
    assert res.error is None
    assert (runner.attempted, runner.failed) == (4, 2)


def test_benchmark_json_names_the_workloads_and_why():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert spec["workloads"] == [{"name": w, "why": workloads.WHY[w]}
                                 for w in workloads.WORKLOADS]


def test_every_example_config_is_in_exactly_one_workload():
    names = sorted(f for f in os.listdir(os.path.join(ROOT, "configs"))
                   if f.endswith(".json"))
    listed = sorted(n for w in workloads.WORKLOADS
                    for n in workloads.VERBATIM[w])
    assert listed == names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_seeded_and_never_repeat_a_config(workload):
    configs = os.path.join(ROOT, "configs")

    def take(seed, part, n=60):
        it = workloads.stream(workload, seed, configs, part)
        return [next(it).text for _ in range(n)]

    first = take(1, 0)
    assert first == take(1, 0)
    assert first != take(2, 0)
    warm = [op.text for op in workloads.warmup_ops(workload, 1)]
    texts = first + take(1, 1) + warm
    assert len(set(texts)) == len(texts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys,
                                               monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 2)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "MIN_TRACE_OPS", 2)
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in line["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in
               line["metrics"].values())


def test_missing_program_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "rays", "--seconds", "1"]) != 0
