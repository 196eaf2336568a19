"""Run and check the console cases of `console_cases.json`.

    python tests/console_cases.py               # rows as finsler processes
    python tests/console_cases.py --bytes BYTES.json

The first form needs the ``finsler`` console script; it runs each rerun
row twice and exits 1 naming each failing row.  ``--bytes`` runs, in
process, the rows, the example configs at their own seed and at seeds 7
and 101, and the first 60 ops of each benchmark workload stream at seeds
101 and 303, and writes one sha256 per run.  README, "Console cases",
describes the row fields.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import traceback
import warnings
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CURVES = ("geodesic", "focal", "penrose")
DEFAULTS = {"warnings_as_errors": True, "exit": 0, "rerun": False}

Run = namedtuple("Run", "code out err csv")


def load():
    """The rows of the table by id, defaults filled in."""
    text = Path(__file__).with_suffix(".json").read_text(encoding="utf-8")
    return {row["id"]: {**DEFAULTS, **row} for row in json.loads(text)}


def config_of(row):
    cfg = row["config"]
    return (json.loads((ROOT / cfg).read_text(encoding="utf-8"))
            if isinstance(cfg, str) else cfg)


def _run(row, launch, args=()):
    """Run ``row`` in a fresh directory through ``launch``; curve commands
    write their CSV to ``--out``, every report goes to stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.json")
        csv = os.path.join(tmp, "run.csv")
        Path(cfg).write_text(json.dumps(config_of(row)), encoding="utf-8")
        argv = [row["command"], "--config", cfg, *args]
        if row["command"] in CURVES:
            argv += ["--out", csv]
        code, out, err = launch(argv, row["warnings_as_errors"], tmp)
        return Run(code, out, err, Path(csv).read_bytes().decode("utf-8")
                   if os.path.exists(csv) else None)


def _in_process(argv, strict, cwd):
    from finsler import cli
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "always")
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def _as_process(argv, strict, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    if strict:
        env["PYTHONWARNINGS"] = "error"
    proc = subprocess.run(["finsler", *argv], cwd=cwd, env=env, timeout=60,
                          capture_output=True)
    return (proc.returncode, proc.stdout.decode("utf-8"),
            proc.stderr.decode("utf-8"))


def run_in_process(row, args=()):
    return _run(row, _in_process, args)


def _meets(got, want):
    if not isinstance(want, dict):
        return got == want
    if "match" in want:
        return isinstance(got, str) and re.match(want["match"], got)
    if "near" in want:
        return abs(got - want["near"]) <= want["tol"]
    return want["range"][0] <= got <= want["range"][1]


def problems(row, run):
    """What ``run`` of ``row`` fails to show, as a list of strings."""
    found = []
    if run.code not in (row["exit"] if isinstance(row["exit"], list)
                        else [row["exit"]]):
        found.append("exit %r, want %r" % (run.code, row["exit"]))
    if "Traceback" in run.err:
        found.append("a traceback on stderr")
    if "stderr" in row and not re.match(row["stderr"], run.err):
        found.append("stderr does not match %r" % row["stderr"])
    for path, want in row.get("report", {}).items():
        try:
            got = json.loads(run.out)
            for key in path.split("."):
                got = got[key]
        except (ValueError, KeyError, TypeError):
            found.append("the report has no %s" % path)
            continue
        if not _meets(got, want):
            found.append("%s is %r, want %r" % (path, got, want))
    return found + (["stderr: " + run.err.strip()]
                    if found and run.err else [])


def manifest(rows, streams=True):
    """{run id: sha256 of its exit code, stdout, stderr and CSV} over
    ``rows`` and, with ``streams``, the example configs and streams."""
    runs = {"case/" + row["id"]: run_in_process(row) for row in rows}
    lenient = {**DEFAULTS, "warnings_as_errors": False}
    if streams:
        sys.path.insert(0, str(ROOT / "bench"))
        import workloads
        for path in sorted((ROOT / "configs").glob("*.json")):
            row = {**lenient, "config": str(path)}
            row["command"] = config_of(row)["command"]
            for seed in ("default", "7", "101"):
                args = () if seed == "default" else ("--seed", seed)
                runs["config/%s@%s" % (path.stem, seed)] = run_in_process(
                    row, args)
        for name, seed in itertools.product(workloads.WORKLOADS, (101, 303)):
            ops = workloads.stream(name, seed, str(ROOT / "configs"))
            for k, op in enumerate(itertools.islice(ops, 60)):
                runs["stream/%s@%d/%02d" % (name, seed, k)] = run_in_process(
                    {**lenient, "command": op.command,
                     "config": json.loads(op.text)})
    return {key: hashlib.sha256(json.dumps(run).encode("utf-8")).hexdigest()
            for key, run in runs.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bytes", metavar="PATH",
                    help="write the byte manifest to PATH instead")
    args = ap.parse_args(argv)
    rows = list(load().values())
    if args.bytes:
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        Path(args.bytes).write_text(json.dumps(
            {"numpy": numpy.__version__, "platform": platform.platform(),
             "runs": manifest(rows)},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    failed = 0
    for row in rows:
        first = _run(row, _as_process)
        found = problems(row, first)
        if row["rerun"] and not found:
            again = _run(row, _as_process)
            if (first.out, first.csv) != (again.out, again.csv):
                found.append("a rerun wrote other report or CSV bytes")
        failed += bool(found)
        print("FAIL %s: %s" % (row["id"], "; ".join(found)) if found
              else "ok " + row["id"], flush=True)
    print("%d of %d rows pass" % (len(rows) - failed, len(rows)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
