"""finsler benchmark: seeded CLI workloads, verified reports per second.

Usage, from the repository root::

    python3 bench/run.py --workload curvature|transport|rays|all \\
        --seed N --seconds S --trace 0|1

Each workload is a seeded stream of ``finsler <command> --config <file>``
runs (see ``workloads.py``), each called in process through
``finsler.cli.main`` and then verified (``verify.py``).  The stream runs in
a fresh child process as a closed loop with one client, no threads and one
BLAS thread.

Every time is wall-clock scaled to a reference machine speed: a fixed
kernel is timed every half second next to the ops, and each op's seconds
are multiplied by ``REFERENCE_S / kernel seconds`` (``calibrate.py``).
The summary line prints the kernel's raw time.

``--trace 0`` prints the end-to-end metrics:

  ops_per_s    verified reports completed per second of client time
  op_p50_ms    median wall time of one op, from the ``main()`` call to the
               verified report
  op_p90_ms    90th percentile of the same; a run holds at least 100 ops,
               so at least 10 lie beyond it (the count is printed)
  setup_s      fresh interpreter spawn -> ``import finsler.cli`` -> one
               warm-up op per config family; median of `SETUP_SPAWNS`
               spawns
  peak_rss_mb  peak RSS (``ru_maxrss``) of the workload child

``--trace 1`` runs the loop untraced and then traced (``tracer.py``) and
prints the per-layer metrics, the layer probes (``probes.py``) and
``fail_ratio``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
ops that exited non-zero, failed a check or an oracle, or repeated a
config with different bytes.  Spans are written to
``.bench_out/spans-<workload>.npz``.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")

# set-up is timed in this many fresh processes; the workload child is one
SETUP_SPAWNS = 5
# ops a loop runs at least: p90 needs 10 samples beyond it; the traced
# comparison needs only medians
MIN_OPS = 100
MIN_TRACE_OPS = 20
# a whole run ends within this many seconds
RUN_TIMEOUT = 170.0


def _spawn(args, workdir, mode, deadline, seconds=0.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = "1"
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--min-ops", str(MIN_TRACE_OPS if mode == "trace" else MIN_OPS),
           "--mode", mode, "--workdir", workdir]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(started)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s child exited %s" % (mode, proc.returncode))
    return json.loads(lines[-1])


def _p90(values):
    ranked = sorted(values)
    return ranked[math.ceil(0.9 * len(ranked)) - 1]


def measure(args, workdir):
    """Run one workload; returns (result line, human summary)."""
    deadline = time.monotonic() + RUN_TIMEOUT
    if args.trace:
        res = _spawn(args, workdir, "trace", deadline, args.seconds)
        attempted, failed = res["attempted"], res["failed"]
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["metrics"].items()}
        metrics["fail_ratio"] = {"value": failed / attempted,
                                 "unit": "ratio"}
        summary = "%s seed=%d: %d untraced + %d traced ops, %d spans" % (
            args.workload, args.seed, res["ops"]["untraced"],
            res["ops"]["traced"], res["ops"]["spans"])
    else:
        runs = [_spawn(args, workdir, "setup", deadline)
                for _ in range(SETUP_SPAWNS - 1)]
        res = _spawn(args, workdir, "loop", deadline, args.seconds)
        runs.append(res)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        times = res["times"]
        p90 = _p90(times)
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times),
                          "unit": "reports/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(times),
                          "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
            "setup_s": {"value": statistics.median(r["setup_s"]
                                                   for r in runs),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
        summary = ("%s seed=%d: %d ops, %d beyond p90; the reference "
                   "kernel took %.3f ms" % (
                       args.workload, args.seed, len(times),
                       sum(t > p90 for t in times), res["kernel_ms"]))
        res = {"errors": [e for r in runs for e in r["errors"]]}
    for err in res["errors"]:
        print("failed op: %s" % err, file=sys.stderr)
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join("src", "finsler", "cli.py"), "configs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("bench: %s is missing; run from a finsler checkout" % need,
                  file=sys.stderr)
            return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            args.workload = name
            line, summary = measure(args, workdir)
            print("# " + summary)
            if len(names) > 1:
                for key, m in line["metrics"].items():
                    print("#   %-52s %14.6g %s" % (key, m["value"],
                                                  m["unit"]))
                print("#   fail_ratio %d/%d" % (line["failed"],
                                               line["attempted"]))
            print(json.dumps(line), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("bench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
