"""One benchmark process: a fresh interpreter running one workload.

Spawned by ``run.py``; prints one JSON line on stdout and exits.  Times
are in reference seconds (see ``calibrate.py``).

``--mode setup``  import ``finsler.cli`` and run one warm-up op per config
                  family, then report the set-up time, counted from
                  ``--spawned-at`` (CLOCK_MONOTONIC, taken by the parent
                  just before the spawn).
``--mode loop``   set-up, then a closed loop with one client for
                  ``--seconds`` and at least ``--min-ops`` ops: the next
                  op starts when the previous report is verified.
``--mode trace``  set-up, then the loop untraced and again traced for half
                  of ``--seconds`` each, then the layer probes.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calibrate
import probes
import verify
import workloads
from tracer import Tracer

# seconds between two timings of the reference kernel
CALIBRATE_EVERY = 0.5


class Runner:
    """Writes each op's config, runs it and keeps the failure account."""

    def __init__(self, cli, workload, seed, configs_dir, workdir):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.configs_dir = configs_dir
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.scales = []
        self._k = 0

    def one(self, op, before=None, tracer=None):
        """Run and verify ``op``; returns (raw wall seconds, outcome).

        ``before`` is the `verify.Outcome` of an earlier run of the same
        config, whose bytes this run must reproduce.
        """
        self._k += 1
        base = os.path.join(self.workdir, "op%d" % self._k)
        with open(base + ".json", "w", encoding="utf-8") as fp:
            fp.write(op.text)
        if tracer is not None:
            tracer.op = self._k
        t0 = time.perf_counter()
        # look main up per call, so an installed tracer sees it
        res = verify.execute(self.cli.main, op, base + ".json",
                             base + ".out" + op.suffix)
        if (before is not None and res.error is None
                and (res.report, res.csv) != (before.report, before.csv)):
            res.error = "repeated config gave different bytes"
        dt = time.perf_counter() - t0
        os.remove(base + ".json")
        self.attempted += 1
        if res.error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: %s" % (op.family, res.error))
        return dt, res

    def warmup(self):
        for op in workloads.warmup_ops(self.workload, self.seed):
            self.one(op)

    def loop(self, seconds, min_ops, part=0, tracer=None):
        """Closed loop over stream ``part``; returns each op's reference
        seconds."""
        ops = workloads.stream(self.workload, self.seed, self.configs_dir,
                               part)
        seen = set()
        recent = []      # (op, outcome) of the latest fresh ops
        fresh = 0
        repeat_due = False
        times = []
        start = time.perf_counter()
        deadline = start + seconds
        hard = start + seconds + min(2.0 * seconds, 60.0)
        calibrated = start - CALIBRATE_EVERY
        while True:
            now = time.perf_counter()
            if now >= hard or (now >= deadline and len(times) >= min_ops):
                break
            if now - calibrated >= CALIBRATE_EVERY:
                scale = calibrate.scale()
                self.scales.append(scale)
                calibrated = time.perf_counter()
            if repeat_due:
                repeat_due = False
                op, before = recent[(fresh // workloads.REPEAT_EVERY)
                                    % len(recent)]
                dt, _ = self.one(op, before, tracer)
            else:
                op = next(ops)
                if op.text in seen:
                    raise RuntimeError("stream repeated a config: %s"
                                       % op.text)
                seen.add(op.text)
                dt, res = self.one(op, tracer=tracer)
                fresh += 1
                recent = (recent + [(op, res)])[-workloads.REPEAT_EVERY:]
                repeat_due = fresh % workloads.REPEAT_EVERY == 0
            times.append(dt * scale)
        return times


def _trace_metrics(tracer, n_ops, scale, overhead):
    m = {}
    for idx, name in enumerate(tracer.names):
        m[name + ".calls"] = (tracer.calls[idx] / n_ops, "calls/op")
        m[name + ".self_ms"] = (1e3 * scale * tracer.self_s[idx] / n_ops,
                                "ms/op")
    k = tracer.index("connection.christoffel")
    solves = tracer.calls[k]
    returned = solves - tracer.raised[k]
    m["connection.christoffel.dense_share"] = (
        tracer.christoffel_dense / returned if returned else 0.0, "ratio")
    m["connection.christoffel.iters_mean"] = (
        tracer.christoffel_iters / returned if returned else 0.0, "iters")
    m["connection.christoffel.raised"] = (tracer.raised[k] / n_ops, "1/op")
    cone = tracer.calls[tracer.index("lagrangian.is_admissible")]
    m["lagrangian.is_admissible.per_solve"] = (
        cone / solves if solves else 0.0, "ratio")
    m["scipy.solve_ivp.nfev"] = (tracer.ivp_nfev / n_ops, "1/op")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def _trace(runner, seconds, min_ops, spans_path):
    half = 0.5 * seconds
    plain = runner.loop(half, min_ops)
    tracer = Tracer()
    missing = tracer.install()
    mark = len(runner.scales)
    try:
        traced = runner.loop(half, min_ops, 1, tracer)
    finally:
        tracer.uninstall()
    if missing:
        print("spans with no binding: %s" % ", ".join(missing),
              file=sys.stderr)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = _trace_metrics(tracer, len(traced),
                             statistics.median(runner.scales[mark:]),
                             overhead)
    for key, (us, spread) in probes.run().items():
        metrics["probe.%s_us" % key] = (us, "us")
        metrics["probe.%s_spread" % key] = (spread, "ratio")
    tracer.dump(spans_path)
    return {"metrics": metrics,
            "ops": {"untraced": len(plain), "traced": len(traced),
                    "spans": tracer.n_spans}}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--mode", choices=("setup", "loop", "trace"),
                    required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    import finsler.cli as cli
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print("finsler was imported from %s, not %s" % (cli.__file__, src),
              file=sys.stderr)
        return 2
    runner = Runner(cli, args.workload, args.seed,
                    os.path.join(args.root, "configs"), args.workdir)
    runner.warmup()
    setup = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    out = {"setup_s": setup * calibrate.scale(reps=5)}

    if args.mode == "loop":
        out["times"] = runner.loop(args.seconds, args.min_ops)
        out["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["kernel_ms"] = 1e3 * calibrate.REFERENCE_S / statistics.median(
            runner.scales)
    elif args.mode == "trace":
        out.update(_trace(runner, args.seconds, args.min_ops,
                          os.path.join(os.path.dirname(args.workdir),
                                       "spans-%s.npz" % args.workload)))
    out.update(attempted=runner.attempted, failed=runner.failed,
               errors=runner.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
