"""Benchmark for wondertoric: seeded jobs driven through the command line
entry point in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src`.  One client runs a closed loop: each op is one user
request, `cli.main(argv)` from argument parsing to the written output file,
sent only after the previous one has finished.  Ops come in whole rounds
(see workloads.py) until the timed ops add up to --seconds and the
workload's minimum number of rounds is done.  Every op's output is checked
after its clock stops.

--trace 0 prints the end-to-end metrics, with times in reference seconds:
wall time scaled by the host speed that speed.py measures while the ops
run.  --trace 1 takes one round and runs each op untraced and then replayed
through the modules' public functions with spans (tracing.py); it prints
the per-layer metrics and writes the spans to .bench_out/.  The last stdout line is one JSON object.
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7
# The `nested` command's --jobs; its default is os.cpu_count().  One worker
# keeps the op in this process, where the speed probe sees it; the two-worker
# pool is timed in the traced run (jobs.pool_speedup).
NESTED_JOBS = 1
TAIL_BEYOND = 10  # job_tail_s leaves at least this many samples above it


def import_package():
    """Import wondertoric from this checkout's sources, or exit nonzero."""
    if not os.path.isfile(os.path.join(SRC, "wondertoric", "cli.py")):
        sys.exit("bench: no wondertoric sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import wondertoric.cli

    if os.path.dirname(os.path.abspath(wondertoric.__file__)) != os.path.join(SRC, "wondertoric"):
        sys.exit("bench: wondertoric was imported from outside %s" % SRC)
    return wondertoric.cli


def outputs(op, base):
    if op.kind in ("repair", "diverge"):
        return [base + ".fan.json", base + ".betti.json"]
    return [base + ".out.json"]


def execute(cli, op, base):
    """One op through cli.main, as a user would run it; returns the exit code."""
    out = outputs(op, base)
    if op.kind in ("repair", "diverge"):
        rc = cli.main(["goodfan", "--search", "--input", op.job, "--output", out[0]])
        if rc or op.kind == "diverge":
            return rc
        with open(out[0]) as fh:
            fan = json.load(fh)["fan"]
        with open(op.job) as fh:
            doc = json.load(fh)
        doc["fan"] = fan
        with open(base + ".job.json", "w") as fh:
            json.dump(doc, fh)
        return cli.main(["betti", "--input", base + ".job.json", "--output", out[1]])
    argv = [op.kind, "--input", op.job, "--output", out[0]]
    if op.kind == "nested":
        argv += ["--jobs", str(NESTED_JOBS)]
    if op.kind == "stratum":
        argv += ["--nested", json.dumps(op.nested)]
    return cli.main(argv)


def timed_op(run, op, base):
    """Clock one op, then check its output; returns (record, follow-up ops)."""
    from checks import FAILED, check

    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = run(op, base)
    except Exception as exc:  # a crash is a failed op; the run goes on
        rc, note = None, repr(exc)
    else:
        note = err.getvalue().strip()
    end = time.perf_counter()
    verdict, follow = FAILED, []
    if rc is not None:
        try:
            verdict, follow = check(op, rc, outputs(op, base))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            note = "unreadable output: %r" % (exc,)
    rec = {"op": op.name, "kind": op.kind, "start": start, "end": end,
           "seconds": end - start, "exit": rc, "verdict": verdict, "note": note}
    return rec, follow


def run_round(runs, ops, workdir):
    """Ops of one round in order, follow-ups queued behind their parent.
    Each op goes through every runner in turn before the next op starts;
    returns one record list per runner."""
    queue = collections.deque(ops)
    records = [[] for _ in runs]
    while queue:
        op = queue.popleft()
        base = os.path.join(workdir, op.name)
        for i, run in enumerate(runs):
            rec, follow = timed_op(run, op, base + ".r%d" % i)
            records[i].append(rec)
        queue.extend(follow)
    return records


def setup_sample(args, workdir, i):
    """Start and end of a fresh interpreter that imports the package and
    generates and writes the first round's job files, as the run itself does
    before its first op."""
    target = os.path.join(workdir, "setup%d" % i)
    os.makedirs(target)
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-sample", target]
    start = time.perf_counter()
    subprocess.run(argv, check=True)
    return start, time.perf_counter()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(times, n_min):
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile that leaves TAIL_BEYOND samples above it in the smallest run
    the workload can make (n_min ops).  Fixing the percentile per workload
    keeps it the same across runs and commits, whatever their speed."""
    keep = max(1, n_min - TAIL_BEYOND)
    ordered = sorted(times)
    rank = -(-len(ordered) * keep // n_min)  # ceil
    return ordered[rank - 1], 100.0 * keep / n_min, len(ordered) - rank


def harrell_davis_median(times, steps=64):
    """Harrell-Davis estimate of the median: the order statistics averaged
    with Beta((n+1)/2, (n+1)/2) weights.  Where a run's op times fall into
    groups (op kinds, or phases the speed probe corrects only in part), the
    sample median jumps between the groups as their sizes change from run to
    run, while this estimate moves smoothly."""
    ordered = sorted(times)
    n = len(ordered)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def density(x):
        return math.exp(log_norm + (a - 1) * (math.log(x) + math.log(1 - x)))

    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
        for i in range(n)
    ]
    return sum(w * t for w, t in zip(weights, ordered)) / sum(weights)


def summarize(records):
    from checks import FAILED, OK

    return (len(records),
            sum(r["verdict"] != OK for r in records),
            all(r["verdict"] != FAILED for r in records))


def run_timed(cli, wl, args, workdir):
    from checks import OK
    from speed import SpeedProbe

    run = lambda op, base: execute(cli, op, base)
    records, timed, rounds, setups = [], 0.0, 0, []
    with SpeedProbe() as probe:
        while rounds < wl.min_rounds or timed < args.seconds:
            # set-up samples go between rounds, so they see the same machine as the ops
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(args, workdir, len(setups)))
            recs, = run_round([run], wl.round(rounds), workdir)
            records.extend(recs)
            timed += sum(r["seconds"] for r in recs)
            rounds += 1
            if rounds == 1:
                n_min = wl.min_rounds * len(recs)
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args, workdir, len(setups)))
    for r in records:
        r["scaled"] = r["seconds"] * probe.scale(r["start"], r["end"])
    setup_samples = [(end - start) * probe.scale(start, end) for start, end in setups]
    times = [r["scaled"] for r in records]
    verified = sum(r["verdict"] == OK for r in records)
    tail_s, tail_pct, beyond = tail(times, n_min)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (verified / sum(times), "1/s"),
        "job_p50_s": (harrell_davis_median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verified_share": (verified / len(records), "ratio"),
    }
    wall = [r["seconds"] for r in records]
    notes = ["%d rounds, %d ops, %.3f s timed" % (rounds, len(records), timed),
             "times in reference seconds (wall time scaled by the speed probe, "
             "%d probes)" % len(probe.took),
             "wall clock: %.4f jobs/s, p50 %.4f s, setup %.4f s" % (
                 verified / timed, statistics.median(wall),
                 statistics.median(end - start for start, end in setups)),
             "job_tail_s is the p%.1f of %d ops, %d beyond it" % (tail_pct, len(times), beyond),
             "setup samples: %s" % " ".join("%.4f" % s for s in setup_samples)]
    report = {"records": records, "setup_samples": setup_samples,
              "setup_wall": [end - start for start, end in setups],
              "probes": list(zip(probe.at, probe.took)),
              "tail": {"percentile": tail_pct, "samples": len(times), "beyond": beyond}}
    return records, metrics, notes, report


def run_traced(cli, wl, args, workdir):
    from tracing import Tracer, layer_metrics, replay, unit_of

    tracer = Tracer()
    # each op runs untraced and then traced, so drift in machine speed
    # reaches both sides of trace.overhead_share alike
    plain, traced = run_round([
        lambda op, base: execute(cli, op, base),
        lambda op, base: replay(tracer, op, outputs(op, base), base + ".job.json"),
    ], wl.round(0), workdir)
    untraced_total = sum(r["seconds"] for r in plain)
    metrics = {k: (v, unit_of(k)) for k, v in layer_metrics(tracer, untraced_total).items()}
    notes = ["%d ops, each untraced (%.3f s in all) and then traced" % (len(plain), untraced_total)]
    report = {"records": plain + traced, "spans": tracer.dump()}
    return plain + traced, metrics, notes, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cli = import_package()
    sys.path.append(os.path.join(ROOT, "tests"))  # the nested-set reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit("bench: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)))
    if args.setup_sample:
        WORKLOADS[args.workload](args.seed, args.setup_sample).round(0)
        return 0

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        mode = run_traced if args.trace else run_timed
        records, metrics, notes, report = mode(cli, wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, correct = summarize(records)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = "%s-seed%d-%s.json" % (args.workload, args.seed, "trace" if args.trace else "run")
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(dict(report, metrics=metrics), fh, indent=1)
    print("workload %s, seed %d: %s" % (args.workload, args.seed, "; ".join(notes)))
    for r in records:
        if r["verdict"] != "ok":
            print("  %s %s: exit %s, %s" % (r["op"], r["verdict"], r["exit"], r["note"]))
    for k, (v, unit) in metrics.items():
        print("  %-32s %14.6f %s" % (k, v, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
