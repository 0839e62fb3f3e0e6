"""End-to-end benchmark: concretize, install and service workloads.

    python3 perfbench/run.py --workload concretize --seed 1 --seconds 36 --trace 0

Each workload runs in fresh worker processes (``worker.py``) through the
program's real entry points.  With ``--trace 0`` the run sets up
``SETUP_RUNS`` times, measures for ``--seconds`` and prints every
end-to-end metric; with ``--trace 1`` it replays the census prefix
with the layer wrappers of ``layers.py`` installed and without, and
prints every per-layer metric.  Either way a report goes to
standard output first and one JSON result object is its last line.
See ``NOTES.md`` for the workloads, metrics and the layer mapping.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("concretize", "install", "service")

#: set-ups per untraced run (each part's set-up is one of them).  An
#: untraced run measures the workload's ``parts`` fresh worker processes
#: in turn, each for --seconds / parts on inputs of its own; the run's
#: peak RSS is their median, so one extreme request does not set it.
SETUP_RUNS = 5
#: wall-clock limit for the whole run, every worker included
RUN_TIMEOUT_S = 170

#: reference time of ``harness.reference_loop`` (its usual time in the
#: quiet spells of a 2-core x86-64 VM).  Every time metric is reported
#: at this speed of the loop: a measured time is multiplied by
#: REFERENCE_LOOP_S over the loop's mean time in the same run.  The
#: report also prints the unscaled values.
REFERENCE_LOOP_S = 0.006

#: end-to-end metrics: name -> unit (every workload reports each)
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    pass


def run_worker(args, scratch, extra=(), seconds=None):
    """Start one worker, wait for it (until ``args.deadline``), and
    return its JSON events."""
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds or args.seconds), "--scratch", scratch,
        "--t0", repr(time.time()),
    ] + list(extra)
    # its own process group, so a timeout also stops the daemon it starts
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, args.deadline - time.time()))
    except subprocess.TimeoutExpired as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("worker timed out: %s" % " ".join(cmd)) from error
    events = {}
    for line in stdout.decode("utf-8", "replace").splitlines():
        line = line.strip()
        if line.startswith("{"):
            event = json.loads(line)
            events[event.pop("event")] = event
    if proc.returncode != 0 or "ready" not in events:
        raise BenchmarkError("worker failed (exit %d): %s"
                             % (proc.returncode, " ".join(cmd)))
    return events


def percentile(values, fraction):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(round(fraction * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def census_path(workload, seed):
    return os.path.join(ROOT, ".perfbench", "census", "%s-%d.json" % (workload, seed))


def compare_census(workload, seed, census):
    """Compare with the last census stored for this workload and seed
    (common keys only: traced runs add layer counts); store this one.
    Returns ``[(key, before, now)]`` for every count that moved."""
    path = census_path(workload, seed)
    try:
        with open(path) as f:
            before = json.load(f)
    except (OSError, ValueError):
        before = {}
    moved = [
        (key, before[key], census[key])
        for key in sorted(set(before) & set(census))
        if before[key] != census[key]
    ]
    merged = dict(before)
    merged.update(census)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    return moved


def report_census(census, moved, out):
    for key in sorted(census):
        out.write("census %-48s %d\n" % (key, census[key]))
    for key, before, now in moved:
        out.write("DETERMINISM BUG: census %s is %d and %d in two runs of "
                  "this seed\n" % (key, before, now))


def timed_run(args, scratch, out):
    from worker import load_workload

    count = load_workload(args.workload).parts
    setups = []
    calibration = []
    parts = []
    measured = 0.0
    for k in range(count):
        # whole parts, by the rule run_loop applies to units: a part
        # whose work outlasts its share (an install pass) leaves the
        # run fewer, longer parts
        if k and measured + measured / k / 2 >= args.seconds:
            break
        events = run_worker(args, os.path.join(scratch, "part-%d" % k),
                            ["--part", str(k)], seconds=args.seconds / count)
        if "result" not in events:
            raise BenchmarkError("worker printed no result")
        parts.append(events["result"])
        setups.append(events["result"]["setup_s"])
        calibration.extend(events["result"]["calibration"])
        measured += events["result"]["loop_s"]
    for k in range(SETUP_RUNS - len(setups)):
        events = run_worker(args, os.path.join(scratch, "setup-%d" % k),
                            ["--setup-only"])
        setups.append(events["ready"]["setup_s"])
        calibration.extend(events["ready"]["calibration"])
    raw = [x for part in parts for x in part["latencies"]]
    reference_s = statistics.mean(calibration)
    scale = REFERENCE_LOOP_S / reference_s
    latencies = [x * scale for x in raw]
    failures = {}
    for part in parts:
        for kind, n in part["failures"].items():
            failures[kind] = failures.get(kind, 0) + n
    wrong = [line for part in parts for line in part["wrong"]]
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "requests_per_s": len(latencies) / sum(latencies),
        "request_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": statistics.median(part["peak_rss_mb"] for part in parts),
    }
    failed = sum(failures.values())
    attempted = len(latencies)

    out.write("workload %s seed %d: %d operations in %.1f s over %d processes, "
              "%d set-ups\n" % (args.workload, args.seed, attempted,
                                measured, len(parts), len(setups)))
    out.write("reference loop %.4f ms (mean of %d timings), so times are "
              "scaled by %.4f\n" % (1000.0 * reference_s, len(calibration), scale))
    for name, unit in END_TO_END.items():
        out.write("metric %-16s %12.4f %s\n" % (name, metrics[name], unit))
    out.write("unscaled setup_s %.4f s, requests_per_s %.4f 1/s, request_p50_ms "
              "%.4f ms\n" % (statistics.median(setups), len(raw) / sum(raw),
                              1000.0 * statistics.median(raw)))
    # reported, not gated: the install workload has too few requests
    # for a steady 95th percentile (see NOTES.md)
    out.write("metric %-16s %12.4f ms (%d samples above it)\n" % (
        "request_p95_ms", 1000.0 * percentile(latencies, 0.95),
        attempted - int(0.95 * attempted)))
    for name in sorted(parts[0]["phases"]):
        values = [v * scale for part in parts for v in part["phases"][name]]
        out.write("metric %-16s %12.4f s (median of %d passes)\n"
                  % (name, statistics.median(values), len(values)))
    out.write("metric %-16s %12.4f %%\n" % ("failed_pct", 100.0 * failed / attempted))
    for kind, n in sorted(failures.items()):
        out.write("failed %-32s %d\n" % (kind, n))
    for line in wrong:
        out.write("WRONG %s\n" % line)
    # the census covers part 0's prefix: the inputs of this very seed
    census = parts[0]["census"]
    report_census(census, compare_census(args.workload, args.seed, census), out)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }


def traced_run(args, scratch, out):
    import layers

    from worker import load_workload

    ops = load_workload(args.workload).census_ops
    # four replays of exactly the census prefix, in the order traced,
    # untraced, untraced, traced, so a drift in machine speed during the
    # run cancels out of trace.overhead_pct
    replays = []
    for k, traced in enumerate((True, False, False, True)):
        extra = ["--max-ops", str(ops)]
        if traced:
            extra += ["--trace-out", os.path.join(scratch, "trace-%d.json" % k)]
        result = run_worker(args, os.path.join(scratch, "replay-%d" % k),
                            extra)["result"]
        if traced:
            with open(extra[-1]) as f:
                result["trace"] = json.load(f)
            result["census"].update(layer_census(result["trace"], result["op_labels"]))
        replays.append(result)
    first = replays[0]
    seconds = [sum(r["latencies"]) for r in replays]
    # at the reference loop's speed, so a drift of the machine between
    # the replays cancels too
    scaled = [s / statistics.mean(r["calibration"]) for s, r in zip(seconds, replays)]
    overhead = 100.0 * ((scaled[0] + scaled[3]) / (scaled[1] + scaled[2]) - 1.0)
    values = layers.per_layer_metrics(first["trace"], ops, seconds[0], overhead)

    # every replay ran the same seed: counts both saw must agree
    moved = [
        (key, first["census"][key], other["census"][key])
        for other in replays[1:]
        for key in sorted(set(first["census"]) & set(other["census"]))
        if first["census"][key] != other["census"][key]
    ]
    moved += compare_census(args.workload, args.seed, first["census"])
    out.write("workload %s seed %d: %d operations per replay, %.3f s and %.3f s "
              "traced, %.3f s and %.3f s untraced\n"
              % ((args.workload, args.seed, ops) + tuple(seconds[i] for i in (0, 3, 1, 2))))
    for name, unit in layers.metric_specs():
        out.write("layer %-40s %14.4f %s\n" % (name, values[name], unit))
    report_census(first["census"], moved, out)
    return {
        "correct": not any(r["wrong"] for r in replays),
        "attempted": len(first["latencies"]),
        "failed": sum(first["failures"].values()),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.metric_specs()
        },
    }


def layer_census(trace, op_labels):
    """Counts only the wrappers see, over the census prefix: database
    transactions per operation label and summed solver attempts."""
    out = {}
    for record in trace["records"]:
        if record["event"] != "span-end" or not record["trace"]:
            continue
        op = record["trace"] - 1
        if op >= len(op_labels):
            continue
        if record["name"] == "store.db.transaction":
            key = "store.db.transaction.calls/%s" % op_labels[op]
            out[key] = out.get(key, 0) + 1
        elif record["name"] == "core.solver":
            key = "core.solver.attempts"
            out[key] = out.get(key, 0) + record["attrs"].get("attempts", 0)
    return out


def pin_to_one_cpu():
    """Run every worker, and the daemon it starts, on one CPU, the CPU
    the reference loop is timed on: the host slows each CPU of a VM
    on its own, so a loop timed on one CPU says little of another.  The
    closed-loop client and the daemon take turns; the program's thread
    pools hold the GIL."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.time() + RUN_TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin_to_one_cpu()
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        if args.trace:
            result = traced_run(args, scratch, sys.stdout)
        else:
            result = timed_run(args, scratch, sys.stdout)
    except BenchmarkError as error:
        sys.stderr.write("perfbench: %s\n" % error)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
