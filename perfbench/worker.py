"""One workload in one fresh process: set up, run timed operations, check.

``run.py`` starts this script; it talks back through JSON lines on
stdout.  ``--t0`` is the wall-clock time at which the parent started
this process, so ``setup_s`` counts interpreter start and imports.

A workload object provides:

* ``setup()`` -- everything before the first timed operation;
* ``prepare(i)`` -- untimed work before operation *i* (draw its input,
  open a fresh store);
* ``operate(i)`` -- the timed operation; returns what ``check`` needs;
* ``check(i, outcome)`` -- untimed output checks; returns the outcome
  class (``"ok"`` or a typed error name) or raises :class:`Failure`;
* ``finish()`` -- untimed checks after the loop; returns failure
  counts by class;
* ``probe(tracer)`` -- traced replays only: untimed requests after the
  loop, traced past the prefix; returns failure counts by class;
* ``census`` -- counts over the first ``census_ops`` operations, which
  must repeat exactly for one seed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import reference_loop, run_loop  # noqa: E402

#: timings of the reference loop right after set-up (untimed)
SETUP_CALIBRATIONS = 3


def emit(event, **fields):
    fields["event"] = event
    sys.stdout.write(json.dumps(fields, sort_keys=True) + "\n")
    sys.stdout.flush()


def load_workload(name):
    if name == "concretize":
        from wl_concretize import ConcretizeWorkload as cls
    elif name == "install":
        from wl_install import InstallWorkload as cls
    elif name == "service":
        from wl_service import ServiceWorkload as cls
    else:
        raise SystemExit("unknown workload %r" % name)
    return cls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-ops", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--part", type=int, default=0)
    args = parser.parse_args(argv)

    cls = load_workload(args.workload)
    tracer = None
    if args.trace_out and cls.traces_in_process:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        intern_before = layers.intern_stats()

    workload = cls(args.seed, args.scratch, trace_out=args.trace_out,
                   part=args.part)
    try:
        workload.setup()
        if tracer is not None:
            tracer.active = False
        setup_s = workload.setup_seconds(args.t0)
        workload.calibration.extend(
            reference_loop() for _ in range(SETUP_CALIBRATIONS))
        emit("ready", setup_s=setup_s, calibration=workload.calibration)
        if args.setup_only:
            return 0
        failures, loop_s = run_loop(workload, args.seconds, args.max_ops, tracer)
        extra = workload.finish()
        if tracer is not None:
            for kind, n in workload.probe(tracer).items():
                extra[kind] = extra.get(kind, 0) + n
        for kind, n in extra.items():
            failures[kind] = failures.get(kind, 0) + n
    finally:
        workload.close()
    result = {
        "setup_s": setup_s,
        "latencies": workload.latencies,
        "calibration": workload.calibration,
        "loop_s": loop_s,
        "failures": failures,
        "wrong": workload.wrong_answers,
        "census": workload.census,
        "phases": workload.phase_seconds(),
        "peak_rss_mb": workload.peak_rss_mb(),
        "op_labels": workload.op_labels[: workload.census_ops],
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(args.trace_out, extra={"intern": {
            key: value - intern_before[key]
            for key, value in layers.intern_stats().items()
        }})
    emit("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
