#!/usr/bin/env python
"""The CI performance regression gate.

Compares a directory of freshly-produced ``BENCH_*.json`` results
against the committed baselines in ``benchmarks/results/`` with
:mod:`repro.telemetry.compare` and exits nonzero when any key metric
regressed beyond tolerance — the ``bench-regression`` CI job's teeth.

Usage (what the CI job runs)::

    cp benchmarks/results/BENCH_*.json /tmp/baseline/   # before benches
    pytest benchmarks/... --benchmark-only               # overwrites results/
    python benchmarks/check_regression.py \
        --baseline /tmp/baseline --current benchmarks/results \
        --report regression-report.json

Tolerances: the default gate is **20%** in the bad direction
(``--tolerance``), with built-in per-key overrides for raw wall-clock
seconds (75% — shared CI runners jitter; the *ratios* those seconds
feed, ``speedup_*``, stay at the strict gate) and for the
telemetry-overhead percentage (gated by its own benchmark assert, and
its near-zero baseline makes relative deltas meaningless).

``--self-test`` verifies the gate itself: it injects a synthetic 25%
slowdown into a copy of one baseline and a 25% drop of a
higher-is-better key into a copy of another, asserts the comparison
trips on each, then compares a file against itself and asserts it
passes.
"""

import argparse
import copy
import glob
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.telemetry.compare import (  # noqa: E402
    compare_reports,
    format_comparison,
    load_report,
)

#: per-key tolerance overrides (fnmatch pattern, relative tolerance);
#: first match wins, everything else uses --tolerance
TOLERANCE_OVERRIDES = (
    # percent-overhead hovers around 0: relative deltas are noise, and
    # the overhead benchmark asserts its own absolute budget
    ("*overhead_pct*", float("inf")),
    # raw wall seconds on shared runners; their speedup ratios stay strict
    ("*_seconds*", 0.75),
    ("*_s", 0.75),
    # requests/second on shared runners jitters like raw wall time; the
    # deterministic coalescing counts next to it stay strict
    ("*throughput*", 0.75),
    # the environment lockfile's warm path is millisecond-scale, so its
    # cold/warm ratio inherits the raw-seconds jitter (unlike the
    # parallel-install speedups, whose numerators are full seconds);
    # the benchmark itself asserts the >=2x floor
    ("*warm_speedup*", 0.75),
    # per-lookup microseconds and RSS vary with the runner's
    # CPU/allocator; the scale benchmark asserts flatness across tiers
    ("*lookup_us*", 0.75),
    ("*_rss_mb*", 0.50),
)

#: the higher-is-better key the self-test drops by 25%: a fall in the
#: solver's rescue rate must trip the gate as a slowdown does
HIGHER_BETTER_PROBE = ("BENCH_solver.json", "rescue_rate")


def gate(baseline_dir, current_dir, tolerance, report_path=None,
         verbose=False, out=sys.stdout):
    """Compare every baseline BENCH_*.json against its fresh twin.
    Returns the number of failing benchmarks (missing or regressed)."""
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not baselines:
        print("error: no BENCH_*.json baselines in %s" % baseline_dir,
              file=sys.stderr)
        return 1

    failures = 0
    results = []
    for base_path in baselines:
        name = os.path.basename(base_path)
        cur_path = os.path.join(current_dir, name)
        if not os.path.exists(cur_path):
            out.write("MISSING      %s (benchmark produced no result)\n" % name)
            results.append({"file": name, "ok": False, "missing": True})
            failures += 1
            continue
        report = compare_reports(
            load_report(base_path),
            load_report(cur_path),
            tolerance=tolerance,
            overrides=TOLERANCE_OVERRIDES,
        )
        out.write(format_comparison(report, verbose=verbose))
        out.write("\n")
        results.append({"file": name, "ok": report["ok"],
                        "regressions": report["regressions"],
                        "rows": report["rows"]})
        if not report["ok"]:
            failures += 1

    # new benchmarks without a committed baseline: informational only
    for cur_path in sorted(glob.glob(os.path.join(current_dir, "BENCH_*.json"))):
        name = os.path.basename(cur_path)
        if not os.path.exists(os.path.join(baseline_dir, name)):
            out.write("NEW          %s (no baseline yet — commit one)\n" % name)

    if report_path:
        with open(report_path, "w") as f:
            json.dump({"tolerance": tolerance, "failures": failures,
                       "benchmarks": results}, f, indent=1, sort_keys=True)
            f.write("\n")

    verdict = ("OK: %d benchmark(s) within tolerance" % len(results)
               if failures == 0
               else "FAILED: %d of %d benchmark(s) regressed or missing"
               % (failures, len(results)))
    out.write("==> %s\n" % verdict)
    return failures


def self_test(baseline_dir, tolerance):
    """Prove the gate can actually catch a slowdown.

    Clones one committed baseline, multiplies a lower-is-better wall
    metric by 1.25 (a 25% slowdown — past the 20% gate), and asserts
    the comparison reports a regression; does the same for a 25% drop
    of :data:`HIGHER_BETTER_PROBE`; then compares the untouched file
    against itself and asserts a clean pass.
    """
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    assert baselines, "no baselines to self-test against"
    path = baselines[0]
    base = load_report(path)

    slowed = copy.deepcopy(base)
    victim = None
    for key in sorted(slowed["metrics"]):
        low = key.lower()
        if "seconds" in low or low.endswith("_s"):
            victim = key
            break
    assert victim is not None, "no wall-clock metric found in %s" % path
    slowed["metrics"][victim] = base["metrics"][victim] * 1.25

    # the seconds override (0.75) must not mask the injected slowdown
    # here: the self-test checks the *detector*, so run it at the bare
    # gate with no overrides
    tripped = compare_reports(base, slowed, tolerance=tolerance)
    assert not tripped["ok"], (
        "gate failed to flag a 25%% slowdown of %s" % victim
    )
    assert victim in tripped["regressions"]

    name, probe = HIGHER_BETTER_PROBE
    rated = load_report(os.path.join(baseline_dir, name))
    dropped = copy.deepcopy(rated)
    dropped["metrics"][probe] = rated["metrics"][probe] * 0.75
    fell = compare_reports(rated, dropped, tolerance=tolerance,
                           overrides=TOLERANCE_OVERRIDES)
    assert probe in fell["regressions"], (
        "gate failed to flag a 25%% drop of %s" % probe
    )

    clean = compare_reports(base, load_report(path), tolerance=tolerance,
                            overrides=TOLERANCE_OVERRIDES)
    assert clean["ok"], "identical files must compare clean: %s" % (
        clean["regressions"],
    )
    print("self-test OK: +25%% on %s and -25%% on %s trip the %.0f%% "
          "gate; identical files pass" % (victim, probe, tolerance * 100.0))
    return 0


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=os.path.join(here, "results"),
                        help="directory of baseline BENCH_*.json files")
    parser.add_argument("--current", default=os.path.join(here, "results"),
                        help="directory of freshly-produced results")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative regression gate (default 0.20)")
    parser.add_argument("--report", metavar="FILE",
                        help="write the full comparison as JSON to FILE")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list in-tolerance metrics too")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate detects an injected 25%% "
                             "slowdown, then exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.baseline, args.tolerance)
    return 1 if gate(args.baseline, args.current, args.tolerance,
                     report_path=args.report, verbose=args.verbose) else 0


if __name__ == "__main__":
    sys.exit(main())
