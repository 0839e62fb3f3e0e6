"""Benchmark comparison: direction-aware regression detection.

:func:`compare_reports` takes two benchmark result files — a committed
baseline and a fresh run — and classifies every shared metric as
``ok`` / ``improved`` / ``regression`` under a relative tolerance.  It
is the engine behind ``repro-spack diag compare`` and the CI gate
(``benchmarks/check_regression.py``).

The subtlety a naive percent-diff misses is **direction**: for
``wall_seconds`` up is bad, for ``speedup_j4`` *down* is bad.
:func:`higher_is_better` encodes the convention used across
``benchmarks/results/``; per-key tolerance overrides handle the fact
that wall-clock seconds on shared CI runners jitter far more than
counters do.

Loading is tolerant: files on the ``repro-bench/v1`` schema (see
:mod:`repro.telemetry.metrics`) are read as-is, legacy flat/nested JSON
is flattened to dotted numeric keys — so the gate kept working across
the schema migration and old artifacts stay diffable.
"""

import fnmatch
import json
import os
import re

from repro.telemetry.metrics import BENCH_SCHEMA, flatten_metrics

#: default relative tolerance: >20% in the bad direction is a regression
DEFAULT_TOLERANCE = 0.20

#: key fragments marking metrics where *larger* is the good direction
#: (``rescue`` covers the solver's ``rescue_rate`` and ``rescued``)
_HIGHER_BETTER = ("speedup", "hit_ratio", "throughput", "utilization",
                  "hits", "ops_per_s", "rescue", "proven_optimal",
                  "provenance_identical")

#: key fragments forcing lower-is-better even when a higher-better
#: fragment also matches (checked first)
_LOWER_BETTER = ("seconds", "wall", "overhead", "misses", "drops",
                 "divergences", "spans", "duration")

#: the seconds unit suffix: ``_s`` ending the key or one of its dotted
#: components (``latency_p50_s``), not inside a word
#: (``warm_speedup_1k``, ``speedup_spliced_vs_cold``)
_SECONDS_SUFFIX = re.compile(r"_s(\.|$)")


def higher_is_better(key):
    """True when an increase in ``key`` is an improvement."""
    low = key.lower()
    if _SECONDS_SUFFIX.search(low):
        return False
    for fragment in _LOWER_BETTER:
        if fragment in low:
            return False
    for fragment in _HIGHER_BETTER:
        if fragment in low:
            return True
    return False  # unknown metrics default to lower-is-better


def load_report(path):
    """Read one result file into ``{"bench", "schema", "metrics", "meta"}``.

    ``repro-bench/v1`` files pass through; anything else (legacy flat or
    nested JSON) gets its numeric leaves flattened to dotted keys and a
    bench name derived from the filename (``BENCH_buildcache.json`` ->
    ``buildcache``).
    """
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict) and data.get("schema") == BENCH_SCHEMA:
        return {
            "schema": BENCH_SCHEMA,
            "bench": data.get("bench"),
            "metrics": dict(data.get("metrics", {})),
            "meta": dict(data.get("meta", {})),
        }
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_"):]
    return {
        "schema": "legacy",
        "bench": stem,
        "metrics": flatten_metrics(data),
        "meta": {},
    }


def tolerance_for(key, default=DEFAULT_TOLERANCE, overrides=None):
    """The relative tolerance for ``key``: the first matching
    ``(glob_pattern, tolerance)`` override wins, else ``default``."""
    for pattern, tol in overrides or ():
        if fnmatch.fnmatch(key, pattern):
            return tol
    return default


def compare_reports(baseline, current, tolerance=DEFAULT_TOLERANCE,
                    overrides=None):
    """Compare two loaded reports; return rows plus a verdict.

    Every key present in both is classified:

    * ``regression`` — moved more than its tolerance in the bad
      direction (or appeared from a zero baseline in a lower-is-better
      key: 0 build spans becoming 1 is a broken cache, not 100% noise);
    * ``improved`` — moved more than its tolerance in the good direction;
    * ``ok`` — within tolerance.

    Keys only in one file are reported as ``added``/``removed`` (never
    fatal: schema growth is normal).  Changed ``meta`` values are
    reported as ``config-changed`` — the comparison is still performed,
    but the caller knows the experiment differs.
    """
    rows = []
    base_metrics = baseline["metrics"]
    cur_metrics = current["metrics"]

    for key in sorted(set(base_metrics) | set(cur_metrics)):
        if key not in base_metrics:
            rows.append({"key": key, "status": "added",
                         "baseline": None, "current": cur_metrics[key]})
            continue
        if key not in cur_metrics:
            rows.append({"key": key, "status": "removed",
                         "baseline": base_metrics[key], "current": None})
            continue
        old = float(base_metrics[key])
        new = float(cur_metrics[key])
        tol = tolerance_for(key, tolerance, overrides)
        up_good = higher_is_better(key)
        row = {
            "key": key,
            "baseline": old,
            "current": new,
            "tolerance": tol,
            "direction": "higher-better" if up_good else "lower-better",
        }
        if old == 0.0:
            # no scale for a relative delta: any appearance in the bad
            # direction is a regression, the rest is ok
            row["delta_pct"] = None
            if not up_good and new > 0.0:
                row["status"] = "regression"
            elif up_good and new < 0.0:
                row["status"] = "regression"
            else:
                row["status"] = "ok"
        else:
            delta = (new - old) / abs(old)
            row["delta_pct"] = delta * 100.0
            bad = -delta if up_good else delta
            if bad > tol:
                row["status"] = "regression"
            elif bad < -tol:
                row["status"] = "improved"
            else:
                row["status"] = "ok"
        rows.append(row)

    for key in sorted(set(baseline.get("meta", {})) | set(current.get("meta", {}))):
        old = baseline.get("meta", {}).get(key)
        new = current.get("meta", {}).get(key)
        if old != new:
            rows.append({"key": "meta.%s" % key, "status": "config-changed",
                         "baseline": old, "current": new})

    regressions = [r for r in rows if r["status"] == "regression"]
    return {
        "bench": current.get("bench") or baseline.get("bench"),
        "rows": rows,
        "regressions": [r["key"] for r in regressions],
        "ok": not regressions,
    }


def format_comparison(report, verbose=False):
    """Human-readable comparison table (the ``diag compare`` output)."""
    lines = []
    header = "benchmark: %s — %s" % (
        report["bench"] or "(unnamed)",
        "OK" if report["ok"]
        else "%d REGRESSION(S)" % len(report["regressions"]),
    )
    lines.append(header)
    lines.append("%-12s %-44s %14s %14s %9s" % (
        "status", "metric", "baseline", "current", "delta",
    ))
    for row in report["rows"]:
        if not verbose and row["status"] == "ok":
            continue
        delta = row.get("delta_pct")
        delta_text = "%+8.1f%%" % delta if delta is not None else "        -"
        lines.append("%-12s %-44s %14s %14s %s" % (
            row["status"].upper() if row["status"] == "regression"
            else row["status"],
            row["key"],
            _fmt(row["baseline"]),
            _fmt(row["current"]),
            delta_text,
        ))
    shown = len([r for r in report["rows"]
                 if verbose or r["status"] != "ok"])
    if shown == 0:
        lines.append("  (all %d metrics within tolerance)" % len(report["rows"]))
    return "\n".join(lines) + "\n"


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return "%.4f" % value
    if isinstance(value, (int, float)):
        return "%g" % value
    return str(value)
