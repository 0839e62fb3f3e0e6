"""Metrics export (Prometheus + bench schema) and the compare engine."""

import glob
import json
import os

import pytest

from repro.telemetry import MemorySink, Telemetry, bench_report, prometheus_text
from repro.telemetry.compare import (
    compare_reports,
    format_comparison,
    higher_is_better,
    load_report,
    tolerance_for,
)
from repro.telemetry.metrics import BENCH_SCHEMA, flatten_metrics


class TestFlatten:
    def test_nested_dicts_become_dotted_keys(self):
        flat = flatten_metrics({"a": {"b": 1, "c": {"d": 2.5}}, "e": 3})
        assert flat == {"a.b": 1, "a.c.d": 2.5, "e": 3}

    def test_bools_become_ints_lists_become_lengths(self):
        flat = flatten_metrics({"ok": True, "divergences": [], "bad": [1, 2]})
        assert flat == {"ok": 1, "divergences": 0, "bad": 2}

    def test_strings_and_none_dropped(self):
        assert flatten_metrics({"name": "x", "gone": None, "n": 7}) == {"n": 7}


class TestBenchReport:
    def test_schema_shape(self):
        report = bench_report("demo", {"wall_seconds": 1.5}, meta={"nodes": 16})
        assert report["schema"] == BENCH_SCHEMA
        assert report["bench"] == "demo"
        assert report["metrics"] == {"wall_seconds": 1.5}
        assert report["meta"] == {"nodes": 16}
        json.dumps(report)  # must serialize

    def test_metrics_keys_sorted(self):
        report = bench_report("demo", {"z": 1, "a": 2})
        assert list(report["metrics"]) == ["a", "z"]

    def test_all_string_payload_rejected(self):
        with pytest.raises(ValueError):
            bench_report("demo", {"status": "fine"})


class TestPrometheus:
    def _snapshot(self):
        hub = Telemetry()
        hub.add_sink(MemorySink())
        hub.count("buildcache.hit", 3)
        hub.gauge("scheduler.queue_depth", 5)
        hub.observe("install.node", 0.25)
        return hub.snapshot()

    def test_counters_gauges_histograms_render(self):
        text = prometheus_text(self._snapshot())
        assert "# TYPE repro_buildcache_hit_total counter" in text
        assert "repro_buildcache_hit_total 3.0" in text
        assert "# TYPE repro_scheduler_queue_depth gauge" in text
        assert "# TYPE repro_install_node_seconds summary" in text
        assert 'repro_install_node_seconds{quantile="0.50"} 0.25' in text
        assert "repro_install_node_seconds_count 1" in text
        assert "repro_telemetry_drops_total 0.0" in text

    def test_rendering_is_deterministic(self):
        snap = self._snapshot()
        assert prometheus_text(snap) == prometheus_text(snap)

    def test_handles_empty_histogram_fields(self):
        text = prometheus_text(
            {"counters": {}, "gauges": {},
             "histograms": {"h": {"count": 0, "total": 0.0, "min": None,
                                  "max": None, "mean": 0.0, "p50": None,
                                  "p95": None, "p99": None}}}
        )
        assert 'repro_h_seconds{quantile="0.50"} NaN' in text


class TestDirections:
    def test_lower_better_defaults_and_time_keys(self):
        assert not higher_is_better("wall_seconds")
        assert not higher_is_better("cold_seconds")
        assert not higher_is_better("baseline_s")
        assert not higher_is_better("unknown_metric")
        assert not higher_is_better("warm_build_spans")
        assert not higher_is_better("divergences")

    def test_higher_better_keys(self):
        assert higher_is_better("speedup_j4")
        assert higher_is_better("buildcache_hits")
        assert higher_is_better("utilization")

    def test_seconds_suffix_only_ends_a_key_or_component(self):
        assert not higher_is_better("latency_p50_s")
        assert not higher_is_better("j2.wall_s.median")
        # "_s" starting a word is no unit: these are speedups
        assert higher_is_better("warm_speedup_1k")
        assert higher_is_better("speedup_spliced_vs_cold")
        assert higher_is_better("j4.speedup_vs_serial")

    def test_every_committed_baseline_key_reads_its_direction(self):
        """Every key of benchmarks/results/BENCH_*.json: the gate reads
        exactly these as higher-is-better, every other one lower."""
        higher = {
            "buildcache_hits", "speedup_warm_vs_cold",
            "speedup",
            "j1.speedup_vs_serial", "j2.speedup_vs_serial",
            "j4.speedup_vs_serial", "speedup_j4",
            "provider_memo_hit_ratio_1k", "provider_memo_hit_ratio_5k",
            "provider_memo_hit_ratio_10k",
            "warm_speedup_1k", "warm_speedup_5k", "warm_speedup_10k",
            "throughput_rps",
            "speedup_spliced_vs_cold", "splice_hits",
            "rescue_rate", "rescued", "proven_optimal_rate",
            "provenance_identical",
        }
        results = os.path.join(os.path.dirname(__file__), "..", "..",
                               "benchmarks", "results")
        keys = set()
        for path in glob.glob(os.path.join(results, "BENCH_*.json")):
            keys.update(load_report(path)["metrics"])
        assert higher <= keys and len(keys) > 80
        wrong = sorted(k for k in keys if higher_is_better(k) != (k in higher))
        assert wrong == []

    def test_lower_better_wins_conflicts(self):
        # "speedup...seconds" reads as a time: lower-better wins
        assert not higher_is_better("speedup_seconds")

    def test_tolerance_overrides_first_match_wins(self):
        overrides = (("*_seconds", 0.75), ("*", 0.1))
        assert tolerance_for("wall_seconds", 0.2, overrides) == 0.75
        assert tolerance_for("speedup", 0.2, overrides) == 0.1
        assert tolerance_for("speedup", 0.2, None) == 0.2


class TestCompare:
    def _report(self, metrics, meta=None):
        return {"schema": BENCH_SCHEMA, "bench": "demo",
                "metrics": metrics, "meta": meta or {}}

    def test_25pct_slowdown_is_a_regression(self):
        out = compare_reports(
            self._report({"wall_seconds": 1.0}),
            self._report({"wall_seconds": 1.25}),
        )
        assert not out["ok"]
        assert out["regressions"] == ["wall_seconds"]

    def test_within_tolerance_is_ok(self):
        out = compare_reports(
            self._report({"wall_seconds": 1.0}),
            self._report({"wall_seconds": 1.15}),
        )
        assert out["ok"]

    def test_direction_awareness_speedup_drop_regresses(self):
        out = compare_reports(
            self._report({"speedup_j4": 2.5}),
            self._report({"speedup_j4": 1.5}),
        )
        assert out["regressions"] == ["speedup_j4"]
        # and a speedup *gain* is an improvement, not a regression
        out = compare_reports(
            self._report({"speedup_j4": 2.5}),
            self._report({"speedup_j4": 4.0}),
        )
        assert out["ok"]
        assert out["rows"][0]["status"] == "improved"

    def test_appearance_from_zero_baseline_regresses(self):
        # 0 warm build spans becoming 1 is a broken cache — no relative
        # delta exists, it must still trip the gate
        out = compare_reports(
            self._report({"warm_build_spans": 0}),
            self._report({"warm_build_spans": 1}),
        )
        assert out["regressions"] == ["warm_build_spans"]

    def test_added_removed_keys_not_fatal(self):
        out = compare_reports(
            self._report({"old_key": 1.0}),
            self._report({"new_key": 2.0}),
        )
        assert out["ok"]
        statuses = {r["key"]: r["status"] for r in out["rows"]}
        assert statuses == {"old_key": "removed", "new_key": "added"}

    def test_meta_changes_flagged_not_fatal(self):
        out = compare_reports(
            self._report({"x": 1.0}, meta={"nodes": 16}),
            self._report({"x": 1.0}, meta={"nodes": 32}),
        )
        assert out["ok"]
        assert any(r["status"] == "config-changed" for r in out["rows"])

    def test_format_lists_regressions(self):
        out = compare_reports(
            self._report({"wall_seconds": 1.0}),
            self._report({"wall_seconds": 2.0}),
        )
        text = format_comparison(out)
        assert "1 REGRESSION" in text
        assert "wall_seconds" in text
        assert "+100.0%" in text


class TestLoadReport:
    def test_v1_schema_passthrough(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(bench_report("demo", {"x": 1.0})))
        loaded = load_report(str(path))
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["bench"] == "demo"
        assert loaded["metrics"] == {"x": 1.0}

    def test_legacy_nested_file_flattens(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(
            {"runs": {"4": {"wall_seconds": 0.7}}, "speedup_j4": 2.5,
             "divergences": [], "note": "ignored"}
        ))
        loaded = load_report(str(path))
        assert loaded["schema"] == "legacy"
        assert loaded["bench"] == "old"
        assert loaded["metrics"] == {
            "runs.4.wall_seconds": 0.7, "speedup_j4": 2.5, "divergences": 0,
        }

    def test_legacy_and_v1_comparable(self, tmp_path):
        old = tmp_path / "BENCH_b.json"
        old.write_text(json.dumps({"wall_seconds": 1.0}))
        new = tmp_path / "BENCH_b2.json"
        new.write_text(json.dumps(bench_report("b", {"wall_seconds": 1.1})))
        out = compare_reports(load_report(str(old)), load_report(str(new)))
        assert out["ok"]
