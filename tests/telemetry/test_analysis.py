"""The trace analysis engine: reconstruction, critical path, rollups.

Two layers of coverage: synthetic hand-built record streams with known
geometry (so the critical-path and concurrency math is checked against
arithmetic, not against itself), and a real ``-j 4`` install of a
16-node diamond DAG whose reconstructed trace must be single-rooted,
orphan-free, and whose critical path must agree with the measured
install wall clock.
"""

import io
import json
import os
import time

import pytest

from repro.telemetry import MemorySink, TraceAnalysis
from repro.telemetry.sinks import JSONLSink


def _span(span_id, name, start, end, parent=None, trace=1, attrs=None):
    """A start/end record pair with explicit geometry."""
    base = {
        "name": name,
        "span": span_id,
        "parent": parent,
        "trace": trace,
        "attrs": attrs or {},
    }
    return [
        dict(base, event="span-start", ts=start),
        dict(base, event="span-end", ts=end, duration_s=end - start),
    ]


class TestReconstruction:
    def test_rebuilds_the_tree(self):
        records = (
            _span(1, "root", 0.0, 10.0)
            + _span(2, "left", 0.0, 4.0, parent=1)
            + _span(3, "right", 5.0, 9.0, parent=1)
        )
        a = TraceAnalysis(records)
        assert len(a.roots) == 1
        root = a.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["left", "right"]
        assert a.orphans == []

    def test_children_sorted_by_start_time(self):
        records = (
            _span(1, "root", 0.0, 10.0)
            + _span(3, "late", 5.0, 6.0, parent=1)
            + _span(2, "early", 1.0, 2.0, parent=1)
        )
        a = TraceAnalysis(records)
        assert [c.name for c in a.roots[0].children] == ["early", "late"]

    def test_orphans_are_surfaced_not_lost(self):
        records = _span(1, "root", 0.0, 1.0) + _span(
            9, "lost", 0.2, 0.8, parent=777
        )
        a = TraceAnalysis(records)
        assert [o.name for o in a.orphans] == ["lost"]
        # traces() still accounts for it, so single-rootedness checks see it
        assert len(a.traces()[1]) == 2

    def test_traces_grouped_by_trace_id(self):
        records = _span(1, "a", 0.0, 1.0, trace=1) + _span(
            2, "b", 2.0, 3.0, trace=2
        )
        by_trace = TraceAnalysis(records).traces()
        assert {t: [r.name for r in roots] for t, roots in by_trace.items()} == {
            1: ["a"], 2: ["b"],
        }

    def test_unfinished_span_tolerated(self):
        records = _span(1, "root", 0.0, 1.0)
        records.append(
            {"event": "span-start", "name": "hung", "span": 2, "parent": 1,
             "trace": 1, "ts": 0.5, "attrs": {}}
        )
        a = TraceAnalysis(records)
        hung = a.spans[2]
        assert not hung.finished
        assert hung.self_time_s == 0.0
        assert a.critical_path()  # never trips over it

    def test_from_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w") as f:
            for record in _span(1, "op", 0.0, 1.0):
                f.write(json.dumps(record) + "\n")
        a = TraceAnalysis.from_jsonl(path)
        assert a.roots[0].name == "op"


class TestCriticalPath:
    def test_last_finishing_child_chain(self):
        # root waits on right (ends last); before right started, on left
        records = (
            _span(1, "root", 0.0, 10.0)
            + _span(2, "left", 0.0, 4.0, parent=1)
            + _span(3, "right", 5.0, 10.0, parent=1)
            + _span(4, "idle", 0.0, 1.0, parent=1)  # dominated by left
        )
        a = TraceAnalysis(records)
        path = a.critical_path()
        assert [s.name for s in path] == ["root", "left", "right"]

    def test_recurses_into_chain_elements(self):
        records = (
            _span(1, "root", 0.0, 10.0)
            + _span(2, "child", 1.0, 9.0, parent=1)
            + _span(3, "grand", 2.0, 8.0, parent=2)
        )
        path = TraceAnalysis(records).critical_path()
        assert [s.name for s in path] == ["root", "child", "grand"]

    def test_critical_path_seconds_is_self_time_along_path(self):
        records = (
            _span(1, "root", 0.0, 10.0)
            + _span(2, "left", 0.0, 4.0, parent=1)
            + _span(3, "right", 5.0, 10.0, parent=1)
        )
        a = TraceAnalysis(records)
        # left (4) + right (5) + root's uncovered second = 10 total
        assert TraceAnalysis(records).critical_path_seconds() == pytest.approx(
            10.0
        )
        assert a.critical_path_seconds() <= a.trace_root().duration_s + 1e-9

    def test_root_selection_prefers_named_then_largest(self):
        records = (
            _span(1, "concretize", 0.0, 1.0, trace=1)
            + _span(2, "install", 2.0, 9.0, trace=2)
            + _span(3, "node", 2.0, 8.0, parent=2, trace=2)
        )
        a = TraceAnalysis(records)
        assert a.trace_root("concretize").name == "concretize"
        assert a.trace_root().name == "install"  # most spans wins

    def test_render_tree_marks_the_critical_path(self):
        # off-path is dominated by on-path-a inside the same window, so
        # it never bounds the root's wall clock
        records = (
            _span(1, "root", 0.0, 10.0)
            + _span(2, "off-path", 0.0, 3.0, parent=1)
            + _span(3, "on-path-a", 0.0, 4.0, parent=1)
            + _span(4, "on-path-b", 5.0, 10.0, parent=1)
        )
        out = io.StringIO()
        TraceAnalysis(records).render_tree(out)
        lines = {line.strip("* ").split()[0]: line
                 for line in out.getvalue().splitlines()}
        assert lines["root"].startswith("*")
        assert lines["on-path-a"].startswith("*")
        assert lines["on-path-b"].startswith("*")
        assert not lines["off-path"].startswith("*")


class TestRollupsAndConcurrency:
    def test_self_time_rollup(self):
        records = (
            _span(1, "install", 0.0, 10.0)
            + _span(2, "phase", 1.0, 5.0, parent=1)
            + _span(3, "phase", 6.0, 9.0, parent=1)
        )
        rollup = TraceAnalysis(records).self_time_rollup()
        assert rollup["phase"]["count"] == 2
        assert rollup["phase"]["total_s"] == pytest.approx(7.0)
        assert rollup["install"]["self_s"] == pytest.approx(3.0)
        assert rollup["phase"]["min_s"] == pytest.approx(3.0)
        assert rollup["phase"]["max_s"] == pytest.approx(4.0)

    def test_concurrency_from_overlapping_intervals(self):
        records = (
            _span(1, "install.node", 0.0, 4.0)
            + _span(2, "install.node", 2.0, 6.0)
            + _span(3, "install.node", 8.0, 10.0)
        )
        conc = TraceAnalysis(records).concurrency()
        assert conc["spans"] == 3
        assert conc["max_concurrency"] == 2
        assert conc["busy_seconds"] == pytest.approx(10.0)
        assert conc["window_seconds"] == pytest.approx(10.0)
        # integral: 2s@1 + 2s@2 + 2s@1 + 2s@0 + 2s@1 over 10s = 1.0 avg
        assert conc["avg_concurrency"] == pytest.approx(1.0)
        assert conc["utilization"] == pytest.approx(0.5)

    def test_concurrency_counts_splicing_workers(self):
        """A splice keeps a worker as busy as a build: a source build
        overlapping a splice is two busy workers, not one."""
        records = (
            _span(1, "install.node", 0.0, 4.0)
            + _span(2, "install.spliced", 2.0, 6.0)
            + _span(3, "install.cached", 6.0, 8.0)
        )
        conc = TraceAnalysis(records).concurrency()
        assert conc["spans"] == 3
        assert conc["max_concurrency"] == 2
        assert conc["busy_seconds"] == pytest.approx(10.0)
        assert conc["utilization"] == pytest.approx(10.0 / (8.0 * 2))

    def test_concurrency_empty_stream(self):
        conc = TraceAnalysis([]).concurrency()
        assert conc["spans"] == 0
        assert conc["max_concurrency"] == 0

    def test_cache_effectiveness_attribution(self):
        records = (
            _span(1, "install.node", 0.0, 2.0)      # built: 2s
            + _span(2, "install.node", 2.0, 4.0)    # built: 2s
            + _span(3, "install.cached", 4.0, 4.5)  # cached: 0.5s
        )
        records.append(
            {"event": "event", "name": "telemetry.summary", "span": None,
             "trace": None, "ts": 5.0,
             "attrs": {"counters": {"buildcache.hit": 1, "buildcache.miss": 2,
                                    "concretize.cache.hit": 3,
                                    "concretize.cache.miss": 1}}}
        )
        caches = TraceAnalysis(records).cache_effectiveness()
        bc = caches["buildcache"]
        assert bc["hits"] == 1 and bc["misses"] == 2
        assert bc["hit_ratio"] == pytest.approx(1 / 3)
        # one cached node saved (mean build 2.0 - its own 0.5) = 1.5s
        assert bc["time_saved_s"] == pytest.approx(1.5)
        cc = caches["concretize_cache"]
        assert cc["hit_ratio"] == pytest.approx(0.75)


class TestDiamondInstallTrace:
    """The ISSUE's acceptance test: a -j 4 install over a 16-node
    diamond DAG reconstructs to one single-rooted orphan-free trace
    whose critical path agrees with the install's wall clock."""

    SLEEP = 0.02

    def _diamond_repo(self):
        from repro.directives import depends_on, version
        from repro.directives.directives import DirectiveMeta
        from repro.fetch.mockweb import mock_checksum
        from repro.package.package import Package
        from repro.repo.repository import Repository
        from repro.util.naming import mod_to_class

        sleep = self.SLEEP

        def sleepy_install(self, spec, prefix):
            time.sleep(sleep)
            os.makedirs(os.path.join(prefix, "lib"), exist_ok=True)
            lib = os.path.join(prefix, "lib", "lib%s.so.json" % spec.name)
            with open(lib, "w") as f:
                json.dump({"type": "library", "needed": [], "rpaths": []}, f)

        repo = Repository(namespace="diamond")
        layers = {
            0: ["leaf-%d" % i for i in range(6)],
            1: ["mid-%d" % i for i in range(5)],
            2: ["upper-%d" % i for i in range(4)],
            3: ["diamond-root"],
        }

        def deps_for(level, i):
            if level == 0:
                return []
            below = layers[level - 1]
            if level < 3:
                return [below[i % len(below)], below[(i + 1) % len(below)]]
            return list(below)

        for level, names in sorted(layers.items()):
            for i, name in enumerate(names):
                ns = {
                    "url": "https://mock.example.org/%s/%s-1.0.tar.gz"
                           % (name, name),
                    "__doc__": "diamond trace node %s" % name,
                    "install": sleepy_install,
                    "build_units": 1,
                    "unit_cost": 0.001,
                }
                version("1.0", mock_checksum(name, "1.0"))
                for dep in deps_for(level, i):
                    depends_on(dep)
                repo.add_class(
                    name, DirectiveMeta(mod_to_class(name), (Package,), ns)
                )
        return repo

    def test_j4_diamond_trace_is_coherent(self, tmp_path):
        from repro.session import Session

        session = Session.create(
            str(tmp_path / "diamond"), packages=self._diamond_repo()
        )
        session.seed_web()
        sink = session.telemetry.add_sink(MemorySink())
        _spec, result = session.install("diamond-root", jobs=4)
        session.telemetry.emit_summary()
        session.telemetry.remove_sink(sink)
        assert len(result.built) == 16

        a = TraceAnalysis(sink.records)

        # single-rooted: the install trace has exactly one root and
        # every span of the stream found its parent
        assert a.orphans == []
        install_root = a.trace_root("install")
        assert install_root is not None
        assert a.traces()[install_root.trace_id] == [install_root]

        # all 16 node builds landed inside that one tree
        nodes = [s for s in install_root.walk() if s.name == "install.node"]
        assert len(nodes) == 16

        # the pool genuinely ran in parallel
        conc = a.concurrency()
        assert conc["max_concurrency"] >= 2

        # critical path agrees with the measured wall clock: it can
        # never exceed it, and on a diamond DAG it must dominate it
        # (the scheduler can't beat the dependency chain)
        path = a.critical_path(install_root)
        cp_seconds = a.critical_path_seconds(path=path)
        wall = result.wall_seconds
        assert cp_seconds <= install_root.duration_s + 1e-6
        assert install_root.duration_s == pytest.approx(wall, rel=0.35)
        assert cp_seconds >= 0.5 * wall
        # the chain passes through every DAG level
        path_names = [s.attrs.get("package") for s in path
                      if s.name == "install.node"]
        assert len(path_names) >= 4

    def test_jsonl_capture_equivalent_to_memory(self, tmp_path):
        """The same analysis works from a --telemetry-log style file."""
        from repro.session import Session

        session = Session.create(str(tmp_path / "u"))
        log = str(tmp_path / "cap.jsonl")
        with JSONLSink(log, flush_on_emit=False) as sink:
            session.telemetry.add_sink(sink)
            session.install("libdwarf", jobs=2)
            session.telemetry.emit_summary()
            session.telemetry.remove_sink(sink)
        a = TraceAnalysis.from_jsonl(log)
        assert a.orphans == []
        assert a.trace_root("install") is not None
        assert a.summary is not None
        assert a.summary["counters"]["install.built"] >= 2
