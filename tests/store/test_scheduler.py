"""Scheduler behaviour: ordering, failure propagation, parallel equivalence."""

import os
import threading

import pytest

from repro.directives import depends_on, version
from repro.fetch.mockweb import mock_checksum
from repro.package.package import Package
from repro.spec.spec import Spec
from repro.store.executor import BuildExecutor
from repro.store.installer import InstallError
from repro.store.layout import METADATA_DIR
from repro.store.plan import Planner
from repro.store.scheduler import Scheduler
from repro.telemetry import MemorySink
from repro.testing.faults import SimulatedKill


def _register(session, name, deps=()):
    """Register a trivial package (version 1.0, given deps) in-session."""
    ns = {
        "url": "https://mock.example.org/%s/%s-1.0.tar.gz" % (name, name),
        "__doc__": "scheduler-test package %s" % name,
        "build_units": 2,
        "unit_cost": 0.001,
    }
    from repro.directives.directives import DirectiveMeta
    from repro.util.naming import mod_to_class

    version("1.0", mock_checksum(name, "1.0"))
    for dep in deps:
        depends_on(dep)
    cls = DirectiveMeta(mod_to_class(name), (Package,), ns)
    session.repo.repos[0].add_class(name, cls)
    return cls


def _diamond(session):
    """leaf <- {mid-a, mid-b} <- top, plus a disjoint branch off top."""
    _register(session, "leaf")
    _register(session, "mid-a", ["leaf"])
    _register(session, "mid-b", ["leaf"])
    _register(session, "solo")
    _register(session, "top", ["mid-a", "mid-b", "solo"])
    session.seed_web()


class RecordingExecutor(BuildExecutor):
    """Executor that journals execute() start/end per node, thread-safely."""

    def __init__(self, session):
        super().__init__(session)
        self.events = []
        self._lock = threading.Lock()

    def execute(self, node, keep_stage=False):
        with self._lock:
            self.events.append(("start", node.name))
        try:
            return super().execute(node, keep_stage=keep_stage)
        finally:
            with self._lock:
                self.events.append(("end", node.name))


class KillingExecutor(BuildExecutor):
    """Executor whose process 'dies' building ``leaf``.  ``solo`` starts
    building only once the kill is under way, so with a pool it is in
    flight when the kill lands."""

    def __init__(self, session):
        super().__init__(session)
        self.leaf_killed = threading.Event()

    def execute(self, node, keep_stage=False):
        if node.name == "leaf":
            self.leaf_killed.set()
            raise SimulatedKill("executor.crash", "leaf")
        if node.name == "solo":
            assert self.leaf_killed.wait(timeout=30)
        return super().execute(node, keep_stage=keep_stage)


def _run(session, spec_text, jobs, **kwargs):
    concrete = session.concretize(spec_text)
    recorder = RecordingExecutor(session)
    plan = Planner(session).plan(concrete)
    outcome = Scheduler(
        session, jobs=jobs, executor=recorder, **kwargs
    ).run(plan)
    return concrete, outcome, recorder


class TestOrderingInvariants:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_deps_complete_before_dependents_start(self, bare_repo_session, jobs):
        session = bare_repo_session
        _diamond(session)
        concrete, outcome, recorder = _run(session, "top", jobs)
        assert not outcome.failed and not outcome.skipped
        position = {e: i for i, e in enumerate(recorder.events)}
        for node in concrete.traverse():
            for dep in node.dependencies.values():
                assert position[("end", dep.name)] < position[("start", node.name)]

    def test_serial_runs_in_exact_post_order(self, bare_repo_session):
        session = bare_repo_session
        _diamond(session)
        concrete, _, recorder = _run(session, "top", jobs=1)
        started = [name for kind, name in recorder.events if kind == "start"]
        assert started == [n.name for n in concrete.traverse(order="post")]

    def test_pool_overlaps_independent_nodes(self, bare_repo_session):
        session = bare_repo_session
        _diamond(session)
        _, outcome, recorder = _run(session, "top", jobs=4)
        assert outcome.jobs == 4
        # at some point two builds were in flight simultaneously
        depth = peak = 0
        for kind, _ in recorder.events:
            depth += 1 if kind == "start" else -1
            peak = max(peak, depth)
        assert peak >= 2


class TestFailurePropagation:
    def _corrupt(self, session, name):
        cls = session.repo.get_class(name)
        url = cls(Spec("%s@1.0" % name), session=session).url_for_version("1.0")
        session.web.corrupt(url)

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_dependents_skipped_disjoint_siblings_finish(
        self, bare_repo_session, jobs
    ):
        session = bare_repo_session
        _diamond(session)
        self._corrupt(session, "leaf")
        concrete, outcome, _ = _run(session, "top", jobs)
        failed = {t.node.name for t in outcome.failed}
        skipped = {t.node.name for t in outcome.skipped}
        assert failed == {"leaf"}
        assert skipped == {"mid-a", "mid-b", "top"}
        # the disjoint sibling still installed
        assert session.db.installed(concrete["solo"])
        assert isinstance(outcome.first_error, InstallError)

    def test_fail_fast_stops_dispatching(self, bare_repo_session):
        session = bare_repo_session
        _register(session, "bad")
        _register(session, "good-a")
        _register(session, "good-b")
        _register(session, "root", ["bad", "good-a", "good-b"])
        session.seed_web()
        self._corrupt(session, "bad")
        concrete = session.concretize("root")
        post = [n.name for n in concrete.traverse(order="post")]
        survivors = set(post[: post.index("bad")])  # built before the failure
        _, outcome, _ = _run(session, "root", jobs=1, fail_fast=True)
        installed = {
            r.spec.name for r in session.db.all_records()
        }
        assert installed == survivors
        skipped = {t.node.name for t in outcome.skipped}
        assert skipped == {"root", "good-a", "good-b"} - survivors

    def test_crash_mid_build_registers_nothing_partial(self, session):
        repo = session.repo.repos[0]

        class Exploder(Package):
            url = "https://mock.example.org/exploder/exploder-1.0.tar.gz"
            version("1.0", mock_checksum("exploder", "1.0"))

            def install(self, spec, prefix):
                from repro.build.shell import configure

                configure("--prefix=%s" % prefix)
                raise RuntimeError("boom mid-build")

        repo.add_class("exploder", Exploder)
        session.seed_web()
        concrete = session.concretize(Spec("exploder"))
        prefix = session.store.layout.path_for_spec(concrete)
        with pytest.raises(RuntimeError):
            session.install("exploder", jobs=4)
        assert not os.path.exists(prefix)
        assert not session.db.installed(concrete)


class TestKill:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_kill_ends_the_drive_at_every_width(self, bare_repo_session, jobs):
        """A kill is not a failed build: it leaves the scheduler at once,
        and nothing that finishes around it is registered."""
        session = bare_repo_session
        _diamond(session)
        sink = session.telemetry.add_sink(MemorySink())
        plan = Planner(session).plan(session.concretize("top"))
        scheduler = Scheduler(
            session, jobs=jobs, executor=KillingExecutor(session)
        )
        with pytest.raises(SimulatedKill):
            scheduler.run(plan)
        assert session.db.all_records() == []
        assert session.telemetry.counter("install.failed") == 0
        assert not [
            e for e in sink.events() if e["name"] == "scheduler.task_failed"
        ]


class TestParallelEquivalence:
    def _provenance(self, session):
        """dag_hash -> canonical spec.json bytes for every installed spec."""
        layout = session.store.layout
        out = {}
        for record in session.db.all_records():
            if record.spec.external:
                continue
            meta = os.path.join(layout.path_for_spec(record.spec), METADATA_DIR)
            with open(os.path.join(meta, "spec.json"), "rb") as f:
                out[record.spec.dag_hash()] = f.read()
        return out

    def test_j1_and_j4_produce_identical_stores(self, tmp_path):
        from repro.session import Session

        s1 = Session.create(str(tmp_path / "serial"))
        s4 = Session.create(str(tmp_path / "pooled"))
        spec1, r1 = s1.install("mpileaks", jobs=1)
        spec4, r4 = s4.install("mpileaks", jobs=4)
        assert spec1.dag_hash() == spec4.dag_hash()
        assert sorted(s.spec.name for s in r1.built) == sorted(
            s.spec.name for s in r4.built
        )
        p1, p4 = self._provenance(s1), self._provenance(s4)
        assert p1.keys() == p4.keys()
        assert p1 == p4  # byte-identical spec.json provenance
        assert (r1.jobs, r4.jobs) == (1, 4)
        assert r1.wall_seconds > 0 and r4.wall_seconds > 0

    def test_jobs_env_default_honored(self, tmp_path, monkeypatch):
        from repro.session import Session

        monkeypatch.setenv("REPRO_INSTALL_JOBS", "3")
        session = Session.create(str(tmp_path / "env"))
        assert session.install_jobs == 3
        _, result = session.install("libelf")
        assert result.jobs == 3

    def test_malformed_jobs_env_is_a_typed_error(self, tmp_path, monkeypatch):
        from repro.errors import ReproError
        from repro.session import Session

        monkeypatch.setenv("REPRO_INSTALL_JOBS", "auto")
        with pytest.raises(ReproError, match="REPRO_INSTALL_JOBS.*'auto'"):
            Session.create(str(tmp_path / "env"))


class TestBatchCommit:
    def test_pushes_run_after_the_batch_commits(self, tmp_path, monkeypatch):
        """At -j2 a completion batch's records commit before its
        build-cache pushes: no push runs inside a database transaction,
        so none holds the index lock while it packs a tarball."""
        from repro.session import Session
        from repro.store.buildcache import BuildCache

        session = Session.create(str(tmp_path / "s"))
        session.enable_buildcache(root=str(tmp_path / "cache"), push=True)
        db = session.db
        during_push = []
        real_push = BuildCache.push

        def push(cache, node, prefix, root):
            during_push.append((db._txn_depth, db.lock.held))
            return real_push(cache, node, prefix, root)

        monkeypatch.setattr(BuildCache, "push", push)
        _, result = session.install("mpileaks", jobs=2)
        assert len(during_push) == len(result.built) == 6
        assert set(during_push) == {(0, False)}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_only_a_drain_that_adds_a_record_opens_a_transaction(
        self, session, monkeypatch, jobs
    ):
        """Reusing libelf adds no record, so only libdwarf's drain takes
        the index lock and re-reads the index."""
        from repro.store.database import Database

        session.install("libelf", jobs=jobs)
        plan = Planner(session).plan(session.concretize("libdwarf"))
        outermost = []
        real_transaction = Database.transaction

        def transaction(db):
            if db._txn_depth == 0:
                outermost.append(db)
            return real_transaction(db)

        monkeypatch.setattr(Database, "transaction", transaction)
        result = Scheduler(session, jobs=jobs).run(plan)
        assert result.reused_names == ["libelf"]
        assert result.built_names == ["libdwarf"]
        assert len(outermost) == 1


class TestSchedulerTelemetry:
    def test_spans_gauge_and_worker_attribution(self, session):
        sink = session.telemetry.add_sink(MemorySink())
        try:
            session.install("libdwarf", jobs=2)
        finally:
            session.telemetry.remove_sink(sink)
        hub = session.telemetry
        assert hub.gauge_value("scheduler.queue_depth") is not None
        assert hub.counter("install.built") >= 2
        runs = sink.spans("scheduler.run")
        assert runs and runs[0]["attrs"]["jobs"] == 2
        nodes = sink.spans("install.node")
        assert all(n["attrs"]["worker"].startswith("install-worker") for n in nodes)
        assert all(n["parent"] == runs[0]["span"] for n in nodes)
        dispatches = [e for e in sink.events() if e["name"] == "scheduler.dispatch"]
        assert len(dispatches) >= 2
