"""Crash-mid-build recovery and faulted parallel equivalence.

A build killed between stage creation and database registration (the
window modeled by ``executor.crash``) leaves an *orphan prefix*: bytes
on disk with no database record.  These tests pin down the recovery
contract — the planner must still classify the node as a build, and a
fresh install must heal the store completely — plus the scheduler
contract that a transient fetch fault does not perturb j=1 vs j=4
store equivalence.
"""

import os

import pytest

from repro.session import Session
from repro.store.layout import METADATA_DIR
from repro.store.plan import BUILD, Planner
from repro.store.verify import verify_store
from repro.testing.faults import Fault, SimulatedKill


@pytest.fixture
def session(tmp_path):
    return Session.create(str(tmp_path / "universe"), install_jobs=1)


def _crash(session, target, where, jobs):
    """Install ``target`` on ``jobs`` workers with a kill injected at
    ``where``; returns the concrete spec whose build died."""
    session.faults.arm([Fault("executor.crash", target=target, where=where)])
    with pytest.raises(SimulatedKill):
        session.install(target, jobs=jobs)
    session.faults.disarm()
    return session.concretize(target)


class TestCrashRecovery:
    #: worker-pool width of every install here
    jobs = 1

    @pytest.mark.parametrize("where", ["post-stage", "post-build"])
    def test_crash_leaves_orphan_prefix_and_no_record(self, session, where):
        concrete = _crash(session, "libelf", where, self.jobs)
        prefix = session.store.layout.path_for_spec(concrete)
        assert os.path.isdir(prefix)
        assert not session.db.query("libelf")

    def test_planner_reclassifies_orphan_as_build(self, session):
        """An orphan prefix must not fool the planner into reuse: only a
        database record proves an install completed."""
        concrete = _crash(session, "libelf", "post-build", self.jobs)
        plan = Planner(session).plan(concrete)
        task = plan.tasks[concrete.dag_hash()]
        assert task.action == BUILD

    def test_crash_in_dependency_aborts_dependents(self, session):
        """Killing libdwarf's dependency leaves the dependent unbuilt."""
        _crash(session, "libelf", "post-stage", self.jobs)
        assert not session.db.query("libelf")
        assert not session.db.query("libdwarf")

    @pytest.mark.parametrize("where", ["post-stage", "post-build"])
    def test_fresh_install_heals_the_store(self, session, where):
        concrete = _crash(session, "libdwarf", where, self.jobs)
        spec, _ = session.install("libdwarf", jobs=self.jobs)
        assert spec.dag_hash() == concrete.dag_hash()
        assert session.db.query("libdwarf")
        assert verify_store(session) == []
        # the healed prefix is a complete install, not leftover crash debris
        prefix = session.store.layout.path_for_spec(concrete)
        assert os.path.isfile(os.path.join(prefix, METADATA_DIR, "spec.json"))

    def test_healing_is_counted_once_per_orphan(self, session):
        from repro.telemetry import MemorySink

        session.telemetry.add_sink(MemorySink())
        _crash(session, "libelf", "post-build", self.jobs)
        session.install("libelf", jobs=self.jobs)
        assert session.telemetry.counter("store.orphan_prefixes_healed") == 1
        # a clean re-install has nothing to heal
        session.install("libelf", jobs=self.jobs)
        assert session.telemetry.counter("store.orphan_prefixes_healed") == 1

    def test_crash_spares_completed_dependencies(self, session):
        """Only the killed node needs rebuilding; its already-registered
        dependencies are reused."""
        _crash(session, "libdwarf", "post-build", self.jobs)
        assert session.db.query("libelf")  # dep finished before the kill
        concrete = session.concretize("libdwarf")
        plan = Planner(session).plan(concrete)
        actions = {t.node.name: t.action for t in plan.tasks.values()}
        assert actions["libdwarf"] == BUILD
        assert actions["libelf"] != BUILD


class TestCrashRecoveryPooled(TestCrashRecovery):
    """The same contract when the kill lands in a four-worker pool."""

    jobs = 4


class TestFaultedParallelEquivalence:
    """Satellite: j=1 and j=4 installs produce byte-identical stores even
    when a transient fetch fault fires along the way."""

    def _provenance(self, session):
        layout = session.store.layout
        out = {}
        for record in session.db.all_records():
            if record.spec.external:
                continue
            meta = os.path.join(layout.path_for_spec(record.spec), METADATA_DIR)
            with open(os.path.join(meta, "spec.json"), "rb") as f:
                out[record.spec.dag_hash()] = f.read()
        return out

    def test_transient_fault_does_not_perturb_equivalence(self, tmp_path):
        stores = {}
        for jobs in (1, 4):
            s = Session.create(str(tmp_path / ("j%d" % jobs)))
            s.faults.arm([Fault("fetch.transient", target="libelf", times=1)])
            spec, _ = s.install("mpileaks", jobs=jobs)
            s.faults.disarm()
            assert s.faults.injection_counts() == {"fetch.transient": 1}
            stores[jobs] = (spec.dag_hash(), self._provenance(s))
            assert verify_store(s) == []
        assert stores[1] == stores[4]
