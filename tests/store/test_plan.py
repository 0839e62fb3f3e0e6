"""The install planner: classification, state machine, leveling."""

import pytest

from repro.store import plan as P
from repro.store.plan import InstallPlan, NodeTask, Planner, PlanError


def _plan_for(session, spec_text="mpileaks"):
    concrete = session.concretize(spec_text)
    return concrete, Planner(session).plan(concrete)


class TestClassification:
    def test_fresh_dag_is_all_build(self, session):
        concrete, plan = _plan_for(session)
        assert len(plan) == len(list(concrete.traverse()))
        assert all(t.action == P.BUILD for t in plan.ordered_tasks())

    def test_installed_nodes_become_reuse(self, session):
        session.install("libelf")
        concrete, plan = _plan_for(session, "libdwarf")
        actions = {t.node.name: t.action for t in plan.ordered_tasks()}
        assert actions["libelf"] == P.REUSE
        assert actions["libdwarf"] == P.BUILD

    def test_externals_never_build(self, session):
        session.register_external("openmpi@1.8.2")
        _, plan = _plan_for(session, "mpileaks ^openmpi")
        actions = {t.node.name: t.action for t in plan.ordered_tasks()}
        assert actions["openmpi"] == P.EXTERNAL

    def test_prefix_resolved_for_every_node(self, session):
        concrete, plan = _plan_for(session)
        for task in plan.ordered_tasks():
            assert task.node.prefix

    def test_abstract_spec_rejected(self, session):
        from repro.spec.spec import Spec

        with pytest.raises(PlanError, match="concrete"):
            Planner(session).plan(Spec("mpileaks"))


class TestOrderingAndLevels:
    def test_post_order_indices_match_traversal(self, session):
        concrete, plan = _plan_for(session)
        expected = [n.dag_hash() for n in concrete.traverse(order="post")]
        assert [t.key for t in plan.ordered_tasks()] == expected
        assert [t.index for t in plan.ordered_tasks()] == list(range(len(plan)))

    def test_deps_precede_dependents_in_order(self, session):
        _, plan = _plan_for(session)
        position = {t.key: i for i, t in enumerate(plan.ordered_tasks())}
        for task in plan.ordered_tasks():
            for dep in task.deps:
                assert position[dep] < position[task.key]

    def test_levels_leaves_first(self, session):
        _, plan = _plan_for(session)
        levels = plan.levels()
        # level 0 tasks have no deps; each task's level exceeds its deps'
        for key in levels[0]:
            assert not plan.tasks[key].deps
        for task in plan.ordered_tasks():
            for dep in task.deps:
                assert plan.tasks[dep].level < task.level


class TestStateMachine:
    def test_seeded_ready_is_exactly_the_leaves(self, session):
        _, plan = _plan_for(session)
        ready = plan.ready_tasks()
        assert ready
        assert all(not t.deps for t in ready)
        assert all(
            t.state == P.WAITING for t in plan.ordered_tasks() if t.deps
        )

    def test_illegal_transitions_rejected(self, session):
        _, plan = _plan_for(session)
        task = plan.ready_tasks()[0]
        with pytest.raises(PlanError, match="READY -> INSTALLED"):
            task.to(P.INSTALLED)
        task.to(P.BUILDING)
        with pytest.raises(PlanError, match="BUILDING -> READY"):
            task.to(P.READY)
        task.to(P.INSTALLED)
        with pytest.raises(PlanError):
            task.to(P.FAILED)  # terminal states are final

    def test_mark_installed_readies_dependents(self, session):
        _, plan = _plan_for(session, "libdwarf")
        by_name = {t.node.name: t for t in plan.ordered_tasks()}
        assert by_name["libdwarf"].state == P.WAITING
        libelf = by_name["libelf"]
        libelf.to(P.BUILDING)
        newly = plan.mark_installed(libelf.key)
        assert by_name["libdwarf"] in newly
        assert by_name["libdwarf"].state == P.READY

    def test_mark_failed_skips_transitive_dependents_only(self, session):
        _, plan = _plan_for(session)  # mpileaks -> callpath/mpi -> ... -> libelf
        by_name = {t.node.name: t for t in plan.ordered_tasks()}
        libelf = by_name["libelf"]
        libelf.to(P.BUILDING)
        boom = RuntimeError("boom")
        skipped = plan.mark_failed(libelf.key, boom)
        skipped_names = {t.node.name for t in skipped}
        # everything above libelf is skipped...
        assert {"libdwarf", "dyninst", "callpath", "mpileaks"} <= skipped_names
        # ...but the disjoint MPI sub-DAG is still runnable
        assert by_name["mvapich2"].state in (P.WAITING, P.READY)
        assert libelf.error is boom

    def test_skip_pending_sweeps_everything_unstarted(self, session):
        _, plan = _plan_for(session)
        task = plan.ready_tasks()[0]
        task.to(P.BUILDING)
        plan.skip_pending()
        for t in plan.ordered_tasks():
            assert t.state in (P.BUILDING, P.SKIPPED)
