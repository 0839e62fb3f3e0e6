"""The merge/unify engine: coherence, reconciliation, and conflicts."""

import threading

import pytest

from repro.env.unify import (
    EnvironmentConflictError,
    UnifiedEnvironment,
    unify_roots,
)
from repro.spec.errors import UnsatisfiableVersionSpecError
from repro.telemetry.sinks import MemorySink


def _concretize_fn(session):
    return lambda spec: session.concretize(spec)


def _nodes_by_name(unified):
    """{package name: set of dag_hashes} over every root DAG."""
    out = {}
    for _, concrete in unified.roots:
        for node in concrete.traverse():
            out.setdefault(node.name, set()).add(node.dag_hash())
    return out


class TestCoherence:
    def test_empty_environment(self, session):
        unified = unify_roots([], _concretize_fn(session))
        assert unified.roots == []
        assert unified.dag_hashes() == []

    def test_shared_subdag_is_one_node_per_package(self, session):
        unified = unify_roots(
            ["mpileaks", "dyninst", "libdwarf"], _concretize_fn(session)
        )
        for name, hashes in _nodes_by_name(unified).items():
            assert len(hashes) == 1, "%s resolved to %d nodes" % (
                name, len(hashes),
            )
        # dyninst and libdwarf both carry libelf/libdwarf sub-DAGs
        assert unified.shared_packages()

    def test_eight_root_environment_unifies(self, session):
        """The acceptance-scale case: many roots, heavy sharing, every
        shared package exactly one concrete node environment-wide."""
        roots = [
            "mpileaks", "dyninst", "libdwarf", "libelf",
            "callpath", "hdf5", "silo", "py-numpy",
        ]
        unified = unify_roots(roots, _concretize_fn(session))
        assert len(unified.roots) == 8
        by_name = _nodes_by_name(unified)
        assert all(len(h) == 1 for h in by_name.values())
        shared = unified.shared_packages()
        assert len(shared) >= 2  # libelf, libdwarf at minimum
        # the unified install set is smaller than the sum of the parts
        total = sum(
            len(list(c.traverse())) for _, c in unified.roots
        )
        assert len(unified.nodes()) < total

    def test_stats_shape(self, session):
        unified = unify_roots(["mpileaks"], _concretize_fn(session))
        stats = unified.stats()
        assert stats["roots"] == 1
        assert stats["resolves"] == 1
        assert stats["rounds"] == 0
        assert stats["unique_nodes"] == len(unified.nodes())


class TestReconciliation:
    def test_agreement_via_different_ranges(self, session):
        """Two roots constrain a shared package through *different*
        version ranges that overlap: both greedy picks land on the same
        concrete version, so unification needs no pins at all."""
        unified = unify_roots(
            ["libdwarf ^libelf@:0.8.12", "dyninst ^libelf@0.8.11:0.8.12"],
            _concretize_fn(session),
        )
        assert unified.pins == {}
        assert unified.rounds == 0
        hashes = _nodes_by_name(unified)["libelf"]
        assert len(hashes) == 1

    def test_range_vs_unconstrained_reconciles_by_pinning(self, session):
        """One root caps libelf below the default pick, the other says
        nothing: initial solves diverge (0.8.12 vs 0.8.13) and the
        merge phase must pin the version every root can live with."""
        unified = unify_roots(
            ["libdwarf ^libelf@:0.8.12", "dyninst"],
            _concretize_fn(session),
        )
        assert "libelf" in unified.pins
        assert "@0.8.12" in unified.pins["libelf"]
        assert unified.rounds >= 1
        assert len(_nodes_by_name(unified)["libelf"]) == 1
        # dyninst's whole chain re-converged around the pinned libelf
        assert len(_nodes_by_name(unified)["libdwarf"]) == 1

    def test_root_that_is_a_dependency_of_another_root(self, session):
        """An explicit `libelf@0.8.12` root must be *the same node* as
        the libelf inside libdwarf's DAG — a root is not special, it is
        one more constraint on the shared package."""
        unified = unify_roots(
            ["libdwarf", "libelf@0.8.12"], _concretize_fn(session)
        )
        roots = dict(unified.roots)
        libelf_root = roots["libelf@0.8.12"]
        libdwarf = roots["libdwarf"]
        embedded = [
            n for n in libdwarf.traverse() if n.name == "libelf"
        ]
        assert len(embedded) == 1
        assert embedded[0].dag_hash() == libelf_root.dag_hash()
        assert str(libelf_root.version) == "0.8.12"

    def test_solves_stay_in_the_callers_trace(self, session):
        sink = session.telemetry.add_sink(MemorySink())
        with session.telemetry.span("env.test"):
            unify_roots(["mpileaks", "libdwarf"], _concretize_fn(session))
        spans = sink.spans()
        assert any(r["name"] == "concretize" for r in spans)
        assert len({r["trace"] for r in spans}) == 1  # no orphans


class TestInOrder:
    """Roots are solved one at a time on the caller's thread: a solve is
    pure Python under the GIL, so a pool only adds its own overhead."""

    def _no_thread_starts(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        return started

    def test_roots_solve_in_order_on_the_callers_thread(self, session,
                                                         monkeypatch):
        started = self._no_thread_starts(monkeypatch)
        calls = []

        def concretize(spec):
            calls.append((str(spec), threading.get_ident()))
            return session.concretize(spec)

        roots = ["mpileaks", "dyninst", "libdwarf"]
        unified = unify_roots(roots, concretize)
        assert [text for text, _ in calls] == roots
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert started == []
        assert [text for text, _ in unified.roots] == roots

    def test_environment_concretization_starts_no_thread(self, session,
                                                         monkeypatch):
        """``jobs`` is still accepted (callers pass it) and changes
        nothing: the cold solve and the warm lockfile restore start no
        thread, and both give the same DAGs."""
        env = session.environment("threads")
        for root in ("mpileaks", "dyninst ^libelf@0.8.12", "libdwarf"):
            env.add(root)
        started = self._no_thread_starts(monkeypatch)
        cold = session.env_concretize(env, jobs=4, force=True)
        warm = session.env_concretize(env, jobs=4)
        assert started == []
        assert cold.resolves > 0 and warm.resolves == 0
        assert warm.dag_hashes() == cold.dag_hashes()


class TestConflicts:
    def test_conflict_names_both_roots(self, session):
        """Incompatible demands on a shared package: ONE diagnostic
        naming each root and what it insists on."""
        with pytest.raises(EnvironmentConflictError) as err:
            unify_roots(
                ["libdwarf ^libelf@0.8.11", "dyninst ^libelf@0.8.12"],
                _concretize_fn(session),
            )
        e = err.value
        assert e.package == "libelf"
        text = str(e)
        assert "libdwarf ^libelf@0.8.11" in text
        assert "dyninst ^libelf@0.8.12" in text
        # rejected candidates carry the typed per-root error
        assert "rejected" in text
        assert UnsatisfiableVersionSpecError.__name__ in text

    def test_unpinned_root_failure_propagates_typed(self, session):
        """A root that cannot solve on its own terms raises its own
        typed error, not a conflict (nothing is contested)."""
        with pytest.raises(Exception) as err:
            unify_roots(
                ["mpileaks", "no-such-package"], _concretize_fn(session)
            )
        assert "ConflictError" not in type(err.value).__name__
        assert "no-such-package" in str(err.value)

    def test_conflicting_roots_fail_identically_at_any_width(self, session):
        """The same conflict, whatever ``jobs`` the caller passes."""
        env = session.environment("conflict")
        for root in ("libdwarf ^libelf@0.8.11", "dyninst ^libelf@0.8.12"):
            env.add(root)
        for jobs in (1, 3):
            with pytest.raises(EnvironmentConflictError) as err:
                session.env_concretize(env, jobs=jobs, force=True)
            assert err.value.package == "libelf"


class TestUnifiedEnvironment:
    def test_nodes_dedup_by_dag_hash(self, session):
        concrete = session.concretize("mpileaks")
        unified = UnifiedEnvironment(
            [("a", concrete), ("b", concrete.copy())],
            rounds=0, resolves=2, pins={},
        )
        assert len(unified.nodes()) == len(list(concrete.traverse()))
        assert set(unified.shared_packages()) == {
            n.name for n in concrete.traverse()
        }
