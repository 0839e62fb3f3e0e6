"""Repeated requests do no repeated work: the concretization pipeline
hands out one frozen object per answer (memo hit, disk hit, coalesced
follower) without copying it, a served answer refuses mutation, a typed
error is memoized, and the daemon renders a ``spack_spec`` body once per
frozen master."""

import gc
import sys
import threading
import time

import pytest

from repro.core.concretizer import Concretizer
from repro.errors import ReproError
from repro.service import ServiceDaemon
from repro.service.snapshot import StateSnapshot
from repro.session import Session
from repro.spec.errors import FrozenSpecError
from repro.spec.spec import Spec


@pytest.fixture
def tsession(tmp_path):
    return Session.create(str(tmp_path / "universe"))


@pytest.fixture
def copies(monkeypatch):
    """Every ``Spec.copy`` call made from here on, by the copied root's name."""
    calls = []
    real = Spec.copy

    def counting(self, deps=True):
        calls.append(self.name)
        return real(self, deps=deps)

    monkeypatch.setattr(Spec, "copy", counting)
    return calls


@pytest.fixture
def cold_runs(monkeypatch):
    """The abstract texts the greedy concretizer is run on."""
    calls = []
    real = Concretizer.concretize

    def counting(self, abstract_spec):
        calls.append(str(abstract_spec))
        return real(self, abstract_spec)

    monkeypatch.setattr(Concretizer, "concretize", counting)
    return calls


#: writes to a served mpileaks answer, each refused
MUTATIONS = {
    "setter": lambda s: setattr(s["libelf"], "compiler", None),
    "variant_write": lambda s: s.variants.__setitem__("debug", True),
    "constrain": lambda s: s.constrain("mpileaks ^libelf"),
    "add_dependency": lambda s: s["libelf"]._add_dependency(Spec("zlib@1.0")),
    "edge_retype": lambda s: s.dependencies.set_deptypes("callpath", "run"),
    "prefix": lambda s: setattr(s["callpath"], "prefix", "/opt/callpath"),
}


class TestSharedAnswers:
    def test_disk_and_memo_hits_share_one_frozen_object(self, tsession, copies):
        snapshot = StateSnapshot(tsession)
        cold = snapshot.concretize("mpileaks")
        del copies[:]  # the cold run copies its own working DAG
        disk = snapshot.concretize("mpileaks")  # admitted to the memo
        memo = snapshot.concretize("mpileaks")
        assert cold.frozen and disk.frozen
        assert memo is disk and snapshot.concretize("mpileaks") is disk
        assert disk.dag_hash() == cold.dag_hash()
        assert copies == []

    def test_memo_without_a_persistent_cache_holds_the_cold_answer(
        self, tsession, copies
    ):
        tsession.concretize_cache = None
        snapshot = StateSnapshot(tsession)
        cold = snapshot.concretize("libdwarf")
        del copies[:]
        assert snapshot.concretize("libdwarf") is cold
        assert copies == []

    def test_use_cache_false_answer_is_frozen_too(self, tsession):
        assert tsession.concretize("libdwarf", use_cache=False).frozen

    def test_coalesced_followers_share_the_leaders_object(
        self, tsession, copies
    ):
        with ServiceDaemon(tsession, workers=4) as daemon:
            snapshot = daemon.snapshots.current()
            variant = snapshot.variant(None)
            answer = snapshot.concretize("libdwarf", use_cache=False)
            release, entered = threading.Event(), threading.Event()

            def blocking_cold(spec, variant, database=None):
                entered.set()
                release.wait(timeout=30)
                return answer

            snapshot._concretize_cold = blocking_cold
            del copies[:]

            def request():
                return daemon._pool.submit(
                    daemon._concretize, snapshot, "libdwarf", variant
                )

            leader = request()
            assert entered.wait(timeout=30)
            followers = [request() for _ in range(2)]
            deadline = time.time() + 30
            while time.time() < deadline:
                with daemon._batch_lock:
                    parked = sum(
                        b.followers for b in daemon._inflight.values()
                    )
                if parked == len(followers):
                    break
                time.sleep(0.005)
            release.set()
            results = [f.result(timeout=30) for f in [leader] + followers]
        assert daemon.coalesced == len(followers)
        assert all(result is answer for result in results)
        assert copies == []

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutating_a_served_answer_raises(self, tsession, mutation):
        cold = tsession.concretize("mpileaks", use_cache=False).to_dict()
        tsession.concretize("mpileaks")
        served = tsession.concretize("mpileaks")  # the memo master
        with pytest.raises(FrozenSpecError):
            MUTATIONS[mutation](served)
        again = tsession.concretize("mpileaks")
        assert again is served
        assert again.to_dict() == cold
        assert Spec.from_dict(again.to_dict()).dag_hash() == again.dag_hash()

    def test_copy_of_a_served_answer_is_mutable(self, tsession):
        served = tsession.concretize("mpileaks")
        mutable = served.copy()
        for mutation in MUTATIONS.values():
            mutation(mutable.copy())
        mutable["libelf"].architecture = "bgq"
        assert mutable.dag_hash() != served.dag_hash()
        assert tsession.concretize("mpileaks").dag_hash() == served.dag_hash()

    def test_install_plans_over_a_private_copy(self, tsession):
        served = tsession.concretize("libdwarf")
        _, result = tsession.install(served)
        assert result.built_names == ["libelf", "libdwarf"]
        assert served.frozen and getattr(served, "_prefix", None) is None
        record = tsession.db.get(served)
        assert record.spec.frozen and record.spec.dag_hash() == served.dag_hash()


class TestErrorMemo:
    @pytest.mark.parametrize("text", [
        "libelf ^mpich",      # InvalidDependencyError
        "libelf@:0.1",        # NoSatisfyingVersionError(name, constraint)
        "mpileaks ^mpi@9",    # NoBuildableProviderError, with a long message
        "nosuchpkg",          # UnknownPackageError(name, context)
    ])
    def test_repeated_failing_text_runs_the_concretizer_once(
        self, tsession, cold_runs, text
    ):
        raised = []
        for _ in range(3):
            with pytest.raises(ReproError) as info:
                tsession.concretize(text)
            raised.append(info.value)
        assert len(cold_runs) == 1
        first = raised[0]
        for repeat in raised[1:]:
            assert type(repeat) is type(first)
            assert str(repeat) == str(first)
            assert repeat.args == first.args
            assert repeat is not first
        memo = tsession.snapshots.current()._memo
        (kept,) = [v for v in memo.values() if isinstance(v, ReproError)]
        assert type(kept) is type(first) and str(kept) == str(first)
        assert kept.__traceback__ is None
        assert kept.__context__ is None and kept.__cause__ is None
        assert all(kept is not error for error in raised)

    def test_failures_stay_out_of_the_persistent_cache(self, tsession):
        with pytest.raises(ReproError):
            tsession.concretize("libelf ^mpich")
        assert len(tsession.concretize_cache) == 0
        tsession.forget_concretizations()
        with pytest.raises(ReproError):
            tsession.concretize("libelf ^mpich")

    def test_untyped_errors_are_not_memoized(self, tsession, monkeypatch):
        snapshot = StateSnapshot(tsession)
        runs = []

        def broken(spec, variant, database=None):
            runs.append(str(spec))
            raise RuntimeError("boom")

        monkeypatch.setattr(snapshot, "_concretize_cold", broken)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                snapshot.concretize("libdwarf")
        assert len(runs) == 2

    def test_daemon_repeats_a_failure_without_a_cold_solve(
        self, tsession, cold_runs
    ):
        with ServiceDaemon(tsession, workers=2) as daemon:
            for _ in range(3):
                with pytest.raises(ReproError, match="does not depend on"):
                    daemon.call("spack_spec", {"spec": "libelf ^mpich"})
        assert len(cold_runs) == 1


class TestConcurrentRepeats:
    def test_threads_repeating_texts_run_each_cold_once(
        self, tsession, cold_runs
    ):
        """More workers than cores repeat succeeding and failing texts
        with a short switch interval: each text is solved cold once, and
        every request for it gets the same answer or the same error."""
        texts = ["libdwarf", "mpileaks", "libelf ^mpich", "libelf@:0.1"]
        answers = {text: set() for text in texts}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServiceDaemon(tsession, workers=8) as daemon:
                futures = [
                    (text, daemon.submit("spack_spec", {"spec": text}))
                    for _ in range(60) for text in texts
                ]
                for text, future in futures:
                    try:
                        result = future.result(timeout=60)
                        answers[text].add((result["dag_hash"], result["spec"]))
                    except ReproError as error:
                        answers[text].add((type(error).__name__, str(error)))
        finally:
            sys.setswitchinterval(interval)
        assert all(len(seen) == 1 for seen in answers.values())
        assert len(cold_runs) == len(texts)


class TestResponseBodies:
    def test_spack_spec_body_is_rendered_once_per_master(
        self, tsession, monkeypatch
    ):
        renders = []
        real = Spec.tree

        def counting(self, indent=2):
            renders.append(self.name)
            return real(self, indent)

        monkeypatch.setattr(Spec, "tree", counting)
        with ServiceDaemon(tsession, workers=2) as daemon:
            daemon.call("spack_spec", {"spec": "mpileaks"})  # cold
            warm = daemon.call("spack_spec", {"spec": "mpileaks"})  # disk hit
            assert len(renders) == 2
            hits = [
                daemon.call("spack_spec", {"spec": "mpileaks"}),
                daemon.call("spack_spec",
                            {"spec": "mpileaks", "concretizer": "greedy"}),
            ]
            assert len(renders) == 2
            for hit in hits:
                assert hit == warm
                assert hit["nodes"] is warm["nodes"]
            assert set(warm) == {"spec", "dag_hash", "tree", "nodes",
                                 "concretizer", "env_digest"}

    def test_a_body_lives_only_as_long_as_its_master(self, tsession):
        with ServiceDaemon(tsession, workers=2) as daemon:
            for _ in range(3):
                daemon.call("spack_spec", {"spec": "libdwarf"})
            assert len(daemon._bodies) == 1
            daemon.snapshots.current().forget()
            gc.collect()
            assert daemon._bodies == {}

    def test_spack_find_renders_each_record_once(self, tsession, monkeypatch):
        """``Database.query`` sorts by the rendered text and the endpoint
        renders it again: a frozen record keeps its text, so repeated
        finds over M records render each one once."""
        tsession.install("mpileaks")
        tsession.db.refresh()  # the records as a fresh process reads them
        records = list(tsession.db._records.values())
        nodes = sum(len(list(r.spec.traverse())) for r in records)
        renders = []
        real = Spec.node_str

        def counting(self):
            renders.append(self.name)
            return real(self)

        monkeypatch.setattr(Spec, "node_str", counting)
        with ServiceDaemon(tsession, workers=2) as daemon:
            found = [daemon.call("spack_find") for _ in range(3)]
        assert found[0] == found[1] == found[2]
        assert found[0]["count"] == len(records) >= 6
        assert len(renders) == nodes
