"""Snapshot-isolated read state: digest parity with the live session,
immutability under mid-flight mutation, and fork-on-token-change."""

import json

import pytest

from repro.config.config import ConfigError
from repro.core.conc_cache import EnvironmentDigest
from repro.repo.repository import NoSuchPackageError
from repro.service.snapshot import SnapshotManager, StateSnapshot
from repro.session import Session
from repro.telemetry import Telemetry
from repro.telemetry.sinks import MemorySink


@pytest.fixture
def hub():
    t = Telemetry()
    t.add_sink(MemorySink())
    return t


@pytest.fixture
def tsession(tmp_path, hub):
    return Session.create(str(tmp_path / "universe"), telemetry=hub)


def live_digest(session):
    """The environment digest over the live session's repo, config,
    compilers and policy."""
    return EnvironmentDigest(
        session.repo, session.compilers, session.config, session.policy
    ).current()


class TestDigestParity:
    def test_snapshot_digest_matches_session(self, tsession):
        snapshot = StateSnapshot(tsession)
        assert snapshot.env_digest == live_digest(tsession)

    def test_concretization_matches_session_per_variant(self, tsession):
        snapshot = StateSnapshot(tsession)
        for variant in ("greedy", "solver"):
            database = tsession.db if variant == "solver" else None
            from_snapshot = snapshot.concretize(
                "mpileaks", variant, database=database
            )
            from_session = tsession.concretize("mpileaks", concretizer=variant)
            assert from_snapshot.dag_hash() == from_session.dag_hash()
            assert from_snapshot.concrete

    def test_snapshot_reads_session_warmed_disk_cache(self, tsession, hub):
        cold = tsession.concretize("dyninst")  # persists under the digest
        snapshot = StateSnapshot(tsession)
        hits_before = hub.counter("concretize.cache.hit")
        warm = snapshot.concretize("dyninst")
        # the digests agree, so the snapshot's key found the entry the
        # session stored — a disk hit, not a second cold concretization
        assert hub.counter("concretize.cache.hit") == hits_before + 1
        assert warm.dag_hash() == cold.dag_hash()

    def test_session_reads_snapshot_warmed_disk_cache(self, tsession, hub):
        snapshot = StateSnapshot(tsession)
        cold = snapshot.concretize("libdwarf")
        hits_before = hub.counter("concretize.cache.hit")
        warm = tsession.concretize("libdwarf")
        assert hub.counter("concretize.cache.hit") == hits_before + 1
        assert warm.dag_hash() == cold.dag_hash()

    def test_memo_returns_independent_copies(self, tsession):
        snapshot = StateSnapshot(tsession)
        first = snapshot.concretize("libelf")
        second = snapshot.concretize("libelf")
        assert first is not second
        first.variants["mangled"] = True
        assert snapshot.concretize("libelf") == second


class TestFrozenState:
    def test_frozen_config_refuses_mutation(self, tsession):
        snapshot = StateSnapshot(tsession)
        with pytest.raises(ConfigError):
            snapshot.config.update("user", {"concretizer": "solver"})

    def test_snapshot_survives_live_mutation(self, tsession):
        snapshot = StateSnapshot(tsession)
        names_before = snapshot.list_packages()
        digest_before = snapshot.env_digest
        from repro.package.package import Package

        tsession.repo.repos[0].add_class(
            "brandnew", type("Brandnew", (Package,), {})
        )
        tsession.config.update(
            "user", {"preferences": {"compiler_order": ["clang@3.5.0"]}}
        )
        # the snapshot still answers from its frozen state
        assert snapshot.list_packages() == names_before
        assert "brandnew" not in snapshot.repo
        assert snapshot.env_digest == digest_before
        assert str(snapshot.concretize("mpileaks").compiler).startswith("gcc")

    def test_missing_package_raises_no_such(self, tsession):
        snapshot = StateSnapshot(tsession)
        with pytest.raises(NoSuchPackageError):
            snapshot.repo.get_class("no-such-package")

    def test_list_packages_filters(self, tsession):
        snapshot = StateSnapshot(tsession)
        everything = snapshot.list_packages()
        assert "mpileaks" in everything
        assert snapshot.list_packages("mpi") == [
            n for n in everything if "mpi" in n
        ]

    def test_package_info_is_json_able(self, tsession):
        snapshot = StateSnapshot(tsession)
        info = snapshot.package_info("mpileaks")
        json.dumps(info)  # must round-trip the wire
        assert info["name"] == "mpileaks"
        assert info["versions"]
        assert any(d["spec"].startswith("mpi") for d in info["dependencies"])


class TestSnapshotManager:
    def test_steady_state_shares_one_snapshot(self, tsession):
        manager = SnapshotManager(tsession)
        first = manager.current()
        assert manager.current() is first
        assert manager.forks == 1

    def test_mutation_forks_a_new_snapshot(self, tsession, hub):
        manager = SnapshotManager(tsession)
        old = manager.current()
        tsession.config.update(
            "user", {"preferences": {"compiler_order": ["clang@3.5.0"]}}
        )
        new = manager.current()
        assert new is not old
        assert new.env_digest != old.env_digest
        assert manager.forks == 2
        assert hub.counter("service.snapshot.fork") == 2
        # the fork sees the new preference; the old snapshot still
        # answers with its frozen one
        assert str(new.concretize("mpileaks").compiler).startswith("clang")
        assert str(old.concretize("mpileaks").compiler).startswith("gcc")

    def test_package_registration_forks(self, tsession):
        from repro.package.package import Package

        manager = SnapshotManager(tsession)
        old = manager.current()
        tsession.repo.repos[0].add_class(
            "newpkg", type("Newpkg", (Package,), {})
        )
        new = manager.current()
        assert new is not old
        assert "newpkg" in new.repo
        assert "newpkg" not in old.repo


class TestMemoBound:
    def test_cap_plus_one_requests_evict_the_least_recently_used(
        self, tmp_path, hub
    ):
        """A resident daemon never re-forks, so the memo is an LRU of
        ``MEMO_ENTRIES``: one request past the cap evicts exactly the
        least recently used entry."""
        from repro.service.snapshot import MEMO_ENTRIES
        from repro.spec.spec import Spec

        session = Session.create(
            str(tmp_path / "u"), telemetry=hub,
            config_overrides={"concretize_cache": {"enabled": False}},
        )
        state = session.snapshots.current()
        # a cold run that costs nothing: the memo is what is under test
        state._concretize_cold = lambda spec, variant, database=None: spec
        texts = ["libelf@%d" % i for i in range(MEMO_ENTRIES + 1)]
        for text in texts[:-1]:
            session.concretize(text)
        session.concretize(texts[0])  # the oldest becomes the most recent
        assert hub.counter("concretize.cache.evict") == 0
        session.concretize(texts[-1])
        assert hub.counter("concretize.cache.evict") == 1
        assert len(state._memo) == MEMO_ENTRIES

        def memoized(text):
            return state.cache_key(Spec(text), "greedy") in state._memo

        assert not memoized(texts[1])
        assert all(memoized(t) for t in texts[:1] + texts[2:])

    def test_concurrent_requests_keep_the_bound_exact(self, tmp_path, hub,
                                                      monkeypatch):
        """Eight threads race a fresh snapshot: its digest is computed
        once, and every admission and eviction is counted exactly."""
        import sys
        import threading

        from repro.service.snapshot import MEMO_ENTRIES

        session = Session.create(
            str(tmp_path / "u"), telemetry=hub,
            config_overrides={"concretize_cache": {"enabled": False}},
        )
        digests = []
        real_current = EnvironmentDigest.current

        def counted_current(self):
            digests.append(1)
            return real_current(self)

        monkeypatch.setattr(EnvironmentDigest, "current", counted_current)
        state = session.snapshots.current()
        state._concretize_cold = lambda spec, variant, database=None: spec
        n_threads, per_thread = 8, MEMO_ENTRIES // 8 + 64
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(t):
            try:
                barrier.wait()
                for i in range(per_thread):
                    state.concretize("libelf@%d.%d" % (t, i))
            except Exception as e:  # pragma: no cover - failure detail
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(digests) == 1
        assert len(state._memo) == MEMO_ENTRIES
        total = n_threads * per_thread
        assert hub.counter("concretize.cache.evict") == total - MEMO_ENTRIES
