"""Regression tests for the concretization races the daemon exposed.

Concretizations are memoized in the session's frozen State
(:mod:`repro.service.snapshot`), and an environment change forks a new
State whose memo starts empty.  The original bug lived in a Session-level
memo: the digest check, the invalidating ``clear()`` and the memo read
ran unlocked, so two threads racing past a config change both saw the
stale digest, both cleared (double-counting the invalidation), and the
slower ``clear()`` wiped the entry the faster thread had just stored for
the *new* digest.  The same race against the State would be two forks:
the later one replaces the State the faster thread stored into.  The
test makes that interleaving deterministic by parking the first thread
inside its fork while a second thread runs the same path."""

import threading

from repro.service import snapshot as snapshot_module
from repro.session import Session
from repro.telemetry import Telemetry
from repro.telemetry.sinks import MemorySink


class TestConcMemoInvalidation:
    def test_digest_invalidation_is_atomic_with_memo_access(self, tmp_path,
                                                             monkeypatch):
        hub = Telemetry()
        hub.add_sink(MemorySink())
        # without a persistent cache a cold result enters the memo at once
        session = Session.create(
            str(tmp_path / "universe"), telemetry=hub,
            config_overrides={"concretize_cache": {"enabled": False}},
        )
        session.concretize("libelf")  # forks the first State, fills its memo

        entered, proceed = threading.Event(), threading.Event()
        real_state = snapshot_module.StateSnapshot

        class ParkedFork(real_state):
            """A State whose first construction parks mid-fork, giving a
            second thread a deterministic window to race into it."""

            parked = False

            def __init__(self, session):
                if not ParkedFork.parked:
                    ParkedFork.parked = True
                    entered.set()
                    # the second thread blocks on the manager's lock and
                    # can never signal us; the timeout keeps the test moving
                    proceed.wait(timeout=2.0)
                super().__init__(session)

        monkeypatch.setattr(snapshot_module, "StateSnapshot", ParkedFork)
        # the environment moves: the next concretize must fork
        session.config.update(
            "user", {"packages": {"zlib": {"buildable": False}}}
        )

        errors = []

        def concretize(spec):
            try:
                session.concretize(spec)
            except Exception as e:  # pragma: no cover - failure detail
                errors.append(e)

        first = threading.Thread(target=concretize, args=("libelf",))
        first.start()
        assert entered.wait(timeout=30)  # first is inside its fork
        second = threading.Thread(target=concretize, args=("libdwarf",))
        second.start()
        second.join(timeout=30)
        proceed.set()
        first.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        assert errors == []

        # one environment change: exactly one fork, one invalidation —
        # racing forks would count two
        assert session.snapshots.forks == 2
        assert hub.counter("concretize.cache.invalidate") == 1
        # and the second thread's fresh entry survived in the State both
        # threads share — a second fork would have replaced it
        assert len(session.snapshots.current()._memo) == 2

    def test_concurrent_concretize_same_spec_is_consistent(self, tmp_path):
        hub = Telemetry()
        hub.add_sink(MemorySink())
        session = Session.create(str(tmp_path / "universe"), telemetry=hub)
        results, errors = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                for _ in range(3):
                    results.append(session.concretize("mpileaks").dag_hash())
            except Exception as e:  # pragma: no cover - failure detail
                errors.append(e)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(set(results)) == 1
        # a stable environment never invalidates
        assert hub.counter("concretize.cache.invalidate") == 0
