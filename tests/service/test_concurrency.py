"""The daemon under fire: mixed concurrent requests, snapshot isolation
across a mid-flight mutation, and one single-rooted trace per request."""

import threading
import time

import pytest

from repro.service import ServiceDaemon
from repro.session import Session
from repro.telemetry import Telemetry
from repro.telemetry.analysis import TraceAnalysis
from repro.telemetry.sinks import MemorySink


@pytest.fixture
def sink():
    return MemorySink()


@pytest.fixture
def hub(sink):
    t = Telemetry()
    t.add_sink(sink)
    return t


@pytest.fixture
def tsession(tmp_path, hub):
    return Session.create(str(tmp_path / "universe"), telemetry=hub)


class TestMixedHerd:
    def test_forty_mixed_requests_across_eight_workers(self, tsession):
        specs = ["mpileaks", "dyninst", "libdwarf", "libelf"]
        with ServiceDaemon(tsession, workers=8) as daemon:
            futures = []
            for i in range(40):
                kind = i % 4
                if kind == 0:
                    futures.append(daemon.submit(
                        "spack_spec", {"spec": specs[(i // 4) % len(specs)]}
                    ))
                elif kind == 1:
                    futures.append(daemon.submit("spack_list", {"query": "mpi"}))
                elif kind == 2:
                    futures.append(daemon.submit(
                        "spack_info", {"package": "callpath"}
                    ))
                else:
                    futures.append(daemon.submit("spack_find", {}))
            results = [f.result(timeout=120) for f in futures]

        assert len(results) == 40
        # identical spec requests resolved identically, whatever the
        # interleaving
        by_spec = {}
        for i, result in enumerate(results):
            if i % 4 == 0:
                spec = specs[(i // 4) % len(specs)]
                by_spec.setdefault(spec, set()).add(result["dag_hash"])
        assert all(len(hashes) == 1 for hashes in by_spec.values())
        # every list/info answer is complete, never a torn read
        for i, result in enumerate(results):
            if i % 4 == 1:
                assert "mpich" in result["packages"]
            elif i % 4 == 2:
                assert result["name"] == "callpath"
        status = daemon._ep_status()
        assert status["requests"]["served"] == 40
        assert status["requests"]["errors"] == 0

    def test_concurrent_spec_requests_agree_per_thread_clients(self, tsession):
        """Client-side threads (one blocking call chain each) instead of
        pre-submitted futures — the shape a socket transport produces."""
        results, errors = [], []
        with ServiceDaemon(tsession, workers=8) as daemon:
            barrier = threading.Barrier(8)

            def client():
                try:
                    barrier.wait()
                    for _ in range(3):
                        results.append(
                            daemon.call("spack_spec", {"spec": "mpileaks"})
                        )
                except Exception as e:  # pragma: no cover - failure detail
                    errors.append(e)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert len({r["dag_hash"] for r in results}) == 1


class TestBoundUnderStress:
    def test_bound_and_counters_hold_with_a_1us_switch_interval(
        self, tsession
    ):
        """Twelve caller threads and two pool workers race a 3-slot
        bound: no more than three requests ever run at once, and every
        admission, slot and answer is counted exactly."""
        import sys

        workers, callers, per_caller = 3, 12, 20
        running, peak, errors = [0], [0], []
        counter_lock = threading.Lock()
        with ServiceDaemon(tsession, workers=workers) as daemon:
            real = daemon._ep_spack_list

            def counted(**params):
                with counter_lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                try:
                    return real(**params)
                finally:
                    with counter_lock:
                        running[0] -= 1

            daemon._ep_spack_list = counted
            barrier = threading.Barrier(callers)

            def caller():
                try:
                    barrier.wait()
                    for _ in range(per_caller):
                        daemon.call("spack_list", {"query": "mpi"})
                except Exception as e:  # pragma: no cover - failure detail
                    errors.append(e)

            threads = [threading.Thread(target=caller) for _ in range(callers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                futures = [daemon.submit("spack_list", {"query": "lib"})
                           for _ in range(per_caller)]
                for t in threads:
                    t.join(timeout=120)
                results = [f.result(timeout=120) for f in futures]
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and len(results) == per_caller
            status = daemon.call("status")
        assert 1 <= peak[0] <= workers
        total = (callers + 1) * per_caller
        assert status["requests"]["served"] == total
        assert status["requests"]["active"] == 1  # the status request
        assert status["requests"]["waiting"] == 0
        assert daemon._running == 0 and daemon._active == 0


class TestSnapshotIsolationMidFlight:
    def test_old_requests_finish_old_new_see_new(self, tsession):
        with ServiceDaemon(tsession, workers=4) as daemon:
            old_snapshot = daemon.snapshots.current()
            release = threading.Event()
            entered = threading.Event()
            real_cold = old_snapshot._concretize_cold

            def blocking_cold(spec, variant, database=None):
                entered.set()
                release.wait(timeout=30)
                return real_cold(spec, variant, database)

            old_snapshot._concretize_cold = blocking_cold
            old_future = daemon.submit("spack_spec", {"spec": "mpileaks"})
            assert entered.wait(timeout=30)  # pinned on the old snapshot

            # the mutation lands while that request is mid-flight
            tsession.config.update(
                "user", {"preferences": {"compiler_order": ["clang@3.5.0"]}}
            )
            new_result = daemon.call("spack_spec", {"spec": "mpileaks"})
            assert new_result["env_digest"] != old_snapshot.env_digest
            new_root = next(
                n for n in new_result["nodes"] if n["name"] == "mpileaks"
            )
            assert new_root["compiler"].startswith("clang")

            release.set()
            old_result = old_future.result(timeout=30)
            # the in-flight request finished on the snapshot it started on
            assert old_result["env_digest"] == old_snapshot.env_digest
            old_root = next(
                n for n in old_result["nodes"] if n["name"] == "mpileaks"
            )
            assert old_root["compiler"].startswith("gcc")
            assert daemon.snapshots.forks == 2

    def test_mutation_under_load_never_tears_a_response(self, tsession):
        """Requests racing a config mutation each answer consistently
        from exactly one of the two digests."""
        digests = set()
        results, errors = [], []
        with ServiceDaemon(tsession, workers=8) as daemon:
            digests.add(daemon.snapshots.current().env_digest)
            start = threading.Barrier(5)

            def requester():
                try:
                    start.wait()
                    for _ in range(5):
                        results.append(
                            daemon.call("spack_spec", {"spec": "libdwarf"})
                        )
                except Exception as e:  # pragma: no cover - failure detail
                    errors.append(e)

            def mutator():
                start.wait()
                time.sleep(0.01)
                tsession.config.update(
                    "user",
                    {"preferences": {"compiler_order": ["clang@3.5.0"]}},
                )
                digests.add(daemon.snapshots.current().env_digest)

            threads = [threading.Thread(target=requester) for _ in range(4)]
            threads.append(threading.Thread(target=mutator))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert len(results) == 20
        assert len(digests) == 2
        assert all(r["env_digest"] in digests for r in results)
        # each digest maps to exactly one answer: a request never mixes
        # pre- and post-mutation state
        answers = {}
        for result in results:
            root = next(
                n for n in result["nodes"] if n["name"] == "libdwarf"
            )
            answers.setdefault(result["env_digest"], set()).add(
                root["compiler"]
            )
        assert all(len(compilers) == 1 for compilers in answers.values())


class TestPerRequestTraces:
    def test_each_request_is_one_single_rooted_trace(self, tsession, sink):
        with ServiceDaemon(tsession, workers=4) as daemon:
            futures = [
                daemon.submit("spack_spec", {"spec": spec})
                for spec in ("mpileaks", "dyninst")
            ]
            futures += [daemon.submit("spack_list", {}) for _ in range(3)]
            for f in futures:
                f.result(timeout=120)

        analysis = TraceAnalysis(sink.records)
        assert analysis.orphans == []
        request_roots = [
            r for r in analysis.roots if r.name == "service.request"
        ]
        assert len(request_roots) == 5
        # distinct trace ids: no request rides another's trace
        assert len({r.trace_id for r in request_roots}) == 5
        traces = analysis.traces()
        for root in request_roots:
            assert traces[root.trace_id] == [root]
        # the concretizing requests carry their work as child spans
        spec_roots = [
            r for r in request_roots if r.attrs.get("endpoint") == "spack_spec"
        ]
        assert len(spec_roots) == 2
        assert any(
            child.name.startswith("concretize")
            for root in spec_roots
            for child in root.walk()
            if child is not root
        )
