"""The daemon's endpoint contract, request batching, and transports."""

import io
import json
import threading
import time

import pytest

from repro.service import (
    ENDPOINTS,
    ServiceClient,
    ServiceClientError,
    ServiceDaemon,
    ServiceError,
    SocketTransport,
    StdioTransport,
)
from repro.service.transport import handle_line
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


@pytest.fixture
def daemon(tsession):
    with ServiceDaemon(tsession, workers=4) as d:
        yield d


class TestEndpoints:
    def test_spack_list(self, daemon):
        result = daemon.call("spack_list")
        assert result["count"] == len(result["packages"])
        assert "mpileaks" in result["packages"]
        assert result["env_digest"]
        filtered = daemon.call("spack_list", {"query": "mpi"})
        assert all("mpi" in n for n in filtered["packages"])

    def test_spack_info(self, daemon):
        result = daemon.call("spack_info", {"package": "callpath"})
        assert result["name"] == "callpath"
        assert result["versions"]
        json.dumps(result)

    def test_spack_spec(self, daemon):
        result = daemon.call("spack_spec", {"spec": "mpileaks ^mpich"})
        assert result["dag_hash"]
        assert result["concretizer"] == "greedy"
        names = {n["name"] for n in result["nodes"]}
        assert {"mpileaks", "mpich"} <= names
        assert "mpileaks" in result["tree"]

    def test_spack_spec_variant_override(self, daemon):
        result = daemon.call(
            "spack_spec", {"spec": "libelf", "concretizer": "solver"}
        )
        assert result["concretizer"] == "solver"

    def test_spack_install_then_find(self, daemon):
        result = daemon.call("spack_install", {"spec": "libdwarf"})
        assert result["prefix"]
        assert "libdwarf" in result["built"] + result["cached"]
        found = daemon.call("spack_find")
        assert found["count"] == len(found["specs"]) >= 2  # dep too
        assert any(
            s["spec"].startswith("libdwarf") for s in found["specs"]
        )
        filtered = daemon.call("spack_find", {"query": "libelf"})
        assert filtered["count"] == 1

    def test_spack_env_unifies_roots(self, daemon):
        result = daemon.call("spack_env", {
            "roots": ["mpileaks", "dyninst ^libelf@0.8.12", "libdwarf"],
            "jobs": 3,
        })
        assert [r["root"] for r in result["roots"]] == [
            "mpileaks", "dyninst ^libelf@0.8.12", "libdwarf",
        ]
        assert all(r["dag_hash"] for r in result["roots"])
        assert result["shared_packages"] >= 1
        assert result["pins"].get("libelf", "").startswith("libelf@0.8.12")
        assert result["env_digest"]
        # the unified set dedups shared sub-DAGs
        assert result["unique_nodes"] < sum(
            len(daemon.call("spack_spec", {"spec": r})["nodes"])
            for r in ("mpileaks", "dyninst ^libelf@0.8.12", "libdwarf")
        )

    def test_spack_env_conflict_is_one_diagnostic(self, daemon):
        from repro.env.unify import EnvironmentConflictError

        with pytest.raises(EnvironmentConflictError) as err:
            daemon.call("spack_env", {
                "roots": ["mpileaks ^libelf@0.8.11", "dyninst ^libelf@0.8.12"],
            })
        assert "mpileaks ^libelf@0.8.11" in str(err.value)
        assert "dyninst ^libelf@0.8.12" in str(err.value)

    def test_spack_env_rejects_bad_roots(self, daemon):
        with pytest.raises(ServiceError, match="roots"):
            daemon.call("spack_env", {"roots": []})
        with pytest.raises(ServiceError, match="roots"):
            daemon.call("spack_env", {"roots": "mpileaks"})

    def test_status(self, daemon):
        daemon.call("spack_list")
        status = daemon.call("status")
        assert status["workers"] == 4
        assert status["requests"]["served"] >= 1
        assert status["requests"]["errors"] == 0
        assert status["snapshot"]["env_digest"]
        assert status["snapshot"]["forks"] == 1
        assert status["endpoints"] == list(ENDPOINTS)
        assert status["latency"]["count"] >= 1

    def test_unknown_endpoint_rejected_at_submit(self, daemon):
        with pytest.raises(ServiceError, match="Unknown endpoint"):
            daemon.submit("spack_build_everything")

    def test_bad_params_become_service_error(self, daemon, hub):
        with pytest.raises(ServiceError, match="Bad parameters"):
            daemon.call("spack_info", {"wrong_key": "callpath"})
        assert hub.counter("service.errors") == 1

    def test_unknown_concretizer_is_service_error(self, daemon):
        with pytest.raises(ServiceError, match="Unknown concretizer"):
            daemon.call("spack_spec", {"spec": "libelf", "concretizer": "x"})

    def test_shutdown_refuses_new_work(self, daemon):
        out = daemon.call("shutdown")
        assert out["ok"]
        assert daemon.shutdown_event.is_set()
        with pytest.raises(ServiceError, match="shutting down"):
            daemon.submit("spack_list")


class TestBatching:
    def test_thundering_herd_concretizes_once(self, tsession, hub):
        with ServiceDaemon(tsession, workers=8) as daemon:
            snapshot = daemon.snapshots.current()
            release = threading.Event()
            entered = threading.Event()
            cold_calls = []
            real_cold = snapshot._concretize_cold

            def blocking_cold(spec, variant, database=None):
                cold_calls.append(str(spec))
                entered.set()
                release.wait(timeout=30)
                return real_cold(spec, variant, database)

            snapshot._concretize_cold = blocking_cold
            futures = [daemon.submit("spack_spec", {"spec": "mpileaks"})]
            assert entered.wait(timeout=30)  # the leader is in the cold path
            n_followers = 5
            futures += [
                daemon.submit("spack_spec", {"spec": "mpileaks"})
                for _ in range(n_followers)
            ]

            def parked():
                with daemon._batch_lock:
                    return sum(
                        b.followers for b in daemon._inflight.values()
                    )

            deadline = time.time() + 30
            while parked() < n_followers and time.time() < deadline:
                time.sleep(0.005)
            assert parked() == n_followers
            release.set()
            results = [f.result(timeout=30) for f in futures]

        assert cold_calls == ["mpileaks"]  # the herd concretized once
        assert len({r["dag_hash"] for r in results}) == 1
        assert daemon.coalesced == n_followers
        assert hub.counter("service.batch.coalesced") == n_followers

    def test_leader_error_propagates_to_followers(self, tsession):
        with ServiceDaemon(tsession, workers=4) as daemon:
            snapshot = daemon.snapshots.current()
            release = threading.Event()
            entered = threading.Event()

            def failing_cold(spec, variant, database=None):
                entered.set()
                release.wait(timeout=30)
                raise RuntimeError("boom")

            snapshot._concretize_cold = failing_cold
            leader = daemon.submit("spack_spec", {"spec": "mpileaks"})
            assert entered.wait(timeout=30)
            follower = daemon.submit("spack_spec", {"spec": "mpileaks"})

            def parked():
                with daemon._batch_lock:
                    return sum(
                        b.followers for b in daemon._inflight.values()
                    )

            deadline = time.time() + 30
            while parked() < 1 and time.time() < deadline:
                time.sleep(0.005)
            release.set()
            for future in (leader, follower):
                with pytest.raises(RuntimeError, match="boom"):
                    future.result(timeout=30)


class TestTransports:
    def test_socket_round_trip_and_shutdown(self, tsession):
        daemon = ServiceDaemon(tsession, workers=2)
        server = SocketTransport(daemon, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_until_shutdown, daemon=True
        )
        thread.start()
        host, port = server.address
        with ServiceClient(host, port) as client:
            listing = client.spack_list("mpi")
            assert "mpich" in listing["packages"]
            concrete = client.spack_spec("libdwarf")
            assert concrete["dag_hash"]
            with pytest.raises(ServiceClientError) as excinfo:
                client.call("not_an_endpoint")
            assert excinfo.value.remote_type == "ServiceError"
            assert client.shutdown()["ok"]
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_bad_json_is_an_error_response(self, tsession):
        with ServiceDaemon(tsession) as daemon:
            response = json.loads(handle_line(daemon, "this is not json"))
        assert response["ok"] is False
        assert response["id"] is None
        assert "JSON" in response["error"]["message"]

    def test_response_echoes_request_id(self, tsession):
        with ServiceDaemon(tsession) as daemon:
            line = json.dumps(
                {"id": "req-42", "endpoint": "spack_list", "params": {}}
            )
            response = json.loads(handle_line(daemon, line))
        assert response["id"] == "req-42"
        assert response["ok"] is True
        assert response["result"]["count"] > 0

    def test_stdio_transport(self, tsession):
        daemon = ServiceDaemon(tsession)
        requests = "\n".join([
            json.dumps({"id": 1, "endpoint": "spack_list", "params": {}}),
            "",  # blank lines are skipped
            json.dumps({"id": 2, "endpoint": "shutdown"}),
        ]) + "\n"
        stdin, stdout = io.StringIO(requests), io.StringIO()
        StdioTransport(daemon, stdin=stdin, stdout=stdout).serve_until_shutdown()
        responses = [
            json.loads(line) for line in stdout.getvalue().splitlines()
        ]
        assert [r["id"] for r in responses] == [1, 2]
        assert all(r["ok"] for r in responses)
        assert responses[0]["result"]["count"] > 0
        assert daemon.shutdown_event.is_set()
