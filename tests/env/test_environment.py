"""Durable environments: manifest, lockfile, status, and install."""

import json
import os

import pytest

from repro.env import Environment, EnvironmentConflictError
from repro.telemetry import Telemetry
from repro.telemetry.sinks import MemorySink


@pytest.fixture
def env(session):
    return session.environment("dev")


class TestManifest:
    def test_add_canonicalizes_and_dedups(self, env):
        assert env.add("mpileaks")
        assert not env.add("mpileaks")  # same canonical text
        assert env.add("dyninst ^libelf@0.8.12")
        assert env.roots == ["mpileaks", "dyninst ^libelf@0.8.12"]

    def test_manifest_round_trips(self, session, env):
        env.add("mpileaks")
        env.add("libdwarf")
        reloaded = session.environment("dev")
        assert reloaded.roots == env.roots
        assert reloaded.name == "dev"

    def test_remove(self, env):
        env.add("mpileaks")
        assert env.remove("mpileaks")
        assert not env.remove("mpileaks")
        assert env.roots == []

    def test_environment_names(self, session):
        assert session.environment_names() == []
        session.environment("beta").add("libelf")
        session.environment("alpha").add("libelf")
        assert session.environment_names() == ["alpha", "beta"]


class TestLockfile:
    def test_concretize_writes_lock_and_warm_restores(self, session, env):
        hub = Telemetry()
        hub.add_sink(MemorySink())
        session.telemetry = hub
        env.add("mpileaks")
        env.add("libdwarf")
        cold = env.concretize(session)
        assert cold.resolves > 0
        assert os.path.isfile(env._lock_path())
        warm = env.concretize(session)
        assert warm.resolves == 0  # restored, not re-solved
        assert warm.dag_hashes() == cold.dag_hashes()
        assert hub.counter("env.lock.hit") == 1
        assert hub.counter("env.lock.miss") == 1

    def test_adding_a_root_stales_the_lock(self, session, env):
        env.add("mpileaks")
        env.concretize(session)
        assert env.lock_state(session) == "fresh"
        env.add("libdwarf")
        assert env.lock_state(session) == "stale"
        env.concretize(session)
        assert env.lock_state(session) == "fresh"

    def test_lock_state_absent(self, session, env):
        env.add("mpileaks")
        assert env.lock_state(session) == "absent"

    def test_corrupt_lock_falls_back_to_cold(self, session, env):
        env.add("mpileaks")
        cold = env.concretize(session)
        with open(env._lock_path()) as f:
            lock = json.load(f)
        lock["roots"][0]["dag_hash"] = "0" * 32
        with open(env._lock_path(), "w") as f:
            json.dump(lock, f)
        again = env.concretize(session)
        assert again.resolves > 0  # hash check rejected the lock
        assert again.dag_hashes() == cold.dag_hashes()

    def test_force_reconcretizes(self, session, env):
        env.add("mpileaks")
        env.concretize(session)
        forced = env.concretize(session, force=True)
        assert forced.resolves > 0

    def test_pins_survive_the_lock(self, session, env):
        env.add("libdwarf ^libelf@:0.8.12")
        env.add("dyninst")
        cold = env.concretize(session)
        assert "libelf" in cold.pins
        warm = env.concretize(session)
        assert warm.pins == cold.pins

    def test_lock_is_compact_and_written_by_one_rename(self, session, env,
                                                       monkeypatch):
        from repro.env import environment

        written = []
        real_write = environment.atomic_write

        def recording(path, data):
            written.append(path)
            return real_write(path, data)

        monkeypatch.setattr(environment, "atomic_write", recording)
        env.add("mpileaks")
        env.concretize(session)
        assert written == [env._lock_path()]
        with open(env._lock_path()) as f:
            text = f.read()
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert [n for n in os.listdir(env.path) if n.endswith(".tmp")] == []

    def test_indented_lock_of_older_versions_restores_warm(self, session, env):
        env.add("mpileaks")
        env.add("libdwarf ^libelf@:0.8.12")
        cold = env.concretize(session)
        with open(env._lock_path()) as f:
            lock = json.load(f)
        # the form older versions wrote: indent=1, sorted keys, newline
        with open(env._lock_path(), "w") as f:
            f.write(json.dumps(lock, indent=1, sort_keys=True) + "\n")
        assert env.lock_state(session) == "fresh"
        warm = env.concretize(session)
        assert warm.resolves == 0
        assert warm.dag_hashes() == cold.dag_hashes()
        assert warm.pins == cold.pins

    def test_conflicting_roots_error_and_leave_no_lock(self, session, env):
        env.add("libdwarf ^libelf@0.8.11")
        env.add("dyninst ^libelf@0.8.12")
        with pytest.raises(EnvironmentConflictError):
            env.concretize(session)
        assert env.lock_state(session) == "absent"


class TestStatusAndInstall:
    def test_status_before_and_after(self, session, env):
        env.add("mpileaks")
        report = env.status(session)
        assert report["lock"] == "absent"
        assert "unique_nodes" not in report
        env.concretize(session)
        report = env.status(session)
        assert report["lock"] == "fresh"
        assert report["installed"] == 0
        assert report["unique_nodes"] >= 4
        assert set(report["root_hashes"]) == {"mpileaks"}

    def test_install_installs_the_unified_set_once(self, session, env):
        env.add("mpileaks")
        env.add("libdwarf")
        unified, results = env.install(session)
        assert len(results) == 2
        # every unified node is installed, shared nodes only once
        installed = {
            r.spec.dag_hash() for r in session.db.query()
        }
        assert set(unified.nodes()) <= installed
        report = env.status(session)
        assert report["installed"] == report["unique_nodes"]
        # the second root's shared deps were reused, not rebuilt
        second = results[1][2]
        assert second.reused

    def test_env_concretize_session_api(self, session):
        """Session.env_concretize dispatches names, instances, and
        anonymous root lists."""
        unified = session.env_concretize(["mpileaks", "libdwarf"])
        assert len(unified.roots) == 2
        env = session.environment("named")
        env.add("libelf")
        by_name = session.env_concretize("named")
        assert [t for t, _ in by_name.roots] == ["libelf"]
        by_instance = session.env_concretize(env)
        assert by_instance.resolves == 0  # lock from the previous call
