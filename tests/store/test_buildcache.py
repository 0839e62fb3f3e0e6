"""The relocatable binary build cache: format, integrity, round trips."""

import builtins
import collections
import contextlib
import hashlib
import json
import os
import shutil
import sys
import threading

import pytest

from repro.session import Session
from repro.spec.spec import Spec
from repro.store.buildcache import (
    BuildCache,
    BuildCacheError,
    DigestMismatchError,
    normalized_digest,
    relocate_paths,
)
from repro.telemetry import MemorySink, Telemetry


@pytest.fixture
def cache_root(tmp_path):
    return str(tmp_path / "buildcache")


@pytest.fixture
def pushing_session(tmp_path, cache_root):
    """A session that auto-publishes every build into the shared cache."""
    session = Session.create(str(tmp_path / "warm"))
    session.enable_buildcache(root=cache_root, push=True)
    return session


def _fresh_puller(tmp_path, cache_root, name="cold", **kwargs):
    """A brand-new session (empty store) pulling from the shared cache."""
    session = Session.create(str(tmp_path / name), **kwargs)
    session.enable_buildcache(root=cache_root, pull=True)
    return session


def _synthetic(name, tool=None):
    """A concrete ``name`` made from its dict, with a build-only ``tool``
    dependency at version ``tool`` when one is given: two such specs
    differing only in ``tool`` are runtime twins."""

    def node(node_name, version, dependencies):
        return {
            "name": node_name, "versions": version, "compiler": "gcc@4.9.2",
            "variants": {}, "architecture": "linux-x86_64", "external": None,
            "provided_virtuals": [], "dependencies": dependencies,
            "concrete": True,
        }

    if tool is None:
        nodes = [node(name, "1.0", {})]
    else:
        nodes = [node(name, "1.0", {"tool": ["build"]}),
                 node("tool", tool, {})]
    return Spec.from_dict({"root": name, "nodes": nodes})


@pytest.fixture
def tiny_prefix(tmp_path):
    """A one-file prefix to push synthetic specs from."""
    prefix = tmp_path / "prefix"
    (prefix / "bin").mkdir(parents=True)
    (prefix / "bin" / "tool").write_text('{"rpaths": ["/build/root/opt"]}')
    return str(prefix)


@contextlib.contextmanager
def _file_access():
    """Count ``open``, ``os.stat`` and ``os.listdir`` calls, and the bytes
    of the files opened, while the block runs."""
    calls = collections.Counter()
    real_open, real_stat, real_listdir = builtins.open, os.stat, os.listdir

    def counted_open(path, *args, **kwargs):
        calls["open"] += 1
        try:
            calls["bytes"] += real_stat(path).st_size
        except OSError:
            pass
        return real_open(path, *args, **kwargs)

    def counted_stat(path, *args, **kwargs):
        calls["stat"] += 1
        return real_stat(path, *args, **kwargs)

    def counted_listdir(*args, **kwargs):
        calls["listdir"] += 1
        return real_listdir(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "open", counted_open)
        mp.setattr(os, "stat", counted_stat)
        mp.setattr(os, "listdir", counted_listdir)
        yield calls


class TestCacheFormat:
    def test_push_writes_tarball_sidecar_and_marker(self, pushing_session):
        spec, _ = pushing_session.install("libelf", jobs=1)
        cache = pushing_session.buildcache
        dag_hash = spec.dag_hash()

        entry = cache.lookup(dag_hash)
        assert entry["root"] == pushing_session.root
        assert entry["runtime_hash"] == spec.runtime_hash()
        assert Spec.from_dict(entry["spec"]).dag_hash() == dag_hash
        with open(cache.tarball_path(spec, dag_hash), "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == entry["digest"]
        marker = os.path.join(cache.root, "runtime", spec.runtime_hash(),
                              dag_hash)
        assert os.path.getsize(marker) == 0
        assert sorted(os.listdir(cache.root)) == sorted(
            [dag_hash[:2], dag_hash + ".spec.json", "runtime"]
        )

    def test_pack_is_deterministic(self, pushing_session):
        spec, _ = pushing_session.install("libelf", jobs=1)
        cache = pushing_session.buildcache
        prefix = pushing_session.store.layout.path_for_spec(spec)
        first = cache._pack(prefix)
        second = cache._pack(prefix)
        assert first == second

    def test_repeated_push_is_idempotent(self, pushing_session):
        spec, _ = pushing_session.install("libelf", jobs=1)
        cache = pushing_session.buildcache
        prefix = pushing_session.store.layout.path_for_spec(spec)
        d1 = cache.push(spec, prefix, pushing_session.root)
        d2 = cache.push(spec, prefix, pushing_session.root)
        assert d1 == d2

    def test_threads_pushing_one_hash_leave_every_sidecar_whole(
        self, pushing_session
    ):
        """Regression: the temp file of a push was named by the pid
        alone, so two daemon threads pushing one hash truncated or
        ``os.replace``d away each other's half-written sidecar."""
        spec, _ = pushing_session.install("libelf", jobs=1)
        cache = pushing_session.buildcache
        prefix = pushing_session.store.layout.path_for_spec(spec)
        dag_hash = spec.dag_hash()
        n_threads, n_pushes = 4, 25
        barrier = threading.Barrier(n_threads)
        errors = []

        def pusher():
            barrier.wait()
            try:
                for _ in range(n_pushes):
                    cache.push(spec, prefix, pushing_session.root)
                    with open(cache.sidecar_path(dag_hash)) as f:
                        sidecar = json.load(f)
                    assert Spec.from_dict(sidecar["spec"]).dag_hash() == dag_hash
            except Exception as e:
                errors.append(e)

        threads = [threading.Thread(target=pusher) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert not [n for n in os.listdir(cache.root) if n.endswith(".tmp")]

    def test_normalized_digest_is_relocation_invariant(self):
        a = b'{"rpaths": ["/root/a/opt/lib"], "needed": []}'
        b = b'{"rpaths": ["/other/b/opt/lib"], "needed": []}'
        assert (
            normalized_digest(a, "/root/a")
            == normalized_digest(b, "/other/b")
        )
        assert normalized_digest(a, "/root/a") != normalized_digest(b, "/root/a")

    def test_relocate_paths_rewrites_only_matching_files(self, tmp_path):
        prefix = tmp_path / "prefix"
        prefix.mkdir()
        (prefix / "with_root.json").write_text('{"p": "/old/root/opt/x"}')
        (prefix / "without.json").write_text('{"p": "nothing"}')
        count = relocate_paths(str(prefix), {"/old/root": "/new/home"})
        assert count == 1
        assert "/new/home/opt/x" in (prefix / "with_root.json").read_text()
        assert relocate_paths(str(prefix), {"/new/home": "/new/home"}) == 0

    def test_extract_rejects_escaping_members(self, tmp_path):
        import io
        import tarfile

        raw = io.BytesIO()
        with tarfile.open(fileobj=raw, mode="w:gz") as tar:
            info = tarfile.TarInfo("../escape")
            info.size = 4
            tar.addfile(info, io.BytesIO(b"evil"))
        with pytest.raises(BuildCacheError, match="unsafe tar member"):
            BuildCache.extract(raw.getvalue(), str(tmp_path / "out"))


class TestIntegrity:
    def test_corrupted_tarball_is_rejected_by_digest(self, tmp_path,
                                                     pushing_session,
                                                     cache_root):
        spec, _ = pushing_session.install("libelf", jobs=1)
        cache = pushing_session.buildcache
        path = cache.tarball_path(spec)
        with open(path, "r+b") as f:
            f.write(b"\x00\xff\x00\xff")
        with pytest.raises(DigestMismatchError):
            cache.fetch_tarball(spec)

    def test_corrupt_fault_falls_back_to_source_build(self, tmp_path,
                                                      pushing_session,
                                                      cache_root):
        from repro.testing.faults import Fault

        pushing_session.install("libdwarf", jobs=1)

        puller = _fresh_puller(tmp_path, cache_root)
        puller.faults.arm([Fault("buildcache.corrupt", target="libelf")])
        try:
            spec, result = puller.install("libdwarf", jobs=1)
        finally:
            puller.faults.disarm()
        # libelf's pull was corrupted -> rebuilt from source; libdwarf
        # still came from the cache
        assert [s.spec.name for s in result.built] == ["libelf"]
        assert [s.spec.name for s in result.cached] == ["libdwarf"]
        assert puller.faults.injection_counts() == {"buildcache.corrupt": 1}
        from repro.store.verify import verify_store

        assert verify_store(puller) == []


class TestEntryLayout:
    """The sidecar is the entry: one file per hash, no index, no lock."""

    @staticmethod
    def _probe_access(root, prefix, fillers):
        """File access of ``has``, ``lookup`` and ``find_splice_donor``
        on a cache holding ``fillers`` unrelated entries plus one donor."""
        cache = BuildCache(root)
        for i in range(fillers):
            cache.push(_synthetic("filler-%d" % i), prefix, "/build/root")
        donor = _synthetic("probe", tool="1.0")
        cache.push(donor, prefix, "/build/root")
        target = _synthetic("probe", tool="2.0")
        assert target.runtime_hash() == donor.runtime_hash()

        access = {}
        with _file_access() as calls:
            assert cache.has(donor.dag_hash())
        access["has"] = dict(calls)
        with _file_access() as calls:
            assert cache.lookup(donor.dag_hash())["digest"]
        access["lookup"] = dict(calls)
        with _file_access() as calls:
            found = cache.find_splice_donor(target)
        access["find_splice_donor"] = dict(calls)
        assert found[0] == donor.dag_hash()
        return access

    def test_queries_cost_the_same_at_10_and_1000_entries(self, tmp_path,
                                                          tiny_prefix):
        small = self._probe_access(str(tmp_path / "small"), tiny_prefix, 10)
        large = self._probe_access(str(tmp_path / "large"), tiny_prefix, 1000)
        assert small == large
        assert large["has"] == {"stat": 1}
        assert large["lookup"]["open"] == 1
        assert large["find_splice_donor"]["listdir"] == 1
        assert large["find_splice_donor"]["open"] == 1

    def test_tarball_without_sidecar_is_a_miss(self, tmp_path,
                                               pushing_session, cache_root):
        spec, _ = pushing_session.install("libelf", jobs=1)
        cache = pushing_session.buildcache
        dag_hash = spec.dag_hash()
        os.remove(cache.sidecar_path(dag_hash))
        assert os.path.isfile(cache.tarball_path(spec, dag_hash))
        assert not cache.has(dag_hash)
        assert cache.lookup(dag_hash) is None
        assert cache.entries() == []
        with pytest.raises(BuildCacheError, match="no entry"):
            cache.fetch_tarball(spec)

        puller = _fresh_puller(tmp_path, cache_root)
        _, result = puller.install("libelf", jobs=1)
        assert result.cached == []
        assert [s.spec.name for s in result.built] == ["libelf"]

    def test_marker_without_sidecar_is_skipped(self, tmp_path, tiny_prefix):
        cache = BuildCache(str(tmp_path / "bc"))
        donor = _synthetic("probe", tool="1.0")
        cache.push(donor, tiny_prefix, "/build/root")
        target = _synthetic("probe", tool="2.0")
        # a torn push of another donor: its marker sorts first, and its
        # sidecar was never written
        markers = os.path.join(cache.root, "runtime", target.runtime_hash())
        os.makedirs(markers, exist_ok=True)
        open(os.path.join(markers, "0" * 40), "w").close()
        assert cache.find_splice_donor(target)[0] == donor.dag_hash()

        os.remove(cache.sidecar_path(donor.dag_hash()))
        assert cache.find_splice_donor(target) is None

    def test_threads_pushing_distinct_hashes_lose_no_entry(self, tmp_path,
                                                           tiny_prefix):
        """The lost update the index lock once prevented: pushers (one
        cache object each, as separate sessions have) racing into one
        directory all keep their entries."""
        root = str(tmp_path / "bc")
        n_threads, per_thread = 8, 12
        groups = [
            [_synthetic("pkg-%d-%d" % (t, i), tool="1.0")
             for i in range(per_thread)]
            for t in range(n_threads)
        ]
        barrier = threading.Barrier(n_threads)
        errors = []

        def pusher(specs):
            cache = BuildCache(root)
            try:
                barrier.wait(timeout=30)
                for spec in specs:
                    cache.push(spec, tiny_prefix, "/build/root")
            except Exception as e:
                errors.append(e)

        threads = [threading.Thread(target=pusher, args=(g,)) for g in groups]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not [t for t in threads if t.is_alive()]
        assert errors == []

        cache = BuildCache(root)
        pushed = [spec for group in groups for spec in group]
        assert [h for h, _ in cache.entries()] == sorted(
            spec.dag_hash() for spec in pushed
        )
        for spec in pushed:
            data, entry = cache.fetch_tarball(spec)
            assert Spec.from_dict(entry["spec"]).dag_hash() == spec.dag_hash()
            twin = _synthetic(spec.name, tool="2.0")
            assert cache.find_splice_donor(twin)[0] == spec.dag_hash()


class TestOlderLayout:
    """A cache written with a whole-cache ``index.json`` under
    ``.index.lock``, whose sidecars record no runtime hash."""

    @staticmethod
    def _downgrade(cache):
        """Rewrite ``cache`` into the older layout, in place."""
        index = {}
        for name in os.listdir(cache.root):
            if not name.endswith(".spec.json"):
                continue
            dag_hash = name[: -len(".spec.json")]
            with open(cache.sidecar_path(dag_hash)) as f:
                entry = json.load(f)
            entry.pop("runtime_hash", None)
            spec = Spec.from_dict(entry["spec"])
            index[dag_hash] = {
                "name": spec.name, "version": str(spec.version),
                "digest": entry["digest"], "runtime_hash": spec.runtime_hash(),
            }
            with open(cache.sidecar_path(dag_hash), "w") as f:
                f.write(json.dumps(entry, sort_keys=True))
        shutil.rmtree(os.path.join(cache.root, "runtime"), ignore_errors=True)
        index_bytes = json.dumps(index, sort_keys=True).encode()
        with open(os.path.join(cache.root, "index.json"), "wb") as f:
            f.write(index_bytes)
        open(os.path.join(cache.root, ".index.lock"), "w").close()
        return index_bytes

    def test_older_sidecars_serve_exact_hash_pulls(self, tmp_path,
                                                   pushing_session,
                                                   cache_root):
        spec, first = pushing_session.install("libdwarf", jobs=1)
        cache = pushing_session.buildcache
        index_bytes = self._downgrade(cache)

        puller = _fresh_puller(tmp_path, cache_root)
        pulled, result = puller.install("libdwarf", jobs=1)
        assert pulled.dag_hash() == spec.dag_hash()
        assert result.built == []
        assert len(result.cached) == len(first.built)
        from repro.store.verify import verify_store

        assert verify_store(puller) == []

        layout = pushing_session.store.layout
        for node in spec.traverse():
            cache.push(node, layout.path_for_spec(node), pushing_session.root)
        with open(os.path.join(cache.root, "index.json"), "rb") as f:
            assert f.read() == index_bytes


class TestRoundTrip:
    """build -> push -> wipe store -> install from cache (the ISSUE's
    property test), at j=1 and j=4."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_round_trip_preserves_identity(self, tmp_path, cache_root, jobs):
        warm = Session.create(str(tmp_path / ("warm-%d" % jobs)))
        warm.enable_buildcache(root=cache_root, push=True)
        spec_a, result_a = warm.install("mpileaks", jobs=jobs)
        assert len(warm.buildcache.entries()) == len(result_a.built)

        hub = Telemetry()
        sink = MemorySink()
        hub.add_sink(sink)
        cold = _fresh_puller(
            tmp_path, cache_root, name="cold-%d" % jobs, telemetry=hub
        )
        spec_b, result_b = cold.install("mpileaks", jobs=jobs)

        # identical identity, nothing compiled
        assert spec_b.dag_hash() == spec_a.dag_hash()
        assert result_b.built == []
        assert len(result_b.cached) == len(result_a.built)
        assert sink.spans("install.phase.build") == []
        assert hub.counter("buildcache.hit") == len(result_b.cached)

        # byte-identical provenance, node by node
        for node_a in spec_a.traverse():
            node_b = spec_b[node_a.name]
            pa = warm.store.layout.path_for_spec(node_a)
            pb = cold.store.layout.path_for_spec(node_b)
            for name in ("spec.json", "manifest.json"):
                with open(os.path.join(pa, ".spack", name), "rb") as f:
                    bytes_a = f.read()
                with open(os.path.join(pb, ".spack", name), "rb") as f:
                    bytes_b = f.read()
                assert bytes_a == bytes_b, (node_a.name, name)

        # every binary loads through its (relocated) RPATHs alone
        from repro.build.loader import load_binary

        for node in spec_b.traverse():
            binary = os.path.join(
                cold.store.layout.path_for_spec(node), "bin", node.name
            )
            if os.path.isfile(binary):
                loaded = load_binary(binary, env={})
                assert loaded is not None

        from repro.store.verify import verify_store

        assert verify_store(cold) == []

    def test_wipe_and_reinstall_same_session(self, pushing_session):
        """Same session: wipe the store, re-install, everything cached."""
        session = pushing_session
        spec, first = session.install("libdwarf", jobs=1)
        for node in spec.traverse():
            session.uninstall(str(node), force=True)
        assert session.find() == []

        spec2, second = session.install("libdwarf", jobs=1)
        assert second.built == []
        assert len(second.cached) == len(first.built)
        assert spec2.dag_hash() == spec.dag_hash()


class TestPlannerPolicy:
    def test_no_cache_forces_source_builds(self, tmp_path, pushing_session,
                                           cache_root):
        pushing_session.install("libelf", jobs=1)
        puller = _fresh_puller(tmp_path, cache_root)
        spec, result = puller.install("libelf", use_cache=False)
        assert result.cached == []
        assert [s.spec.name for s in result.built] == ["libelf"]

    def test_pull_policy_defaults_on_when_enabled(self, tmp_path,
                                                  pushing_session,
                                                  cache_root):
        pushing_session.install("libelf", jobs=1)
        puller = _fresh_puller(tmp_path, cache_root)
        _, result = puller.install("libelf")
        assert [s.spec.name for s in result.cached] == ["libelf"]

    def test_config_section_wires_the_cache(self, tmp_path, cache_root):
        session = Session.create(
            str(tmp_path / "cfg"),
            config_overrides={
                "buildcache": {"root": cache_root, "push": True, "pull": False}
            },
        )
        assert session.buildcache is not None
        assert session.buildcache.root == os.path.abspath(cache_root)
        assert session.buildcache_push is True
        assert session.buildcache_pull is False

    def test_miss_counter_on_cold_consult(self, tmp_path, cache_root):
        hub = Telemetry()
        hub.add_sink(MemorySink())
        session = Session.create(str(tmp_path / "miss"), telemetry=hub)
        session.enable_buildcache(root=cache_root)
        session.install("libelf", jobs=1)
        assert hub.counter("buildcache.miss") == 1
        assert hub.counter("buildcache.hit") == 0


class TestVerifyTolerance:
    def test_lib_only_package_verifies_clean(self, bare_repo_session):
        """A package installing only lib/ (no bin/<name>) must not
        false-fail verification — the old layout assumption."""
        session = bare_repo_session
        from repro.directives import version
        from repro.directives.directives import DirectiveMeta
        from repro.fetch.mockweb import mock_checksum
        from repro.package.package import Package
        from repro.util.naming import mod_to_class

        def lib_only_install(self, spec, prefix):
            os.makedirs(os.path.join(prefix, "lib"), exist_ok=True)
            with open(
                os.path.join(prefix, "lib", "lib%s.so.json" % spec.name), "w"
            ) as f:
                json.dump({"type": "library", "needed": [], "rpaths": []}, f)

        name = "libonly"
        ns = {
            "url": "https://mock.example.org/%s/%s-1.0.tar.gz" % (name, name),
            "__doc__": "headerless library package",
            "install": lib_only_install,
        }
        version("1.0", mock_checksum(name, "1.0"))
        session.repo.repos[0].add_class(
            name, DirectiveMeta(mod_to_class(name), (Package,), ns)
        )
        session.seed_web()
        spec, _ = session.install(name, jobs=1)
        prefix = session.store.layout.path_for_spec(spec)
        assert not os.path.exists(os.path.join(prefix, "bin", name))
        from repro.store.verify import verify_store

        assert verify_store(session) == []

    def test_manifest_detects_tampering(self, session):
        """Valid-JSON content edits (invisible to the old parse-only
        check) are caught by the normalized-digest comparison."""
        spec, _ = session.install("libelf", jobs=1)
        prefix = session.store.layout.path_for_spec(spec)
        from repro.store.verify import verify_install

        record = session.db.get(spec)
        assert verify_install(session, record) == []

        with open(os.path.join(prefix, ".spack", "manifest.json")) as f:
            manifest = json.load(f)
        rel = sorted(r for r in manifest["files"] if r.startswith("lib/"))[0]
        path = os.path.join(prefix, rel)
        with open(path) as f:
            data = json.load(f)
        data["tampered"] = True
        with open(path, "w") as f:
            json.dump(data, f)
        issues = verify_install(session, record)
        assert any(i.kind == "artifact-digest-mismatch" for i in issues)


class TestCLI:
    def test_push_list_pull(self, tmp_path, capsys):
        from repro.cli.main import main

        cache_dir = str(tmp_path / "bc")
        warm = str(tmp_path / "warm")
        cold = str(tmp_path / "cold")

        assert main(["--root", warm, "install", "libdwarf"]) == 0
        capsys.readouterr()
        assert main(["--root", warm, "buildcache", "push", "libdwarf",
                     "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "pushed 2 prefixes" in out

        assert main(["--root", warm, "buildcache", "list",
                     "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "libelf" in out and "libdwarf" in out

        assert main(["--root", cold, "buildcache", "pull", "libdwarf",
                     "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 from cache, 0 built" in out

        assert main(["--root", cold, "verify"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_install_use_cache_flag(self, tmp_path, capsys):
        from repro.cli.main import main

        root = str(tmp_path / "u")
        # --use-cache with no configured cache enables the default one
        assert main(["--root", root, "install", "libelf", "--use-cache"]) == 0
        capsys.readouterr()
        # wipe the store; the default cache now serves the reinstall
        assert main(["--root", root, "uninstall", "libelf"]) == 0
        capsys.readouterr()
        assert main(["--root", root, "install", "libelf", "--use-cache"]) == 0
        out = capsys.readouterr().out
        assert "cached libelf" in out.replace("  ", " ").replace("  ", " ") \
            or "cached" in out

    def test_push_unknown_spec_errors(self, tmp_path, capsys):
        from repro.cli.main import main

        root = str(tmp_path / "u")
        assert main(["--root", root, "buildcache", "push", "libelf"]) == 1
        assert "no installed specs" in capsys.readouterr().err
