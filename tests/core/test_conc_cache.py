"""The persistent concretization cache: keys, hits, invalidation,
integrity, and result equivalence."""

import json
import os
import threading

import pytest

from repro.core.conc_cache import ConcretizationCache, describe_package_class
from repro.session import Session
from repro.spec.spec import Spec
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


class TestSessionCaching:
    def test_first_call_misses_then_memo_hits(self, tsession, hub):
        cold = tsession.concretize("mpileaks")
        assert hub.counter("concretize.cache.miss") == 1
        warm = tsession.concretize("mpileaks")
        assert hub.counter("concretize.cache.hit") == 1
        assert warm.dag_hash() == cold.dag_hash()

    def test_disk_hit_across_sessions(self, tmp_path, hub):
        s1 = Session.create(str(tmp_path / "u"), telemetry=hub)
        cold = s1.concretize("dyninst")
        hub2 = Telemetry()
        hub2.add_sink(MemorySink())
        s2 = Session(
            str(tmp_path / "u"), s1.repo, config=s1.config,
            compilers=s1.compilers, telemetry=hub2,
        )
        warm = s2.concretize("dyninst")
        assert hub2.counter("concretize.cache.hit") == 1
        assert warm.dag_hash() == cold.dag_hash()
        assert warm.concrete

    def test_warm_result_is_byte_identical(self, tsession):
        cold = tsession.concretize("mpileaks", use_cache=False)
        tsession.concretize("mpileaks")
        tsession.forget_concretizations()  # force the disk round-trip
        warm = tsession.concretize("mpileaks")
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )

    def test_hits_return_independent_copies(self, tsession):
        first = tsession.concretize("libdwarf")
        second = tsession.concretize("libdwarf")
        assert first is not second
        first.variants["mangled"] = True
        assert second == tsession.concretize("libdwarf")

    def test_use_cache_false_bypasses(self, tsession, hub):
        tsession.concretize("libelf", use_cache=False)
        assert hub.counter("concretize.cache.miss") == 0
        assert len(tsession.concretize_cache) == 0

    def test_variants_key_separately(self, tsession, hub):
        tsession.concretize("mpileaks")
        tsession.concretize("mpileaks", concretizer="solver")
        # different concretizer variant: its own key, so a miss
        assert hub.counter("concretize.cache.miss") == 2

    def test_variant_switches_keep_both_entries(self, tsession, hub):
        """Regression: the Session memo kept one last-seen digest for
        greedy keys (environment digest) and solver keys (plus the
        installed set), so every switch between the variants wiped it
        and counted an invalidation — five alternations counted 11 and
        the memo never held more than one entry."""
        for _ in range(5):
            tsession.concretize("libelf")
            tsession.concretize("zlib", concretizer="solver")
        assert hub.counter("concretize.cache.invalidate") == 0
        assert hub.counter("concretize.cache.miss") == 2
        assert len(tsession.snapshots.current()._memo) == 2

    def test_disabled_by_config(self, tmp_path):
        session = Session.create(
            str(tmp_path / "u"),
            config_overrides={"concretize_cache": {"enabled": False}},
        )
        assert session.concretize_cache is None
        assert session.concretize("libelf").concrete


class TestDigestInvalidation:
    def test_register_external_changes_the_answer(self, tsession, hub):
        before = tsession.concretize("mpileaks")
        assert not any(n.external for n in before.traverse())
        tsession.register_external("mvapich2@2.0", create_content=False)
        after = tsession.concretize("mpileaks")
        assert hub.counter("concretize.cache.invalidate") >= 1
        assert after["mvapich2"].external

    def test_config_update_invalidates(self, tsession, hub):
        tsession.concretize("mpileaks")
        tsession.config.update(
            "user", {"preferences": {"compiler_order": ["clang@3.5.0"]}}
        )
        after = tsession.concretize("mpileaks")
        assert hub.counter("concretize.cache.invalidate") >= 1
        assert str(after.compiler).startswith("clang")

    def test_package_registration_invalidates(self, tsession, hub):
        from repro.package.package import Package

        tsession.concretize("libelf")
        owner = tsession.repo.repos[0]
        owner.add_class("newpkg", type("Newpkg", (Package,), {}))
        tsession.concretize("libelf")
        assert hub.counter("concretize.cache.invalidate") >= 1

    def test_digest_is_memoized_on_tokens(self, tsession):
        state = tsession.snapshots.current()
        first = state.env_digest
        # tokens unchanged: the same State, whose digest is computed once
        assert tsession.snapshots.current() is state
        tsession.config.update("user", {"packages": {"zlib": {"buildable": False}}})
        assert tsession.snapshots.current().env_digest != first

    def test_describe_covers_checksums(self, tsession):
        import types

        cls = tsession.repo.get_class("libelf")
        versions = dict(cls.versions)
        key = next(iter(versions))
        versions[key] = dict(versions[key], checksum="0" * 64)
        patched = types.SimpleNamespace(versions=versions)
        base = types.SimpleNamespace(versions=dict(cls.versions))
        assert describe_package_class(patched) != describe_package_class(base)


class TestIntegrity:
    def test_corrupt_fault_falls_back_cold(self, tsession, hub):
        from repro.testing.faults import CONCRETIZE_CACHE_CORRUPT, Fault

        cold = tsession.concretize("mpileaks", use_cache=False)
        tsession.concretize("mpileaks")  # persist the entry
        tsession.forget_concretizations()
        tsession.faults.arm([Fault(CONCRETIZE_CACHE_CORRUPT)])
        try:
            healed = tsession.concretize("mpileaks")
        finally:
            tsession.faults.disarm()
        assert (CONCRETIZE_CACHE_CORRUPT, "mpileaks", None) in tsession.faults.journal
        assert hub.counter("concretize.cache.invalidate") >= 1
        assert healed.dag_hash() == cold.dag_hash()
        # the rotten entry was dropped and rewritten on the cold path
        assert len(tsession.concretize_cache) == 1

    def test_on_disk_rot_is_dropped(self, tsession):
        tsession.concretize("libdwarf")
        tsession.forget_concretizations()
        cache = tsession.concretize_cache
        (key, entry), = cache.entries()
        with open(os.path.join(cache.root, entry["entry"]), "w") as f:
            f.write('{"not": "a spec"}')
        assert cache.lookup(key) is None
        assert len(cache) == 0
        # the session transparently re-concretizes and re-stores
        assert tsession.concretize("libdwarf").concrete
        assert len(cache) == 1

    def test_stale_hash_is_dropped(self, tmp_path):
        cache = ConcretizationCache(str(tmp_path / "cc"))
        spec = Spec("libelf@0.8.13%gcc@4.9.2=linux-x86_64")
        spec._concrete = True
        key = ConcretizationCache.make_key("libelf", "d" * 64, "greedy")
        cache.store(key, spec)
        shard = dict(cache.read_shard(key[:2]))
        shard[key]["dag_hash"] = "0" * 32
        cache._atomic_write(
            cache._shard_path(key[:2]), json.dumps(shard).encode()
        )
        cache._shard_memos = {}
        assert cache.lookup(key) is None
        assert len(cache) == 0


class TestCacheMechanics:
    def test_make_key_is_stable_and_input_sensitive(self):
        key = ConcretizationCache.make_key("mpileaks", "e" * 64, "greedy")
        assert key == ConcretizationCache.make_key("mpileaks", "e" * 64, "greedy")
        assert key != ConcretizationCache.make_key("mpileaks", "f" * 64, "greedy")
        assert key != ConcretizationCache.make_key("mpileaks", "e" * 64, "solver")
        assert key != ConcretizationCache.make_key("mpileaks@2", "e" * 64, "greedy")

    def test_index_merge_preserves_concurrent_writers(self, tmp_path):
        root = str(tmp_path / "shared")
        a = ConcretizationCache(root)
        b = ConcretizationCache(root)
        spec = Spec("libelf@0.8.13")
        spec._concrete = True
        ka = ConcretizationCache.make_key("a", "0" * 64, "greedy")
        kb = ConcretizationCache.make_key("b", "0" * 64, "greedy")
        a.store(ka, spec)
        b.store(kb, spec)
        assert {k for k, _ in a.entries()} == {ka, kb}
        assert {k for k, _ in b.entries()} == {ka, kb}

    def test_store_then_lookup_round_trips(self, tmp_path, session):
        cache = ConcretizationCache(str(tmp_path / "cc"))
        concrete = session.concretize("libdwarf", use_cache=False)
        key = ConcretizationCache.make_key("libdwarf", "a" * 64, "greedy")
        cache.store(key, concrete)
        out = cache.lookup(key)
        assert out is not None and out is not concrete
        assert out.dag_hash() == concrete.dag_hash()


class TestShardedIndex:
    """Regression: the index was one monolithic ``index.json`` rewritten
    in full on every store — warming n roots rewrote O(n²) index bytes.
    Sharding by key prefix keeps the bytes-per-store flat, and a legacy
    monolithic index migrates into shards on first access."""

    @staticmethod
    def _concrete_spec():
        spec = Spec("libelf@0.8.13%gcc@4.9.2=linux-x86_64")
        spec._concrete = True
        return spec

    def test_bytes_per_store_stay_flat_as_entries_grow(self, tmp_path):
        cache = ConcretizationCache(str(tmp_path / "cc"))
        spec = self._concrete_spec()
        index_writes = []
        real_write = cache._atomic_write

        def counting_write(path, data):
            if os.sep + "index" in path or os.path.basename(path).startswith(
                "index"
            ):
                index_writes.append(len(data))
            return real_write(path, data)

        cache._atomic_write = counting_write
        total = 512
        for i in range(total):
            key = ConcretizationCache.make_key("spec-%d" % i, "0" * 64, "greedy")
            cache.store(key, spec)
        assert len(index_writes) == total
        head = sum(index_writes[:64]) / 64.0
        tail = sum(index_writes[-64:]) / 64.0
        # pre-fix the whole index was rewritten per store, so the last
        # writes were ~8x the first; sharded writes stay near-constant
        assert tail < 3.0 * head, (head, tail)
        assert len(cache) == total

    def test_legacy_monolithic_index_migrates(self, tmp_path):
        root = str(tmp_path / "cc")
        cache = ConcretizationCache(root)
        spec = self._concrete_spec()
        keys = [
            ConcretizationCache.make_key("legacy-%d" % i, "0" * 64, "greedy")
            for i in range(8)
        ]
        # lay out the pre-shard format by hand: per-entry payloads plus
        # one monolithic index.json, exactly what older caches left
        legacy = {}
        for key in keys:
            entry_path = cache._entry_path(key)
            os.makedirs(os.path.dirname(entry_path), exist_ok=True)
            with open(entry_path, "w") as f:
                json.dump(spec.to_dict(), f, sort_keys=True)
            legacy[key] = {
                "root": spec.name,
                "dag_hash": spec.dag_hash(),
                "entry": os.path.join(key[:2], "%s.json" % key),
            }
        with open(os.path.join(root, "index.json"), "w") as f:
            json.dump(legacy, f)

        fresh = ConcretizationCache(root)
        hit = fresh.lookup(keys[0])
        assert hit is not None and hit.dag_hash() == spec.dag_hash()
        # the legacy file was folded into shards and removed
        assert not os.path.exists(os.path.join(root, "index.json"))
        assert {k for k, _ in fresh.entries()} == set(keys)
        # a store after migration keeps every migrated entry visible
        extra = ConcretizationCache.make_key("post", "0" * 64, "greedy")
        fresh.store(extra, spec)
        assert {k for k, _ in fresh.entries()} == set(keys) | {extra}


class TestConcurrentWriters:
    """Regression: ``_atomic_write`` used one fixed pid-derived temp
    name, so two *threads* of the same process (the service daemon's
    worker pool) truncated and ``os.replace``d each other's half-written
    files.  mkstemp gives every call its own exclusively-created file."""

    def test_atomic_write_hammer(self, tmp_path):
        cache = ConcretizationCache(str(tmp_path / "cc"))
        os.makedirs(cache.root, exist_ok=True)
        target = os.path.join(cache.root, "target.json")
        n_threads, n_writes = 8, 60
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(tid):
            payload = json.dumps({"writer": tid}).encode()
            barrier.wait()
            try:
                for _ in range(n_writes):
                    cache._atomic_write(target, payload)
            except Exception as e:  # pre-fix: FileNotFoundError on replace
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # the survivor is one writer's complete payload, never a tear
        with open(target, "rb") as f:
            assert "writer" in json.loads(f.read())
        # and no orphaned temp files were left behind
        leftovers = [n for n in os.listdir(cache.root) if n.endswith(".tmp")]
        assert leftovers == []

    def test_concurrent_store_keeps_every_entry(self, tmp_path, session):
        cache = ConcretizationCache(str(tmp_path / "cc"))
        concrete = session.concretize("libdwarf", use_cache=False)
        keys = [
            ConcretizationCache.make_key("spec-%d" % i, "0" * 64, "greedy")
            for i in range(16)
        ]
        barrier = threading.Barrier(len(keys))
        errors = []

        def worker(key):
            barrier.wait()
            try:
                cache.store(key, concrete)
            except Exception as e:
                errors.append(e)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert {k for k, _ in cache.entries()} == set(keys)
        for key in keys:
            hit = cache.lookup(key)
            assert hit is not None
            assert hit.dag_hash() == concrete.dag_hash()


class TestCacheEquivalenceSweep:
    """Satellite 4: a seeded property campaign over >=200 generated
    specs — warm results must be byte-identical to cold ones for both
    concretizer variants, including under injected corruption."""

    def test_200_generated_specs_round_trip(self, tmp_path):
        from repro.testing.campaign import (
            CampaignConfig,
            CampaignReport,
            run_cache_phase,
        )

        config = CampaignConfig(
            seed=929, specs=0, fault_plans=0, cache_specs=200
        )
        report = CampaignReport(config)
        run_cache_phase(config, report, str(tmp_path))
        counts = report.cache_outcome_counts()
        assert report.cache_divergences() == []
        # every request yields one case per variant
        assert len(report.cache_cases) == 2 * config.cache_specs
        assert counts.get("match", 0) >= 200
        # corruption was actually exercised on the every-tenth cadence
        assert any(c["fault"] for c in report.cache_cases if c["kind"] == "match")
        assert report.ok
