"""Binary splicing: runtime-hash donors, the SPLICED plan action, and
the extract/relocate/splice/verify pipeline with source-build fallback."""

import json
import os

import pytest

from repro.session import Session
from repro.spec.spec import Spec
from repro.store.plan import BUILD, CACHED, SPLICED, Planner
from repro.telemetry import MemorySink, Telemetry
from repro.testing.campaign import (
    SPLICE_DONOR_REQUEST,
    SPLICE_TARGET_REQUEST,
    _splice_repo,
)
from repro.testing.faults import Fault


@pytest.fixture
def cache_root(tmp_path):
    return str(tmp_path / "buildcache")


@pytest.fixture
def donor_session(tmp_path, cache_root):
    """A warm session that built and pushed the donor DAG (tool@1.0)."""
    session = Session.create(
        str(tmp_path / "donor"), packages=_splice_repo(), install_jobs=1
    )
    session.enable_buildcache(root=cache_root, push=True)
    session.install(SPLICE_DONOR_REQUEST, jobs=1)
    return session


def _puller(tmp_path, cache_root, name="target", **kwargs):
    session = Session.create(
        str(tmp_path / name), packages=_splice_repo(), install_jobs=1,
        **kwargs
    )
    session.enable_buildcache(root=cache_root, pull=True)
    return session


def _meta(session, node, name):
    prefix = session.store.layout.path_for_spec(node)
    with open(os.path.join(prefix, ".spack", name)) as f:
        return json.load(f)


class TestDonorMatching:
    def test_twin_found_for_retooled_target(self, tmp_path, cache_root,
                                            donor_session):
        puller = _puller(tmp_path, cache_root)
        target = puller.concretize(SPLICE_TARGET_REQUEST)
        donor = donor_session.concretize(SPLICE_DONOR_REQUEST)

        top = target["splicetop"]
        found = puller.buildcache.find_splice_donor(top)
        assert found is not None
        donor_hash, entry = found
        assert donor_hash == donor["splicetop"].dag_hash()
        assert donor_hash != top.dag_hash()
        assert entry["runtime_hash"] == top.runtime_hash()

    def test_no_donor_for_link_level_change(self, tmp_path, cache_root,
                                            donor_session):
        """A donor only matches when the *runtime* closure is identical;
        the build tool itself (a different package version) has no twin."""
        puller = _puller(tmp_path, cache_root)
        target = puller.concretize(SPLICE_TARGET_REQUEST)
        assert puller.buildcache.find_splice_donor(target["splicetool"]) is None

    def test_exact_hash_prefers_cached_over_spliced(self, tmp_path,
                                                    cache_root,
                                                    donor_session):
        puller = _puller(tmp_path, cache_root)
        spec = puller.concretize(SPLICE_DONOR_REQUEST)
        plan = Planner(puller).plan(spec)
        actions = {t.node.name: t.action for t in plan.tasks.values()}
        assert actions["splicetop"] == CACHED
        assert actions["splicelib"] == CACHED


class TestPlanner:
    def test_plan_marks_runtime_twins_spliced(self, tmp_path, cache_root,
                                              donor_session):
        puller = _puller(tmp_path, cache_root)
        spec = puller.concretize(SPLICE_TARGET_REQUEST)
        plan = Planner(puller).plan(spec)
        tasks = {t.node.name: t for t in plan.tasks.values()}

        assert tasks["splicetool"].action == BUILD
        assert tasks["splicelib"].action == SPLICED
        assert tasks["splicetop"].action == SPLICED
        donor = donor_session.concretize(SPLICE_DONOR_REQUEST)
        assert tasks["splicetop"].donor == donor["splicetop"].dag_hash()
        assert tasks["splicetool"].donor is None

    def test_use_splice_false_plans_source_builds(self, tmp_path, cache_root,
                                                  donor_session):
        puller = _puller(tmp_path, cache_root)
        spec = puller.concretize(SPLICE_TARGET_REQUEST)
        plan = Planner(puller).plan(spec, use_splice=False)
        actions = {t.node.name: t.action for t in plan.tasks.values()}
        assert actions["splicelib"] == BUILD
        assert actions["splicetop"] == BUILD


class TestSplicedInstall:
    def test_end_to_end_splice_avoids_source_builds(self, tmp_path,
                                                    cache_root,
                                                    donor_session):
        hub = Telemetry()
        sink = MemorySink()
        hub.add_sink(sink)
        puller = _puller(tmp_path, cache_root, telemetry=hub)
        spec, result = puller.install(SPLICE_TARGET_REQUEST, jobs=1)

        # only the changed build tool compiles; the runtime sub-DAG splices
        assert [s.spec.name for s in result.built] == ["splicetool"]
        assert sorted(s.spec.name for s in result.spliced) == [
            "splicelib", "splicetop",
        ]
        assert result.cached == []
        built_spans = {
            s["attrs"].get("package")
            for s in sink.spans("install.phase.build")
        }
        assert built_spans == {"splicetool"}
        assert hub.counter("install.spliced") == 2
        assert all(s.spliced for s in result.spliced)

    def test_spliced_provenance_records_target_and_donor(self, tmp_path,
                                                         cache_root,
                                                         donor_session):
        puller = _puller(tmp_path, cache_root)
        spec, _ = puller.install(SPLICE_TARGET_REQUEST, jobs=1)
        donor = donor_session.concretize(SPLICE_DONOR_REQUEST)
        top = spec["splicetop"]

        spec_json = _meta(puller, top, "spec.json")
        assert Spec.from_dict(spec_json).dag_hash() == top.dag_hash()

        manifest = _meta(puller, top, "manifest.json")
        assert manifest["hash"] == top.dag_hash()
        assert manifest["spliced_from"] == donor["splicetop"].dag_hash()

        dist = _meta(puller, top, "binary_distribution.json")
        assert dist["spliced_from"] == donor["splicetop"].dag_hash()

    def test_spliced_bytes_match_a_source_build(self, tmp_path, cache_root,
                                                donor_session):
        """The splice-equivalence property: after prefix re-targeting,
        a spliced store is byte-identical (modulo root) to building the
        target DAG from source."""
        puller = _puller(tmp_path, cache_root)
        sspec, _ = puller.install(SPLICE_TARGET_REQUEST, jobs=1)

        built = Session.create(
            str(tmp_path / "scratch"), packages=_splice_repo(),
            install_jobs=1,
        )
        bspec, _ = built.install(SPLICE_TARGET_REQUEST, jobs=1)
        assert bspec.dag_hash() == sspec.dag_hash()

        for node in bspec.traverse():
            built_manifest = _meta(built, node, "manifest.json")
            spliced_manifest = _meta(puller, sspec[node.name], "manifest.json")
            assert built_manifest["files"] == spliced_manifest["files"], (
                node.name
            )

    def test_spliced_store_verifies_clean(self, tmp_path, cache_root,
                                          donor_session):
        from repro.store.verify import verify_store

        puller = _puller(tmp_path, cache_root)
        puller.install(SPLICE_TARGET_REQUEST, jobs=1)
        assert verify_store(puller) == []

    def test_no_splice_install_builds_from_source(self, tmp_path, cache_root,
                                                  donor_session):
        puller = _puller(tmp_path, cache_root)
        spec, result = puller.install(
            SPLICE_TARGET_REQUEST, jobs=1, use_splice=False
        )
        assert result.spliced == []
        assert sorted(s.spec.name for s in result.built) == [
            "splicelib", "splicetool", "splicetop",
        ]

    def test_spliced_prefixes_are_pushed_under_target_hash(self, tmp_path,
                                                           cache_root,
                                                           donor_session):
        """Cache convergence: a splice result is republished under the
        requested dag_hash, so the next cold session gets plain CACHED
        hits instead of re-splicing."""
        first = _puller(tmp_path, cache_root, name="first")
        first.enable_buildcache(root=cache_root, push=True, pull=True)
        spec, result = first.install(SPLICE_TARGET_REQUEST, jobs=1)
        assert result.spliced  # this run did splice
        assert first.buildcache.has(spec["splicetop"].dag_hash())

        second = _puller(tmp_path, cache_root, name="second")
        _, rerun = second.install(SPLICE_TARGET_REQUEST, jobs=1)
        assert rerun.built == [] and rerun.spliced == []
        assert sorted(s.spec.name for s in rerun.cached) == [
            "splicelib", "splicetool", "splicetop",
        ]


class TestFallback:
    def test_stale_donor_falls_back_to_source(self, tmp_path, cache_root,
                                              donor_session):
        hub = Telemetry()
        hub.add_sink(MemorySink())
        puller = _puller(tmp_path, cache_root, telemetry=hub)
        puller.faults.arm(
            [Fault("buildcache.splice_stale", target="splicelib")]
        )
        try:
            spec, result = puller.install(SPLICE_TARGET_REQUEST, jobs=1)
        finally:
            puller.faults.disarm()

        assert puller.faults.injection_counts() == {
            "buildcache.splice_stale": 1
        }
        # splicelib's donor payload was stale -> rebuilt from source;
        # splicetop still spliced successfully
        assert sorted(s.spec.name for s in result.built) == [
            "splicelib", "splicetool",
        ]
        assert [s.spec.name for s in result.spliced] == ["splicetop"]
        assert hub.counter("buildcache.splice_fallback") == 1

        from repro.store.verify import verify_store

        assert verify_store(puller) == []

    def test_fallback_store_matches_source_identity(self, tmp_path,
                                                    cache_root,
                                                    donor_session):
        puller = _puller(tmp_path, cache_root)
        puller.faults.arm([Fault("buildcache.splice_stale")])
        try:
            spec, _ = puller.install(SPLICE_TARGET_REQUEST, jobs=1)
        finally:
            puller.faults.disarm()

        built = Session.create(
            str(tmp_path / "scratch"), packages=_splice_repo(),
            install_jobs=1,
        )
        bspec, _ = built.install(SPLICE_TARGET_REQUEST, jobs=1)
        assert bspec.dag_hash() == spec.dag_hash()
        for node in bspec.traverse():
            assert (
                _meta(built, node, "manifest.json")["files"]
                == _meta(puller, spec[node.name], "manifest.json")["files"]
            )


#: the two kinds of binary install, by what a fresh session pulls from
#: the donor session's cache: the donor's own DAG (an exact-hash hit) or
#: its retooled runtime twin (a splice of the donor's binaries)
BINARY_KINDS = {
    "cached": {
        "request": SPLICE_DONOR_REQUEST,
        "nodes": ["splicelib", "splicetool", "splicetop"],
        "phases": {"extract", "relocate", "verify"},
        "fault": "buildcache.corrupt",
        "fallback": "buildcache.fallback",
    },
    "spliced": {
        "request": SPLICE_TARGET_REQUEST,
        "nodes": ["splicelib", "splicetop"],
        "phases": {"extract", "relocate", "splice", "verify"},
        "fault": "buildcache.splice_stale",
        "fallback": "buildcache.splice_fallback",
    },
}


@pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
class TestBinaryInstallObservables:
    """What each kind of binary install leaves behind.  A splice is an
    exact hit plus a ``splice`` phase, ``spliced_from`` provenance and a
    ``donor`` span attribute; nothing else tells the two apart."""

    def _install(self, tmp_path, cache_root, kind, faults=()):
        hub = Telemetry()
        sink = MemorySink()
        hub.add_sink(sink)
        puller = _puller(tmp_path, cache_root, telemetry=hub)
        puller.faults.arm(list(faults))
        try:
            spec, result = puller.install(BINARY_KINDS[kind]["request"],
                                          jobs=1)
        finally:
            puller.faults.disarm()
        return puller, spec, result, hub, sink

    def test_phases_and_provenance(self, tmp_path, cache_root,
                                   donor_session, kind):
        puller, spec, result, _, sink = self._install(
            tmp_path, cache_root, kind
        )
        donor = donor_session.concretize(SPLICE_DONOR_REQUEST)
        installed = getattr(result, kind)
        assert sorted(s.spec.name for s in installed) == (
            BINARY_KINDS[kind]["nodes"]
        )
        for stats in installed:
            node = spec[stats.spec.name]
            assert stats.cache_hit
            assert stats.spliced == (kind == "spliced")
            timing = _meta(puller, node, "timing.json")
            assert set(timing["phases"]) == BINARY_KINDS[kind]["phases"]
            for name in ("manifest.json", "binary_distribution.json"):
                record = _meta(puller, node, name)
                assert record["hash"] == node.dag_hash()
                if kind == "spliced":
                    assert record["spliced_from"] == donor[node.name].dag_hash()
                else:
                    assert "spliced_from" not in record
        spliced_spans = sorted(
            s["attrs"]["package"] for s in sink.spans("install.phase.splice")
        )
        assert spliced_spans == (
            ["splicelib", "splicetop"] if kind == "spliced" else []
        )

    def test_span_attributes_and_counters(self, tmp_path, cache_root,
                                          donor_session, kind):
        puller, spec, _, hub, sink = self._install(
            tmp_path, cache_root, kind
        )
        donor = donor_session.concretize(SPLICE_DONOR_REQUEST)
        other = "install.cached" if kind == "spliced" else "install.spliced"
        assert sink.spans(other) == []
        spans = {
            s["attrs"]["package"]: s["attrs"]
            for s in sink.spans("install." + kind)
        }
        assert sorted(spans) == BINARY_KINDS[kind]["nodes"]
        for name, attrs in spans.items():
            donor_hash = donor[name].dag_hash()
            expected = {"package", "version", "worker", "files", "relocated",
                        "digest"}
            if kind == "spliced":
                expected.add("donor")
                assert attrs["donor"] == donor_hash[:8]
            assert set(attrs) == expected
            assert attrs["version"] == str(spec[name].version)
            assert attrs["worker"] == "MainThread"
            assert attrs["files"] > 0
            digest = puller.buildcache.lookup(donor_hash)["digest"]
            assert attrs["digest"] == digest[:12]
        assert hub.counter("buildcache.relocations") == len(spans)
        assert hub.counter("buildcache.relocated_files") == sum(
            attrs["relocated"] for attrs in spans.values()
        )
        spliced_files = hub.counter("buildcache.spliced_files")
        assert (spliced_files > 0) == (kind == "spliced")
        assert hub.counter("install." + kind) == len(spans)

    def test_bad_payload_falls_back_to_a_source_build(
        self, tmp_path, cache_root, donor_session, kind
    ):
        case = BINARY_KINDS[kind]
        puller, spec, result, hub, sink = self._install(
            tmp_path, cache_root, kind,
            faults=[Fault(case["fault"], target="splicelib")],
        )
        assert puller.faults.injection_counts() == {case["fault"]: 1}
        assert "splicelib" in [s.spec.name for s in result.built]
        assert "splicelib" not in [s.spec.name for s in getattr(result, kind)]
        assert "splicetop" in [s.spec.name for s in getattr(result, kind)]
        built_spans = {
            s["attrs"]["package"] for s in sink.spans("install.phase.build")
        }
        assert "splicelib" in built_spans
        for fallback in ("buildcache.fallback", "buildcache.splice_fallback"):
            assert hub.counter(fallback) == (fallback == case["fallback"])
        expected = {
            "package": "splicelib",
            "hash": spec["splicelib"].dag_hash(8),
            "error": "DigestMismatchError",
        }
        if kind == "spliced":
            donor = donor_session.concretize(SPLICE_DONOR_REQUEST)
            expected["donor"] = donor["splicelib"].dag_hash()[:8]
        assert [e["attrs"] for e in sink.events(case["fallback"])] == [
            expected
        ]
        from repro.store.verify import verify_store

        assert verify_store(puller) == []
