"""Binary splicing: a build-tool-only change rebuilds nothing but the tool.

The build cache's exact-hash pull (``bench_buildcache``) dies the moment
any node of the DAG changes, because every ``dag_hash`` downstream of
the change moves with it.  Splicing survives the most common such
change: retargeting a *build-only* tool.  This benchmark upgrades the
``buildtool`` that every node of the 16-node diamond fleet declares with
``type="build"`` and asserts the warm install compiles **only the tool**
— all 16 fleet nodes are SPLICED from their runtime-hash twins
(telemetry shows zero ``install.phase.build`` spans for fleet nodes),
the spliced store passes full verification, and the wall clock beats a
cold source rebuild of the retooled DAG by ``SPEEDUP_FLOOR``.
"""

import json
import os
import time

from conftest import write_result

from repro.session import Session
from repro.telemetry import MemorySink, Telemetry, bench_report

#: modeled build duration of every node (sleep: releases the GIL)
BUILD_SECONDS = 0.1

#: both installs run at this pool width
JOBS = 1

#: nodes in the diamond fleet (excluding the build tool)
FLEET_NODES = 16

#: required cold/spliced wall-clock ratio
SPEEDUP_FLOOR = 3.0


def _fleet_repo():
    """The 16-node diamond DAG, every node build-depending on a tool."""
    from repro.directives import depends_on, version
    from repro.directives.directives import DirectiveMeta
    from repro.fetch.mockweb import mock_checksum
    from repro.package.package import Package
    from repro.repo.repository import Repository
    from repro.util.naming import mod_to_class

    def sleepy_install(self, spec, prefix):
        time.sleep(BUILD_SECONDS)
        os.makedirs(os.path.join(prefix, "lib"), exist_ok=True)
        with open(os.path.join(prefix, "lib", "lib%s.so.json" % spec.name), "w") as f:
            json.dump({"type": "library", "needed": [], "rpaths": []}, f)

    repo = Repository(namespace="splicebench")

    ns = {
        "url": "https://mock.example.org/buildtool/buildtool-1.0.tar.gz",
        "__doc__": "the build-only tool whose upgrade the fleet splices over",
        "install": sleepy_install,
        "build_units": 1,
        "unit_cost": 0.001,
    }
    version("1.0", mock_checksum("buildtool", "1.0"))
    version("2.0", mock_checksum("buildtool", "2.0"))
    repo.add_class("buildtool", DirectiveMeta("Buildtool", (Package,), ns))

    layers = {
        0: ["leaf-%d" % i for i in range(6)],
        1: ["mid-%d" % i for i in range(5)],
        2: ["upper-%d" % i for i in range(4)],
        3: ["diamond-root"],
    }

    def deps_for(level, i):
        if level == 0:
            return []
        below = layers[level - 1]
        if level < 3:
            return [below[i % len(below)], below[(i + 1) % len(below)]]
        return list(below)

    for level, names in sorted(layers.items()):
        for i, name in enumerate(names):
            ns = {
                "url": "https://mock.example.org/%s/%s-1.0.tar.gz" % (name, name),
                "__doc__": "splice benchmark node %s" % name,
                "install": sleepy_install,
                "build_units": 1,
                "unit_cost": 0.001,
            }
            version("1.0", mock_checksum(name, "1.0"))
            depends_on("buildtool", type="build")
            for dep in deps_for(level, i):
                depends_on(dep)
            repo.add_class(name, DirectiveMeta(mod_to_class(name), (Package,), ns))
    return repo


def _session_with_cache(tmp_path_factory, tag, cache_root, push, pull, hub=None):
    session = Session.create(
        str(tmp_path_factory.mktemp("splice-%s" % tag)),
        packages=_fleet_repo(),
        telemetry=hub,
    )
    session.enable_buildcache(root=cache_root, push=push, pull=pull)
    return session


def test_splice_survives_build_tool_upgrade(tmp_path_factory, benchmark):
    cache_root = str(tmp_path_factory.mktemp("splice-shared") / "cache")

    # -- donor: source build against buildtool@1.0, auto-pushed -----------
    donor = _session_with_cache(
        tmp_path_factory, "donor", cache_root, push=True, pull=False
    )
    start = time.perf_counter()
    donor_spec, donor_result = donor.install(
        "diamond-root ^buildtool@1.0", jobs=JOBS
    )
    cold_wall = time.perf_counter() - start
    assert len(donor_result.built) == FLEET_NODES + 1
    assert len(donor.buildcache.entries()) == FLEET_NODES + 1

    # -- spliced: retool to @2.0 in a fresh root (measured) ---------------
    hub = Telemetry()
    sink = MemorySink()
    hub.add_sink(sink)

    def spliced_install():
        session = _session_with_cache(
            tmp_path_factory, "warm", cache_root, push=False, pull=True,
            hub=hub,
        )
        start = time.perf_counter()
        spec, result = session.install(
            "diamond-root ^buildtool@2.0", jobs=JOBS
        )
        return session, spec, result, time.perf_counter() - start

    warm, warm_spec, warm_result, warm_wall = benchmark.pedantic(
        spliced_install, rounds=1, iterations=1
    )

    # -- the ISSUE's acceptance bars --------------------------------------
    # the retooled DAG is a different full identity...
    assert warm_spec.dag_hash() != donor_spec.dag_hash()
    # ...with the same runtime closure, which is why splicing applies
    assert warm_spec.runtime_hash() == donor_spec.runtime_hash()

    # the build tool is the ONLY source build; the whole fleet splices
    assert [s.spec.name for s in warm_result.built] == ["buildtool"]
    assert len(warm_result.spliced) == FLEET_NODES
    fleet_build_spans = [
        s for s in sink.spans("install.phase.build")
        if s["attrs"].get("package") != "buildtool"
    ]
    assert fleet_build_spans == [], (
        "splice leaked %d fleet build spans" % len(fleet_build_spans)
    )
    splice_hits = hub.counter("buildcache.splice_hit")
    assert splice_hits >= FLEET_NODES

    # every spliced prefix carries donor provenance and verifies clean
    from repro.store.layout import METADATA_DIR
    from repro.store.verify import verify_store

    donor_hashes = {n.name: n.dag_hash() for n in donor_spec.traverse()}
    for node in warm_spec.traverse():
        if node.name == "buildtool":
            continue
        meta = os.path.join(
            warm.store.layout.path_for_spec(node), METADATA_DIR
        )
        with open(os.path.join(meta, "manifest.json")) as f:
            manifest = json.load(f)
        assert manifest["hash"] == node.dag_hash()
        assert manifest["spliced_from"] == donor_hashes[node.name]
    assert verify_store(warm) == []

    speedup = cold_wall / warm_wall
    report = bench_report(
        "splice",
        {
            "cold_wall_seconds": round(cold_wall, 4),
            "spliced_wall_seconds": round(warm_wall, 4),
            "speedup_spliced_vs_cold": round(speedup, 3),
            "spliced_nodes": len(warm_result.spliced),
            "source_built_nodes": len(warm_result.built),
            "fleet_build_spans": len(fleet_build_spans),
            "splice_hits": splice_hits,
            "store_verify_issues": 0,
        },
        meta={
            "dag_nodes": FLEET_NODES + 1,
            "build_seconds_per_node": BUILD_SECONDS,
            "jobs": JOBS,
        },
    )
    lines = [
        "Binary splicing: build-tool upgrade, fleet reused from runtime twins",
        "",
        "%8s %12s" % ("run", "wall (s)"),
        "%8s %12.3f" % ("cold", cold_wall),
        "%8s %12.3f" % ("spliced", warm_wall),
        "",
        "spliced speedup: %.2fx (floor: %.1fx); %d/%d nodes spliced, "
        "%d source builds (the tool), %d fleet build spans"
        % (speedup, SPEEDUP_FLOOR, len(warm_result.spliced), FLEET_NODES,
           len(warm_result.built), len(fleet_build_spans)),
    ]
    write_result(
        "BENCH_splice.json",
        json.dumps(report, indent=1, sort_keys=True) + "\n",
    )
    write_result("splice.txt", "\n".join(lines) + "\n")
    assert speedup >= SPEEDUP_FLOOR, (
        "expected >=%.1fx spliced speedup, got %.2fx" % (SPEEDUP_FLOOR, speedup)
    )
