"""Binary build cache: cold-vs-warm install speedup on the 16-node DAG.

The paper's hash-addressed prefixes make a concrete spec's identity
portable; the build cache exploits that by replacing fetch + stage +
build with extract + relocate + verify.  This benchmark regenerates the
headline claim: a warm-cache install of the same 16-node diamond-heavy
DAG used by ``bench_parallel_install`` skips **every** build phase
(telemetry shows 0 ``install.phase.build`` spans and a ``buildcache.hit``
per node) and lands >= 3x faster than the cold source build, while
``dag_hash`` and the per-prefix provenance stay byte-identical.
"""

import json
import os
import time

from conftest import write_result

from repro.session import Session
from repro.telemetry import MemorySink, Telemetry, bench_report

#: modeled build duration of every node (sleep: releases the GIL)
BUILD_SECONDS = 0.1

#: the cold and warm installs both run at this pool width
JOBS = 1

#: required cold/warm wall-clock ratio (the ISSUE's acceptance floor)
SPEEDUP_FLOOR = 3.0


def _sleepy_repo():
    """A 16-node diamond-heavy DAG: 6 leaves, 5 mids, 4 uppers, 1 root."""
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

    repo = Repository(namespace="bcbench")
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
                "__doc__": "buildcache benchmark node %s" % name,
                "install": sleepy_install,
                "build_units": 1,
                "unit_cost": 0.001,
            }
            version("1.0", mock_checksum(name, "1.0"))
            for dep in deps_for(level, i):
                depends_on(dep)
            repo.add_class(name, DirectiveMeta(mod_to_class(name), (Package,), ns))
    return repo


def _provenance(session, spec):
    """dag_hash -> (spec.json bytes, manifest.json bytes) per node."""
    from repro.store.layout import METADATA_DIR

    layout = session.store.layout
    out = {}
    for node in spec.traverse():
        meta = os.path.join(layout.path_for_spec(node), METADATA_DIR)
        with open(os.path.join(meta, "spec.json"), "rb") as f:
            spec_bytes = f.read()
        with open(os.path.join(meta, "manifest.json"), "rb") as f:
            manifest_bytes = f.read()
        out[node.dag_hash()] = (spec_bytes, manifest_bytes)
    return out


def _session_with_cache(tmp_path_factory, tag, cache_root, push, hub=None):
    session = Session.create(
        str(tmp_path_factory.mktemp("bc-%s" % tag)),
        packages=_sleepy_repo(),
        telemetry=hub,
    )
    session.seed_web()
    session.enable_buildcache(root=cache_root, push=push)
    return session


def test_buildcache_cold_vs_warm(tmp_path_factory, benchmark):
    cache_root = str(tmp_path_factory.mktemp("bc-shared") / "cache")

    # -- cold: source build of all 16 nodes, auto-pushed ------------------
    cold = _session_with_cache(tmp_path_factory, "cold", cache_root, push=True)
    start = time.perf_counter()
    cold_spec, cold_result = cold.install("diamond-root", jobs=JOBS)
    cold_wall = time.perf_counter() - start
    assert len(cold_result.built) == 16
    assert len(cold.buildcache.entries()) == 16

    # -- warm: fresh root, everything from the cache (measured) -----------
    hub = Telemetry()
    sink = MemorySink()
    hub.add_sink(sink)

    def warm_install():
        session = _session_with_cache(
            tmp_path_factory, "warm", cache_root, push=False, hub=hub
        )
        start = time.perf_counter()
        spec, result = session.install("diamond-root", jobs=JOBS)
        return session, spec, result, time.perf_counter() - start

    warm, warm_spec, warm_result, warm_wall = benchmark.pedantic(
        warm_install, rounds=1, iterations=1
    )

    # -- the ISSUE's acceptance bars --------------------------------------
    assert warm_spec.dag_hash() == cold_spec.dag_hash()
    assert warm_result.built == [], "warm install must compile nothing"
    assert len(warm_result.cached) == 16

    build_spans = sink.spans("install.phase.build")
    assert build_spans == [], "warm install leaked %d build spans" % len(
        build_spans
    )
    hits = hub.counter("buildcache.hit")
    assert hits >= 16, "expected >=1 buildcache.hit per node, got %d" % hits

    assert _provenance(warm, warm_spec) == _provenance(cold, cold_spec), (
        "cold and warm provenance diverged"
    )

    speedup = cold_wall / warm_wall
    report = bench_report(
        "buildcache",
        {
            "cold_wall_seconds": round(cold_wall, 4),
            "warm_wall_seconds": round(warm_wall, 4),
            "speedup_warm_vs_cold": round(speedup, 3),
            "warm_build_spans": len(build_spans),
            "buildcache_hits": hits,
            "warm_cached_nodes": len(warm_result.cached),
            "provenance_identical": True,
        },
        meta={
            "dag_nodes": 16,
            "build_seconds_per_node": BUILD_SECONDS,
            "jobs": JOBS,
        },
    )
    lines = [
        "Binary build cache: cold source build vs. warm cache install",
        "",
        "%8s %12s" % ("run", "wall (s)"),
        "%8s %12.3f" % ("cold", cold_wall),
        "%8s %12.3f" % ("warm", warm_wall),
        "",
        "warm speedup: %.2fx (floor: %.1fx); %d/16 nodes from cache, "
        "%d build spans" % (speedup, SPEEDUP_FLOOR, len(warm_result.cached),
                            len(build_spans)),
    ]
    write_result(
        "BENCH_buildcache.json",
        json.dumps(report, indent=1, sort_keys=True) + "\n",
    )
    write_result("buildcache.txt", "\n".join(lines) + "\n")
    assert speedup >= SPEEDUP_FLOOR, (
        "expected >=%.1fx warm speedup, got %.2fx" % (SPEEDUP_FLOOR, speedup)
    )
