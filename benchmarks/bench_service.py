"""The service daemon under sustained load: req/s and tail latency.

Two measurements over one warm daemon (docs/service.md):

* **sustained throughput** — N client threads each issuing a mixed
  stream of ``spack_spec`` / ``spack_list`` / ``spack_info`` /
  ``spack_find`` requests against a warm snapshot; reports requests per
  second and client-observed p50/p95/p99 latency.
* **thundering herd** — a barrier-released herd all requesting the same
  cold spec; the dispatcher must concretize **once** and coalesce the
  rest, so the cold-call and coalesced counts are deterministic and
  part of the gate (only the wall-clock keys move run to run).
"""

import json
import threading
import time

from conftest import write_result

from repro.service import ServiceDaemon
from repro.session import Session
from repro.telemetry.metrics import bench_report

#: client threads driving the daemon (requests in flight)
CLIENTS = 8

#: requests per client in the sustained phase
REQUESTS_EACH = 30

#: worker-pool width under test
WORKERS = 8

#: herd size for the coalescing phase: the whole worker pool at once
#: (a herd wider than the pool queues in the executor instead of
#: parking on the batch, and the queued tail would land as memo hits)
HERD = WORKERS

#: the warm mixed stream (endpoint, params), round-robined per client
MIX = (
    ("spack_spec", {"spec": "mpileaks"}),
    ("spack_list", {"query": "mpi"}),
    ("spack_spec", {"spec": "dyninst"}),
    ("spack_info", {"package": "callpath"}),
    ("spack_spec", {"spec": "libdwarf"}),
    ("spack_find", {}),
)


def _percentile(sorted_values, q):
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def test_service_throughput_latency_and_coalescing(benchmark, tmp_path):
    session = Session.create(str(tmp_path / "universe"))
    daemon = ServiceDaemon(session, workers=WORKERS)
    # warm the snapshot, memo, and disk cache: steady-state service (a
    # concretization enters the snapshot memo on its second request)
    for _ in range(2):
        for endpoint, params in MIX:
            daemon.call(endpoint, dict(params))

    # -- sustained phase: the measured pass -------------------------------
    def drive():
        latencies = [[] for _ in range(CLIENTS)]
        errors = []
        barrier = threading.Barrier(CLIENTS + 1)

        def client(bucket):
            try:
                barrier.wait()
                for i in range(REQUESTS_EACH):
                    endpoint, params = MIX[i % len(MIX)]
                    t0 = time.perf_counter()
                    daemon.call(endpoint, dict(params))
                    bucket.append(time.perf_counter() - t0)
            except Exception as e:
                errors.append(e)

        threads = [
            threading.Thread(target=client, args=(latencies[c],))
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        flat = sorted(lat for bucket in latencies for lat in bucket)
        return flat, errors, wall

    flat, errors, wall = benchmark.pedantic(drive, rounds=1, iterations=1)
    assert errors == []
    total = CLIENTS * REQUESTS_EACH
    assert len(flat) == total

    # -- herd phase: one cold spec, HERD identical requests ----------------
    snapshot = daemon.snapshots.current()
    release = threading.Event()
    entered = threading.Event()
    cold_calls = []
    real_cold = snapshot._concretize_cold

    def gated_cold(spec, variant, database=None):
        cold_calls.append(str(spec))
        entered.set()
        release.wait(timeout=60)
        return real_cold(spec, variant, database)

    snapshot._concretize_cold = gated_cold
    herd_start = time.perf_counter()
    futures = [daemon.submit("spack_spec", {"spec": "ares"})]
    entered.wait(timeout=60)  # the leader is in the cold path
    futures += [
        daemon.submit("spack_spec", {"spec": "ares"})
        for _ in range(HERD - 1)
    ]
    deadline = time.time() + 60
    while time.time() < deadline:  # every follower parked on the batch
        with daemon._batch_lock:
            if sum(b.followers for b in daemon._inflight.values()) == HERD - 1:
                break
        time.sleep(0.002)
    release.set()
    herd_results = [f.result(timeout=120) for f in futures]
    herd_wall = time.perf_counter() - herd_start
    snapshot._concretize_cold = real_cold

    assert cold_calls == ["ares"]
    assert len({r["dag_hash"] for r in herd_results}) == 1
    assert daemon.coalesced == HERD - 1
    daemon.close()

    report = bench_report(
        "service",
        {
            "requests": total,
            "errors": len(errors),
            "throughput_rps": round(total / wall, 2),
            "sustained_wall_seconds": round(wall, 4),
            "latency_mean_s": round(sum(flat) / total, 6),
            "latency_p50_s": round(_percentile(flat, 0.50), 6),
            "latency_p95_s": round(_percentile(flat, 0.95), 6),
            "latency_p99_s": round(_percentile(flat, 0.99), 6),
            "herd_requests": HERD,
            "herd_cold_concretizations": len(cold_calls),
            "herd_coalesced": daemon.coalesced,
            "herd_wall_seconds": round(herd_wall, 4),
            "snapshot_forks": daemon.snapshots.forks,
        },
        meta=dict(workers=WORKERS, clients=CLIENTS,
                  requests_each=REQUESTS_EACH, herd=HERD,
                  mix=[endpoint for endpoint, _ in MIX]),
    )
    lines = [
        "Service daemon: %d clients x %d mixed requests, %d workers" % (
            CLIENTS, REQUESTS_EACH, WORKERS,
        ),
        "",
        "throughput: %.0f req/s over %.3fs (%d requests, %d errors)" % (
            total / wall, wall, total, len(errors),
        ),
        "latency: p50 %.2fms  p95 %.2fms  p99 %.2fms" % (
            _percentile(flat, 0.50) * 1e3,
            _percentile(flat, 0.95) * 1e3,
            _percentile(flat, 0.99) * 1e3,
        ),
        "thundering herd: %d identical requests -> %d cold concretization,"
        " %d coalesced (%.3fs)" % (
            HERD, len(cold_calls), daemon.coalesced, herd_wall,
        ),
    ]
    write_result(
        "BENCH_service.json",
        json.dumps(report, indent=1, sort_keys=True) + "\n",
    )
    write_result("service.txt", "\n".join(lines) + "\n")
