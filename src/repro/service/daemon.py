"""The resident service daemon: one warm session, many requests.

``ServiceDaemon`` owns a :class:`~repro.session.Session` and serves the
hpc-mcp tool surface (``spack_list`` / ``spack_info`` / ``spack_spec`` /
``spack_install`` / ``spack_find``) plus ``status`` and ``shutdown``
over a bounded worker pool.  The moving parts:

* **Snapshot isolation** — every request resolves against the
  session's :class:`~repro.service.snapshot.StateSnapshot` current at
  dispatch time; a mid-flight package/config mutation forks a new
  snapshot for *later* requests and never disturbs in-flight ones.
* **Request batching** — a thundering herd of requests for the same
  (spec, digest, variant) cache key concretizes **once**: the first
  requester becomes the leader, followers park on an event and share the
  leader's result (each still gets a private copy).  Counted on
  ``service.batch.coalesced``.
* **Per-request traces** — each request runs under a root
  ``service.request`` span on its worker thread, so one request is one
  single-rooted trace (the PR-6 analysis machinery applies unchanged);
  cross-thread work it spawns rides the usual
  :class:`~repro.telemetry.hub.TraceContext` propagation.
* **Writes stay on the live session** — ``spack_install`` concretizes
  on the snapshot but installs through the session's DAG-parallel
  installer, whose per-prefix locks and database transactions already
  arbitrate concurrent writers.
"""

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core import UnknownConcretizerError
from repro.errors import ReproError

#: default dispatcher width (requests resolved concurrently)
DEFAULT_WORKERS = 4

#: the tool surface served, in the hpc-mcp workflow order, plus the
#: daemon's own control endpoints
ENDPOINTS = (
    "spack_list",
    "spack_info",
    "spack_spec",
    "spack_install",
    "spack_find",
    "spack_env",
    "status",
    "shutdown",
)


class ServiceError(ReproError):
    """A request the daemon cannot serve (unknown endpoint, bad params)."""


class _Batch:
    """One in-flight concretization shared by a herd of identical
    requests: the leader computes, followers wait on ``done``."""

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self):
        self.done = threading.Event()
        self.result = None
        self.error = None
        self.followers = 0


class ServiceDaemon:
    """A long-running concretize/install/query server around one Session."""

    def __init__(self, session, workers=DEFAULT_WORKERS):
        self.session = session
        #: the session's State manager; every endpoint reads its current()
        self.snapshots = session.snapshots
        self.workers = max(1, int(workers))
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._request_ids = itertools.count(1)
        self._inflight = {}
        self._batch_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._active = 0
        self._served = 0
        self._errors = 0
        self.coalesced = 0
        self._started = time.time()
        self.shutdown_event = threading.Event()

    # -- dispatch ----------------------------------------------------------
    def submit(self, endpoint, params=None):
        """Dispatch a request to the worker pool; returns a Future."""
        if endpoint not in ENDPOINTS:
            raise ServiceError(
                "Unknown endpoint %r (expected one of: %s)"
                % (endpoint, ", ".join(ENDPOINTS))
            )
        if self.shutdown_event.is_set():
            raise ServiceError("Daemon is shutting down")
        request_id = next(self._request_ids)
        return self._pool.submit(self._handle, request_id, endpoint,
                                 dict(params or {}))

    def call(self, endpoint, params=None):
        """Dispatch and wait: the synchronous face transports use."""
        return self.submit(endpoint, params).result()

    def _handle(self, request_id, endpoint, params):
        telemetry = self.session.telemetry
        with self._state_lock:
            self._active += 1
        # the root span: opened with no enclosing span on this worker
        # thread, so every request is its own single-rooted trace
        with telemetry.span(
            "service.request", endpoint=endpoint, request=request_id
        ):
            try:
                result = getattr(self, "_ep_%s" % endpoint)(**params)
            except (TypeError, UnknownConcretizerError) as e:
                # surface bad params as a service error, not a crash
                self._count_error()
                raise ServiceError(
                    "Bad parameters for %s: %s" % (endpoint, e)
                ) from e
            except Exception:
                self._count_error()
                raise
            finally:
                with self._state_lock:
                    self._active -= 1
        with self._state_lock:
            self._served += 1
        telemetry.count("service.requests")
        return result

    def _count_error(self):
        with self._state_lock:
            self._errors += 1
        self.session.telemetry.count("service.errors")

    # -- batched concretization --------------------------------------------
    def _concretize(self, snapshot, spec_text, variant):
        """Concretize on a snapshot, coalescing identical in-flight
        requests (one snapshot cache key) onto one computation."""
        from repro.spec.spec import Spec

        spec = Spec(spec_text)
        database = self.session.db
        key = snapshot.cache_key(spec, variant, database)
        with self._batch_lock:
            batch = self._inflight.get(key)
            leader = batch is None
            if leader:
                batch = self._inflight[key] = _Batch()
            else:
                batch.followers += 1
        if leader:
            try:
                batch.result = snapshot.concretize(
                    spec, variant, database=database
                )
            except Exception as e:
                batch.error = e
            finally:
                with self._batch_lock:
                    self._inflight.pop(key, None)
                batch.done.set()
        else:
            batch.done.wait()
            with self._state_lock:
                self.coalesced += 1
            self.session.telemetry.count("service.batch.coalesced")
        if batch.error is not None:
            raise batch.error
        return batch.result.copy()

    # -- endpoints ---------------------------------------------------------
    def _ep_spack_list(self, query=None):
        snapshot = self.snapshots.current()
        names = snapshot.list_packages(query)
        return {"packages": names, "count": len(names),
                "env_digest": snapshot.env_digest}

    def _ep_spack_info(self, package):
        snapshot = self.snapshots.current()
        info = snapshot.package_info(package)
        info["env_digest"] = snapshot.env_digest
        return info

    def _ep_spack_spec(self, spec, concretizer=None):
        snapshot = self.snapshots.current()
        variant = snapshot.variant(concretizer)
        concrete = self._concretize(snapshot, spec, variant)
        return {
            "spec": str(concrete),
            "dag_hash": concrete.dag_hash(),
            "tree": concrete.tree(),
            "nodes": [
                {"name": node.name, "version": str(node.version),
                 "compiler": str(node.compiler) if node.compiler else None,
                 "dag_hash": node.dag_hash()}
                for node in concrete.traverse()
            ],
            "concretizer": variant,
            "env_digest": snapshot.env_digest,
        }

    def _ep_spack_install(self, spec, concretizer=None, jobs=None,
                          use_cache=None, use_splice=None):
        snapshot = self.snapshots.current()
        concrete = self._concretize(
            snapshot, spec, snapshot.variant(concretizer)
        )
        result = self.session.installer.install(
            concrete, jobs=jobs, use_cache=use_cache, use_splice=use_splice
        )
        return {
            "spec": str(concrete),
            "dag_hash": concrete.dag_hash(),
            "prefix": self.session.store.layout.path_for_spec(concrete),
            "built": [s.spec.name for s in result.built],
            "cached": [s.spec.name for s in result.cached],
            "spliced": [s.spec.name for s in result.spliced],
            "reused": [n.name for n in result.reused],
            "externals": [n.name for n in result.externals],
            "wall_seconds": result.wall_seconds,
            "env_digest": snapshot.env_digest,
        }

    def _ep_spack_env(self, roots, concretizer=None, jobs=None):
        """Concretize many roots together (repro.env.unify) against the
        snapshot current at dispatch — the whole environment resolves
        under ONE consistent package/config state even if a mutation
        lands mid-unification.  Per-root solves go through the batched
        ``_concretize`` path, so two clients unifying overlapping
        environments coalesce their shared roots."""
        from repro.env.unify import unify_roots

        if not isinstance(roots, (list, tuple)) or not roots:
            raise ServiceError(
                "spack_env needs a non-empty `roots` list of abstract specs"
            )
        snapshot = self.snapshots.current()
        variant = snapshot.variant(concretizer)
        jobs = max(1, int(jobs or 1))
        unified = unify_roots(
            [str(r) for r in roots],
            lambda spec: self._concretize(snapshot, str(spec), variant),
            jobs=jobs,
            telemetry=self.session.telemetry,
        )
        stats = unified.stats()
        return {
            "roots": [
                {"root": text, "spec": str(concrete),
                 "dag_hash": concrete.dag_hash()}
                for text, concrete in unified.roots
            ],
            "unique_nodes": stats["unique_nodes"],
            "shared_packages": stats["shared_packages"],
            "rounds": stats["rounds"],
            "resolves": stats["resolves"],
            "pins": dict(unified.pins),
            "concretizer": variant,
            "env_digest": snapshot.env_digest,
        }

    def _ep_spack_find(self, query=None):
        records = self.session.db.query(query or None)
        return {
            "specs": [
                {"spec": str(r.spec), "dag_hash": r.spec.dag_hash(),
                 "prefix": r.prefix, "explicit": bool(r.explicit)}
                for r in records
            ],
            "count": len(records),
        }

    def _ep_status(self):
        snapshot = self.snapshots.current()
        with self._state_lock:
            active, served, errors = self._active, self._served, self._errors
            coalesced = self.coalesced
        hist = self.session.telemetry.histograms.get("service.request")
        latency = hist.to_dict() if hist is not None else None
        return {
            "uptime_s": time.time() - self._started,
            "workers": self.workers,
            "requests": {"served": served, "active": active,
                         "errors": errors, "coalesced": coalesced},
            "snapshot": {"env_digest": snapshot.env_digest,
                         "packages": len(snapshot.repo),
                         "forks": self.snapshots.forks},
            "latency": latency,
            "endpoints": list(ENDPOINTS),
        }

    def _ep_shutdown(self):
        self.shutdown_event.set()
        with self._state_lock:
            served = self._served
        return {"ok": True, "served": served}

    # -- lifecycle ---------------------------------------------------------
    def close(self, wait=True):
        """Stop accepting work and drain the pool."""
        self.shutdown_event.set()
        self._pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return "ServiceDaemon(%r, workers=%d)" % (
            self.session.root, self.workers,
        )
