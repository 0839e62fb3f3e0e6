"""The resident service daemon: one warm session, many requests.

``ServiceDaemon`` owns a :class:`~repro.session.Session` and serves the
hpc-mcp tool surface (``spack_list`` / ``spack_info`` / ``spack_spec`` /
``spack_install`` / ``spack_find``) plus ``status`` and ``shutdown``.
The moving parts:

* **Requests run where they arrive, under one bound** — :meth:`call`
  serves a request on the calling thread (a transport's connection
  thread), with no hand-off; :meth:`submit` runs it on a worker pool for
  in-process callers that want a Future.  Either way the request takes
  one of ``workers`` slots before it runs, so at most ``workers``
  requests work at once and the rest wait (``status`` counts them);
  the control endpoints (``status``, ``shutdown``) take no slot.

* **Snapshot isolation** — every request resolves against the
  session's :class:`~repro.service.snapshot.StateSnapshot` current at
  dispatch time; a mid-flight package/config mutation forks a new
  snapshot for *later* requests and never disturbs in-flight ones.
* **Shared answers** — the snapshot memo is keyed by the request text,
  so a repeated request is one dictionary lookup: no parse, and no
  sha256 of the spec (that key is the persistent cache's, derived only
  on a memo miss).
  Every concrete spec the snapshot publishes is frozen, so each request
  gets the snapshot's object itself, never a copy; a repeated text that
  fails re-raises the memoized typed error without a cold solve, and
  ``spack_spec`` builds a master's response body once (only
  ``concretizer`` and ``env_digest`` are per request).  A caller that
  needs a mutable DAG takes ``copy()``.
* **Request batching** — a thundering herd of memo misses for the same
  (environment digest, memo key) concretizes **once**: the first
  requester becomes the leader, followers park on an event and share the
  leader's frozen result.  Counted on ``service.batch.coalesced``.
* **Per-request traces** — each request runs under a ``service.request``
  span opened on the thread that runs it; a connection thread or pool
  worker has no span open, so one request is one single-rooted trace
  (the PR-6 analysis machinery applies unchanged); cross-thread work it
  spawns rides the usual :class:`~repro.telemetry.hub.TraceContext`
  propagation.
* **Writes stay on the live session** — ``spack_install`` concretizes
  on the snapshot but installs through the session's DAG-parallel
  installer, whose per-prefix locks and database transactions already
  arbitrate concurrent writers.
"""

import itertools
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

from repro.core import UnknownConcretizerError
from repro.errors import ReproError

#: default bound on requests served at once
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

#: served outside the ``workers`` bound: a saturated daemon still
#: reports its status and still shuts down
CONTROL_ENDPOINTS = ("status", "shutdown")


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
        #: runs submit()ted requests; call() needs no thread of its own
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._request_ids = itertools.count(1)
        #: (env digest, memo key) -> the _Batch its leader computes
        self._inflight = {}
        self._batch_lock = threading.Lock()
        #: guards the counters below; its conditions wake a request
        #: waiting for a slot and close() waiting for the last request
        self._state_lock = threading.Lock()
        self._slot_free = threading.Condition(self._state_lock)
        self._idle = threading.Condition(self._state_lock)
        #: admitted and not yet answered (those waiting for a slot too)
        self._active = 0
        #: holding one of the ``workers`` slots — the one concurrency
        #: bound, shared by call() and submit() — and waiting for one
        self._running = 0
        self._waiting = 0
        self._served = 0
        self._errors = 0
        self.coalesced = 0
        #: id(frozen master) -> (weakref to it, its spack_spec body); an
        #: entry lives exactly as long as the master it renders
        self._bodies = {}
        self._started = time.time()
        self.shutdown_event = threading.Event()

    # -- dispatch ----------------------------------------------------------
    def submit(self, endpoint, params=None):
        """Dispatch a request to the worker pool; returns a Future."""
        params = dict(params or {})
        request_id = self._admit(endpoint)
        return self._pool.submit(self._handle, request_id, endpoint, params)

    def call(self, endpoint, params=None):
        """Serve a request on the calling thread and return its result:
        the synchronous face transports use, with no thread hand-off."""
        request_id = self._admit(endpoint)
        return self._handle(request_id, endpoint, params or {})

    def _admit(self, endpoint):
        if endpoint not in ENDPOINTS:
            raise ServiceError(
                "Unknown endpoint %r (expected one of: %s)"
                % (endpoint, ", ".join(ENDPOINTS))
            )
        with self._state_lock:
            if self.shutdown_event.is_set():
                raise ServiceError("Daemon is shutting down")
            self._active += 1
        return next(self._request_ids)

    def _handle(self, request_id, endpoint, params):
        telemetry = self.session.telemetry
        slot = served = False
        try:
            if endpoint not in CONTROL_ENDPOINTS:
                self._take_slot()
                slot = True
            # the root span: a connection thread or pool worker has no
            # span open, so every request is its own single-rooted trace
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
            served = True
        finally:
            with self._state_lock:
                if slot:
                    self._running -= 1
                    if self._waiting:
                        self._slot_free.notify()
                self._active -= 1
                self._served += served
                if not self._active and self.shutdown_event.is_set():
                    self._idle.notify_all()
        telemetry.count("service.requests")
        return result

    def _take_slot(self):
        """Take one of the ``workers`` slots, waiting while all are
        taken."""
        with self._state_lock:
            if self._running >= self.workers:
                self._waiting += 1
                try:
                    self._slot_free.wait_for(
                        lambda: self._running < self.workers
                    )
                finally:
                    self._waiting -= 1
            self._running += 1

    def _count_error(self):
        with self._state_lock:
            self._errors += 1
        self.session.telemetry.count("service.errors")

    # -- batched concretization --------------------------------------------
    def _concretize(self, snapshot, spec, variant):
        """Concretize a spec text (or Spec) on a snapshot: a memo hit is
        answered at once, and identical in-flight misses (one snapshot
        digest, one memo key) coalesce onto one computation."""
        database = self.session.db
        key = snapshot.memo_key(spec, variant, database)
        master = snapshot._recall(key)
        if master is not None:
            return master
        inflight = (snapshot.env_digest, key)
        with self._batch_lock:
            batch = self._inflight.get(inflight)
            leader = batch is None
            if leader:
                batch = self._inflight[inflight] = _Batch()
            else:
                batch.followers += 1
        if leader:
            try:
                batch.result = snapshot._resolve(key, spec, database)
            except Exception as e:
                batch.error = e
            finally:
                with self._batch_lock:
                    self._inflight.pop(inflight, None)
                batch.done.set()
        else:
            batch.done.wait()
            with self._state_lock:
                self.coalesced += 1
            self.session.telemetry.count("service.batch.coalesced")
        if batch.error is not None:
            raise batch.error
        return batch.result

    # -- endpoints ---------------------------------------------------------
    def _ep_spack_list(self, query=None):
        snapshot = self.snapshots.current()
        names = snapshot.list_packages(query)
        return {"packages": names, "count": len(names),
                "env_digest": snapshot.env_digest}

    def _ep_spack_info(self, package):
        snapshot = self.snapshots.current()
        return dict(snapshot.package_info(package),
                    env_digest=snapshot.env_digest)

    def _ep_spack_spec(self, spec, concretizer=None):
        snapshot = self.snapshots.current()
        variant = snapshot.variant(concretizer)
        body = self._spec_body(self._concretize(snapshot, spec, variant))
        return dict(body, concretizer=variant, env_digest=snapshot.env_digest)

    def _spec_body(self, concrete):
        """The request-independent part of a ``spack_spec`` response,
        rendered once per frozen master and kept while it lives."""
        key = id(concrete)
        entry = self._bodies.get(key)
        if entry is not None and entry[0]() is concrete:
            return entry[1]
        body = {
            "spec": str(concrete),
            "dag_hash": concrete.dag_hash(),
            "tree": concrete.tree(),
            "nodes": [
                {"name": node.name, "version": str(node.version),
                 "compiler": str(node.compiler) if node.compiler else None,
                 "dag_hash": node.dag_hash()}
                for node in concrete.traverse()
            ],
        }
        if concrete.frozen:
            bodies = self._bodies
            bodies[key] = (
                weakref.ref(concrete, lambda _ref: bodies.pop(key, None)),
                body,
            )
        return body

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
        environments coalesce their shared roots.  Roots solve in order
        on the request's thread; ``jobs`` is accepted and changes
        nothing."""
        from repro.env.unify import unify_roots

        if not isinstance(roots, (list, tuple)) or not roots:
            raise ServiceError(
                "spack_env needs a non-empty `roots` list of abstract specs"
            )
        snapshot = self.snapshots.current()
        variant = snapshot.variant(concretizer)
        unified = unify_roots(
            [str(r) for r in roots],
            lambda spec: self._concretize(snapshot, spec, variant),
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
            active, waiting = self._active, self._waiting
            served, errors = self._served, self._errors
            coalesced = self.coalesced
        hist = self.session.telemetry.histograms.get("service.request")
        latency = hist.to_dict() if hist is not None else None
        return {
            "uptime_s": time.time() - self._started,
            "workers": self.workers,
            "requests": {"served": served, "active": active,
                         "waiting": waiting, "errors": errors,
                         "coalesced": coalesced},
            "snapshot": {"env_digest": snapshot.env_digest,
                         "packages": len(snapshot.repo),
                         "forks": self.snapshots.forks,
                         "memo_entries": snapshot.memo_entries()},
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
        """Stop accepting work; with ``wait``, return once every admitted
        request — on the pool or on a caller's thread — has finished."""
        with self._idle:
            self.shutdown_event.set()
            if wait:
                self._idle.wait_for(lambda: not self._active)
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
