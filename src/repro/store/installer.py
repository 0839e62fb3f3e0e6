"""The installer: a thin facade over plan → schedule → execute.

``install(spec)`` used to be a single-threaded recursive post-order
walk.  It is now three explicit layers (the paper's §3.4 build
methodology makes independent sub-DAGs embarrassingly parallel, since
every concrete spec owns a hash-addressed prefix):

* the **planner** (:mod:`repro.store.plan`) levels the concrete DAG
  into per-node tasks with an explicit state machine, classifying each
  node: **reuse** an existing installation when its DAG hash is already
  in the database (Figure 9's shared sub-DAGs), **register** configured
  externals without building (§4.4's vendor MPI), **build** the rest;
* the **scheduler** (:mod:`repro.store.scheduler`) dispatches READY
  tasks to a bounded worker pool (``jobs``; default 1 keeps the old
  deterministic order), skipping dependents of failures while disjoint
  sub-DAGs finish;
* the **executor** (:mod:`repro.store.executor`) runs one node's
  fetch + verify, stage, patch, isolated-environment build, sanity
  check, and provenance write (§3.4.3) — session-safe, so any worker
  can run any node.

A failing build tears down its partial prefix; after the plan drains,
the first failure (in deterministic post-order) is re-raised —
:class:`InstallError` carrying the tail of the build log, or the
original exception for non-Repro errors.  Otherwise ``install`` returns
the :class:`~repro.store.scheduler.InstallResult` the scheduler built.
"""

import os
import shutil

from repro.errors import ReproError
from repro.store.plan import Planner
from repro.store.scheduler import Scheduler


class InstallError(ReproError):
    """A package failed to install."""


class UninstallError(ReproError):
    """Removal refused (dependents exist) or failed."""


class Installer:
    """Installs concrete specs into a session's store."""

    def __init__(self, session):
        self.session = session

    # -- public ------------------------------------------------------------
    def install(self, spec, explicit=True, keep_stage=False, jobs=None,
                fail_fast=False, use_cache=None, use_splice=None):
        """Plan, schedule, and execute the install of a concrete spec.

        ``jobs`` bounds the worker pool (None: the session's
        ``install_jobs``, itself defaulting to 1 — the historical
        sequential behavior).  With ``fail_fast`` the scheduler stops
        dispatching new tasks after the first failure instead of
        finishing disjoint sub-DAGs.  ``use_cache`` overrides the
        session's build-cache pull policy for this install, and
        ``use_splice`` its splice policy (whether a runtime-hash twin's
        cached binaries may stand in for a full-hash miss).
        """
        if not spec.concrete:
            raise InstallError("Only concrete specs can be installed: %s" % spec)
        session = self.session
        db = session.db
        hub = session.telemetry
        jobs = session.install_jobs if jobs is None else max(1, int(jobs))

        with hub.span("install", spec=str(spec.name), jobs=jobs) as span:
            plan = Planner(session).plan(
                spec, use_cache=use_cache, use_splice=use_splice
            )
            result = Scheduler(session, jobs=jobs, fail_fast=fail_fast).run(
                plan, keep_stage=keep_stage
            )
            error = result.first_error
            if error is not None:
                raise error
            if db.installed(spec):
                db.mark_explicit(spec, explicit)
            span.set(
                built=len(result.built),
                reused=len(result.reused),
                externals=len(result.externals),
                cached=len(result.cached),
                spliced=len(result.spliced),
                wall_s=result.wall_seconds,
            )
        return result

    def uninstall(self, spec, force=False):
        db = self.session.db
        record = db.get(spec)
        if record is None:
            raise UninstallError("Spec is not installed: %s" % spec)
        dependents = db.dependents_of(spec)
        if dependents and not force:
            raise UninstallError(
                "Cannot uninstall %s: required by %s"
                % (spec.name, ", ".join(str(d.spec.name) for d in dependents)),
            )
        if not record.spec.external and os.path.isdir(record.prefix):
            shutil.rmtree(record.prefix)
        db.remove(spec)
        if self.session.generate_modules:
            from repro.modules.generator import ModuleGenerator

            ModuleGenerator(self.session).remove_for_spec(record.spec)
        return record
