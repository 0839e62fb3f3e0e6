"""The install scheduler: READY tasks onto a bounded worker pool.

Middle layer of the planner/scheduler/executor stack.  The scheduler
owns the plan's state transitions: it dispatches READY tasks (lowest
post-order index first) to at most ``jobs`` workers, completes them as
their builds finish, and propagates failure by SKIPPING transitive
dependents while disjoint sub-DAGs keep building.  ``--fail-fast``
tightens that to "stop dispatching anything new after the first
failure".

Two execution modes, one state machine:

* ``jobs == 1`` — fully deterministic in-thread loop, no pool.  Tasks
  run in exactly the old recursive installer's post-order; tests and
  reproducible runs get bit-stable behavior.
* ``jobs > 1`` — a ``ThreadPoolExecutor``.  Completions are handled on
  the scheduler thread (database registration, module generation, state
  transitions), so workers only ever run the session-safe executor.
  Finished builds are registered in **write-batched** database
  transactions: one index read-merge-write per drain of completions
  rather than per node.  Build-cache pushes and module files follow
  once the drain's transaction has committed, as in serial mode.

Telemetry: a ``scheduler.run`` span wraps the whole drive; the
``scheduler.queue_depth`` gauge tracks the READY backlog at every
dispatch; per-task ``scheduler.dispatch`` events carry worker
attribution; ``install.built/cached/spliced/reused/external/failed/skipped`` counters
aggregate outcomes.
"""

import time

from repro.store import plan as _plan


class InstallResult:
    """What one install did, each list in deterministic (post-order)
    order: the :class:`~repro.store.executor.BuildStats` of nodes built
    from source, installed from their own cache entry, or spliced from a
    runtime-hash twin; the nodes reused or registered as externals; and
    the tasks that failed or were skipped behind a failure."""

    def __init__(self, plan, jobs, wall_seconds):
        #: worker-pool width the scheduler ran with
        self.jobs = jobs
        #: wall-clock of the whole scheduler drive (compare with the sum
        #: of per-node ``BuildStats.real_seconds`` to see the overlap)
        self.wall_seconds = wall_seconds
        self.built, self.cached, self.spliced = [], [], []
        self.reused, self.externals = [], []
        for task in plan.in_state(_plan.INSTALLED):
            stats = task.stats
            if task.action == _plan.EXTERNAL:
                self.externals.append(task.node)
            elif stats is None:
                self.reused.append(task.node)
            elif stats.spliced:
                self.spliced.append(stats)
            elif stats.cache_hit:
                self.cached.append(stats)
            else:
                self.built.append(stats)
        self.failed = plan.in_state(_plan.FAILED)
        self.skipped = plan.in_state(_plan.SKIPPED)

    @property
    def first_error(self):
        """The first failure in deterministic order, or None."""
        return self.failed[0].error if self.failed else None

    @property
    def built_names(self):
        return [s.spec.name for s in self.built]

    @property
    def reused_names(self):
        return [s.name for s in self.reused]


class Scheduler:
    """Drives an :class:`~repro.store.plan.InstallPlan` to completion."""

    def __init__(self, session, jobs=1, fail_fast=False, executor=None):
        from repro.store.executor import BuildExecutor

        self.session = session
        self.jobs = max(1, int(jobs))
        self.fail_fast = fail_fast
        self.executor = executor or BuildExecutor(session)

    # -- public -------------------------------------------------------------
    def run(self, plan, keep_stage=False):
        """Execute every task; returns an :class:`InstallResult`.

        Never raises for build failures — they are recorded on the
        tasks (``state == FAILED``, ``task.error``) and surfaced via the
        result, so the caller decides the error policy.
        """
        hub = self.session.telemetry
        start = time.perf_counter()
        with hub.span(
            "scheduler.run", spec=str(plan.spec.name), jobs=self.jobs
        ) as span:
            if self.jobs == 1:
                self._run_serial(plan, keep_stage)
            else:
                self._run_pooled(plan, keep_stage)
            result = InstallResult(
                plan, self.jobs, time.perf_counter() - start
            )
            span.set(
                built=len(result.built),
                reused=len(result.reused),
                externals=len(result.externals),
                cached=len(result.cached),
                spliced=len(result.spliced),
                failed=len(result.failed),
                skipped=len(result.skipped),
                wall_s=result.wall_seconds,
            )
        return result

    # -- serial mode --------------------------------------------------------
    def _run_serial(self, plan, keep_stage):
        hub = self.session.telemetry
        while True:
            ready = plan.ready_tasks()
            if not ready:
                break
            hub.gauge("scheduler.queue_depth", len(ready))
            task = ready[0]
            task.to(_plan.BUILDING)
            hub.event(
                "scheduler.dispatch", package=task.node.name, worker="main"
            )
            try:
                stats = self._execute(task, keep_stage)
            except Exception as e:  # noqa: BLE001 — policy decided upstream
                self._complete_failure(plan, task, e)
                if self.fail_fast:
                    plan.skip_pending()
                    break
                continue
            self._register(task, stats)
            self._publish(plan, task)

    # -- pooled mode --------------------------------------------------------
    def _run_pooled(self, plan, keep_stage):
        import concurrent.futures

        hub = self.session.telemetry
        stop_dispatch = False
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="install-worker"
        ) as pool:
            in_flight = {}

            def dispatch():
                # captured on the scheduler thread, inside the live
                # ``scheduler.run`` span: every worker's spans join THIS
                # trace instead of starting orphaned per-thread ones
                context = hub.capture()
                for task in plan.ready_tasks():
                    if len(in_flight) >= self.jobs:
                        break
                    task.to(_plan.BUILDING)
                    hub.event("scheduler.dispatch", package=task.node.name)
                    in_flight[
                        pool.submit(self._execute, task, keep_stage, context)
                    ] = task
                hub.gauge("scheduler.queue_depth", len(plan.ready_tasks()))

            dispatch()
            while in_flight:
                finished, _ = concurrent.futures.wait(
                    in_flight, return_when=concurrent.futures.FIRST_COMPLETED
                )
                # Deterministic completion handling: drain the whole batch
                # in post-order, registering successes in ONE database
                # transaction (write batching under the index lock), then
                # pushing and writing modules once it has committed, so
                # the lock is not held while tarballs are packed.
                batch = sorted(
                    ((in_flight.pop(f), f) for f in finished),
                    key=lambda pair: pair[0].index,
                )
                successes = [
                    (task, f) for task, f in batch if f.exception() is None
                ]
                if successes:
                    with self.session.db.transaction():
                        for task, f in successes:
                            self._register(task, f.result())
                    for task, _ in successes:
                        self._publish(plan, task)
                for task, f in batch:
                    if f.exception() is not None:
                        self._complete_failure(plan, task, f.exception())
                        if self.fail_fast:
                            stop_dispatch = True
                if stop_dispatch:
                    continue  # drain in-flight; dispatch nothing new
                dispatch()
            if stop_dispatch:
                plan.skip_pending()

    # -- task execution (worker side) ---------------------------------------
    def _execute(self, task, keep_stage, context=None):
        """Run one task's action; returns BuildStats or None (trivial).

        ``context`` is the scheduler thread's :class:`TraceContext` at
        dispatch time; adopting it parents this worker's spans into the
        install trace (serial mode runs on the scheduler thread, where
        the ``scheduler.run`` span is already current — no adoption).
        """
        import threading

        task.worker = threading.current_thread().name
        hub = self.session.telemetry
        if hub.current_span() is not None:
            context = None
        with hub.adopt(context):
            if task.action == _plan.BUILD:
                return self.executor.execute(task.node, keep_stage=keep_stage)
            if task.action == _plan.CACHED:
                return self.executor.execute_cached(
                    task.node, keep_stage=keep_stage
                )
            if task.action == _plan.SPLICED:
                return self.executor.execute_spliced(
                    task.node, task.donor, keep_stage=keep_stage
                )
            return None  # REUSE and EXTERNAL are pure bookkeeping

    # -- completion handling (scheduler side) -------------------------------
    def _register(self, task, stats):
        """Record a finished task in the database and count its outcome."""
        db = self.session.db
        hub = self.session.telemetry
        node = task.node
        if task.action == _plan.EXTERNAL:
            if not db.installed(node):
                db.add(node, node.external, explicit=False)
            hub.count("install.external")
        elif task.action == _plan.REUSE or stats is None:
            # planned reuse, or another session won the prefix lock race
            hub.count("install.reused")
        else:
            task.stats = stats
            db.add(node, node.prefix, explicit=False)
            if stats.spliced:
                hub.count("install.spliced")
            elif stats.cache_hit:
                hub.count("install.cached")
            else:
                hub.count("install.built")

    def _publish(self, plan, task):
        """Push a new prefix to the build cache and write its modules
        (after its registration has committed), then mark it INSTALLED."""
        stats = task.stats
        if stats is not None:
            node = task.node
            # auto-publish genuine builds, and splices under the
            # *requested* hash so the next install of this exact DAG is a
            # direct cache hit (the cache converges on splices); a
            # cache-extracted prefix would re-pack with its distribution
            # marker
            if (
                (stats.spliced or not stats.cache_hit)
                and self.session.buildcache is not None
                and self.session.buildcache_push
            ):
                self.session.buildcache.push(
                    node, node.prefix, self.session.root
                )
            if self.session.generate_modules:
                from repro.modules.generator import ModuleGenerator

                ModuleGenerator(self.session).write_for_spec(node)
        plan.mark_installed(task.key)

    def _complete_failure(self, plan, task, error):
        hub = self.session.telemetry
        hub.count("install.failed")
        skipped = plan.mark_failed(task.key, error)
        if skipped:
            hub.count("install.skipped", len(skipped))
        hub.event(
            "scheduler.task_failed",
            package=task.node.name,
            error=type(error).__name__,
            skipped=[t.node.name for t in skipped],
        )
