"""The install scheduler: READY tasks onto at most ``jobs`` workers.

Middle layer of the planner/scheduler/executor stack.  The scheduler
owns the plan's state transitions.  One loop drives every width: it
dispatches READY tasks (lowest post-order index first) until ``jobs``
are in flight, waits for the first to finish, and drains the finished
batch in post-order.  ``jobs`` decides only where a task's call runs:
on the scheduler thread at ``jobs == 1`` (exactly the old recursive
installer's order, and no thread started), on a ``ThreadPoolExecutor``
above that.  Workers only ever run the session-safe executor; state
transitions, database registration and module generation happen on the
scheduler thread.

Failure propagates by SKIPPING transitive dependents while disjoint
sub-DAGs keep building; ``--fail-fast`` stops dispatching anything new
after the first failure.  A kill (a ``BaseException`` that is not an
``Exception``, such as ``SimulatedKill`` or ``KeyboardInterrupt``) is
no build failure: it ends the drive at every width, and nothing still
in flight when it lands is registered.

Telemetry: a ``scheduler.run`` span wraps the whole drive; the
``scheduler.queue_depth`` gauge tracks the READY backlog after every
dispatch; a ``scheduler.dispatch`` event marks each task's dispatch;
``install.built/cached/spliced/reused/external/failed/skipped`` counters
aggregate outcomes.
"""

import contextlib
import time

from repro.store import plan as _plan


def _call_here(fn, *args):
    """Run ``fn(*args)`` on this thread and return its outcome as a
    finished future: the one-task-at-a-time stand-in for a pool's
    ``submit``.  Only an ``Exception`` is kept on the future, as a
    failure; a kill passes straight through."""
    import concurrent.futures

    future = concurrent.futures.Future()
    try:
        future.set_result(fn(*args))
    except Exception as e:  # noqa: BLE001 — recorded, as a pool records it
        future.set_exception(e)
    return future


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
        result, so the caller decides the error policy.  A kill is
        re-raised: see the module docstring.
        """
        # imported here, not at module level: it pulls in ``logging``,
        # which a process that never installs should not pay for
        import concurrent.futures

        hub = self.session.telemetry
        start = time.perf_counter()
        with hub.span(
            "scheduler.run", spec=str(plan.spec.name), jobs=self.jobs
        ) as span:
            if self.jobs == 1:
                self._drive(plan, keep_stage, _call_here)
            else:
                with concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="install-worker"
                ) as pool:
                    self._drive(plan, keep_stage, pool.submit)
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

    # -- the drive loop -----------------------------------------------------
    def _drive(self, plan, keep_stage, submit):
        """Dispatch until ``jobs`` tasks are in flight, wait for the
        first to finish, drain what finished; until nothing is left.
        ``submit(fn, *args)`` runs one call and returns its future."""
        import concurrent.futures

        hub = self.session.telemetry
        in_flight = {}
        stopped = False
        while True:
            if not stopped:
                # captured on the scheduler thread, inside the live
                # ``scheduler.run`` span: every task's spans join THIS
                # trace, whichever thread runs it
                context = hub.capture()
                for task in plan.ready_tasks()[: self.jobs - len(in_flight)]:
                    task.to(_plan.BUILDING)
                    hub.event("scheduler.dispatch", package=task.node.name)
                    future = submit(self._execute, task, keep_stage, context)
                    in_flight[future] = task
                hub.gauge("scheduler.queue_depth", len(plan.ready_tasks()))
            if not in_flight:
                break
            finished, _ = concurrent.futures.wait(
                in_flight, return_when=concurrent.futures.FIRST_COMPLETED
            )
            batch = sorted(
                ((in_flight.pop(f), f) for f in finished),
                key=lambda pair: pair[0].index,
            )
            if self._drain(plan, batch) and self.fail_fast:
                stopped = True  # drain in-flight; dispatch nothing new
        if stopped:
            plan.skip_pending()

    def _drain(self, plan, batch):
        """Complete finished ``(task, future)`` pairs in post-order;
        returns True when one failed.  A kill is re-raised before
        anything is registered.  Otherwise the successes are registered,
        then pushed and given module files once their records have
        committed (so the index lock is not held while tarballs are
        packed), then the failures are handled."""
        successes, failures = [], []
        for task, future in batch:
            error = future.exception()
            if error is None:
                successes.append((task, future.result()))
            elif isinstance(error, Exception):
                failures.append((task, error))
            else:
                raise error
        db, hub = self.session.db, self.session.telemetry
        outcomes = [self._outcome(task, stats) for task, stats in successes]
        # one index read-merge-write for the batch: ``db.add`` opens its
        # own transaction for a lone record, and reused nodes need none
        adds = sum(prefix is not None for _, prefix in outcomes)
        with db.transaction() if adds > 1 else contextlib.nullcontext():
            for (task, stats), (counter, prefix) in zip(successes, outcomes):
                task.stats = stats
                if prefix is not None:
                    db.add(task.node, prefix, explicit=False)
                hub.count(counter)
        for task, _ in successes:
            self._publish(plan, task)
        for task, error in failures:
            self._complete_failure(plan, task, error)
        return bool(failures)

    # -- task execution (worker side) ---------------------------------------
    def _execute(self, task, keep_stage, context):
        """Run one task's action; returns BuildStats or None (trivial).

        Runs on a pool worker, or on the scheduler thread at
        ``jobs == 1``.  ``context`` is the scheduler thread's
        :class:`TraceContext` at dispatch time; adopting it parents the
        task's spans to ``scheduler.run`` on either thread.
        """
        with self.session.telemetry.adopt(context):
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
    def _outcome(self, task, stats):
        """``(counter, prefix)`` for a finished task: the ``install.*``
        counter its outcome bumps, and the prefix of the database record
        it adds, or None when it adds none."""
        node = task.node
        if task.action == _plan.EXTERNAL:
            registered = self.session.db.installed(node)
            return "install.external", None if registered else node.external
        if task.action == _plan.REUSE or stats is None:
            # planned reuse, or another session won the prefix lock race
            return "install.reused", None
        if stats.spliced:
            return "install.spliced", node.prefix
        if stats.cache_hit:
            return "install.cached", node.prefix
        return "install.built", node.prefix

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
