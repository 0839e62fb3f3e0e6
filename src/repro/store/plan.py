"""The install planner: a concrete DAG leveled into schedulable tasks.

The paper's build methodology (§3.4) gives every concrete spec its own
hash-addressed prefix, which makes independent sub-DAGs embarrassingly
parallel.  The planner turns a concrete spec into an
:class:`InstallPlan` — one :class:`NodeTask` per DAG node, each
classified (BUILD / REUSE / EXTERNAL), wired to its dependencies by DAG
hash, and driven through an explicit state machine::

    WAITING ──► READY ──► BUILDING ──► INSTALLED
       │           │           │
       │           │           └──────► FAILED
       └───────────┴──────────────────► SKIPPED   (a dependency failed)

The scheduler (:mod:`repro.store.scheduler`) owns the transitions; the
plan enforces their legality, answers "what is ready now?", and
propagates failure to transitive dependents while leaving disjoint
sub-DAGs runnable.  Task indices are the post-order positions of the
old recursive installer, so a single-worker run executes in exactly the
historical order.
"""

from repro.errors import ReproError

# -- states -----------------------------------------------------------------

#: not all dependencies installed yet
WAITING = "WAITING"
#: all dependencies installed; eligible for dispatch
READY = "READY"
#: claimed by a worker; executor running
BUILDING = "BUILDING"
#: terminal: installed (built, reused, or registered external)
INSTALLED = "INSTALLED"
#: terminal: the executor raised
FAILED = "FAILED"
#: terminal: a (transitive) dependency failed; never dispatched
SKIPPED = "SKIPPED"

#: legal transitions of the task state machine
_TRANSITIONS = {
    WAITING: {READY, SKIPPED},
    READY: {BUILDING, SKIPPED},
    BUILDING: {INSTALLED, FAILED},
    INSTALLED: set(),
    FAILED: set(),
    SKIPPED: set(),
}

# -- actions ----------------------------------------------------------------

#: fetch + stage + build into a fresh prefix
BUILD = "build"
#: already in the database: nothing to do (Figure 9's shared sub-DAGs)
REUSE = "reuse"
#: configured external (§4.4's vendor MPI): register, never build
EXTERNAL = "external"
#: in the binary build cache: extract + relocate instead of building
CACHED = "cached"
#: a runtime-hash twin is cached: splice its prefix in instead of building
SPLICED = "spliced"


class PlanError(ReproError):
    """Illegal plan construction or state transition."""


class NodeTask:
    """One DAG node's unit of schedulable work."""

    __slots__ = (
        "node", "key", "action", "index", "level", "state", "deps",
        "dependents", "error", "stats", "donor",
    )

    def __init__(self, node, action, index, donor=None):
        self.node = node
        self.key = node.dag_hash()
        self.action = action
        #: for SPLICED tasks: the cached donor's dag_hash (runtime twin)
        self.donor = donor
        #: post-order position — the old recursive installer's execution
        #: order, used as the deterministic dispatch tie-break
        self.index = index
        #: topological level: 0 for leaves, 1 + max(dep levels) otherwise
        self.level = 0
        self.state = WAITING
        #: DAG hashes of direct dependencies (within this plan)
        self.deps = set()
        #: DAG hashes of direct dependents (within this plan)
        self.dependents = set()
        #: the exception that FAILED this task
        self.error = None
        #: BuildStats when the executor built this node
        self.stats = None

    def to(self, new_state):
        """Transition, enforcing the state machine's legality."""
        if new_state not in _TRANSITIONS[self.state]:
            raise PlanError(
                "Illegal task transition for %s: %s -> %s"
                % (self.node.name, self.state, new_state)
            )
        self.state = new_state
        return self

    def __repr__(self):
        return "NodeTask(%s, %s, %s)" % (self.node.name, self.action, self.state)


class InstallPlan:
    """The tasks of one install request, with dependency bookkeeping."""

    def __init__(self, spec):
        self.spec = spec
        self.tasks = {}
        self._order = []  # keys in post-order (task.index order)

    # -- construction (used by the Planner) --------------------------------
    def _add_task(self, task):
        if task.key in self.tasks:
            return self.tasks[task.key]
        self.tasks[task.key] = task
        self._order.append(task.key)
        return task

    def _wire_edges(self):
        for task in self.tasks.values():
            for dep in task.node.dependencies.values():
                dep_key = dep.dag_hash()
                if dep_key in self.tasks and dep_key != task.key:
                    task.deps.add(dep_key)
                    self.tasks[dep_key].dependents.add(task.key)
        # levels: tasks in post-order see their dependencies first
        for key in self._order:
            task = self.tasks[key]
            if task.deps:
                task.level = 1 + max(self.tasks[d].level for d in task.deps)

    def seed_ready(self):
        """Move every dependency-free WAITING task to READY."""
        for task in self.ordered_tasks():
            if task.state == WAITING and not task.deps:
                task.to(READY)

    # -- queries ------------------------------------------------------------
    def ordered_tasks(self):
        """All tasks in deterministic (post-order) sequence."""
        return [self.tasks[k] for k in self._order]

    def ready_tasks(self):
        """READY tasks, lowest post-order index first."""
        return [t for t in self.ordered_tasks() if t.state == READY]

    def in_state(self, *states):
        return [t for t in self.ordered_tasks() if t.state in states]

    def levels(self):
        """Topological levels: list of task-key lists, leaves first."""
        by_level = {}
        for task in self.ordered_tasks():
            by_level.setdefault(task.level, []).append(task.key)
        return [by_level[lvl] for lvl in sorted(by_level)]

    # -- transitions driven by the scheduler --------------------------------
    def mark_installed(self, key):
        """Complete a task; return dependents that just became READY."""
        self.tasks[key].to(INSTALLED)
        newly_ready = []
        for dep_key in sorted(self.tasks[key].dependents):
            dependent = self.tasks[dep_key]
            if dependent.state != WAITING:
                continue
            if all(self.tasks[d].state == INSTALLED for d in dependent.deps):
                dependent.to(READY)
                newly_ready.append(dependent)
        return sorted(newly_ready, key=lambda t: t.index)

    def mark_failed(self, key, error=None):
        """Fail a task and SKIP every transitive dependent not yet started.

        Disjoint sub-DAGs are untouched: only tasks that (transitively)
        require the failed node become SKIPPED.  Returns the skipped
        tasks in deterministic order.
        """
        task = self.tasks[key]
        task.error = error if error is not None else task.error
        task.to(FAILED)
        skipped = []
        frontier = sorted(task.dependents)
        while frontier:
            dep_key = frontier.pop(0)
            dependent = self.tasks[dep_key]
            if dependent.state in (WAITING, READY):
                dependent.to(SKIPPED)
                skipped.append(dependent)
                frontier.extend(sorted(dependent.dependents))
        return sorted(skipped, key=lambda t: t.index)

    def skip_pending(self):
        """SKIP everything not yet started (the --fail-fast sweep)."""
        skipped = []
        for task in self.ordered_tasks():
            if task.state in (WAITING, READY):
                task.to(SKIPPED)
                skipped.append(task)
        return skipped

    def __len__(self):
        return len(self.tasks)

    def __repr__(self):
        states = {}
        for t in self.tasks.values():
            states[t.state] = states.get(t.state, 0) + 1
        return "InstallPlan(%s: %s)" % (self.spec.name, states)


class Planner:
    """Builds an :class:`InstallPlan` from a concrete spec."""

    def __init__(self, session):
        self.session = session

    def plan(self, spec, use_cache=None, use_splice=None):
        """Level the concrete DAG into tasks with classified actions.

        Classification consults the session state exactly as the old
        recursive walk did: configured externals are registered without
        building; DAG hashes already in the database are reused
        (Figure 9's shared sub-DAGs); hashes published in the binary
        build cache are CACHED (extract + relocate instead of build,
        when the session's pull policy — or the per-call ``use_cache``
        override — allows); nodes that miss on ``dag_hash`` but whose
        *runtime* sub-DAG matches a cached entry are SPLICED — the
        donor's binaries are reused because only build-time tooling
        differs ("Bridging the Gap", PAPERS.md); everything else is
        built.  The plan is made over a private mutable ``copy()`` of
        ``spec`` (concretization results are frozen and shared), and
        each of its nodes' ``prefix`` is resolved here so downstream
        layers (environment assembly, RPATH wiring) see it regardless of
        which worker builds which node.
        """
        if not spec.concrete:
            raise PlanError("Only concrete specs can be planned: %s" % spec)
        session = self.session
        db = session.db
        layout = session.store.layout
        hub = session.telemetry
        cache = session.buildcache
        pull = session.buildcache_pull if use_cache is None else bool(use_cache)
        consult_cache = cache is not None and pull
        splice = (
            session.buildcache_splice if use_splice is None
            else bool(use_splice)
        )

        spec = spec.copy()
        plan = InstallPlan(spec)
        with hub.span("install.plan", spec=str(spec.name)) as span:
            for index, node in enumerate(spec.traverse(order="post")):
                node.prefix = node.external or layout.path_for_spec(node)
                donor = None
                if node.external:
                    action = EXTERNAL
                elif db.installed(node):
                    action = REUSE
                elif consult_cache and cache.has(node.dag_hash()):
                    action = CACHED
                    hub.count("buildcache.hit")
                else:
                    found = (
                        cache.find_splice_donor(node)
                        if consult_cache and splice
                        else None
                    )
                    if found is not None:
                        action = SPLICED
                        donor = found[0]
                        hub.count("buildcache.splice_hit")
                    else:
                        action = BUILD
                    if consult_cache:
                        hub.count("buildcache.miss")
                plan._add_task(NodeTask(node, action, index, donor=donor))
            plan._wire_edges()
            plan.seed_ready()
            span.set(
                tasks=len(plan),
                build=sum(1 for t in plan.tasks.values() if t.action == BUILD),
                reuse=sum(1 for t in plan.tasks.values() if t.action == REUSE),
                external=sum(
                    1 for t in plan.tasks.values() if t.action == EXTERNAL
                ),
                cached=sum(
                    1 for t in plan.tasks.values() if t.action == CACHED
                ),
                spliced=sum(
                    1 for t in plan.tasks.values() if t.action == SPLICED
                ),
                levels=len(plan.levels()),
            )
        return plan
