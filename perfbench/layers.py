"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is a public function of the program, named
``<layer>.<boundary>``.  :func:`install` wraps all of them on one
:class:`~tracer.Tracer`; :func:`per_layer_metrics` turns the written
trace into ``<layer>.<boundary>.<stat>`` values.  ``BENCHMARK.json``
lists exactly :func:`metric_specs`.
"""

import importlib

from repro.telemetry.analysis import TraceAnalysis

#: names whose appearance below a concretize call means it was not
#: served from the in-process memo
_COLD_OR_DISK = frozenset(("core.cache.lookup", "core.greedy", "core.solver"))


def _memo_hit(frame, args, result, error):
    frame.attrs["hit"] = int(error is None and not (frame.children & _COLD_OR_DISK))


def _providers_pre(frame, args):
    frame.attrs["_hits"] = args[0].memo_hits


def _providers_post(frame, args, result, error):
    frame.attrs["hit"] = int(args[0].memo_hits > frame.attrs.pop("_hits"))


def _lookup_post(frame, args, result, error):
    frame.attrs["hit"] = int(result is not None)


def _solver_post(frame, args, result, error):
    from repro.core.solver import SolverLimitError

    frame.attrs["attempts"] = args[0].last_attempts
    frame.attrs["limit"] = int(isinstance(error, SolverLimitError))


def _unify_post(frame, args, result, error):
    if result is not None:
        frame.attrs["rounds"] = result.rounds
        frame.attrs["pins"] = len(result.pins)


def _env_post(frame, args, result, error):
    if result is not None:
        frame.attrs["warm"] = int(result.resolves == 0)


def _forks_post(frame, args, result, error):
    frame.attrs["forks"] = args[0].forks


def _coalesced_post(frame, args, result, error):
    frame.attrs["coalesced"] = args[0].coalesced


#: (metric prefix, module, class or None for a module function,
#:  attribute, kind, pre hook, post hook, stats beyond calls/self_ms)
BOUNDARIES = (
    ("spec.parse", "repro.spec.parser", None, "parse_specs", "span", None, None, ()),
    ("spec.copy", "repro.spec.spec", "Spec", "copy", "span", None, None, ()),
    ("spec.satisfies", "repro.spec.spec", "Spec", "satisfies", "agg", None, None, ()),
    ("spec.constrain", "repro.spec.spec", "Spec", "constrain", "agg", None, None, ()),
    ("spec.dag_hash", "repro.spec.spec", "Spec", "dag_hash", "span", None, None, ()),
    ("spec.from_dict", "repro.spec.spec", "Spec", "from_dict", "span", None, None, ()),
    ("spec.to_dict", "repro.spec.spec", "Spec", "to_dict", "span", None, None, ()),
    ("version.intersection", "repro.version.version", "VersionList",
     "intersection", "agg", None, None, ()),
    ("repo.provider_index", "repro.repo.providers", "ProviderIndex",
     "from_repo", "span", None, None, ()),
    ("repo.providers_for", "repro.repo.providers", "ProviderIndex",
     "providers_for", "span", _providers_pre, _providers_post, ("hit_pct",)),
    ("session.concretize", "repro.session", "Session", "concretize", "span",
     None, _memo_hit, ("hit_pct",)),
    ("core.greedy", "repro.core.concretizer", "Concretizer", "concretize",
     "span", None, None, ("failed",)),
    ("core.solver", "repro.core.solver", "SolverConcretizer", "concretize",
     "span", None, _solver_post, ("failed", "attempts", "limit")),
    ("core.cache.lookup", "repro.core.conc_cache", "ConcretizationCache",
     "lookup", "span", None, _lookup_post, ("hit_pct",)),
    ("core.cache.store", "repro.core.conc_cache", "ConcretizationCache",
     "store", "span", None, None, ()),
    ("core.env_digest", "repro.core.conc_cache", "EnvironmentDigest",
     "current", "span", None, None, ()),
    # Environment.concretize resolves unify_roots in its own module; the
    # daemon and anonymous environments import it from repro.env.unify
    ("env.unify", "repro.env.environment", None, "unify_roots", "span",
     None, _unify_post, ("rounds", "pins")),
    ("env.unify", "repro.env.unify", None, "unify_roots", "span",
     None, _unify_post, ("rounds", "pins")),
    ("env.concretize", "repro.env.environment", "Environment", "concretize",
     "span", None, _env_post, ("warm",)),
    ("fetch.fetch", "repro.fetch.fetcher", "Fetcher", "fetch", "span", None, None, ()),
    ("fetch.expand", "repro.fetch.stage", "Stage", "expand_tarball", "span",
     None, None, ()),
    ("build.compile", "repro.build.fakecc", None, "run", "span", None, None, ()),
    ("modules.write", "repro.modules.generator", "ModuleGenerator",
     "write_for_spec", "span", None, None, ()),
    ("session.install", "repro.session", "Session", "install", "span", None, None, ()),
    ("store.plan", "repro.store.plan", "Planner", "plan", "span", None, None, ()),
    ("store.schedule", "repro.store.scheduler", "Scheduler", "run", "span",
     None, None, ()),
    ("store.execute", "repro.store.executor", "BuildExecutor", "execute",
     "span", None, None, ()),
    ("store.execute_cached", "repro.store.executor", "BuildExecutor",
     "execute_cached", "span", None, None, ()),
    ("store.execute_spliced", "repro.store.executor", "BuildExecutor",
     "execute_spliced", "span", None, None, ()),
    ("store.buildcache.push", "repro.store.buildcache", "BuildCache", "push",
     "span", None, None, ()),
    ("store.buildcache.fetch", "repro.store.buildcache", "BuildCache",
     "fetch_tarball", "span", None, None, ()),
    ("store.buildcache.extract", "repro.store.buildcache", "BuildCache",
     "extract", "span", None, None, ()),
    ("store.buildcache.splice_donor", "repro.store.buildcache", "BuildCache",
     "find_splice_donor", "span", None, None, ()),
    ("store.db.transaction", "repro.store.database", "Database", "transaction",
     "context", None, None, ("wait_ms",)),
    ("store.db.query", "repro.store.database", "Database", "query", "span",
     None, None, ()),
    ("service.handle_line", "repro.service.transport", None, "handle_line",
     "span", None, None, ()),
    ("service.call", "repro.service.daemon", "ServiceDaemon", "call", "span",
     None, _coalesced_post, ("wait_ms",)),
    ("service.snapshot.current", "repro.service.snapshot", "SnapshotManager",
     "current", "span", None, _forks_post, ("forks",)),
    ("service.snapshot.concretize", "repro.service.snapshot", "StateSnapshot",
     "concretize", "span", None, _memo_hit, ("hit_pct",)),
)

#: boundaries timed in aggregate (their rollup rows count synthetic spans)
_AGGREGATES = frozenset(b[0] for b in BOUNDARIES if b[4] == "agg")

#: units per stat
UNITS = {
    "calls": "count", "self_ms": "ms", "wait_ms": "ms", "failed": "count",
    "hit_pct": "%", "attempts": "count", "limit": "count", "rounds": "count",
    "pins": "count", "warm": "count", "forks": "count",
}

#: metrics outside the boundary table: (name, unit)
EXTRA_METRICS = (
    ("version.intern.hit_pct", "%"),
    ("service.coalesced", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
)


def metric_specs():
    """[(name, unit)] of every per-layer metric, in a stable order."""
    out = []
    seen = set()
    for prefix, _, _, _, _, _, _, stats in BOUNDARIES:
        if prefix in seen:
            continue
        seen.add(prefix)
        for stat in ("calls", "self_ms") + tuple(stats):
            out.append(("%s.%s" % (prefix, stat), UNITS[stat]))
    out.extend(EXTRA_METRICS)
    return out


def _resolve(module_name, class_name):
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(tracer):
    """Wrap every boundary on ``tracer`` and switch it on."""
    tracer.install_plumbing()
    for prefix, module, cls, attr, kind, pre, post, _ in BOUNDARIES:
        owner = _resolve(module, cls)
        stored = owner.__dict__[attr]
        if isinstance(stored, (classmethod, staticmethod)):
            inner = tracer.wrap("span", prefix, stored.__func__, pre, post)
            replacement = type(stored)(inner)
        elif kind == "context":
            replacement = tracer.wrap_context_manager(prefix, stored)
        else:
            replacement = tracer.wrap(kind, prefix, stored, pre, post)
        tracer.patch(owner, attr, replacement)
    tracer.active = True


def intern_stats():
    """Summed hits/misses of the version intern pools (their public
    ``stats()``)."""
    from repro.version import version

    hits = misses = 0
    for pool in (version._VERSION_POOL, version._LIST_PARSE_POOL,
                 version._RANGE_POOL):
        stats = pool.stats()
        hits += stats["hits"]
        misses += stats["misses"]
    return {"hits": hits, "misses": misses}


def _pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def per_layer_metrics(trace, ops, op_wall_s, overhead_pct):
    """Per-layer metric values from one written trace document.

    The trace covers operations ``1..ops``, whose summed wall time is
    ``op_wall_s``; ``overhead_pct`` compares the traced and untraced
    replays of those operations.
    """
    analysis = TraceAnalysis(trace["records"])
    rollup = analysis.self_time_rollup()
    stats = {}
    for node in analysis.spans.values():
        if node.attrs.get("aggregate"):
            continue
        row = stats.setdefault(node.name, {})
        row["failed"] = row.get("failed", 0) + (1 if node.error else 0)
        for key in ("hit", "attempts", "limit", "rounds", "pins", "warm"):
            if key in node.attrs:
                row[key] = row.get(key, 0) + node.attrs[key]
        for key in ("forks", "coalesced"):
            if key in node.attrs:
                row[key] = max(row.get(key, 0), node.attrs[key])
        row["wait_s"] = row.get("wait_s", 0.0) + node.attrs.get("wait_s", 0.0)

    values = {}
    for name, _ in metric_specs():
        prefix, stat = name.rsplit(".", 1)
        if prefix in _AGGREGATES:
            calls = trace["agg_calls"].get(prefix, 0)
        else:
            calls = rollup.get(prefix, {}).get("count", 0)
        self_s = rollup.get(prefix, {}).get("self_s", 0.0)
        row = stats.get(prefix, {})
        if stat == "calls":
            values[name] = calls
        elif stat == "self_ms":
            values[name] = self_s * 1000.0
        elif stat == "wait_ms":
            values[name] = row.get("wait_s", 0.0) * 1000.0
        elif stat == "hit_pct":
            values[name] = _pct(row.get("hit", 0), calls)
        elif stat in ("failed", "attempts", "limit", "rounds", "pins", "warm",
                      "forks"):
            values[name] = row.get(stat, 0)

    intern = trace["extra"]["intern"]
    values["version.intern.hit_pct"] = _pct(
        intern["hits"], intern["hits"] + intern["misses"]
    )
    values["service.coalesced"] = stats.get("service.call", {}).get("coalesced", 0)
    values["trace.overhead_pct"] = overhead_pct

    # 1 - (time covered by the operations' outermost spans) / (their
    # wall time).  With no overlapping children this equals 1 - summed
    # self time / wall; summing self time would count -j2 workers twice.
    covered = sum(
        node.duration_s for node in analysis.spans.values()
        if node.trace_id is not None and node.trace_id <= ops and node.finished
        and (node.parent_id is None or node.parent_id not in analysis.spans)
    )
    values["trace.unattributed_pct"] = (
        100.0 * (1.0 - covered / op_wall_s) if op_wall_s else 0.0
    )
    return values
