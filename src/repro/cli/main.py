"""``repro-spack``: the command-line interface.

Mirrors the original tool's commands around this reproduction's Session:

  install, uninstall, find, spec, explain, providers, versions,
  compilers, graph, module, view, activate, deactivate, extensions,
  repo-list

The session root comes from ``--root`` or ``$REPRO_SPACK_ROOT`` (default
``~/.repro-spack``); the first command against a root generates the fake
toolchain, seeds the mock web, and loads the built-in corpus.
"""

import argparse
import os
import sys

from repro.errors import ReproError


#: (hub, sink) pairs attached for this invocation; main() closes them
_ACTIVE_LOG_SINKS = []


def _session(args):
    from repro.session import Session

    root = args.root or os.environ.get(
        "REPRO_SPACK_ROOT", os.path.expanduser("~/.repro-spack")
    )
    session = Session.create(root)
    log_path = getattr(args, "telemetry_log", None)
    if log_path:
        from repro.telemetry import JSONLSink

        try:
            sink = JSONLSink(log_path)
        except OSError as e:
            raise ReproError(
                "Cannot open telemetry log %s: %s" % (log_path, e)
            ) from e
        session.telemetry.add_sink(sink)
        _ACTIVE_LOG_SINKS.append((session.telemetry, sink))
    return session


def _spec_arg(args):
    return " ".join(args.spec)


# -- commands ---------------------------------------------------------------

def cmd_install(args):
    session = _session(args)
    use_cache = getattr(args, "use_cache", None)
    if use_cache and session.buildcache is None:
        # opt-in with no configured cache: enable the default one and
        # publish what we build, so the next install can pull it
        session.enable_buildcache(push=True)
    request = _spec_arg(args)
    concretizer = getattr(args, "concretizer", None)
    if concretizer is not None:
        # pre-concretize with the chosen variant; install() skips
        # concretization for an already-concrete spec
        request = session.concretize(request, concretizer=concretizer)
    spec, result = session.install(
        request,
        jobs=getattr(args, "jobs", None),
        fail_fast=getattr(args, "fail_fast", False),
        use_cache=use_cache,
        use_splice=getattr(args, "use_splice", None),
    )
    print("==> %s" % spec)
    for stats in result.built:
        print(
        "    built  %-20s %8.2fs (model)" % (stats.spec.name, stats.virtual_seconds)
        )
    for stats in result.cached:
        print("    cached %-20s (extracted + relocated)" % stats.spec.name)
    for stats in result.spliced:
        print("    spliced %-19s (runtime-hash twin rebased)" % stats.spec.name)
    for node in result.reused:
        print("    reused %s" % node.name)
    for node in result.externals:
        print("    external %s (%s)" % (node.name, node.external))
    print("==> installed to %s" % session.store.layout.path_for_spec(spec))
    if getattr(args, "timers", False):
        _print_timers(result)
    return 0


def _print_timers(result):
    """The ``install --timers`` per-phase report (data from the same
    measurements persisted in each prefix's timing.json)."""
    if not result.built:
        print("==> timers: nothing was built (everything reused or external)")
        return
    phase_names = ("fetch", "stage", "build", "install")
    print("==> phase timers (wall seconds)")
    print("    %-20s %8s %8s %8s %8s %8s"
          % (("package",) + phase_names + ("total",)))
    totals = dict.fromkeys(phase_names, 0.0)
    aggregate = 0.0
    for stats in result.built:
        row = [stats.phases.get(p, 0.0) for p in phase_names]
        for name, value in zip(phase_names, row):
            totals[name] += value
        aggregate += stats.real_seconds
        print("    %-20s %8.3f %8.3f %8.3f %8.3f %8.3f"
              % ((stats.spec.name,) + tuple(row) + (stats.real_seconds,)))
    print("    %-20s %8.3f %8.3f %8.3f %8.3f"
          % (("(sum)",) + tuple(totals[p] for p in phase_names)))
    # DAG-parallel overlap: wall-clock of the scheduler drive vs. the
    # sum of per-node build times (equal at -j1, smaller at -j N).
    print("==> wall-clock %.3fs with %d job%s (aggregate node time %.3fs)"
          % (result.wall_seconds, result.jobs,
             "s" if result.jobs != 1 else "", aggregate))


def cmd_uninstall(args):
    session = _session(args)
    record = session.uninstall(_spec_arg(args), force=args.force)
    print("==> uninstalled %s" % record.spec)
    return 0


def cmd_find(args):
    session = _session(args)
    query = _spec_arg(args)
    if query.startswith("/"):
        specs = [r.spec for r in session.db.get_by_hash(query[1:])]
    else:
        specs = session.find(query or None)
    if not specs:
        print("==> no installed packages match")
        return 0
    print("==> %d installed packages" % len(specs))
    for spec in specs:
        if getattr(args, "deps", False):
            print("    %s  /%s" % (spec.node_str(), spec.dag_hash(8)))
            for d, node in spec.traverse(depth=True, root=False):
                print("    %s%s" % ("    " * d, node.node_str()))
        else:
            print("    %s  /%s" % (spec, spec.dag_hash(8)))
    return 0


def cmd_location(args):
    session = _session(args)
    query = _spec_arg(args)
    if query.startswith("/"):
        records = session.db.get_by_hash(query[1:])
    else:
        records = session.db.query(query)
    if len(records) != 1:
        print("Error: %d installed specs match %r" % (len(records), query),
              file=sys.stderr)
        return 1
    print(records[0].prefix)
    return 0


def cmd_spec(args):
    session = _session(args)
    from repro.spec.spec import Spec

    abstract = Spec(_spec_arg(args))
    # argparse default is True; --no-concretize-cache stores False
    use_cache = getattr(args, "concretize_cache", True)
    print("Input spec")
    print("------------------------------")
    print(abstract.tree())
    if getattr(args, "trace", False):
        # Stream Figure 6 pipeline stages live through the telemetry hub:
        # the same records a --telemetry-log JSONL capture would carry.
        from repro.telemetry import Sink

        class _TraceSink(Sink):
            PREFIX = "concretize."

            def emit(self, record):
                if record["event"] != "event":
                    return
                name = record["name"]
                if not name.startswith(self.PREFIX):
                    return
                detail = ", ".join(
                    "%s=%s" % kv for kv in sorted(record["attrs"].items())
                )
                print("  [%s] %s" % (name[len(self.PREFIX):], detail))

        print("Trace")
        print("------------------------------")
        sink = session.telemetry.add_sink(_TraceSink())
        try:
            concrete = session.concretize(
                abstract, use_cache=use_cache,
                concretizer=getattr(args, "concretizer", None),
            )
        finally:
            session.telemetry.remove_sink(sink)
    else:
        concrete = session.concretize(
            abstract, use_cache=use_cache,
            concretizer=getattr(args, "concretizer", None),
        )
    print("Concretized")
    print("------------------------------")
    print(concrete.tree())
    return 0


def _when(entry):
    return "  when %s" % entry["when"] if entry["when"] else ""


def cmd_info(args):
    """Format the State's ``package_info`` (what ``spack_info`` serves)."""
    info = _session(args).snapshots.current().package_info(_spec_arg(args))
    print("Package:   %s" % info["name"])
    print("Homepage:  %s" % (info["homepage"] or "(none)"))
    print("URL:       %s" % (info["url"] or "(none)"))
    if info["description"]:
        print("Description:")
        print("    %s" % info["description"])
    print("Safe versions:")
    for v in info["safe_versions"]:
        print("    %s" % v)
    if info["variants"]:
        print("Variants:")
        for vname, variant in info["variants"].items():
            print("    %-12s [default: %s]  %s"
                  % (vname, variant["default"], variant["description"]))
    sections = (("Dependencies:", "dependencies", "spec"),
                ("Provides:", "provides", "spec"),
                ("Compiler requirements:", "compiler_requirements", "feature"))
    for title, key, field in sections:
        if info[key]:
            print(title)
            for entry in info[key]:
                print("    %s%s" % (entry[field], _when(entry)))
    return 0


def cmd_checksum(args):
    session = _session(args)
    import hashlib

    name = _spec_arg(args)
    cls = session.repo.get_class(name)
    pkg = cls(session.spec(name), session=session)
    versions = session.fetcher.available_versions(pkg)
    print("==> found %d versions of %s" % (len(versions), name))
    for v in versions:
        try:
            url = pkg.url_for_version(v)
            content = session.web.get(url)
            digest = hashlib.md5(content).hexdigest()
            print("    version(%r, %r)" % (str(v), digest))
        except Exception as e:
            print("    # %s: %s" % (v, e))
    return 0


def cmd_mirror(args):
    session = _session(args)
    from repro.fetch.mirror import Mirror, create_mirror
    from repro.spec.spec import Spec

    mirror = Mirror(args.dir or os.path.join(session.root, "mirror"))
    if args.create:
        specs = [Spec(s) for s in args.spec] or []
        if not specs:
            print("Error: mirror --create needs at least one spec", file=sys.stderr)
            return 1
        written = create_mirror(session, mirror, specs)
        print("==> mirrored %d archives into %s" % (len(written), mirror.root))
        for name, version in written:
            print("    %s@%s" % (name, version))
        return 0
    contents = mirror.contents()
    print("==> mirror at %s: %d packages" % (mirror.root, len(contents)))
    for name, versions in contents.items():
        print("    %-16s %s" % (name, ", ".join(versions)))
    return 0


def cmd_buildcache(args):
    """``buildcache push|pull|list``: the relocatable binary cache."""
    session = _session(args)
    if args.dir or session.buildcache is None:
        cache = session.enable_buildcache(root=args.dir)
    else:
        cache = session.buildcache

    if args.action == "list":
        entries = cache.entries()
        print("==> build cache at %s: %d entries" % (cache.root, len(entries)))
        for dag_hash, entry in entries:
            root = entry["spec"]["nodes"][0]
            print(
                "    %s@%s /%s  sha256:%s"
                % (root["name"], root["versions"], dag_hash[:8],
                   entry["digest"][:12])
            )
        return 0

    if not args.spec:
        print("Error: buildcache %s needs a spec" % args.action, file=sys.stderr)
        return 1

    if args.action == "push":
        records = session.db.query(_spec_arg(args))
        if not records:
            print("Error: no installed specs match %r" % _spec_arg(args),
                  file=sys.stderr)
            return 1
        pushed = []
        seen = set()
        for record in records:
            for node in record.spec.traverse():
                key = node.dag_hash()
                if node.external or key in seen or not session.db.installed(node):
                    continue
                seen.add(key)
                prefix = session.store.layout.path_for_spec(node)
                cache.push(node, prefix, session.root)
                pushed.append(node.name)
        print("==> pushed %d prefixes to %s" % (len(pushed), cache.root))
        for name in pushed:
            print("    %s" % name)
        return 0

    # pull: install from the cache (misses fall back to source builds)
    spec, result = session.install(_spec_arg(args), use_cache=True)
    print(
        "==> %s: %d from cache, %d built, %d reused, %d external"
        % (spec.name, len(result.cached), len(result.built),
           len(result.reused), len(result.externals))
    )
    return 0


def cmd_lmod(args):
    session = _session(args)
    from repro.modules.lmod import LmodHierarchy

    hierarchy = LmodHierarchy(session)
    written = hierarchy.refresh()
    print("==> regenerated %d Lmod hierarchy files under %s"
          % (len(written), hierarchy.root))
    for rel in hierarchy.tree():
        print("    %s" % rel)
    return 0


def cmd_explain(args):
    from repro.spec.explain import explain

    print(explain(_spec_arg(args)))
    return 0


def cmd_providers(args):
    session = _session(args)
    virtual = _spec_arg(args)
    if not virtual:
        names = session.provider_index.virtual_names()
        print("==> %d virtual interfaces" % len(names))
        for name in names:
            provider_names = session.provider_index.providers_for_name(name)
            print("    %-10s %s" % (name, ", ".join(provider_names)))
        return 0
    providers = session.provider_index.providers_for(virtual)
    print("==> providers of %s" % virtual)
    for provider in providers:
        print("    %s" % provider)
    return 0


def cmd_versions(args):
    session = _session(args)
    name = _spec_arg(args)
    cls = session.repo.get_class(name)
    pkg = cls(session.spec(name), session=session)
    print("==> declared (safe) versions of %s" % name)
    for v in cls.known_versions():
        checksum = cls.versions[v].get("checksum")
        print("    %-12s %s" % (v, checksum or "(no checksum)"))
    remote = session.fetcher.available_versions(pkg)
    if remote:
        print("==> remote versions (scraped)")
        for v in remote:
            print("    %s" % v)
    return 0


def cmd_compilers(args):
    session = _session(args)
    print("==> available compilers")
    for compiler in session.compilers:
        print("    %-16s cc=%s" % (compiler, compiler.cc))
    return 0


def cmd_graph(args):
    session = _session(args)
    concrete = session.concretize(_spec_arg(args))
    deptype = getattr(args, "deptype", None)
    if deptype:
        deptype = tuple(t.strip() for t in deptype.split(",") if t.strip())
    else:
        deptype = None
    if args.dot:
        from repro.spec.graph import graph_dot

        print(graph_dot(concrete, name=concrete.name,
                        show_deptypes=True, deptype=deptype))
    else:
        from repro.spec.graph import graph_ascii

        print(graph_ascii(concrete, show_deptypes=True, deptype=deptype))
    return 0


def cmd_module(args):
    session = _session(args)
    from repro.modules.generator import ModuleGenerator

    generator = ModuleGenerator(session)
    paths = generator.refresh()
    print("==> regenerated %d module files under %s" % (len(paths), generator.module_root))
    return 0


def cmd_view(args):
    session = _session(args)
    from repro.views.view import View, ViewRule

    view = View(session, args.view_root or os.path.join(session.root, "view"))
    if args.link:
        view.add_rule(ViewRule(args.link, match=_spec_arg(args)))
    links = view.refresh()
    print("==> view at %s (%d links)" % (view.root, len(links)))
    for link, spec in sorted(links.items()):
        print("    %s -> %s" % (os.path.relpath(link, view.root), spec))
    return 0


def cmd_activate(args):
    session = _session(args)
    from repro.extensions.manager import ExtensionManager

    extendee = ExtensionManager(session).activate(_spec_arg(args))
    print("==> activated %s in %s" % (_spec_arg(args), extendee))
    return 0


def cmd_deactivate(args):
    session = _session(args)
    from repro.extensions.manager import ExtensionManager

    extendee = ExtensionManager(session).deactivate(_spec_arg(args))
    print("==> deactivated %s from %s" % (_spec_arg(args), extendee))
    return 0


def cmd_extensions(args):
    session = _session(args)
    from repro.extensions.manager import ExtensionManager

    installed, active = ExtensionManager(session).extensions_of(_spec_arg(args))
    print("==> %d installed extensions" % len(installed))
    for spec in installed:
        marker = "*" if spec.name in active else " "
        print("  %s %s" % (marker, spec))
    return 0


def cmd_verify(args):
    session = _session(args)
    from repro.store.verify import verify_store

    issues = verify_store(session)
    if not issues:
        print("==> %d installed specs verified, no issues" % len(session.db))
        return 0
    print("==> %d issues found:" % len(issues))
    for issue in issues:
        print("    %s" % issue)
    return 1


def cmd_reindex(args):
    session = _session(args)
    found = session.db.rebuild_from_prefixes()
    print("==> reindexed %d installed specs from provenance files" % found)
    return 0


def cmd_fetch(args):
    session = _session(args)
    fetched = session.fetch_only(_spec_arg(args))
    print("==> fetched %d archives" % len(fetched))
    for name, version in fetched:
        print("    %s@%s" % (name, version))
    return 0


def cmd_stage(args):
    session = _session(args)
    path = session.stage_only(_spec_arg(args))
    print("==> staged in %s" % path)
    return 0


def cmd_clean(args):
    session = _session(args)
    removed = session.clean_stages()
    print("==> removed %d stages" % len(removed))
    return 0


def cmd_create(args):
    session = _session(args)
    from repro.repo.create import create_package_skeleton

    repo_root = args.repo_dir or os.path.join(session.root, "local-repo")
    url = _spec_arg(args)
    name, path, versions = create_package_skeleton(session, url, repo_root)
    print("==> created package %r with %d versions" % (name, len(versions)))
    print("    %s" % path)
    return 0


def cmd_dependents(args):
    session = _session(args)
    name = _spec_arg(args)
    cls = session.repo.get_class(name)
    provided = {p.spec.name for p in cls.provided}
    declared = []
    for other in session.repo.all_package_names():
        other_cls = session.repo.get_class(other)
        dep_names = set(other_cls.dependencies)
        if name in dep_names or (provided & dep_names):
            declared.append(other)
    print("==> %d packages can depend on %s" % (len(declared), name))
    for other in declared:
        print("    %s" % other)
    installed = session.db.query()
    direct = [
        r.spec for r in installed
        if any(d.name == name for d in r.spec.dependencies.values())
    ]
    if direct:
        print("==> installed dependents:")
        for spec in direct:
            print("    %s" % spec.node_str())
    return 0


def cmd_selftest(args):
    """Run a seeded correctness campaign (oracle sweep + fault sweep).

    Fully deterministic: two runs with the same seed produce identical
    JSONL reports, so a failing campaign is replayable from one integer.
    """
    import shutil
    import tempfile

    from repro.testing.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        seed=args.seed,
        specs=args.specs,
        fault_plans=args.fault_plans,
        cache_specs=getattr(args, "cache_specs", 200),
        splice_cases=getattr(args, "splice_cases", 6),
        solver_cases=getattr(args, "solver_cases", 200),
        env_cases=getattr(args, "env_cases", 25),
    )
    workdir = tempfile.mkdtemp(prefix="repro-selftest-")
    try:
        report = run_campaign(config, workdir, log=lambda m: print("==> %s" % m))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.report:
        report.write(args.report)
        print("==> report written to %s" % args.report)
    summary = report.summary()
    print("==> selftest seed %d" % config.seed)
    print("    oracle: %s" % (summary["oracle_outcomes"] or "skipped"))
    print("    injections: %s" % (summary["injections"] or "skipped"))
    print("    cache: %s" % (summary["cache_outcomes"] or "skipped"))
    print("    splice: %s" % (
        "%d cases, %d divergences" % (summary["splice_cases"],
                                      summary["splice_divergences"])
        if summary["splice_cases"] else "skipped"
    ))
    print("    solver: %s" % (
        "%s, %d rescues, %d divergences" % (
            summary["solver_outcomes"], summary["solver_rescues"],
            summary["solver_divergences"])
        if summary["solver_cases"] else "skipped"
    ))
    print("    env: %s" % (
        "%s, %d divergences" % (summary["env_outcomes"],
                                summary["env_divergences"])
        if summary["env_cases"] else "skipped"
    ))
    for case in report.divergences():
        print("    DIVERGENCE: %s (minimized: %s)"
              % (case["request"], case["minimized"]))
    for case in report.violations():
        print("    VIOLATION: %s: %s"
              % (case["request"], "; ".join(case["violations"])))
    for case in report.unrecovered():
        print("    UNRECOVERED: plan %d (%s)"
              % (case["case"], case["recovery_error"]))
    for case in report.cache_divergences():
        print("    CACHE DIVERGENCE: %s (%s)"
              % (case["request"], case["variant"]))
    for case in report.splice_divergences():
        print("    SPLICE DIVERGENCE: case %d (%s)"
              % (case["case"],
                 "; ".join(case.get("divergence") or []) or case["error"]))
    for case in report.solver_divergences():
        print("    SOLVER DIVERGENCE: %s (%s)"
              % (case["request"], case["kind"]))
    for case in report.env_divergences():
        print("    ENV DIVERGENCE: case %d (%s)"
              % (case["case"], "; ".join(case.get("issues") or [])))
    if report.ok:
        fault_note = (
            "all fault points reached, all stores healed"
            if config.fault_plans else "fault sweep skipped"
        )
        print("==> OK: no divergences, no violations, " + fault_note)
        return 0
    print("==> FAILED (replay with: repro-spack selftest --seed %d)"
          % config.seed, file=sys.stderr)
    return 1


def cmd_diag(args):
    """``diag trace|critical-path|metrics|compare``: the performance
    observatory over captured telemetry (``--telemetry-log`` JSONL files
    and ``repro-bench/v1`` result files)."""
    from repro.telemetry.analysis import TraceAnalysis

    if args.action == "compare":
        from repro.telemetry.compare import (
            compare_reports, format_comparison, load_report,
        )

        if len(args.files) != 2:
            print("Error: diag compare needs exactly two result files "
                  "(baseline, current)", file=sys.stderr)
            return 1
        report = compare_reports(
            load_report(args.files[0]),
            load_report(args.files[1]),
            tolerance=args.tolerance,
        )
        print(format_comparison(report, verbose=args.verbose), end="")
        return 0 if report["ok"] else 1

    if len(args.files) != 1:
        print("Error: diag %s needs exactly one telemetry JSONL file"
              % args.action, file=sys.stderr)
        return 1
    analysis = TraceAnalysis.from_jsonl(args.files[0])

    if args.action == "trace":
        traces = analysis.traces()
        print("==> %d records, %d spans, %d traces, %d orphans"
              % (len(analysis.records), len(analysis.spans), len(traces),
                 len(analysis.orphans)))
        path = analysis.render_tree(
            sys.stdout, min_duration_s=args.min_ms / 1000.0
        )
        if path:
            print("==> critical path (*): %d spans, %.3fs"
                  % (len(path), analysis.critical_path_seconds(path=path)))
        return 0

    if args.action == "critical-path":
        path = analysis.critical_path()
        if not path:
            print("==> no finished root span in the log")
            return 1
        print("==> critical path of %s (%.3fs wall)"
              % (path[0].label(), path[0].duration_s))
        print("    %-44s %12s" % ("span", "self (ms)"))
        on_path = {s.span_id for s in path}
        for span in path:
            covered = sum(
                c.duration_s for c in span.children
                if c.span_id in on_path and c.duration_s is not None
            )
            self_ms = max(0.0, (span.duration_s or 0.0) - covered) * 1000.0
            print("    %-44s %12.1f" % (span.label(), self_ms))
        print("==> critical-path time: %.3fs"
              % analysis.critical_path_seconds(path=path))
        return 0

    # metrics: aggregate view (plus optional Prometheus rendering)
    snapshot = analysis.summary or {"counters": {}, "gauges": {},
                                    "histograms": {}}
    if args.prometheus:
        from repro.telemetry.metrics import prometheus_text

        print(prometheus_text(snapshot), end="")
        return 0
    print("==> counters")
    for name in sorted(snapshot.get("counters", {})):
        print("    %-40s %d" % (name, snapshot["counters"][name]))
    print("==> histograms (seconds)")
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        print("    %-40s n=%-5d mean=%.4f p50=%s p95=%s p99=%s"
              % (name, h.get("count", 0), h.get("mean", 0.0),
                 _ms(h.get("p50")), _ms(h.get("p95")), _ms(h.get("p99"))))
    rollup = analysis.self_time_rollup()
    if rollup:
        print("==> self-time rollup (seconds)")
        print("    %-40s %6s %10s %10s" % ("span", "count", "total", "self"))
        ordering = sorted(rollup.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in ordering:
            print("    %-40s %6d %10.4f %10.4f"
                  % (name, row["count"], row["total_s"], row["self_s"]))
    conc = analysis.concurrency()
    if conc["spans"]:
        print("==> concurrency: max=%d avg=%.2f utilization=%.0f%% "
              "(%d node spans over %.3fs)"
              % (conc["max_concurrency"], conc["avg_concurrency"],
                 conc["utilization"] * 100.0, conc["spans"],
                 conc["window_seconds"]))
    caches = analysis.cache_effectiveness()
    bc, cc = caches["buildcache"], caches["concretize_cache"]
    if bc["hits"] or bc["misses"] or bc["nodes_from_cache"]:
        saved = ("%.3fs saved" % bc["time_saved_s"]
                 if bc["time_saved_s"] is not None else "n/a saved")
        ratio = ("%.0f%%" % (bc["hit_ratio"] * 100.0)
                 if bc["hit_ratio"] is not None else "n/a")
        print("==> buildcache: %d hits / %d misses (%s), %s"
              % (bc["hits"], bc["misses"], ratio, saved))
    if cc["hits"] or cc["misses"]:
        saved = ("~%.3fs saved" % cc["time_saved_s"]
                 if cc["time_saved_s"] is not None else "n/a saved")
        ratio = ("%.0f%%" % (cc["hit_ratio"] * 100.0)
                 if cc["hit_ratio"] is not None else "n/a")
        print("==> concretize cache: %d hits / %d misses (%s), %s"
              % (cc["hits"], cc["misses"], ratio, saved))
    return 0


def _ms(value):
    return "%.4f" % value if value is not None else "-"


def cmd_serve(args):
    """Run the resident service daemon (docs/service.md)."""
    from repro.service import (
        ENDPOINTS,
        ServiceDaemon,
        SocketTransport,
        StdioTransport,
    )

    session = _session(args)
    daemon = ServiceDaemon(session, workers=args.workers)
    if args.stdio:
        # stdio mode: keep stdout clean for the JSON-lines protocol
        print("==> repro-spack service on stdio (%d workers)"
              % daemon.workers, file=sys.stderr)
        StdioTransport(daemon).serve_until_shutdown()
        return 0
    server = SocketTransport(daemon, host=args.host, port=args.port)
    host, port = server.address
    print("==> repro-spack service listening on %s:%d (%d workers)"
          % (host, port, daemon.workers))
    print("==> endpoints: %s" % ", ".join(ENDPOINTS))
    try:
        server.serve_until_shutdown()
    except KeyboardInterrupt:
        server.server_close()
        daemon.close()
    print("==> service stopped after %d requests" % daemon._served)
    return 0


def cmd_client(args):
    """One request against a running service daemon."""
    import json as _json

    from repro.service import ServiceClient

    argument = " ".join(args.spec)
    endpoint = args.endpoint
    params = {}
    if endpoint in ("spack_spec", "spack_install"):
        params["spec"] = argument
        if getattr(args, "concretizer", None):
            params["concretizer"] = args.concretizer
    elif endpoint == "spack_info":
        params["package"] = argument
    elif endpoint == "spack_env":
        params["roots"] = list(args.spec)
        if getattr(args, "concretizer", None):
            params["concretizer"] = args.concretizer
    elif endpoint in ("spack_list", "spack_find") and argument:
        params["query"] = argument
    with ServiceClient(args.host, args.port) as client:
        result = client.call(endpoint, **params)
    print(_json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_env(args):
    """``env list|add|remove|concretize|status|install``: many abstract
    roots managed — and concretized — as one unit (docs/environments.md)."""
    session = _session(args)
    if args.action == "list":
        names = session.environment_names()
        print("==> %d environment%s" % (len(names), "s" if len(names) != 1 else ""))
        for name in names:
            env = session.environment(name)
            print("    %-20s %d root%s, lock %s"
                  % (name, len(env.roots),
                     "s" if len(env.roots) != 1 else "",
                     env.lock_state(session)))
        return 0
    if not args.name:
        print("Error: env %s needs an environment name" % args.action,
              file=sys.stderr)
        return 1
    env = session.environment(args.name)

    if args.action in ("add", "remove"):
        if not args.specs:
            print("Error: env %s needs at least one spec" % args.action,
                  file=sys.stderr)
            return 1
        for text in args.specs:
            if args.action == "add":
                changed = env.add(text)
                print("==> %s %s" % ("added" if changed else "already present", text))
            else:
                changed = env.remove(text)
                print("==> %s %s" % ("removed" if changed else "not found", text))
        print("==> %s: %d root%s" % (env.name, len(env.roots),
                                     "s" if len(env.roots) != 1 else ""))
        return 0

    if args.action == "status":
        report = env.status(session)
        print("==> environment %s (%s)" % (report["name"], report["path"]))
        print("    lock: %s" % report["lock"])
        for root in report["roots"]:
            h = report.get("root_hashes", {}).get(root)
            print("    root %s%s" % (root, "  [%s]" % h[:8] if h else ""))
        if "unique_nodes" in report:
            print("    unified: %d unique node%s, %d installed"
                  % (report["unique_nodes"],
                     "s" if report["unique_nodes"] != 1 else "",
                     report["installed"]))
        return 0

    if args.action == "concretize":
        unified = env.concretize(
            session, jobs=args.jobs, concretizer=args.concretizer,
            force=args.force,
        )
        stats = unified.stats()
        warm = stats["resolves"] == 0
        print("==> %s: %d root%s unified%s"
              % (env.name, stats["roots"],
                 "s" if stats["roots"] != 1 else "",
                 " (restored from lock)" if warm else
                 " in %d round%s (%d solves, %d pin%s)"
                 % (stats["rounds"], "s" if stats["rounds"] != 1 else "",
                    stats["resolves"], stats["pins"],
                    "s" if stats["pins"] != 1 else "")))
        print("==> %d unique nodes, %d shared across roots"
              % (stats["unique_nodes"], stats["shared_packages"]))
        for text, concrete in unified.roots:
            print("    %s  %s" % (concrete.dag_hash()[:8], text))
        for package, pin in sorted(unified.pins.items()):
            print("    pinned %s -> %s" % (package, pin))
        return 0

    if args.action == "install":
        unified, results = env.install(session, jobs=args.jobs)
        print("==> %s: installed %d root%s (%d unique nodes)"
              % (env.name, len(results),
                 "s" if len(results) != 1 else "",
                 len(unified.nodes())))
        for text, concrete, result in results:
            built = len(result.built)
            print("    %s  %s (%d built, %d reused)"
                  % (concrete.dag_hash()[:8], text, built,
                     len(result.reused)))
        return 0

    print("Error: unknown env action %r" % args.action, file=sys.stderr)
    return 1


def cmd_repo_list(args):
    """Format the State's ``list_packages`` (what ``spack_list`` serves)."""
    names = _session(args).snapshots.current().list_packages(_spec_arg(args))
    print("==> %d packages" % len(names))
    for name in names:
        print("    %s" % name)
    return 0


# -- wiring ------------------------------------------------------------------

def _add_spec_argument(parser):
    parser.add_argument("spec", nargs="*", help="spec expression")


def build_parser():
    from repro.core import CONCRETIZERS

    parser = argparse.ArgumentParser(
        prog="repro-spack",
        description="Reproduction of the Spack package manager (SC '15)",
    )
    parser.add_argument("--root", help="session root directory")
    parser.add_argument(
        "--telemetry-log",
        metavar="FILE",
        help="append every telemetry record (spans, events) to FILE as JSONL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "install": (cmd_install, "concretize and install a spec"),
        "uninstall": (cmd_uninstall, "remove an installed spec"),
        "find": (cmd_find, "list installed specs matching a query"),
        "spec": (cmd_spec, "show the concretized DAG for a spec"),
        "explain": (cmd_explain, "English meaning of a spec (Table 2)"),
        "providers": (cmd_providers, "list providers of a virtual"),
        "versions": (cmd_versions, "declared + scraped versions"),
        "compilers": (cmd_compilers, "list available compilers"),
        "graph": (cmd_graph, "print the dependency DAG"),
        "module": (cmd_module, "regenerate module files"),
        "view": (cmd_view, "refresh a filesystem view"),
        "activate": (cmd_activate, "activate an extension"),
        "deactivate": (cmd_deactivate, "deactivate an extension"),
        "extensions": (cmd_extensions, "list extensions of a package"),
        "repo-list": (cmd_repo_list, "list all known packages"),
        "info": (cmd_info, "show package metadata"),
        "checksum": (cmd_checksum, "scrape versions and compute checksums"),
        "lmod": (cmd_lmod, "regenerate the Lmod hierarchy"),
        "location": (cmd_location, "print the install prefix of a spec"),
        "mirror": (cmd_mirror, "create or list a local source mirror"),
        "buildcache": (cmd_buildcache,
                       "push, pull, or list relocatable binary packages"),
        "verify": (cmd_verify, "check installed specs against provenance"),
        "reindex": (cmd_reindex, "rebuild the database from provenance files"),
        "fetch": (cmd_fetch, "download archives without installing"),
        "stage": (cmd_stage, "fetch, expand, and patch a package's source"),
        "clean": (cmd_clean, "remove build stages"),
        "create": (cmd_create, "generate package boilerplate from a URL"),
        "dependents": (cmd_dependents, "list packages that depend on one"),
        "selftest": (cmd_selftest, "run a seeded correctness campaign"),
        "diag": (cmd_diag,
                 "analyze telemetry traces and compare benchmark results"),
        "serve": (cmd_serve,
                  "run the resident concretize/install/query daemon"),
        "client": (cmd_client, "send one request to a running daemon"),
        "env": (cmd_env,
                "manage environments: many roots concretized together"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "buildcache":
            p.add_argument(
                "action", choices=("push", "pull", "list"),
                help="publish installed prefixes, install from the cache, "
                     "or show the index",
            )
        if name == "diag":
            p.add_argument(
                "action",
                choices=("trace", "critical-path", "metrics", "compare"),
                help="render a span tree, show its critical path, dump "
                     "aggregate metrics, or diff two benchmark results",
            )
            p.add_argument(
                "files", nargs="*",
                help="one --telemetry-log JSONL capture (trace/"
                     "critical-path/metrics) or two result files (compare)",
            )
            p.add_argument(
                "--min-ms", type=float, default=0.0, metavar="MS",
                help="trace: hide finished spans shorter than MS",
            )
            p.add_argument(
                "--prometheus", action="store_true",
                help="metrics: render in Prometheus text exposition format",
            )
            p.add_argument(
                "--tolerance", type=float, default=0.20, metavar="FRAC",
                help="compare: relative regression tolerance (default 0.20)",
            )
            p.add_argument(
                "-v", "--verbose", action="store_true",
                help="compare: also list metrics within tolerance",
            )
            p.set_defaults(func=func)
            continue
        if name == "serve":
            p.add_argument(
                "--host", default="127.0.0.1",
                help="interface to bind (default 127.0.0.1)",
            )
            p.add_argument(
                "--port", type=int, default=0, metavar="N",
                help="TCP port for the JSON-lines protocol "
                     "(default 0: pick an ephemeral port and print it)",
            )
            p.add_argument(
                "--stdio", action="store_true",
                help="serve the JSON-lines protocol on stdin/stdout "
                     "instead of a socket (MCP-style tool hosts)",
            )
            p.add_argument(
                "--workers", type=int, default=4, metavar="N",
                help="most requests served at once (default 4)",
            )
            p.set_defaults(func=func)
            continue
        if name == "env":
            p.add_argument(
                "action",
                choices=("list", "add", "remove", "concretize", "status",
                         "install"),
                help="list environments, edit a root set, concretize all "
                     "roots together, report lock/install state, or "
                     "install the unified set",
            )
            p.add_argument(
                "name", nargs="?",
                help="environment name (everything except `list`)",
            )
            p.add_argument(
                "specs", nargs="*",
                help="abstract root specs (add/remove)",
            )
            p.add_argument(
                "-j", "--jobs", type=int, default=None, metavar="N",
                help="parallel install width (install); accepted and "
                     "without effect for concretize: roots solve in order",
            )
            p.add_argument(
                "--concretizer", choices=tuple(CONCRETIZERS), default=None,
                help="concretizer variant for every root "
                     "(default: the session's `concretizer:` config key)",
            )
            p.add_argument(
                "--force", action="store_true",
                help="concretize: ignore a fresh lockfile and re-unify",
            )
            p.set_defaults(func=func)
            continue
        if name == "client":
            p.add_argument(
                "endpoint",
                choices=("spack_list", "spack_info", "spack_spec",
                         "spack_install", "spack_find", "spack_env",
                         "status", "shutdown"),
                help="service endpoint to call",
            )
            p.add_argument(
                "spec", nargs="*",
                help="endpoint argument: a spec (spack_spec/spack_install), "
                     "root specs, one per argument (spack_env), "
                     "a package name (spack_info), or a query "
                     "(spack_list/spack_find)",
            )
            p.add_argument("--host", default="127.0.0.1",
                           help="daemon host (default 127.0.0.1)")
            p.add_argument("--port", type=int, required=True, metavar="N",
                           help="daemon port (printed by `serve`)")
            p.add_argument(
                "--concretizer", choices=tuple(CONCRETIZERS), default=None,
                help="concretizer variant for spack_spec/spack_install",
            )
            p.set_defaults(func=func)
            continue
        _add_spec_argument(p)
        p.set_defaults(func=func)
        if name == "install":
            p.add_argument(
                "--timers", action="store_true",
                help="print per-phase (fetch/stage/build/install) wall times",
            )
            p.add_argument(
                "-j", "--jobs", type=int, default=None, metavar="N",
                help="build up to N independent DAG nodes in parallel "
                     "(default: $REPRO_INSTALL_JOBS or 1)",
            )
            p.add_argument(
                "--fail-fast", action="store_true",
                help="stop dispatching new builds after the first failure "
                     "instead of finishing disjoint sub-DAGs",
            )
            cache_group = p.add_mutually_exclusive_group()
            cache_group.add_argument(
                "--use-cache", dest="use_cache", action="store_true",
                default=None,
                help="install cache hits by extracting + relocating binary "
                     "packages (enables the default cache if none is "
                     "configured)",
            )
            cache_group.add_argument(
                "--no-cache", dest="use_cache", action="store_false",
                help="build everything from source even when a build cache "
                     "is configured",
            )
            p.add_argument(
                "--no-splice", dest="use_splice", action="store_false",
                default=None,
                help="never satisfy a cache miss by splicing a runtime-hash "
                     "twin's binaries; exact dag-hash entries only",
            )
            p.add_argument(
                "--concretizer", choices=tuple(CONCRETIZERS), default=None,
                help="concretizer variant for the install's concretization "
                     "(default: the session's `concretizer:` config key)",
            )
        if name == "buildcache":
            p.add_argument(
                "--dir",
                help="build cache directory "
                     "(default: the configured cache, or <root>/cache/buildcache)",
            )
        if name == "uninstall":
            p.add_argument("--force", action="store_true", help="ignore dependents")
        if name == "find":
            p.add_argument("-d", "--deps", action="store_true",
                           help="show dependency trees")
        if name == "graph":
            p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
            p.add_argument(
                "--deptype", metavar="TYPES",
                help="only draw edges of these comma-separated types "
                     "(build,link,run) — e.g. --deptype link,run for the "
                     "runtime closure",
            )
        if name == "view":
            p.add_argument("--view-root", help="directory for the view")
            p.add_argument("--link", help="projection template for matched specs")
        if name == "spec":
            p.add_argument(
                "--concretizer", choices=tuple(CONCRETIZERS), default=None,
                help="concretizer variant: the paper's greedy pass or the "
                     "optimizing full-choice-space solver (default: the "
                     "session's `concretizer:` config key)",
            )
            p.add_argument(
                "--trace", action="store_true",
                help="show the Figure 6 pipeline stages while concretizing",
            )
            p.add_argument(
                "--no-concretize-cache", dest="concretize_cache",
                action="store_false",
                help="bypass the persistent concretization cache and "
                     "concretize from scratch",
            )
        if name == "mirror":
            p.add_argument("--create", action="store_true",
                           help="download archives for the given specs")
            p.add_argument("--dir", help="mirror directory (default <root>/mirror)")
        if name == "create":
            p.add_argument("--repo-dir", help="repository directory to write into")
        if name == "selftest":
            p.add_argument(
                "--seed", type=int, default=None,
                help="campaign master seed (default: $REPRO_TEST_SEED or the "
                     "built-in constant); same seed, same report",
            )
            p.add_argument(
                "--specs", type=int, default=200, metavar="N",
                help="generated requests for the differential oracle sweep",
            )
            p.add_argument(
                "--fault-plans", type=int, default=50, metavar="M",
                help="seeded fault plans for the install fault sweep",
            )
            p.add_argument(
                "--cache-specs", type=int, default=200, metavar="K",
                help="generated requests for the concretization-cache "
                     "equivalence sweep",
            )
            p.add_argument(
                "--splice-cases", type=int, default=6, metavar="S",
                help="spliced-vs-built store comparisons for the "
                     "splice-equivalence sweep",
            )
            p.add_argument(
                "--solver-cases", type=int, default=200, metavar="C",
                help="generated requests for the greedy-vs-solver "
                     "oracle sweep over a conflict-rich universe",
            )
            p.add_argument(
                "--env-cases", type=int, default=25, metavar="E",
                help="environment root-set unifications over a prefixed "
                     "hub-biased universe (coherence + pool-width "
                     "determinism)",
            )
            p.add_argument(
                "--report", metavar="FILE",
                help="write the campaign report to FILE as JSONL",
            )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as e:
        print("Error: %s" % e, file=sys.stderr)
        return 1
    finally:
        # Cap each --telemetry-log stream with the aggregate summary.
        while _ACTIVE_LOG_SINKS:
            hub, sink = _ACTIVE_LOG_SINKS.pop()
            hub.emit_summary()
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
