"""The build executor: one node's fetch → stage → build → provenance,
or one cached prefix's extract → relocate → (splice →) verify.

This is the execution layer of the planner/scheduler/executor stack,
self-contained and safe to run from any scheduler worker:

* all per-build state (stage, log, clock, phase timers) is local to the
  call; the ambient pieces (:func:`~repro.build.context.build_context`,
  the virtual working directory) are thread-private;
* a **per-prefix lock** (an ``fcntl`` lock file under the database
  directory) serializes builds of the same DAG hash across workers *and*
  across sessions sharing one store — after acquiring it the executor
  re-checks the database, so a build another session just finished is
  reused instead of re-built;
* stages are tagged with the spec's DAG hash, so same-name-same-version
  specs concretized differently never share a build tree.

A failing build tears down its partial prefix before the error
propagates: the scheduler registers a node in the database only after
the executor returns, so a crash mid-build can never leave a partial
prefix registered.
"""

import contextlib
import inspect
import json
import os
import shutil
import threading
import time
import weakref

from repro.build.context import BuildContext, build_context
from repro.build.environment import build_environment, dependency_prefixes
from repro.build.wrappers import write_wrappers
from repro.errors import ReproError
from repro.fetch.stage import Stage
from repro.simfs import VirtualClock
from repro.store.layout import METADATA_DIR
from repro.util.filesystem import mkdirp
from repro.util.lock import Lock

#: ``inspect.getsource`` is not thread-safe: it mutates the global
#: ``linecache`` and drives ``ast.parse``, whose C-level recursion
#: accounting races under concurrent ``compile`` on CPython 3.11
#: ("AST constructor recursion depth mismatch").  Provenance writes
#: from parallel workers serialize their source lookups here.
_GETSOURCE_LOCK = threading.Lock()

#: package class -> its source text, or None when it has none (a class
#: made at run time): ``getsource`` parses the whole defining module,
#: and fails only after that for a generated class, so each class is
#: read once
_SOURCES = weakref.WeakKeyDictionary()


def _package_source(cls):
    """The source text of a package class, or None; read once per class."""
    with _GETSOURCE_LOCK:
        try:
            return _SOURCES[cls]
        except KeyError:
            pass
        try:
            source = inspect.getsource(cls)
        except (OSError, TypeError, SystemError):
            source = None
        _SOURCES[cls] = source
        return source


class BuildStats:
    """Per-build accounting: virtual (modeled) and real elapsed seconds."""

    def __init__(self, spec, virtual_seconds, real_seconds, counts, phases=None,
                 cache_hit=False, spliced=False):
        self.spec = spec
        self.virtual_seconds = virtual_seconds
        self.real_seconds = real_seconds
        self.counts = counts
        #: wall seconds per install phase (fetch/stage/build/install for a
        #: source build; extract/relocate/(splice/)verify for a binary one)
        self.phases = dict(phases or {})
        #: True when this node came from the binary build cache
        self.cache_hit = cache_hit
        #: True when a runtime-hash twin's binaries were spliced in
        self.spliced = spliced

    def __repr__(self):
        return "BuildStats(%s, %.3fs virtual)" % (self.spec.name, self.virtual_seconds)


class _PhaseTimer:
    """Times named install phases into a dict, mirroring them as spans.

    The wall-clock measurement always happens — ``timing.json`` is part
    of every install's provenance — while the telemetry span alongside it
    costs nothing unless a sink is listening.
    """

    def __init__(self, phases, hub, **attrs):
        self.phases = phases
        self.hub = hub
        self.attrs = attrs

    def phase(self, name):
        @contextlib.contextmanager
        def _timed():
            span = self.hub.span("install.phase." + name, **self.attrs)
            start = time.perf_counter()
            with span:
                try:
                    yield
                finally:
                    self.phases[name] = time.perf_counter() - start

        return _timed()


class BuildExecutor:
    """Executes one node's build against a session's store."""

    def __init__(self, session):
        self.session = session

    def _prefix_lock(self, node):
        """The cross-worker, cross-session lock for this node's prefix."""
        return Lock(
            os.path.join(
                self.session.db.db_dir, "prefix-locks", node.dag_hash() + ".lock"
            ),
            faults=self.session.faults,
            owner=node.name,
        )

    def execute(self, node, keep_stage=False):
        """Build ``node``; returns :class:`BuildStats`, or None if another
        session finished the same prefix while we waited for its lock
        (the caller should then treat the node as reused)."""
        return self._locked(node, self._build, node, keep_stage)

    def execute_cached(self, node, keep_stage=False):
        """Install ``node`` from its own build-cache entry (same locking
        discipline as :meth:`execute`); falls back to a source build if
        the entry is missing, corrupt, or fails verification."""
        return self._locked(node, self._install_binary, node, None, keep_stage)

    def execute_spliced(self, node, donor_hash, keep_stage=False):
        """Install ``node`` by splicing a cached runtime-hash twin's
        binaries (same locking discipline as :meth:`execute`); falls back
        to a source build if the donor is missing, corrupt, or the
        spliced prefix fails verification."""
        return self._locked(
            node, self._install_binary, node, donor_hash, keep_stage
        )

    def _locked(self, node, install, *args):
        """``install(*args)`` under ``node``'s prefix lock, after the
        database re-check and the orphan heal; None if the node is
        already installed."""
        with self._prefix_lock(node):
            if self.session.db.installed(node):
                return None
            self._heal_orphan_prefix(node)
            return install(*args)

    def _heal_orphan_prefix(self, node):
        """Remove a prefix the database does not know about.

        A crash between prefix creation and database registration (a
        killed build) leaves an orphan directory; since registration is
        always last, an unregistered prefix is never trustworthy.  We
        hold both the prefix lock and a db miss here, so deleting it is
        safe — and required, or the layout would refuse to create the
        prefix and the store could never heal.
        """
        if node.external:
            return  # an external's prefix is not ours to manage
        prefix = self.session.store.layout.path_for_spec(node)
        if os.path.isdir(prefix):
            shutil.rmtree(prefix, ignore_errors=True)
            hub = self.session.telemetry
            hub.count("store.orphan_prefixes_healed")
            hub.event("store.orphan_healed", package=node.name,
                      hash=node.dag_hash(8))

    # -- installing one node from the build cache -------------------------------
    def _install_binary(self, node, donor_hash=None, keep_stage=False):
        """Install ``node`` from the build cache; returns
        :class:`BuildStats` with ``cache_hit=True``.

        Without ``donor_hash`` this is an exact hit: ``node``'s own
        entry, whose ``spec.json`` already describes ``node``, so only
        the push-time root needs re-targeting.  ``donor_hash`` names a
        runtime-hash twin instead, built from a DAG whose *full* hash
        differs but whose link/run closure (the only thing baked into
        the binaries) is identical.  Splicing it adds one phase:
        re-target the donor's renamed hash-addressed prefixes onto
        ``node``'s DAG, then re-identify the metadata — ``spec.json``
        becomes ``node``'s and ``manifest.json`` and
        ``binary_distribution.json`` record the donor as
        ``spliced_from``.

        Phases are ``extract``/``relocate``/(``splice``)/``verify`` — a
        binary install emits **zero** ``install.phase.build`` spans,
        which is how telemetry proves no compilation happened.  Any
        cache-layer failure (digest mismatch — including the
        ``buildcache.corrupt`` and ``buildcache.splice_stale`` faults —
        an unsafe tarball, or verification issues) tears down the
        partial prefix and falls back to a source build: the cache is an
        accelerator, never a correctness risk.
        """
        from repro.store.buildcache import BuildCacheError, relocate_paths
        from repro.store.database import InstallRecord
        from repro.store.verify import verify_install

        session = self.session
        hub = session.telemetry
        cache = session.buildcache
        layout = session.store.layout
        spliced = donor_hash is not None
        donor = {"donor": donor_hash[:8]} if spliced else {}
        prefix = None
        start = time.perf_counter()
        phases = {}
        timer = _PhaseTimer(phases, hub, package=node.name)
        try:
            with hub.span(
                "install.spliced" if spliced else "install.cached",
                package=node.name,
                version=str(node.version),
                worker=threading.current_thread().name,
            ) as span:
                with timer.phase("extract"):
                    data, sidecar = cache.fetch_tarball(
                        node, donor_hash, splice=spliced
                    )
                    prefix = layout.create_install_directory(node)
                    files = cache.extract(data, prefix)
                with timer.phase("relocate"):
                    old_root = sidecar.get("root") or ""
                    rewritten = relocate_paths(prefix, {old_root: session.root})
                    hub.count("buildcache.relocations")
                    hub.count("buildcache.relocated_files", rewritten)
                if spliced:
                    with timer.phase("splice"):
                        respliced = relocate_paths(
                            prefix,
                            self._splice_prefix_map(node, sidecar, layout),
                        )
                        hub.count("buildcache.spliced_files", respliced)
                        self._rewrite_spliced_provenance(
                            node, prefix, donor_hash
                        )
                with timer.phase("verify"):
                    issues = verify_install(
                        session, InstallRecord(node, prefix)
                    )
                    if issues:
                        raise BuildCacheError(
                            "Cache install of %s failed verification"
                            % node.name,
                            long_message="; ".join(str(i) for i in issues),
                        )
                self._write_binary_distribution(
                    node, prefix, sidecar, spliced_from=donor_hash
                )
                span.set(files=files, relocated=rewritten,
                         digest=sidecar.get("digest", "")[:12], **donor)
                stats = BuildStats(
                    node, 0.0, time.perf_counter() - start, {},
                    phases=phases, cache_hit=True, spliced=spliced,
                )
                self._write_timing(node, prefix, stats)
                return stats
        except Exception as e:
            if prefix and os.path.isdir(prefix):
                shutil.rmtree(prefix, ignore_errors=True)
            if not isinstance(e, BuildCacheError):
                raise
            fallback = (
                "buildcache.splice_fallback" if spliced
                else "buildcache.fallback"
            )
            hub.count(fallback)
            hub.event(fallback, package=node.name, hash=node.dag_hash(8),
                      error=type(e).__name__, **donor)
            return self._build(node, keep_stage=keep_stage)

    def _splice_prefix_map(self, node, sidecar, layout):
        """{donor prefix: target prefix} for every renamed DAG node.

        Matches the donor's nodes to the requested DAG's by name (splice
        donors have identical link/run closures, so names pair 1:1) and
        maps every node whose full hash — and therefore hash-addressed
        prefix path — changed.  Both sides resolve through this session's
        layout: the donor's root was already rewritten to ours.
        """
        from repro.spec.spec import Spec

        targets = {n.name: n for n in node.traverse()}
        mapping = {}
        donor_spec = Spec.from_dict(sidecar.get("spec", {}))
        for dnode in donor_spec.traverse():
            tnode = targets.get(dnode.name)
            if tnode is None or tnode.external:
                continue
            if dnode.dag_hash() == tnode.dag_hash():
                continue
            mapping[layout.path_for_spec(dnode)] = layout.path_for_spec(tnode)
        return mapping

    def _rewrite_spliced_provenance(self, node, prefix, donor_hash):
        """Re-identify an extracted donor prefix as ``node``.

        The donor's metadata describes *its* DAG; after splicing, the
        prefix belongs to the requested spec.  ``spec.json`` becomes the
        requested node's full DAG (what verification and the database
        compare against) and the manifest is recomputed over the spliced
        bytes — the prefix re-targeting rewrote RPATHs beyond what root
        normalization covers, so the donor's digests no longer describe
        these files — with a ``spliced_from`` back-pointer recording
        where the bytes came from.  Integrity against the donor was
        already enforced upstream by the tarball digest check.
        """
        meta = os.path.join(prefix, METADATA_DIR)
        mkdirp(meta)
        with open(os.path.join(meta, "spec.json"), "w") as f:
            json.dump(node.to_dict(), f, indent=1, sort_keys=True)
        self._write_manifest(node, prefix, spliced_from=donor_hash)

    def _write_binary_distribution(self, node, prefix, sidecar,
                                   spliced_from=None):
        """Mark the prefix as cache-extracted (origin root + digest)."""
        from repro.store.buildcache import BINARY_DISTRIBUTION

        meta = os.path.join(prefix, METADATA_DIR)
        mkdirp(meta)
        record = {
            "hash": node.dag_hash(),
            "digest": sidecar.get("digest"),
            "relocated_from": sidecar.get("root"),
        }
        if spliced_from is not None:
            record["spliced_from"] = spliced_from
        with open(os.path.join(meta, BINARY_DISTRIBUTION), "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)

    # -- building one node ------------------------------------------------------
    def _build(self, node, keep_stage=False):
        from repro.store.installer import InstallError

        session = self.session
        hub = session.telemetry
        pkg = session.package_for(node)
        layout = session.store.layout
        compiler = session.compilers.compiler_for(node.compiler)

        stage = Stage(session.stage_root, pkg, tag=node.dag_hash(8)).create()
        pkg.stage = stage
        prefix = None
        log_file = None
        start = time.perf_counter()
        # Wall-clock per phase, measured unconditionally (independent of
        # telemetry sinks): every install persists these in timing.json.
        phases = {}
        timer = _PhaseTimer(phases, hub, package=pkg.name)
        try:
            with hub.span(
                "install.node",
                package=pkg.name,
                version=str(node.version),
                worker=threading.current_thread().name,
            ):
                with timer.phase("fetch"):
                    tarball = session.fetcher.fetch(pkg, node.version)
                with timer.phase("stage"):
                    stage.expand_tarball(tarball)
                    for patch_decl in pkg.patches_for_spec():
                        stage.apply_patch(patch_decl)
                    pkg.applied_patches = list(stage.applied_patches)

                prefix = layout.create_install_directory(node)
                if session.faults is not None:
                    # fault site: killed right after the prefix appeared
                    # on disk — SimulatedKill is a BaseException, so the
                    # partial-prefix cleanup below never sees it (a real
                    # SIGKILL would not either) and the orphan survives
                    session.faults.hit(
                        "executor.crash", target=node.name, where="post-stage"
                    )
                dep_prefixes = dependency_prefixes(node, layout)
                link_prefixes = dependency_prefixes(
                    node, layout, deptype=("link",)
                )
                wrapper_paths = None
                if session.subprocess_mode and session.use_wrappers:
                    wrapper_paths = write_wrappers(os.path.join(stage.path, "wrappers"))
                platform = session.platforms.get(node.architecture)
                env = build_environment(
                    node,
                    compiler,
                    prefix,
                    dep_prefixes,
                    wrapper_paths=wrapper_paths,
                    use_wrappers=session.use_wrappers,
                    target_flags=platform.flags_for(compiler.name),
                    link_prefixes=link_prefixes,
                )
                self._apply_env_hooks(pkg, node, env)

                log_path = os.path.join(prefix, METADATA_DIR, "build.log")
                log_file = open(log_path, "w")
                clock = VirtualClock()
                ctx = BuildContext(
                    pkg,
                    prefix,
                    env,
                    stage=stage,
                    cost_model=session.cost_model,
                    clock=clock,
                    use_wrappers=session.use_wrappers,
                    subprocess_mode=session.subprocess_mode,
                    build_log=log_file,
                    platform=platform,
                    telemetry=hub,
                )
                with timer.phase("build"):
                    with build_context(ctx):
                        pkg.install(node, prefix)

                with timer.phase("install"):
                    self._sanity_check(node, prefix)
                    self._write_provenance(node, pkg, prefix, env)
                    self._write_manifest(node, prefix)
                real = time.perf_counter() - start
                stats = BuildStats(
                    node, clock.seconds, real, clock.snapshot(), phases=phases
                )
                self._write_timing(node, prefix, stats)
                if session.faults is not None:
                    # fault site: killed after a complete, provenance-
                    # bearing prefix was written but before the caller
                    # can register it in the database
                    session.faults.hit(
                        "executor.crash", target=node.name, where="post-build"
                    )
            return stats
        except Exception as e:
            tail = self._log_tail(log_file)
            if prefix and os.path.isdir(prefix):
                shutil.rmtree(prefix, ignore_errors=True)
            if isinstance(e, ReproError):
                raise InstallError(
                    "Install of %s failed: %s" % (node.name, e.message),
                    long_message=tail or e.long_message,
                ) from e
            raise
        finally:
            if log_file is not None:
                log_file.close()
            if not keep_stage:
                stage.destroy()

    def _apply_env_hooks(self, pkg, node, env):
        """Run the package's and its dependencies' environment hooks."""
        from repro.util.environment import EnvironmentModifications

        build_mods = EnvironmentModifications()
        run_mods = EnvironmentModifications()
        pkg.setup_environment(build_mods, run_mods)
        for dep in node.traverse(root=False):
            if not self.session.repo.exists(dep.name):
                continue
            dep_pkg = self.session.package_for(dep)
            dep_pkg.setup_dependent_environment(build_mods, node)
        build_mods.apply(env)

    def _sanity_check(self, node, prefix):
        """The paper's "did the install actually do anything" check."""
        from repro.store.installer import InstallError

        contents = [
            entry for entry in os.listdir(prefix) if entry != METADATA_DIR
        ]
        if not contents:
            raise InstallError(
                "Install of %s produced an empty prefix %s" % (node.name, prefix)
            )

    def _write_provenance(self, node, pkg, prefix, env):
        meta = os.path.join(prefix, METADATA_DIR)
        mkdirp(meta)
        with open(os.path.join(meta, "spec.json"), "w") as f:
            json.dump(node.to_dict(), f, indent=1, sort_keys=True)
        source = _package_source(type(pkg))
        if source is None:
            source = "# source unavailable for %s\n" % type(pkg).__name__
        with open(os.path.join(meta, "package.py"), "w") as f:
            f.write(source)
        with open(os.path.join(meta, "build_env.json"), "w") as f:
            json.dump(env, f, indent=1, sort_keys=True)
        with open(os.path.join(meta, "applied_patches.json"), "w") as f:
            json.dump(pkg.applied_patches, f)

    def _write_manifest(self, node, prefix, spliced_from=None):
        """Record every installed artifact with a relocation-invariant digest.

        ``.spack/manifest.json`` maps each non-metadata file (relative
        path) to its :func:`~repro.store.buildcache.normalized_digest` —
        the session root's bytes are hashed as a fixed placeholder, so
        the digest survives build-cache relocation.  Verification uses
        the manifest as the authoritative artifact list instead of
        assuming a ``bin/<name>`` + ``lib/lib<name>.so.json`` layout.
        """
        from repro.store.buildcache import normalized_digest

        root = self.session.root
        files = {}
        for dirpath, dirnames, filenames in os.walk(prefix):
            if dirpath == prefix and METADATA_DIR in dirnames:
                dirnames.remove(METADATA_DIR)
            dirnames.sort()
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                with open(full, "rb") as f:
                    data = f.read()
                rel = os.path.relpath(full, prefix).replace(os.sep, "/")
                files[rel] = normalized_digest(data, root)
        meta = os.path.join(prefix, METADATA_DIR)
        mkdirp(meta)
        manifest = {
            "package": node.name,
            "hash": node.dag_hash(),
            "files": files,
        }
        if spliced_from is not None:
            manifest["spliced_from"] = spliced_from
        with open(os.path.join(meta, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)

    def _write_timing(self, node, prefix, stats):
        """Persist per-phase wall times next to the other provenance.

        Written for *every* build, telemetry sinks or not — timing is
        provenance (schema documented in docs/observability.md).
        """
        meta = os.path.join(prefix, METADATA_DIR)
        mkdirp(meta)
        with open(os.path.join(meta, "timing.json"), "w") as f:
            json.dump(
                {
                    "package": node.name,
                    "version": str(node.version),
                    "hash": node.dag_hash(),
                    "phases": stats.phases,
                    "total_s": stats.real_seconds,
                    "virtual_seconds": stats.virtual_seconds,
                    "counts": stats.counts,
                },
                f,
                indent=1,
                sort_keys=True,
            )

    @staticmethod
    def _log_tail(log_file, lines=20):
        if log_file is None:
            return None
        try:
            log_file.flush()
            with open(log_file.name) as f:
                content = f.readlines()
            return "".join(content[-lines:]) if content else None
        except OSError:
            return None
