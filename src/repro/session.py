"""``Session``: one self-contained installation universe.

Everything the original tool kept in process-global state — the package
repositories, configuration scopes, compiler registry, install store,
and the mock web — hangs off an explicit Session here (DESIGN.md §5:
no global mutable state).  Tests construct ephemeral sessions in
``tmp_path``; the CLI builds one from a root directory; benchmarks build
several side by side with different policies.

``Session.create(root)`` gives a batteries-included universe: the
built-in package corpus, a generated fake toolchain (auto-detected from
its bin directory, as §3.2.3 describes), LLNL-flavored default
preferences, and a mock web serving every package's tarballs.
"""

import os

from repro.compilers.registry import CompilerRegistry, find_compilers
from repro.config.config import Config
from repro.core.policies import DefaultPolicy
from repro.errors import ReproError
from repro.fetch.cache import FetchCache
from repro.fetch.fetcher import Fetcher
from repro.fetch.mockweb import MockWeb
from repro.platforms import PlatformRegistry
from repro.repo.repository import RepoPath, Repository
from repro.service.snapshot import SnapshotManager
from repro.simfs import CostModel
from repro.spec.spec import Spec
from repro.store.installer import Installer
from repro.store.store import Store
from repro.telemetry import Telemetry
from repro.util.filesystem import mkdirp


#: Toolchains generated by Session.create — the compiler matrix of the
#: paper's Table 3 plus the gcc used in the running examples.
DEFAULT_TOOLCHAINS = [
    ("gcc", "4.9.2"),
    ("gcc", "4.7.3"),
    ("intel", "14.0.3"),
    ("intel", "15.0.1"),
    ("pgi", "14.10"),
    ("clang", "3.5.0"),
    ("xl", "12.1"),
]

#: LLNL-flavored default preferences.
DEFAULT_CONFIG = {
    "preferences": {
        "compiler_order": ["gcc@4.9.2"],
        "providers": {
            "mpi": ["mvapich2", "openmpi", "mpich"],
            "blas": ["netlib-blas", "atlas", "mkl"],
            "lapack": ["netlib-lapack", "atlas", "mkl"],
            "fft": ["fftw", "mkl"],
        },
        "architecture": "linux-x86_64",
    }
}


class Session:
    """A package-management universe rooted at a directory."""

    def __init__(
        self,
        root,
        repo,
        config=None,
        compilers=None,
        web=None,
        policy=None,
        cost_model=None,
        use_wrappers=True,
        subprocess_mode=False,
        platforms=None,
        generate_modules=True,
        telemetry=None,
        install_jobs=None,
        faults=None,
    ):
        from repro.fetch.fetcher import DEFAULT_RETRIES, DEFAULT_RETRY_DELAY
        from repro.testing.faults import FaultInjector

        self.root = os.path.abspath(root)
        mkdirp(self.root)
        #: the session's observability hub; free until a sink is attached
        self.telemetry = telemetry or Telemetry()
        #: the session's fault switchboard; inert until a plan is armed
        self.faults = faults or FaultInjector(telemetry=self.telemetry)
        # the telemetry.trace.drop fault site lives inside the hub's
        # emit loop; observability must never change outcomes, so the
        # hub absorbs whatever the armed sink "raises"
        self.telemetry.bind_faults(self.faults)
        self.repo = repo if isinstance(repo, RepoPath) else RepoPath([repo])
        self.config = config or Config()
        self.compilers = compilers or CompilerRegistry()
        self._register_configured_compilers()
        self.web = web or MockWeb()
        #: atomic, per-URL-locked download cache shared by install workers
        self.fetch_cache = FetchCache(os.path.join(self.root, "cache", "fetch"))
        #: the ``fetch`` config section makes retry/backoff behavior a
        #: deployment decision: retries, retry_delay, deterministic_backoff
        fetch_cfg = self.config.get("fetch", default={}) or {}
        self.fetcher = Fetcher(
            self.web,
            telemetry=self.telemetry,
            cache=self.fetch_cache,
            retries=int(fetch_cfg.get("retries", DEFAULT_RETRIES)),
            retry_delay=float(fetch_cfg.get("retry_delay", DEFAULT_RETRY_DELAY)),
            deterministic_backoff=bool(fetch_cfg.get("deterministic_backoff", False)),
            faults=self.faults,
        )
        #: default worker-pool width for installs (`install -j N`);
        #: $REPRO_INSTALL_JOBS overrides the 1-worker (sequential) default
        if install_jobs is None:
            install_jobs = os.environ.get("REPRO_INSTALL_JOBS", "1")
            try:
                install_jobs = int(install_jobs)
            except ValueError:
                raise ReproError(
                    "REPRO_INSTALL_JOBS must be a number of workers, not %r"
                    % install_jobs
                ) from None
        self.install_jobs = max(1, int(install_jobs))
        self.policy = policy or DefaultPolicy(self.config)
        self.cost_model = cost_model or CostModel()
        self.use_wrappers = use_wrappers
        self.subprocess_mode = subprocess_mode
        self.platforms = platforms or PlatformRegistry()
        #: §3.5.4: module files are created automatically at install time
        self.generate_modules = generate_modules

        self.store = Store(self.root, telemetry=self.telemetry, faults=self.faults)
        self.stage_root = os.path.join(self.root, "stage")
        mkdirp(self.stage_root)
        #: the ``buildcache`` config section: relocatable binary cache
        #: (root/push/pull/splice); None until configured
        self.buildcache = None
        self.buildcache_push = False
        self.buildcache_pull = True
        self.buildcache_splice = True
        bc_cfg = self.config.get("buildcache", default={}) or {}
        if bc_cfg and bc_cfg.get("enabled", True):
            self.enable_buildcache(
                root=bc_cfg.get("root"),
                push=bc_cfg.get("push"),
                pull=bc_cfg.get("pull"),
                splice=bc_cfg.get("splice"),
            )
        self.installer = Installer(self)

        #: the ``concretize_cache`` config section: persistent
        #: concretization cache (enabled/root); on by default
        from repro.core.conc_cache import ConcretizationCache

        cc_cfg = self.config.get("concretize_cache", default={}) or {}
        self.concretize_cache = None
        if cc_cfg.get("enabled", True):
            self.concretize_cache = ConcretizationCache(
                cc_cfg.get("root")
                or os.path.join(self.root, "cache", "concretize"),
                telemetry=self.telemetry,
                faults=self.faults,
            )
        #: the current frozen State (:mod:`repro.service.snapshot`):
        #: concretization, provider lookups and daemon requests all read
        #: it, and any repo, config, compiler or policy change forks a
        #: fresh one on next use
        self.snapshots = SnapshotManager(self)

    # -- construction -----------------------------------------------------
    @classmethod
    def create(
        cls,
        root,
        packages="builtin",
        toolchains=None,
        config_overrides=None,
        **kwargs,
    ):
        """Build a fully-equipped session under ``root``.

        ``packages``: 'builtin' for the shipped corpus, a Repository, or
        None for an empty programmatic repo.  ``config_overrides`` merges
        into the ``user`` scope on top of the LLNL-ish defaults.
        """
        from repro.build.toolchain import write_toolchain

        root = os.path.abspath(root)
        mkdirp(root)

        toolchain_dir = os.path.join(root, "toolchain")
        write_toolchain(toolchain_dir, toolchains or DEFAULT_TOOLCHAINS)
        registry = CompilerRegistry(find_compilers([toolchain_dir]))

        if packages == "builtin":
            from repro.packages import builtin_repo

            repo = builtin_repo()
        elif packages is None:
            repo = Repository(namespace="session")
        else:
            repo = packages

        config = Config()
        config.update("defaults", DEFAULT_CONFIG)
        if config_overrides:
            config.update("user", config_overrides)

        session = cls(root, repo, config=config, compilers=registry, **kwargs)
        session.seed_web()
        return session

    def _register_configured_compilers(self):
        """§3.2.3: compilers "can be registered manually through a
        configuration file" — a ``compilers`` list of records with
        name/version/paths (and optional feature overrides)."""
        from repro.compilers.registry import Compiler

        for entry in self.config.get("compilers", default=[]) or []:
            self.compilers.add(
                Compiler(
                    entry["name"],
                    entry["version"],
                    cc=entry.get("cc"),
                    cxx=entry.get("cxx"),
                    f77=entry.get("f77"),
                    fc=entry.get("fc"),
                    features=entry.get("features"),
                )
            )

    def enable_buildcache(self, root=None, push=None, pull=None, splice=None):
        """Attach a :class:`~repro.store.buildcache.BuildCache`.

        ``root`` defaults to ``<session-root>/cache/buildcache`` — point
        several sessions at one directory to share binaries.  ``push``
        (auto-publish after every successful build, default off),
        ``pull`` (plan cache hits as CACHED tasks, default on), and
        ``splice`` (reuse runtime-hash twins for full-hash misses,
        default on) set the session-wide policy; ``install
        --use-cache/--no-cache/--no-splice`` override per call.
        """
        from repro.store.buildcache import BuildCache

        if root is None:
            root = os.path.join(self.root, "cache", "buildcache")
        self.buildcache = BuildCache(
            root, telemetry=self.telemetry, faults=self.faults
        )
        if push is not None:
            self.buildcache_push = bool(push)
        if pull is not None:
            self.buildcache_pull = bool(pull)
        if splice is not None:
            self.buildcache_splice = bool(splice)
        return self.buildcache

    def seed_web(self):
        """Serve every repo package's tarballs from the mock web."""
        for name in self.repo.all_package_names():
            self.web.register_package(self.repo.get_class(name))

    # -- repo management -------------------------------------------------------
    def add_repo(self, repo, prepend=True):
        """Layer a (site) repository; earlier repos shadow later (§4.3.2)."""
        if prepend:
            self.repo.prepend(repo)
        else:
            self.repo.append(repo)

    @property
    def provider_index(self):
        return self.snapshots.current().provider_index

    @property
    def db(self):
        return self.store.db

    @property
    def concretizer(self):
        """A greedy concretizer over the current State."""
        return self.snapshots.current().concretizer()

    # -- core operations -----------------------------------------------------------
    def spec(self, text):
        return Spec(text)

    def concretize(self, spec, concretizer=None, use_cache=True):
        """Concretize against the current State
        (:meth:`repro.service.snapshot.StateSnapshot.concretize`).

        ``concretizer`` picks the variant: ``"greedy"`` (the paper's
        one-pass algorithm) or ``"solver"`` (the optimizing search of
        :mod:`repro.core.solver`); when None the config key
        ``concretizer`` decides (default greedy).  Results come from the
        State's memo or the persistent concretization cache when the
        abstract request, package universe, configuration/policy stack,
        and variant all match a previous run — for the solver, the
        installed set too, since its reuse objective reads it.
        ``use_cache=False`` forces a cold concretization (the CLI's
        ``spec --no-concretize-cache``); the caches never change
        results, only how fast they arrive.
        """
        return self.snapshots.current().concretize(
            spec, concretizer, database=self.db, use_cache=use_cache
        )

    # -- environments ------------------------------------------------------
    def environment(self, name):
        """The named :class:`~repro.env.environment.Environment`, rooted
        at ``<session root>/environments/<name>`` (created lazily — an
        env exists once a root is added or ``save()`` runs)."""
        from repro.env.environment import Environment

        return Environment(
            os.path.join(self.root, "environments", name), name=name
        )

    def environment_names(self):
        """Names of environments with an on-disk manifest."""
        base = os.path.join(self.root, "environments")
        try:
            candidates = sorted(os.listdir(base))
        except OSError:
            return []
        return [
            name for name in candidates
            if os.path.isfile(os.path.join(base, name, "env.json"))
        ]

    def env_concretize(self, env, jobs=None, concretizer=None,
                       use_cache=True, force=False):
        """Concretize an environment's roots together (see
        :mod:`repro.env.unify`).  ``env`` is an Environment, an env
        name, or a plain list of abstract root texts (resolved as an
        anonymous in-memory environment — no lockfile).  Roots solve in
        order on the caller's thread; ``jobs`` is accepted and does not
        affect concretization."""
        from repro.env.environment import Environment, unify_on_state

        if isinstance(env, str):
            env = self.environment(env)
        if isinstance(env, Environment):
            return env.concretize(
                self, jobs=jobs, concretizer=concretizer,
                use_cache=use_cache, force=force,
            )
        state = self.snapshots.current()
        return unify_on_state(
            self, state, list(env), state.variant(concretizer),
            "<anonymous>", use_cache=use_cache,
        )

    def forget_concretizations(self):
        """Drop the current State's concretization memo (the persistent
        on-disk cache is untouched): the next ``concretize`` per key
        goes back through :meth:`ConcretizationCache.lookup` and its
        integrity verification.  Used by tests and the selftest
        campaign to force the serialization round-trip."""
        self.snapshots.current().forget()

    def package_for(self, spec):
        """Instantiate the package class for a spec node."""
        cls = self.repo.get_class(spec.name)
        return cls(spec, session=self)

    def install(self, spec, explicit=True, keep_stage=False, reuse_existing=True,
                jobs=None, fail_fast=False, use_cache=None, use_splice=None):
        """Concretize (if needed) and install; returns (concrete, result).

        With ``reuse_existing`` (the paper's "Spack will use the
        previously-built installation instead of building a new one"),
        an abstract request already satisfied by an installed spec
        returns that installation without building.  ``jobs`` widens the
        DAG-parallel worker pool (None: the session default); with
        ``fail_fast`` the first build failure stops dispatching instead
        of finishing disjoint sub-DAGs.  ``use_cache`` overrides the
        session's build-cache pull policy for this call (True forces
        cache consultation, False forces source builds, None defers);
        ``use_splice`` likewise overrides the splice policy (False
        forbids standing in a runtime-hash twin's binaries).
        """
        if isinstance(spec, str):
            spec = Spec(spec)
        if not spec.concrete:
            if reuse_existing:
                existing = self.db.query(spec)
                if existing:
                    record = existing[-1]
                    result = self.installer.install(record.spec, explicit=explicit)
                    return record.spec, result
            spec = self.concretize(spec)
        result = self.installer.install(
            spec, explicit=explicit, keep_stage=keep_stage, jobs=jobs,
            fail_fast=fail_fast, use_cache=use_cache, use_splice=use_splice,
        )
        return spec, result

    def uninstall(self, spec, force=False):
        if isinstance(spec, str):
            spec = Spec(spec)
        if not spec.concrete:
            records = self.db.query(spec)
            if len(records) != 1:
                raise ReproError(
                    "%d installed specs match %s; be more specific"
                    % (len(records), spec)
                )
            spec = records[0].spec
        return self.installer.uninstall(spec, force=force)

    def find(self, query=None, explicit=None):
        """Installed specs matching an abstract query (``spack find``)."""
        return [r.spec for r in self.db.query(query, explicit=explicit)]

    # -- fetch/stage lifecycle (without installing) --------------------------------
    def fetch_only(self, spec):
        """Download (and verify) tarballs for a spec's whole DAG."""
        if isinstance(spec, Spec) is False:
            spec = Spec(spec)
        concrete = spec if spec.concrete else self.concretize(spec)
        fetched = []
        for node in concrete.traverse():
            if node.external:
                continue
            pkg = self.package_for(node)
            self.fetcher.fetch(pkg, node.version)
            fetched.append((node.name, str(node.version)))
        return fetched

    def stage_only(self, spec):
        """Fetch, expand, and patch the root package's source; keep the
        stage around for inspection.  Returns the source path."""
        from repro.fetch.stage import Stage

        if isinstance(spec, Spec) is False:
            spec = Spec(spec)
        concrete = spec if spec.concrete else self.concretize(spec)
        pkg = self.package_for(concrete)
        stage = Stage(self.stage_root, pkg).create()
        stage.expand_tarball(self.fetcher.fetch(pkg, concrete.version))
        for patch_decl in pkg.patches_for_spec():
            stage.apply_patch(patch_decl)
        return stage.source_path

    def clean_stages(self):
        """Remove every build stage under the stage root."""
        import shutil

        removed = []
        for entry in sorted(os.listdir(self.stage_root)):
            full = os.path.join(self.stage_root, entry)
            if os.path.isdir(full):
                shutil.rmtree(full, ignore_errors=True)
                removed.append(entry)
        return removed

    # -- externals --------------------------------------------------------------------
    def register_external(self, spec_string, prefix=None, create_content=True):
        """Configure a package as external (§4.4's vendor MPI).

        Writes the ``packages`` config entry and, by default, fabricates
        the external prefix's header/library so dependents can compile
        and link against it.
        """
        ext_spec = Spec(spec_string)
        if prefix is None:
            prefix = os.path.join(self.root, "external", ext_spec.name)
        self.config.update(
            "user",
            {
                "packages": {
                    ext_spec.name: {
                        "external": {"spec": spec_string, "prefix": prefix}
                    }
                }
            },
        )
        if create_content:
            self._fabricate_external(ext_spec, prefix)
        return prefix

    def _fabricate_external(self, ext_spec, prefix):
        import json

        include_dir = os.path.join(prefix, "include")
        lib_dir = os.path.join(prefix, "lib")
        bin_dir = os.path.join(prefix, "bin")
        mkdirp(include_dir, lib_dir, bin_dir)
        with open(os.path.join(include_dir, "%s.h" % ext_spec.name), "w") as f:
            f.write("HEADER %s (external)\n" % ext_spec.name)
        with open(os.path.join(lib_dir, "lib%s.so.json" % ext_spec.name), "w") as f:
            json.dump(
                {"type": "library", "needed": [], "rpaths": [], "external": True}, f
            )

    def __repr__(self):
        return "Session(%r)" % self.root
