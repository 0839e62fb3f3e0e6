"""The frozen State every concretization reads.

A session's repos can gain packages, its config scopes merge in place,
and a resident daemon serves hundreds of concurrent requests over them.
Rather than sprinkle locks through every read path (contention on
exactly the hottest lookups), the session freezes the whole read side
into an immutable :class:`StateSnapshot` keyed by the environment digest
of :mod:`repro.core.conc_cache`, and ``Session.concretize``, environment
unification and every daemon endpoint answer from it:

* every in-flight request holds a reference to the snapshot it started
  on and finishes there, however the live session mutates meanwhile
  (snapshot isolation — the Guix daemon's model);
* a mutation (new package, config update, compiler change) is noticed
  by :class:`SnapshotManager` through cheap mutation tokens, and the
  *next* request gets a freshly forked snapshot with the new digest;
* immutable state needs no locks, so concurrent requests share one warm
  intern pool, the per-snapshot concretization memo, and the persistent
  on-disk cache without serializing on the read path.

:meth:`StateSnapshot.concretize` is the one concretization pipeline:
the snapshot's bounded memo, then the persistent cache, then a cold run
of the requested variant from :data:`repro.core.CONCRETIZERS`.

Snapshots are cheap to fork: package *classes* are shared by reference
(they are immutable directive state), the config is one deep-copied
merged dict, the provider index is rebuilt once per fork, and the
environment digest is computed on first use — only mutations pay, never
steady-state requests.
"""

import copy
import fnmatch
import hashlib
import threading
from collections import OrderedDict

from repro.compilers.registry import CompilerRegistry
from repro.config.config import Config, ConfigError
from repro.core import CONCRETIZERS, concretizer_variant
from repro.core.conc_cache import ConcretizationCache, EnvironmentDigest
from repro.core.policies import DefaultPolicy
from repro.repo.providers import ProviderIndex
from repro.repo.repository import NoSuchPackageError
from repro.spec.spec import Spec

#: most concretizations one snapshot's memo keeps (least recently used
#: out first): a resident daemon never re-forks, so without a bound its
#: memo grows with every repeated request (~10 KB each)
MEMO_ENTRIES = 1024


class RepoSnapshot:
    """An immutable view of a repo stack: the read API of
    :class:`~repro.repo.repository.RepoPath`, frozen at fork time.

    Package classes are shared by reference — a class's directive state
    never mutates in place (re-registration replaces the table entry,
    which this copy does not see).
    """

    def __init__(self, repo):
        self._classes = dict(repo.all_classes())
        self._token = repo.mutation_token()

    def mutation_token(self):
        """Frozen at fork time: a snapshot never changes."""
        return self._token

    def exists(self, name):
        return name in self._classes

    def get_class(self, name):
        try:
            return self._classes[name]
        except KeyError:
            raise NoSuchPackageError(name) from None

    def all_package_names(self):
        return sorted(self._classes)

    def all_classes(self):
        return dict(self._classes)

    def __contains__(self, name):
        return name in self._classes

    def __len__(self):
        return len(self._classes)

    def __repr__(self):
        return "RepoSnapshot(%d packages, token=%r)" % (
            len(self._classes), self._token,
        )


class FrozenConfig(Config):
    """A :class:`~repro.config.config.Config` collapsed to one immutable
    pre-merged scope.

    ``merged()`` is the hot call under the concretizer (every
    ``config.get`` goes through it); the live implementation re-merges
    the scope stack per call, which this freeze turns into returning one
    precomputed dict.  Mutation is refused — fork a new snapshot instead.
    """

    def __init__(self, merged_data):
        super().__init__()
        self._frozen = False
        super().update("defaults", copy.deepcopy(merged_data))
        self._merged = super().merged()
        self._frozen = True

    def merged(self):
        return self._merged

    def push_scope(self, scope):
        if getattr(self, "_frozen", False):
            raise ConfigError("FrozenConfig is immutable; fork a new snapshot")
        super().push_scope(scope)

    def update(self, scope_name, data):
        if getattr(self, "_frozen", False):
            raise ConfigError("FrozenConfig is immutable; fork a new snapshot")
        super().update(scope_name, data)


class StateSnapshot:
    """Everything a concretization or read-only query needs, frozen and
    digest-keyed.

    Holds the frozen repo/config, a compiler registry copy, a policy
    bound to the frozen config, a provider index built over the frozen
    classes, and the environment digest those produce — byte-identical
    to :class:`~repro.core.conc_cache.EnvironmentDigest` over the live
    session, so cache entries and lockfiles written by any process over
    the same state are shared.
    """

    def __init__(self, session):
        self.repo = RepoSnapshot(session.repo)
        self.config = FrozenConfig(session.config.merged())
        self.compilers = CompilerRegistry(session.compilers.all_compilers())
        # rebind config-driven policies to the frozen config; opaque
        # custom policies are shared as-is (they fingerprint by class)
        live_policy = session.policy
        if isinstance(live_policy, DefaultPolicy) or hasattr(live_policy, "config"):
            self.policy = type(live_policy)(self.config)
        else:
            self.policy = live_policy
        self.provider_index = ProviderIndex.from_repo(self.repo)
        self.telemetry = session.telemetry
        #: the shared persistent cache (thread-safe; may be None)
        self.conc_cache = session.concretize_cache
        self._env_digest = None
        #: cache key -> concrete Spec (master copy), least recently used
        #: first; guarded — many worker threads share one snapshot
        self._memo = OrderedDict()
        self._lock = threading.Lock()

    @property
    def env_digest(self):
        """The environment digest, computed once, on first use: a fork
        that only answers package or provider queries never walks every
        package class."""
        if self._env_digest is None:
            with self._lock:
                if self._env_digest is None:
                    self._env_digest = EnvironmentDigest(
                        self.repo, self.compilers, self.config, self.policy
                    ).current()
        return self._env_digest

    # -- concretization ----------------------------------------------------
    def variant(self, name=None):
        """Resolve a concretizer variant against this snapshot's config
        (see :func:`repro.core.concretizer_variant`)."""
        return concretizer_variant(name, self.config)

    def concretizer(self, variant="greedy", database=None):
        """A fresh concretizer of ``variant`` over the frozen state."""
        return CONCRETIZERS[variant](
            self.repo, self.provider_index, self.compilers, self.config,
            self.policy, telemetry=self.telemetry, database=database,
        )

    def cache_key(self, spec, variant, database=None):
        """The key a concretization is memoized and persisted under: the
        abstract text, the environment digest — plus the installed-set
        fingerprint for a variant that reuses installed specs — and the
        variant."""
        digest = self.env_digest
        if CONCRETIZERS[variant].reuses_installed and database is not None:
            hashes = sorted(r.spec.dag_hash() for r in database.query())
            digest = "%s/%s" % (
                digest, hashlib.sha256("\n".join(hashes).encode()).hexdigest()
            )
        return ConcretizationCache.make_key(str(spec), digest, variant)

    def concretize(self, spec, variant=None, database=None, use_cache=True):
        """Concretize against this snapshot; returns a fresh Spec.

        ``variant`` is resolved by :meth:`variant`; ``database`` is the
        installed set a reusing variant reads.  Served from the snapshot
        memo, then the shared persistent cache, then a cold run — all
        built solely from frozen state, so any number of threads may call
        this at once.  ``use_cache=False`` skips both caches (and stores
        nothing); the caches never change results, only how fast they
        arrive.

        A result enters the memo on its second use: a cold result goes to
        the persistent cache only, and the memo admits it when a later
        request finds it there (with no persistent cache, at once).  The
        memo then holds what is asked for again, and a stream of one-off
        requests costs it no memory.
        """
        if isinstance(spec, str):
            spec = Spec(spec)
        variant = self.variant(variant)
        if not use_cache:
            return self._concretize_cold(spec, variant, database)
        key = self.cache_key(spec, variant, database)
        with self._lock:
            master = self._memo.get(key)
            if master is not None:
                self._memo.move_to_end(key)
        if master is not None:
            self.telemetry.count("concretize.cache.hit")
            return master.copy()
        cached = self._lookup(key, spec, variant)
        if cached is not None:
            self._remember(key, cached)
            return cached.copy()
        concrete = self._concretize_cold(spec, variant, database)
        if self.conc_cache is not None:
            self.conc_cache.store(key, concrete)
        else:
            self._remember(key, concrete.copy())
        return concrete

    def _lookup(self, key, spec, variant):
        if self.conc_cache is None:
            return None
        if self.telemetry.enabled:
            with self.telemetry.span(
                "concretize.cache.lookup", spec=str(spec), variant=variant
            ):
                return self.conc_cache.lookup(key)
        return self.conc_cache.lookup(key)

    def _remember(self, key, master):
        with self._lock:
            self._memo[key] = master
            self._memo.move_to_end(key)
            evicted = len(self._memo) > MEMO_ENTRIES
            if evicted:
                self._memo.popitem(last=False)
        if evicted:
            self.telemetry.count("concretize.cache.evict")

    def _concretize_cold(self, spec, variant, database=None):
        return self.concretizer(variant, database).concretize(spec)

    def forget(self):
        """Drop the memo (the persistent cache is untouched)."""
        with self._lock:
            self._memo.clear()

    # -- read-only queries -------------------------------------------------
    def list_packages(self, pattern=None):
        """Package names, optionally substring/glob filtered
        (``spack_list``, ``repo-list``)."""
        names = self.repo.all_package_names()
        if pattern:
            names = [n for n in names if fnmatch.fnmatch(n, "*%s*" % pattern)]
        return names

    def package_info(self, name):
        """JSON-able metadata for one package (``spack_info``, ``info``)."""
        cls = self.repo.get_class(name)
        doc = (cls.__doc__ or "").strip()
        return {
            "name": name,
            "homepage": cls.homepage,
            "url": cls.url,
            "description": doc.splitlines()[0] if doc else None,
            "versions": [str(v) for v in sorted(cls.versions, reverse=True)],
            "safe_versions": [str(v) for v in cls.safe_versions()],
            "variants": {
                vname: {"default": bool(v.default),
                        "description": v.description}
                for vname, v in sorted(cls.variants.items())
            },
            "dependencies": [
                {"spec": str(dc.spec),
                 "when": str(dc.when) if dc.when is not None else None,
                 "types": sorted(dc.deptypes)}
                for _, constraints in sorted(cls.dependencies.items())
                for dc in constraints
            ],
            "provides": [
                {"spec": str(p.spec),
                 "when": str(p.when) if p.when is not None else None}
                for p in cls.provided
            ],
            "compiler_requirements": [
                {"feature": str(feature),
                 "when": str(when) if when is not None else None}
                for feature, when in cls.compiler_requirements
            ],
        }

    def __repr__(self):
        return "StateSnapshot(%s, %d packages)" % (
            self.env_digest[:12], len(self.repo),
        )


class SnapshotManager:
    """Forks a fresh :class:`StateSnapshot` when the session's mutation
    tokens move; hands out the current one otherwise.

    ``current()`` is what every concretization and daemon request calls:
    steady state is one token comparison under a short lock, and the
    fork runs at most once per mutation however many requests race past
    it.  A re-fork strands the old snapshot's memo (its keys embed the
    old digest), counted once on ``concretize.cache.invalidate``.
    """

    def __init__(self, session):
        self.session = session
        self._lock = threading.Lock()
        self._snapshot = None
        self._token = None
        self.forks = 0

    def _live_token(self):
        session = self.session
        return (
            session.repo.mutation_token(),
            session.config.mutation_token(),
            tuple(str(c) for c in session.compilers.all_compilers()),
            type(session.policy),
        )

    def current(self):
        """The snapshot matching the session's present state."""
        token = self._live_token()
        with self._lock:
            if self._snapshot is None or token != self._token:
                if self._snapshot is not None:
                    self.session.telemetry.count("concretize.cache.invalidate")
                self._snapshot = StateSnapshot(self.session)
                self._token = token
                self.forks += 1
                self.session.telemetry.count("service.snapshot.fork")
            return self._snapshot
