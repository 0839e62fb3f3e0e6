"""The persistent concretization cache (fast-path Layer 3).

Concretization is a pure function of four inputs: the abstract request,
the package universe, the configuration/policy stack, and the algorithm
variant (greedy or solver).  This module captures those inputs as
digests and memoizes the output — the serialized concrete DAG — on
disk, following Guix's insight (PAPERS.md: *Reproducible and
User-Controlled Software Environments in HPC*) that derived results
keyed by content digest can be reused indefinitely without a
correctness risk: change any input and the key changes with it.

Layout (same locked read-merge-write discipline as
:mod:`repro.store.buildcache`'s index, but sharded)::

    <root>/index/<kk>.json            {key: {root, dag_hash, entry}}
    <root>/<kk>/<key>.json            serialized concrete spec (to_dict)

where ``<kk>`` is the first two key characters (fanout).  The index is
*sharded* by key prefix: a store rewrites one ~n/256-entry shard
instead of the whole index, so warming a 10k-root universe is O(n) in
index bytes rather than O(n²).  Payloads are content-addressed per
entry so concurrent writers never rewrite each other's payloads, and
every shard merge happens under one advisory
:class:`~repro.util.lock.Lock`.  A legacy monolithic
``<root>/index.json`` (the pre-shard layout) is migrated into shards
once, on first access, under the same lock.

Integrity is hash-first: a looked-up payload is deserialized and its
``dag_hash`` recomputed; a mismatch against the indexed hash (bit rot,
a truncated write, or the ``concretize.cache.corrupt`` fault) drops
the entry and falls back to cold concretization.  Telemetry counters:
``concretize.cache.hit`` / ``.miss`` / ``.invalidate``.
"""

import hashlib
import json
import os
import tempfile

from repro.spec.spec import Spec
from repro.util.filesystem import mkdirp
from repro.util.lock import Lock


def describe_package_class(cls):
    """Stable one-line description of a package class's directive state.

    Covers everything concretization can observe: declared versions (and
    checksums/urls — a checksum change means the package file changed),
    dependency constraints with predicates, provided interfaces,
    variants with defaults, compiler feature requirements, conflicts,
    and patches.
    """
    versions = sorted(
        (str(v), info.get("checksum") or "", info.get("url") or "",
         str(info.get("when") or ""))
        for v, info in getattr(cls, "versions", {}).items()
    )
    dependencies = sorted(
        (name, str(dc.spec), str(dc.when) if dc.when is not None else "")
        for name, constraints in getattr(cls, "dependencies", {}).items()
        for dc in constraints
    )
    provided = sorted(
        (str(p.spec), str(p.when) if p.when is not None else "")
        for p in getattr(cls, "provided", ())
    )
    variants = sorted(
        (name, bool(v.default)) for name, v in getattr(cls, "variants", {}).items()
    )
    requirements = sorted(
        (str(feature), str(when) if when is not None else "")
        for feature, when in getattr(cls, "compiler_requirements", ())
    )
    conflicts = sorted(
        (str(spec), str(when) if when is not None else "", msg or "")
        for spec, when, msg in getattr(cls, "conflict_specs", ())
    )
    patches = sorted(
        (p.name, str(p.when) if p.when is not None else "")
        for p in getattr(cls, "patches", ())
    )
    return repr((versions, dependencies, provided, variants, requirements,
                 conflicts, patches))


class EnvironmentDigest:
    """Digest of everything concretization depends on besides the spec.

    Walking every package class is the expensive part, so it runs once
    per frozen state (:class:`~repro.service.snapshot.StateSnapshot`
    computes its digest on first use); any package registration, config
    update, or compiler change forks a new state with a new digest and
    thereby invalidates every cache key automatically.
    """

    def __init__(self, repo, compilers, config, policy):
        self.repo = repo
        self.compilers = compilers
        self.config = config
        self.policy = policy

    def _compiler_fingerprint(self):
        return tuple(
            (str(c), tuple(sorted((f, str(v)) for f, v in c.features.items())))
            for c in self.compilers.all_compilers()
        )

    def _policy_fingerprint(self):
        cls = type(self.policy)
        return "%s.%s" % (cls.__module__, cls.__qualname__)

    def current(self):
        """The environment digest (hex) of the repo, config, compilers
        and policy as they are now."""
        digest = hashlib.sha256()
        for name in self.repo.all_package_names():
            digest.update(name.encode())
            digest.update(describe_package_class(self.repo.get_class(name)).encode())
        digest.update(
            json.dumps(self.config.merged(), sort_keys=True, default=str).encode()
        )
        digest.update(repr(self._compiler_fingerprint()).encode())
        digest.update(self._policy_fingerprint().encode())
        return digest.hexdigest()


class ConcretizationCache:
    """On-disk map from (abstract spec, environment, variant) to a
    serialized concrete spec."""

    def __init__(self, root, telemetry=None, faults=None):
        self.root = os.path.abspath(root)
        self.telemetry = telemetry
        self.faults = faults
        self._index_lock = Lock(os.path.join(self.root, ".index.lock"))
        #: stat-validated parses, one per shard: {kk: ((mtime_ns, size),
        #: dict)} — each value is one atomic pair so a concurrent reader
        #: can't pair a fresh stamp with a stale parse
        self._shard_memos = {}

    # -- keys --------------------------------------------------------------
    @staticmethod
    def make_key(abstract_text, env_digest, variant):
        """Cache key: sha256 over the canonical abstract spec text, the
        environment digest, and the concretizer variant name."""
        blob = "%s\n%s\n%s" % (abstract_text, env_digest, variant)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- index I/O (buildcache discipline, sharded) ------------------------
    def _legacy_index_path(self):
        return os.path.join(self.root, "index.json")

    def _shard_dir(self):
        return os.path.join(self.root, "index")

    def _shard_path(self, kk):
        return os.path.join(self._shard_dir(), "%s.json" % kk)

    def _migrate_legacy(self):
        """Fold a pre-shard monolithic ``index.json`` into the sharded
        layout.  Runs at most once per on-disk cache (the legacy file is
        removed after its entries land in their shards); the steady-state
        cost is one ``os.path.exists`` stat."""
        legacy_path = self._legacy_index_path()
        if not os.path.exists(legacy_path):
            return
        mkdirp(self._shard_dir())
        with self._index_lock:
            if not os.path.exists(legacy_path):  # another session won
                return
            try:
                with open(legacy_path) as f:
                    legacy = json.load(f)
            except (OSError, ValueError):
                legacy = {}
            by_shard = {}
            for key, entry in legacy.items():
                by_shard.setdefault(key[:2], {})[key] = entry
            for kk, entries in sorted(by_shard.items()):
                merged = self._read_shard_unmemoized(kk)
                # shard entries win: they are newer than the legacy file
                merged = dict(entries, **merged)
                self._atomic_write(
                    self._shard_path(kk),
                    json.dumps(merged, indent=1, sort_keys=True).encode(),
                )
            os.remove(legacy_path)
            self._shard_memos = {}

    def _read_shard_unmemoized(self, kk):
        try:
            with open(self._shard_path(kk)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    def read_shard(self, kk):
        """{key: {root, dag_hash, entry}} for one shard — empty when
        absent.  The parsed shard is reused until the file's (mtime,
        size) changes, so steady-state lookups do one ``stat`` instead
        of a full read+parse."""
        path = self._shard_path(kk)
        try:
            st = os.stat(path)
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            self._shard_memos.pop(kk, None)
            return {}
        memo = self._shard_memos.get(kk)  # one read: writers can't tear it
        if memo is not None and memo[0] == stamp:
            return memo[1]
        try:
            with open(path) as f:
                shard = json.load(f)
        except (OSError, ValueError):
            return {}
        self._shard_memos[kk] = (stamp, shard)
        return shard

    def read_index(self):
        """The merged {key: entry} view across every shard.  O(total
        entries) — diagnostics and tests only; the hot paths read one
        shard."""
        self._migrate_legacy()
        index = {}
        try:
            shard_files = sorted(os.listdir(self._shard_dir()))
        except OSError:
            return index
        for name in shard_files:
            if name.endswith(".json"):
                index.update(self.read_shard(name[:-len(".json")]))
        return index

    def _update_shard(self, kk, mutate):
        """Read-merge-write one shard under the cache lock; racing
        sessions never lose each other's entries, and the bytes written
        scale with the shard (~n/256), not the whole index."""
        self._migrate_legacy()
        mkdirp(self._shard_dir())
        with self._index_lock:
            shard = dict(self._read_shard_unmemoized(kk))
            mutate(shard)
            self._atomic_write(
                self._shard_path(kk),
                json.dumps(shard, indent=1, sort_keys=True).encode(),
            )
            self._shard_memos.pop(kk, None)  # force re-stat on next read

    @staticmethod
    def _atomic_write(path, data):
        # the tmp name must be unique per *writer*, not per process: two
        # daemon worker threads share a pid, and a fixed name lets one
        # writer truncate (or os.replace away) the other's half-written
        # file.  mkstemp gives each call its own exclusively-created file.
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=os.path.dirname(path),
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    # -- payloads ----------------------------------------------------------
    def _entry_path(self, key):
        return os.path.join(self.root, key[:2], "%s.json" % key)

    def _count(self, name):
        if self.telemetry is not None:
            self.telemetry.count("concretize.cache.%s" % name)

    def _drop(self, key):
        """Remove a bad entry (corrupt payload or stale hash)."""
        self._update_shard(key[:2], lambda shard: shard.pop(key, None))
        try:
            os.remove(self._entry_path(key))
        except OSError:
            pass
        self._count("invalidate")

    # -- the cache proper --------------------------------------------------
    def lookup(self, key):
        """The cached concrete Spec for ``key``, or None.

        Every hit is verified: the payload is deserialized and its DAG
        hash recomputed against the indexed one, so corruption — real or
        injected through the ``concretize.cache.corrupt`` fault site —
        is caught here and answered by dropping the entry (the caller
        then re-concretizes from scratch).  Returns a fresh Spec per
        call; callers own (and may mutate) the result.
        """
        self._migrate_legacy()
        entry = self.read_shard(key[:2]).get(key)
        if entry is None:
            self._count("miss")
            return None
        try:
            with open(self._entry_path(key), "rb") as f:
                payload = f.read()
        except OSError:
            self._drop(key)
            self._count("miss")
            return None
        if self.faults is not None:
            fault = self.faults.hit(
                "concretize.cache.corrupt", target=entry.get("root")
            )
            if fault is not None:
                # rot the payload the way a torn write would
                payload = payload[: max(0, len(payload) // 2)] + b'{"rot":1}'
        try:
            spec = Spec.from_dict(json.loads(payload.decode()))
            dag_hash = spec.dag_hash()
        except Exception:
            self._drop(key)
            self._count("miss")
            return None
        if dag_hash != entry.get("dag_hash"):
            self._drop(key)
            self._count("miss")
            return None
        self._count("hit")
        return spec

    def store(self, key, spec):
        """Persist a concrete spec under ``key`` (payload first, then the
        index entry, so a reader never sees an indexed-but-missing
        payload)."""
        entry_path = self._entry_path(key)
        mkdirp(os.path.dirname(entry_path))
        payload = json.dumps(spec.to_dict(), sort_keys=True, indent=1)
        self._atomic_write(entry_path, payload.encode())
        entry = {
            "root": spec.name,
            "dag_hash": spec.dag_hash(),
            "entry": os.path.join(key[:2], "%s.json" % key),
        }
        self._update_shard(key[:2], lambda shard: shard.__setitem__(key, entry))

    def entries(self):
        """(key, entry) pairs, deterministically ordered."""
        return sorted(self.read_index().items())

    def __len__(self):
        return len(self.read_index())
