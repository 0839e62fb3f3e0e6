"""The persistent concretization cache (fast-path Layer 3).

Concretization is a pure function of four inputs: the abstract request,
the package universe, the configuration/policy stack, and the algorithm
variant (greedy or solver).  This module captures those inputs as
digests and memoizes the output — the serialized concrete DAG — on
disk, following Guix's insight (PAPERS.md: *Reproducible and
User-Controlled Software Environments in HPC*) that derived results
keyed by content digest can be reused indefinitely without a
correctness risk: change any input and the key changes with it.

Layout: one self-verifying file per entry, and nothing else::

    <root>/<kk>/<key>.json     the concrete DAG (Spec.to_dict) + its dag_hash

where ``<kk>`` is the first two key characters (fanout).  A store
writes that one file whole, by one rename, so it needs no lock and
rewrites no other file: a reader sees the old file or the new one,
never a torn one, and since concretization is a pure function of the
key, two writers of one key leave one complete payload.  A missing
file is a miss.

Integrity is hash-first: a looked-up payload is deserialized and its
``dag_hash`` recomputed; a mismatch against the recorded hash (bit rot,
the ``concretize.cache.corrupt`` fault, or a payload of the older
indexed layout, which records none) removes the file and falls back to
cold concretization, which stores it again.  That layout's ``index/``,
``index.json`` and ``.index.lock`` are ignored.  Telemetry counters:
``concretize.cache.hit`` / ``.miss`` / ``.invalidate``.
"""

import hashlib
import json
import os

from repro.spec.spec import Spec
from repro.util.filesystem import atomic_write, mkdirp


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

    # -- keys --------------------------------------------------------------
    @staticmethod
    def make_key(abstract_text, env_digest, variant):
        """Cache key: sha256 over the canonical abstract spec text, the
        environment digest, and the concretizer variant name."""
        blob = "%s\n%s\n%s" % (abstract_text, env_digest, variant)
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- payloads ----------------------------------------------------------
    def _entry_path(self, key):
        return os.path.join(self.root, key[:2], "%s.json" % key)

    def _count(self, name):
        if self.telemetry is not None:
            self.telemetry.count("concretize.cache.%s" % name)

    def _drop(self, key):
        """Remove a bad entry (corrupt payload or stale hash)."""
        try:
            os.remove(self._entry_path(key))
        except OSError:
            pass
        self._count("invalidate")

    # -- the cache proper --------------------------------------------------
    def lookup(self, key):
        """The cached concrete Spec for ``key``, or None.

        Every hit is verified: the payload is deserialized and its DAG
        hash recomputed against the one recorded beside it, so
        corruption — real or injected through the
        ``concretize.cache.corrupt`` fault site — is caught here and
        answered by removing the file (the caller then re-concretizes
        from scratch).  Returns a new frozen Spec per call (what
        ``Spec.from_dict`` makes of a concrete payload), ready to be
        shared; ``copy()`` it to mutate.
        """
        try:
            with open(self._entry_path(key), "rb") as f:
                payload = f.read()
        except OSError:
            self._count("miss")
            return None
        try:
            data = json.loads(payload)
            if self.faults is not None and self.faults.hit(
                "concretize.cache.corrupt", target=data.get("root")
            ) is not None:
                # rot the payload the way a torn write would
                data = json.loads(payload[: len(payload) // 2] + b'{"rot":1}')
            spec = Spec.from_dict(data)
            intact = spec.dag_hash() == data.get("dag_hash")
        except Exception:
            intact = False
        if not intact:
            self._drop(key)
            self._count("miss")
            return None
        self._count("hit")
        return spec

    def store(self, key, spec):
        """Persist a concrete spec and its DAG hash under ``key``, as one
        file written whole."""
        path = self._entry_path(key)
        payload = dict(spec.to_dict(), dag_hash=spec.dag_hash())
        data = json.dumps(payload, sort_keys=True).encode()
        try:
            atomic_write(path, data)
        except FileNotFoundError:  # the first entry of its fanout directory
            mkdirp(os.path.dirname(path))
            atomic_write(path, data)

    def entries(self):
        """(key, {"entry": path under the root}) pairs, sorted: a scan of
        every fanout directory, for tests and diagnostics."""
        pairs = []
        try:
            fanouts = os.listdir(self.root)
        except OSError:
            return pairs
        for kk in fanouts:
            if len(kk) != 2:  # the older layout's index files
                continue
            try:
                names = os.listdir(os.path.join(self.root, kk))
            except OSError:
                continue
            pairs.extend(
                (name[: -len(".json")], {"entry": os.path.join(kk, name)})
                for name in names
                if name.endswith(".json")
            )
        return sorted(pairs)

    def __len__(self):
        return len(self.entries())
