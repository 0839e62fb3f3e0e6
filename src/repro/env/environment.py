"""Environments: a named *set* of abstract roots managed as one unit.

An environment is a manifest (``env.json``: the abstract roots, in the
order they were added) plus a lockfile (``env.lock.json``: the unified
concrete DAGs from the last ``concretize``).  The lockfile is keyed by
an *environment key* — a digest over the root set, the concretizer
variant, and the environment digest of the session's current State —
so any change to the roots, the package universe, the configuration, or
the algorithm makes the lock stale and the next concretize recomputes;
an unchanged key is a warm hit that restores the unified result
straight from disk (with the same hash-verification discipline the
concretization cache uses).

The heavy lifting lives in :mod:`repro.env.unify`; this module is the
durable state around it.
"""

import hashlib
import json
import os

from repro.env.unify import UnifiedEnvironment, unify_roots
from repro.errors import ReproError
from repro.spec.spec import Spec
from repro.util.filesystem import mkdirp

MANIFEST_NAME = "env.json"
LOCK_NAME = "env.lock.json"


def unify_on_state(session, state, roots, variant, name, jobs=None,
                   use_cache=True):
    """Unify ``roots`` with every per-root solve on one State (a
    :class:`~repro.service.snapshot.StateSnapshot`), under an
    ``env.concretize`` span named ``name``."""
    if jobs is None:
        jobs = session.install_jobs
    with session.telemetry.span(
        "env.concretize", environment=name, roots=len(roots), jobs=jobs,
        variant=variant,
    ):
        return unify_roots(
            roots,
            lambda spec: state.concretize(
                spec, variant, database=session.db, use_cache=use_cache
            ),
            jobs=jobs,
            telemetry=session.telemetry,
        )


class EnvironmentStateError(ReproError):
    """The environment's on-disk state is unusable for the request
    (e.g. installing from a stale or missing lockfile)."""


class Environment:
    """One environment rooted at a directory.

    >>> env = Environment(path, name="dev")
    >>> env.add("mpileaks"); env.add("dyninst ^libelf@0.8.12")
    >>> unified = env.concretize(session, jobs=4)
    """

    def __init__(self, path, name=None):
        self.path = os.path.abspath(path)
        self.name = name or os.path.basename(self.path)
        self.roots = []
        self._load_manifest()

    # -- manifest ----------------------------------------------------------
    def _manifest_path(self):
        return os.path.join(self.path, MANIFEST_NAME)

    def _lock_path(self):
        return os.path.join(self.path, LOCK_NAME)

    def _load_manifest(self):
        try:
            with open(self._manifest_path()) as f:
                manifest = json.load(f)
        except OSError:
            return
        except ValueError:
            raise EnvironmentStateError(
                "environment manifest %s is not valid JSON"
                % self._manifest_path()
            )
        self.name = manifest.get("name", self.name)
        self.roots = list(manifest.get("roots", []))

    def save(self):
        mkdirp(self.path)
        blob = json.dumps(
            {"name": self.name, "roots": self.roots},
            indent=1, sort_keys=True,
        )
        with open(self._manifest_path(), "w") as f:
            f.write(blob + "\n")

    def add(self, spec_text):
        """Add one abstract root (validated by parsing); returns True if
        it was new."""
        text = str(Spec(str(spec_text)))
        if text in self.roots:
            return False
        self.roots.append(text)
        self.save()
        return True

    def remove(self, spec_text):
        """Remove a root by its canonical text; returns True if found."""
        text = str(Spec(str(spec_text)))
        if text not in self.roots:
            return False
        self.roots.remove(text)
        self.save()
        return True

    # -- the environment key -----------------------------------------------
    def environment_key(self, state, variant):
        """Digest over the root *set*, the variant, and everything
        per-root concretization depends on (the environment digest of
        ``state``, a :class:`~repro.service.snapshot.StateSnapshot`) —
        the lockfile's validity key."""
        digest = hashlib.sha256()
        digest.update(state.env_digest.encode())
        digest.update(b"\n")
        digest.update(variant.encode())
        for text in sorted(self.roots):
            digest.update(b"\n")
            digest.update(text.encode())
        return digest.hexdigest()

    # -- concretization ----------------------------------------------------
    def concretize(self, session, jobs=None, concretizer=None,
                   use_cache=True, force=False):
        """Concretize every root *together* (see :mod:`repro.env.unify`)
        against the session's current State, so every root resolves
        under one package/config state.

        Warm path: an up-to-date lockfile (same environment key) is
        restored directly — every stored DAG is deserialized and its
        ``dag_hash`` re-verified, so a corrupted lock falls back to a
        fresh unification instead of lying.
        """
        state = session.snapshots.current()
        variant = state.variant(concretizer)
        env_key = self.environment_key(state, variant)
        if not force:
            restored = self._restore_lock(env_key)
            if restored is not None:
                session.telemetry.count("env.lock.hit")
                return restored
        session.telemetry.count("env.lock.miss")
        unified = unify_on_state(
            session, state, self.roots, variant, self.name,
            jobs=jobs, use_cache=use_cache,
        )
        self._write_lock(env_key, variant, unified)
        return unified

    def _write_lock(self, env_key, variant, unified):
        mkdirp(self.path)
        blob = json.dumps(
            {
                "environment_key": env_key,
                "variant": variant,
                "pins": unified.pins,
                "rounds": unified.rounds,
                "roots": [
                    {
                        "root": text,
                        "dag_hash": concrete.dag_hash(),
                        "spec": concrete.to_dict(),
                    }
                    for text, concrete in unified.roots
                ],
            },
            indent=1, sort_keys=True,
        )
        with open(self._lock_path(), "w") as f:
            f.write(blob + "\n")

    def _read_lock(self):
        try:
            with open(self._lock_path()) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def _restore_lock(self, env_key):
        """The UnifiedEnvironment recorded under ``env_key``, or None
        when absent, keyed differently, or corrupt."""
        lock = self._read_lock()
        if not lock or lock.get("environment_key") != env_key:
            return None
        entries = lock.get("roots", [])
        if [e.get("root") for e in entries] != self.roots:
            return None
        restored = []
        for entry in entries:
            try:
                spec = Spec.from_dict(entry["spec"])
                ok = spec.dag_hash() == entry["dag_hash"]
            except Exception:
                ok = False
            if not ok:
                return None
            restored.append((entry["root"], spec))
        return UnifiedEnvironment(
            restored,
            rounds=lock.get("rounds", 0),
            resolves=0,
            pins=lock.get("pins", {}),
        )

    def lock_state(self, session, variant="greedy"):
        """'fresh', 'stale', or 'absent' — what `env status` reports."""
        lock = self._read_lock()
        if lock is None:
            return "absent"
        if lock.get("environment_key") == self.environment_key(
            session.snapshots.current(), lock.get("variant", variant)
        ) and [e.get("root") for e in lock.get("roots", [])] == self.roots:
            return "fresh"
        return "stale"

    # -- status / install --------------------------------------------------
    def status(self, session):
        """A report dict for the CLI/daemon: roots, lock freshness, and
        per-node install state of the unified set."""
        lock = self._read_lock()
        report = {
            "name": self.name,
            "path": self.path,
            "roots": list(self.roots),
            "lock": self.lock_state(session),
        }
        if lock and report["lock"] == "fresh":
            nodes = {}
            for entry in lock.get("roots", []):
                spec = Spec.from_dict(entry["spec"])
                for node in spec.traverse():
                    nodes[node.dag_hash()] = node
            installed = {
                record.spec.dag_hash() for record in session.db.query()
            }
            report["unique_nodes"] = len(nodes)
            report["installed"] = sum(
                1 for h in nodes if h in installed
            )
            report["root_hashes"] = {
                entry["root"]: entry["dag_hash"]
                for entry in lock.get("roots", [])
            }
        return report

    def install(self, session, jobs=None, **kwargs):
        """Install every concrete root from the (fresh) lockfile.

        Concretizes first when the lock is stale or absent, so the
        installed set is exactly the unified one — shared nodes install
        once and every root links against the same builds.
        """
        unified = self.concretize(session, jobs=jobs)
        results = []
        for text, concrete in unified.roots:
            concrete_result = session.install(
                concrete.copy(), jobs=jobs, **kwargs
            )
            results.append((text,) + tuple(concrete_result))
        return unified, results
