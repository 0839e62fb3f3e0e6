"""The installed-package database.

A JSON index under the store root records every installed spec by DAG
hash: the full serialized spec, its prefix, whether the user asked for it
*explicitly* or it came in as a dependency, and when it was installed.
``spack find``-style queries and safe uninstalls (refusing to remove a
package something else links against) are answered from here.

The database is rebuildable: if the index file is corrupt or missing, it
is reconstructed from the per-prefix provenance files the installer
writes (§3.4.3) — tested by the failure-injection suite.

Concurrency: every mutation is a read-merge-write cycle under the index
lock — the on-disk index is re-read *inside* the critical section and
merged into the in-memory snapshot before this writer's change is
applied, so records added by a concurrent writer (another process, or a
scheduler worker thread) are never clobbered by a stale snapshot.
:meth:`Database.transaction` batches several mutations into one such
cycle: the DAG-parallel scheduler registers a whole drain of finished
builds with a single lock acquisition and a single index write.

A cycle costs what it changes.  Beside its records the database keeps
the index as it last read or wrote it: the file's bytes and each
record's dict.  The re-read parses no record when the file's bytes are
unchanged, and otherwise only the records whose dict differs.  The
write happens only when a mutation changed a record or the re-read
found the file unparseable, and re-serializes only the changed records.
The index is compact JSON (sorted keys, no indentation, so the C
encoder writes it); an indented index reads the same.
"""

import contextlib
import json
import os
import time

from repro.errors import ReproError
from repro.spec.spec import Spec
from repro.store.layout import METADATA_DIR
from repro.util.filesystem import atomic_write, mkdirp


class DatabaseError(ReproError):
    """Database file problems."""


#: spec written into the index by the ``db.write_race`` fault, standing in
#: for a record a concurrent session registered behind our snapshot
FOREIGN_NAME = "injected-foreign"
FOREIGN_SPEC = FOREIGN_NAME + "@9.9%gcc@4.9.2=linux-x86_64"


class InstallRecord:
    """One installed spec: the spec, its prefix, and bookkeeping."""

    def __init__(self, spec, prefix, explicit=False, installed_at=None):
        self.spec = spec
        self.prefix = prefix
        self.explicit = explicit
        self.installed_at = installed_at if installed_at is not None else time.time()

    def to_dict(self):
        return {
            "spec": self.spec.to_dict(),
            "prefix": self.prefix,
            "explicit": self.explicit,
            "installed_at": self.installed_at,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            Spec.from_dict(data["spec"]),
            data["prefix"],
            explicit=data.get("explicit", False),
            installed_at=data.get("installed_at"),
        )

    def __repr__(self):
        return "InstallRecord(%s, %r)" % (self.spec, self.prefix)


class Database:
    """Hash-keyed index of installed specs, persisted as JSON."""

    _INDEX_NAME = "index.json"

    def __init__(self, root, telemetry=None, faults=None):
        from repro.util.lock import Lock

        self.root = os.path.abspath(root)
        self.db_dir = os.path.join(self.root, ".spack-db")
        self.index_path = os.path.join(self.db_dir, self._INDEX_NAME)
        #: optional session FaultInjector (db.write_race, lock.timeout)
        self.faults = faults
        #: serializes read-modify-write cycles across sessions/processes
        self.lock = Lock(
            os.path.join(self.db_dir, "index.lock"),
            faults=faults,
            owner="db.index",
        )
        #: optional session Telemetry hub (lock waits, reindex spans)
        self.telemetry = telemetry
        self._records = {}
        #: the index as last read or written: the file's bytes and its
        #: {hash: record dict}
        self._disk_bytes = None
        self._disk = {}
        #: keys whose record differs from ``_disk`` (added, removed or
        #: changed since the index was last read or written)
        self._dirty = set()
        #: depth > 0 while inside transaction(); saves are deferred
        self._txn_depth = 0
        self._load()

    @contextlib.contextmanager
    def _locked(self):
        """Hold the index lock, recording how long acquisition took."""
        start = time.perf_counter()
        with self.lock:
            if self.telemetry is not None:
                self.telemetry.count("db.lock_acquires")
                self.telemetry.observe("db.lock_wait_s", time.perf_counter() - start)
            yield

    def _reread_index(self):
        """Merge the on-disk index into memory (call while locked).

        Returns True when the index is unparseable, so that the caller
        rewrites it from memory.  Unlike :meth:`refresh` this never
        discards in-memory records that the disk does not know about yet
        and never falls back to a prefix scan — it only folds in what
        other writers have persisted since our snapshot, with the disk
        winning for the records they changed.  Only those records are
        parsed, and none when the file's bytes are the ones last seen.
        """
        try:
            with open(self.index_path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            raw = None
        except OSError:
            return True
        if raw == self._disk_bytes:
            return False
        try:
            disk = json.loads(raw).get("installs", {}) if raw is not None else {}
            changed = {
                h: InstallRecord.from_dict(rd)
                for h, rd in disk.items()
                if self._disk.get(h) != rd
            }
        except (ValueError, KeyError):
            return True  # corrupt index: keep our snapshot; _save rewrites it
        self._records.update(changed)
        # records only in memory stay, and the next write restores them
        self._dirty = {
            h for h in self._dirty if h in disk and h not in changed
        } | {h for h in self._records if h not in disk}
        self._disk, self._disk_bytes = disk, raw
        return False

    def _write_foreign_record(self):
        """Write :data:`FOREIGN_SPEC` straight to the on-disk index,
        bypassing this Database's snapshot — the ``db.write_race`` fault's
        stand-in for a concurrent session's writer."""
        spec = Spec(FOREIGN_SPEC)
        spec._concrete = spec._normal = True
        record = InstallRecord(
            spec, os.path.join(self.root, "opt", "foreign"), installed_at=0.0
        )
        try:
            with open(self.index_path) as f:
                data = json.load(f)
        except (OSError, ValueError):
            data = {"installs": {}}
        data.setdefault("installs", {})[spec.dag_hash()] = record.to_dict()
        mkdirp(self.db_dir)
        tmp = self.index_path + ".foreign.tmp"
        with open(tmp, "w") as f:
            f.write(json.dumps(data, sort_keys=True))
        os.replace(tmp, self.index_path)

    @contextlib.contextmanager
    def transaction(self):
        """One read-merge-write cycle batching any number of mutations.

        Acquires the index lock, re-reads the on-disk index, lets the
        body apply mutations (``add``/``remove``/``mark_explicit``), and
        persists once on exit if a record changed or the index was
        unparseable.  Nests: inner transactions piggyback on the
        outermost one's read and write.
        """
        if self.faults is not None and self._txn_depth == 0:
            # fault site: a concurrent session wrote the index between our
            # snapshot and this transaction's lock; the re-read merge below
            # must fold its record in rather than clobber it
            if self.faults.hit("db.write_race") is not None:
                self._write_foreign_record()
        with self._locked():
            unparseable = self._txn_depth == 0 and self._reread_index()
            self._txn_depth += 1
            try:
                yield self
            finally:
                self._txn_depth -= 1
            if self._txn_depth == 0 and (self._dirty or unparseable):
                self._save()

    # -- persistence ---------------------------------------------------------
    def _load(self):
        self._records, self._disk, self._disk_bytes = {}, {}, None
        self._dirty = set()
        if self._reread_index() or self._disk_bytes is None:
            # Missing index (deleted, new mount) or corrupt one:
            # reconstruct from provenance.  A fresh store scans nothing.
            self.rebuild_from_prefixes()

    def _save(self):
        """Write the index: the records as last read or written, with
        the changed ones re-serialized, replacing the file atomically."""
        installs = dict(self._disk)
        for key in self._dirty:
            record = self._records.get(key)
            if record is None:
                installs.pop(key, None)
            else:
                installs[key] = record.to_dict()
        raw = json.dumps({"installs": installs}, sort_keys=True).encode()
        mkdirp(self.db_dir)
        atomic_write(self.index_path, raw)
        self._disk, self._disk_bytes = installs, raw
        self._dirty = set()

    def rebuild_from_prefixes(self):
        """Replace the records with those reconstructed from per-prefix
        ``spec.json`` provenance and write the index, under the index
        lock.  Returns how many records were found."""
        from repro.store.layout import DirectoryLayout
        from repro.telemetry.hub import NULL_SPAN

        span = (
            self.telemetry.span("db.reindex", root=self.root)
            if self.telemetry is not None
            else NULL_SPAN
        )
        with span, self._locked():
            layout = DirectoryLayout(os.path.join(self.root, "opt"))
            records = {}
            skipped = 0
            for prefix in layout.all_specs_dirs():
                spec_file = os.path.join(prefix, METADATA_DIR, "spec.json")
                if not os.path.isfile(spec_file):
                    skipped += 1
                    continue
                try:
                    with open(spec_file) as f:
                        spec = Spec.from_dict(json.load(f))
                except (ValueError, KeyError):
                    skipped += 1
                    continue
                records[spec.dag_hash()] = InstallRecord(spec, prefix)
            # rewrite every record found or last seen in the index; with
            # neither (a fresh store) write nothing, so an index another
            # process created since our load is kept
            self._dirty = set(records) | set(self._disk)
            self._records = records
            if self._dirty:
                self._save()
            span.set(found=len(records), skipped=skipped)
        return len(records)

    def refresh(self):
        """Re-read the index (pick up other sessions' writes)."""
        self._load()

    # -- mutation --------------------------------------------------------------
    def add(self, spec, prefix, explicit=False):
        if not spec.concrete:
            raise DatabaseError("Only concrete specs can be installed: %s" % spec)
        with self.transaction():
            key = spec.dag_hash()
            # records are frozen, like those read back from the index
            if not spec.frozen:
                spec = spec.copy().freeze()
            record = InstallRecord(spec, prefix, explicit=explicit)
            self._records[key] = record
            self._dirty.add(key)
        return record

    def remove(self, spec):
        with self.transaction():
            key = spec.dag_hash()
            if key not in self._records:
                raise DatabaseError("Spec is not installed: %s" % spec)
            record = self._records.pop(key)
            self._dirty.add(key)
        return record

    def mark_explicit(self, spec, explicit=True):
        with self.transaction():
            key = spec.dag_hash()
            record = self._records.get(key)
            if record and record.explicit != explicit:
                record.explicit = explicit
                self._dirty.add(key)

    # -- queries ----------------------------------------------------------------
    def get(self, spec):
        return self._records.get(spec.dag_hash())

    def installed(self, spec):
        return spec.dag_hash() in self._records

    def all_records(self):
        # list() snapshots: a scheduler worker may be adding concurrently
        return sorted(list(self._records.values()), key=lambda r: str(r.spec))

    def query(self, query_spec=None, explicit=None):
        """Installed specs satisfying an (abstract) query spec.

        ``session.find('mpileaks@1.0 %gcc')`` resolves here: each installed
        concrete spec is matched with strict satisfaction against the query.
        """
        if query_spec is not None and not isinstance(query_spec, Spec):
            query_spec = Spec(query_spec)
        results = []
        for record in list(self._records.values()):
            if explicit is not None and record.explicit != explicit:
                continue
            if query_spec is not None and not record.spec.satisfies(
                query_spec, strict=True
            ):
                continue
            results.append(record)
        return sorted(results, key=lambda r: str(r.spec))

    def hashes(self):
        """The DAG hashes of every installed spec, sorted: the installed
        set's identity, read without rendering a record."""
        return sorted(self._records)

    def get_by_hash(self, hash_prefix):
        """Records whose DAG hash starts with ``hash_prefix`` (the CLI's
        ``find /db4650`` syntax)."""
        return [
            record
            for full_hash, record in sorted(list(self._records.items()))
            if full_hash.startswith(hash_prefix)
        ]

    def dependents_of(self, spec):
        """Installed specs that depend (transitively) on ``spec``."""
        key = spec.dag_hash()
        dependents = []
        for record in list(self._records.values()):
            if record.spec.dag_hash() == key:
                continue
            for node in record.spec.traverse(root=False):
                if node.dag_hash() == key:
                    dependents.append(record)
                    break
        return dependents

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self.all_records())
