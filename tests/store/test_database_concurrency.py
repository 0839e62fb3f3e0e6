"""Database under concurrency: transactions, stale-snapshot merge, threads."""

import collections
import json
import threading

import pytest

from repro.spec.spec import Spec
from repro.store.database import FOREIGN_NAME, Database, InstallRecord


def _concrete_specs(session, names):
    return [session.concretize(n) for n in names]


def _fake_specs(count, start=0):
    """Distinct one-node concrete specs (no recipe needed)."""
    specs = []
    for i in range(start, start + count):
        spec = Spec("libelf@0.8.%d%%gcc@4.9.2=linux-x86_64" % i)
        spec._concrete = spec._normal = True
        specs.append(spec)
    return specs


def _filled(root, count=50):
    """A Database on ``root`` holding ``count`` records it wrote itself."""
    db = Database(root)
    with db.transaction():
        for spec in _fake_specs(count):
            db.add(spec, "/fake/%s" % spec.versions)
    return db


@pytest.fixture
def calls(monkeypatch):
    """Counts of record parses (``from_dict``), record serializations
    (``to_dict``) and index writes (``_save``) from here on."""
    counts = collections.Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(InstallRecord, "from_dict", classmethod(
        counting("from_dict", InstallRecord.from_dict.__func__)))
    monkeypatch.setattr(InstallRecord, "to_dict",
                        counting("to_dict", InstallRecord.to_dict))
    monkeypatch.setattr(Database, "_save", counting("save", Database._save))
    return counts


class TestTransaction:
    def test_batches_writes_into_one_save(self, session, monkeypatch):
        db = session.db
        saves = []
        real_save = db._save
        monkeypatch.setattr(
            db, "_save", lambda: (saves.append(1), real_save())[1]
        )
        specs = _concrete_specs(session, ["libelf", "zlib"])
        with db.transaction():
            for spec in specs:
                db.add(spec, "/fake/%s" % spec.name)
        assert len(saves) == 1  # nested adds piggyback on the outer txn
        assert all(db.installed(s) for s in specs)

    def test_nested_transactions_flatten(self, session):
        db = session.db
        spec = session.concretize("libelf")
        with db.transaction():
            with db.transaction():
                db.add(spec, "/fake/libelf")
            assert db._txn_depth == 1
        assert db._txn_depth == 0
        # persisted on outermost exit
        fresh = Database(db.root)
        assert fresh.installed(spec)

    def test_stale_snapshot_does_not_clobber_other_writer(self, session):
        """Two Database objects on one store: each writer's records survive
        the other's read-merge-write cycle, also when the index is in
        the indented layout of earlier versions."""
        db1 = session.db
        db2 = Database(db1.root)
        libelf, zlib, bzip2 = _concrete_specs(session, ["libelf", "zlib", "bzip2"])
        db1.add(libelf, "/fake/libelf")   # db2's snapshot is now stale
        db2.add(zlib, "/fake/zlib")       # must merge, not clobber
        fresh = Database(db1.root)
        assert fresh.installed(libelf)
        assert fresh.installed(zlib)
        with open(db1.index_path) as f:
            data = json.load(f)
        with open(db1.index_path, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
        db1.add(bzip2, "/fake/bzip2")     # reads it, merges zlib in
        assert db1.installed(zlib)
        with open(db1.index_path) as f:
            text = f.read()
        assert "\n" not in text          # rewritten compact
        assert set(json.loads(text)["installs"]) == {
            libelf.dag_hash(), zlib.dag_hash(), bzip2.dag_hash()}

    def test_corrupt_index_mid_transaction_keeps_memory(self, session):
        db = session.db
        libelf, zlib = _concrete_specs(session, ["libelf", "zlib"])
        db.add(libelf, "/fake/libelf")
        with open(db.index_path, "w") as f:
            f.write("{not json")
        db.add(zlib, "/fake/zlib")  # reread tolerates garbage, then rewrites
        with open(db.index_path) as f:
            data = json.load(f)
        assert set(data["installs"]) == {libelf.dag_hash(), zlib.dag_hash()}
        # an idle transaction that finds garbage rewrites it just the same
        with open(db.index_path, "w") as f:
            f.write("{not json")
        with db.transaction():
            pass
        with open(db.index_path) as f:
            data = json.load(f)
        assert set(data["installs"]) == {libelf.dag_hash(), zlib.dag_hash()}


class TestTransactionCost:
    """A transaction parses, serializes and writes only what changed
    (counted calls, not time)."""

    def test_idle_transaction_parses_and_writes_nothing(self, tmp_path, calls):
        db = _filled(str(tmp_path))
        calls.clear()
        with db.transaction():
            pass
        assert calls["save"] == 0
        assert calls["from_dict"] == 0

    def test_mark_explicit_of_explicit_spec_writes_nothing(self, tmp_path, calls):
        db = _filled(str(tmp_path))
        spec = _fake_specs(1)[0]
        db.mark_explicit(spec)
        calls.clear()
        db.mark_explicit(spec)
        assert calls["save"] == 0
        db.mark_explicit(spec, explicit=False)
        assert calls["save"] == 1
        assert Database(db.root).get(spec).explicit is False

    def test_add_parses_nothing_and_serializes_one(self, tmp_path, calls):
        db = _filled(str(tmp_path))
        spec = _fake_specs(1, start=50)[0]
        calls.clear()
        db.add(spec, "/fake/new")
        assert calls["from_dict"] == 0
        assert calls["to_dict"] == 1
        assert calls["save"] == 1
        assert len(Database(db.root)) == 51

    def test_second_writer_merged_parsing_only_its_record(self, tmp_path, calls):
        db1 = _filled(str(tmp_path))
        db2 = Database(db1.root)
        spec = _fake_specs(1, start=50)[0]
        db2.add(spec, "/fake/other")
        calls.clear()
        with db1.transaction():
            pass
        assert db1.installed(spec)
        assert calls["from_dict"] == 1
        assert calls["save"] == 0  # memory now equals the index

    def test_write_race_record_merged_parsing_only_it(self, tmp_path, calls):
        from repro.testing.faults import Fault, FaultInjector

        db = _filled(str(tmp_path))
        db.faults = FaultInjector()
        db.faults.arm([Fault("db.write_race")])
        calls.clear()
        with db.transaction():
            pass
        assert FOREIGN_NAME in [r.spec.name for r in db.all_records()]
        assert calls["from_dict"] == 1
        assert len(Database(db.root)) == 51


class TestQueryCost:
    def test_query_parses_its_text_once(self, tmp_path, monkeypatch):
        from repro.spec import parser

        db = _filled(str(tmp_path), count=12)
        expected = [str(r.spec) for r in db.all_records()]
        parses = []
        real_parse = parser.parse_specs

        def counting_parse(*args, **kwargs):
            parses.append(args[0])
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_specs", counting_parse)
        found = db.query("libelf")
        assert parses == ["libelf"]
        # every record matches, in the order all_records() gives
        assert [str(r.spec) for r in found] == expected
        del parses[:]
        assert [str(r.spec) for r in db.query("libelf@0.8.3")] == [
            "libelf@0.8.3%gcc@4.9.2=linux-x86_64"
        ]
        assert parses == ["libelf@0.8.3"]

    def test_hashes_are_the_record_keys_sorted(self, tmp_path):
        db = _filled(str(tmp_path), count=5)
        assert db.hashes() == sorted(r.spec.dag_hash() for r in db.query())


class TestThreadedWriters:
    def test_concurrent_adds_on_shared_database_all_persist(self, session):
        db = session.db
        specs = _concrete_specs(
            session, ["libelf", "zlib", "libdwarf", "bzip2"]
        )
        errors = []

        def add(spec):
            try:
                db.add(spec, "/fake/%s" % spec.name)
            except Exception as e:  # noqa: BLE001 — surfaced via assert
                errors.append(e)

        threads = [threading.Thread(target=add, args=(s,)) for s in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        fresh = Database(db.root)
        for spec in specs:
            assert fresh.installed(spec), spec.name

    def test_lock_serializes_threads_sharing_one_lockfile(self, tmp_path):
        """The hybrid flock+thread lock: two threads never hold it at once
        (bare flock cannot arbitrate threads sharing a process)."""
        from repro.util.lock import Lock

        lock = Lock(str(tmp_path / "x.lock"))
        inside = []
        overlap = []

        def worker():
            for _ in range(20):
                with lock:
                    inside.append(1)
                    if len(inside) > 1:
                        overlap.append(1)
                    inside.pop()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not overlap

    def test_lock_is_reentrant_within_a_thread(self, tmp_path):
        from repro.util.lock import Lock

        lock = Lock(str(tmp_path / "r.lock"))
        with lock:
            with lock:  # same thread: re-entrant, no deadlock
                pass
        # and still acquirable afterwards
        with lock:
            pass
