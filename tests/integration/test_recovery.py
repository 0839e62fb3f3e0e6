"""Disaster-recovery drills: damage the store, detect, repair.

The multi-user HPC reality the paper opens with includes filesystems
that eat things.  These tests chain the recovery tooling: verify finds
the damage, reindex rebuilds the database from provenance, reinstall
heals prefixes (hash-addressed prefixes make this safe), and mirrors
make all of it possible without a network.
"""

import json
import os
import shutil

import pytest

from repro.spec.spec import Spec
from repro.store.database import Database
from repro.store.verify import verify_store


class TestIndexLoss:
    def test_reindex_recovers_everything(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        count_before = len(session.db)
        os.unlink(session.db.index_path)

        rebuilt = Database(session.store.root)
        assert len(rebuilt) == count_before
        assert rebuilt.installed(spec)
        assert rebuilt.installed(spec["libelf"])
        # dependents protection still works off the rebuilt index
        assert rebuilt.dependents_of(spec["libelf"])

    def test_rebuilt_records_verify_clean(self, installed_mpileaks):
        session, _, _ = installed_mpileaks
        os.unlink(session.db.index_path)
        session.db.rebuild_from_prefixes()
        assert verify_store(session) == []


class TestPrefixLoss:
    def test_verify_then_reinstall_heals(self, installed_mpileaks):
        session, spec, _ = installed_mpileaks
        victim = spec["libelf"]
        prefix = session.store.layout.path_for_spec(victim)
        shutil.rmtree(prefix)

        issues = verify_store(session)
        assert any(i.kind == "missing-prefix" for i in issues)

        # remove the dead record, reinstall the same concrete spec:
        # the hash-addressed prefix comes back bit-for-bit compatible
        session.db.remove(victim)
        session.installer.install(victim)
        assert os.path.isdir(prefix)
        assert verify_store(session) == []

        # the dependents never noticed: their RPATHs point at the healed
        # prefix
        from repro.build.loader import ldd

        binary = os.path.join(session.store.layout.path_for_spec(spec), "bin", "mpileaks")
        assert "liblibelf.so.json" in ldd(binary, env={})


class TestRebuildReplaces:
    def test_rebuild_drops_records_of_deleted_prefixes(self, session,
                                                       monkeypatch):
        """rebuild_from_prefixes() replaces the record set in memory and
        in the index, and writes the index under the index lock."""
        spec, _ = session.install("libdwarf")
        db = session.db
        shutil.rmtree(session.store.layout.path_for_spec(spec))
        locked_saves = []
        real_save = db._save
        monkeypatch.setattr(
            db, "_save",
            lambda: (locked_saves.append(db.lock.held), real_save())[1],
        )
        assert db.rebuild_from_prefixes() == 1
        assert not db.installed(spec)
        assert db.installed(spec["libelf"])
        with open(db.index_path) as f:
            assert set(json.load(f)["installs"]) == {spec["libelf"].dag_hash()}
        assert locked_saves == [True]


class TestAirGappedRebuild:
    def test_full_rebuild_from_mirror_after_store_loss(self, session, tmp_path):
        """Store destroyed, network gone: mirror + recipes rebuild it."""
        from repro.fetch.mirror import Mirror, create_mirror

        mirror = Mirror(str(tmp_path / "m"))
        create_mirror(session, mirror, [Spec("mpileaks")])

        spec, _ = session.install("mpileaks")
        # catastrophe: the whole opt tree and index vanish
        shutil.rmtree(session.store.layout.root)
        os.unlink(session.db.index_path)
        session.db.refresh()
        # and the internet is gone too
        session.web._pages.clear()
        session.fetcher.add_mirror(mirror)

        respec, result = session.install("mpileaks")
        assert respec.dag_hash() == spec.dag_hash()
        assert len(result.built) == 6
        assert verify_store(session) == []
