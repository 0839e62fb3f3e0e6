"""How far a write's invalidation reaches, counted.

``invalidate_caches`` climbs to parents only from nodes that held
DAG-level state (``_concrete``, ``_normal``, ``_hash``, ``_rhash``).
Inside the fixed point, which works on a private non-concrete copy,
every write then resets its own node and nothing else; a write below a
concrete copy still clears every ancestor
(``test_cache_invalidation.py``).  ``copy()`` writes the new edges
directly and fires no invalidation at all.
"""

from repro.spec.spec import Spec


def _count_resets(monkeypatch):
    """Log every ``invalidate_caches`` call and every node it resets."""
    log = {"invalidations": 0, "resets": 0}
    real_invalidate = Spec.invalidate_caches
    real_reset = Spec._reset_caches

    def invalidate(self):
        log["invalidations"] += 1
        return real_invalidate(self)

    def reset(self):
        log["resets"] += 1
        return real_reset(self)

    monkeypatch.setattr(Spec, "invalidate_caches", invalidate)
    monkeypatch.setattr(Spec, "_reset_caches", reset)
    return log


class TestConcretizationResetsOneNodePerWrite:
    def test_greedy_and_solver_make_no_ancestor_hop(self, session,
                                                    monkeypatch):
        log = _count_resets(monkeypatch)
        for text, variant in (("mpileaks", "greedy"),
                              ("ares ^mvapich", "greedy"),
                              ("mpileaks", "solver")):
            session.concretize(text, concretizer=variant, use_cache=False)
        assert log["invalidations"] > 100
        assert log["resets"] == log["invalidations"]

    def test_a_write_below_a_concrete_copy_clears_every_ancestor(
            self, session):
        """Holds before and after the climb was narrowed."""
        concrete = session.concretize("mpileaks").copy()
        ancestors = [n for n in concrete.traverse()
                     if "libelf" in n.flat_dependencies()]
        assert len(ancestors) >= 3
        concrete["libelf"].architecture = "bgq"
        for node in ancestors + [concrete["libelf"]]:
            assert not node._concrete and node._hash is None
        # nodes off the path keep their state
        assert concrete["mpi"]._concrete


class TestDagKeyStorage:
    def test_only_a_frozen_spec_stores_its_dag_key(self, session):
        mutable = Spec("mpileaks ^callpath@1.0")
        key = mutable._dag_key()
        assert mutable._dkey is None
        assert mutable._dag_key() == key
        frozen = session.concretize("mpileaks")
        assert frozen.frozen
        assert frozen._dag_key() is frozen._dkey is not None
        copied = frozen.copy()
        assert copied._dag_key() == frozen._dag_key()
        assert copied._dkey is None


class TestCopyFiresNoInvalidation:
    def test_copy_of_a_concrete_dag(self, session, monkeypatch):
        concrete = session.concretize("ares ^mvapich")
        log = _count_resets(monkeypatch)
        copied = concrete.copy()
        again = copied.copy()
        assert log == {"invalidations": 0, "resets": 0}
        for dag in (copied, again):
            assert dag.dag_hash() == concrete.dag_hash()
            assert dag.runtime_hash() == concrete.runtime_hash()
            assert all(n._concrete for n in dag.traverse())
        # the copy keeps its back-references: a write still climbs
        copied["zlib"].architecture = "bgq"
        assert copied.dag_hash() != concrete.dag_hash()
        assert not copied._concrete
