"""Regression: mutating a node must invalidate its ancestors' caches.

``Spec.invalidate_caches`` used to clear only the mutated node, so a
concrete DAG whose shared child was changed (``constrain``,
``_add_dependency``) kept serving the parent's stale cached ``_hash``
with ``_concrete=True`` — exactly the identity the build cache and the
hash-addressed layout key on.
"""

from repro.spec.spec import Spec


def _concrete_mpileaks(session):
    # concretization results are frozen; these tests mutate a mutable copy
    return session.concretize(Spec("mpileaks")).copy()


class TestAncestorInvalidation:
    def test_add_dependency_invalidates_ancestors(self, session):
        spec = _concrete_mpileaks(session)
        old_hash = spec.dag_hash()
        child = spec["libelf"]

        extra = Spec("zlib@1.0%gcc@4.9.2=linux-x86_64")
        extra._concrete = True
        child._add_dependency(extra)

        assert not spec._concrete
        assert spec._hash is None
        assert spec.dag_hash() != old_hash

    def test_constrain_on_shared_child_reaches_every_parent(self, session):
        spec = _concrete_mpileaks(session)
        # libelf is shared: both libdwarf and dyninst depend on it
        parents = [
            node for node in spec.traverse()
            if "libelf" in node.dependencies
        ]
        assert len(parents) >= 2
        hashes = {id(p): p.dag_hash() for p in parents}

        spec["libelf"].constrain(Spec("libelf+debug"))

        for parent in parents:
            assert parent._hash is None
            assert not parent._concrete
            assert parent.dag_hash() != hashes[id(parent)]

    def test_mutation_changes_the_install_prefix(self, session):
        """The layout consumes dag_hash: a stale hash would alias two
        different builds into one prefix."""
        spec = _concrete_mpileaks(session)
        layout = session.store.layout
        old_prefix = layout.path_for_spec(spec)

        extra = Spec("zlib@1.0%gcc@4.9.2=linux-x86_64")
        extra._concrete = True
        spec["libelf"]._add_dependency(extra)
        spec._concrete = True  # re-stamp after the deliberate mutation

        assert layout.path_for_spec(spec) != old_prefix

    def test_copies_preserve_caches(self, session):
        """_dup/from_dict copying must NOT invalidate: provenance reads
        concrete specs back and relies on their stamped state."""
        spec = _concrete_mpileaks(session)
        copied = spec.copy()
        assert copied.concrete
        assert copied.dag_hash() == spec.dag_hash()

        via_dict = Spec.from_dict(spec.to_dict())
        assert via_dict.concrete
        assert via_dict.dag_hash() == spec.dag_hash()

    def test_retyping_an_edge_invalidates_both_hashes(self, session):
        """set_deptypes on a deep edge must reach every ancestor's
        ``_hash`` AND ``_rhash``: both tiers key on edge types."""
        spec = _concrete_mpileaks(session)
        old_dag = spec.dag_hash()
        old_runtime = spec.runtime_hash()
        parents = [
            node for node in spec.traverse()
            if "libelf" in node.dependencies
        ]
        assert len(parents) >= 2

        for parent in parents:
            changed = parent.dependencies.set_deptypes("libelf", ("run",))
            assert changed

        assert spec._hash is None and spec._rhash is None
        for parent in parents:
            assert parent._hash is None and parent._rhash is None
        spec._concrete = True  # re-stamp after the deliberate mutation
        for node in spec.traverse():
            node._concrete = True
        assert spec.dag_hash() != old_dag
        # libelf moved from the link closure to run-only: the runtime
        # edge label changes, so the runtime hash must change too
        assert spec.runtime_hash() != old_runtime

    def test_retyping_to_the_same_types_is_a_no_op(self, session):
        spec = _concrete_mpileaks(session)
        old_dag = spec.dag_hash()
        parent = spec["libdwarf"]
        current = parent.dependencies.deptypes("libelf")

        assert not parent.dependencies.set_deptypes("libelf", current)
        # caches untouched: no invalidation propagated
        assert spec._hash is not None
        assert spec.dag_hash() == old_dag

    def test_removing_an_edge_invalidates_ancestors(self, session):
        spec = _concrete_mpileaks(session)
        old_dag = spec.dag_hash()
        old_runtime = spec.runtime_hash()
        parent = spec["libdwarf"]

        del parent.dependencies["libelf"]

        assert "libelf" not in parent.dependencies
        assert "libelf" not in parent.dependencies._edge_types
        assert spec._hash is None and spec._rhash is None
        assert not spec._concrete
        for node in spec.traverse():
            node._concrete = True
        assert spec.dag_hash() != old_dag
        assert spec.runtime_hash() != old_runtime

    def test_build_component_retype_keeps_runtime_hash(self, session):
        """Dropping only the *build* component of a build+link edge
        changes dag_hash but not runtime_hash — the splice-matching
        property: binaries do not carry build-only distinctions."""
        spec = _concrete_mpileaks(session)
        old_runtime = spec.runtime_hash()
        old_dag = spec.dag_hash()
        parent = spec["libdwarf"]
        assert parent.dependencies.deptypes("libelf") == frozenset(
            ("build", "link")
        )

        assert parent.dependencies.set_deptypes("libelf", ("link",))
        for node in spec.traverse():
            node._concrete = True
        assert spec.dag_hash() != old_dag
        # the link component is unchanged, so the runtime closure and
        # its hash are too
        assert spec.runtime_hash() == old_runtime

    def test_dead_parents_are_dropped(self, session):
        """Parent back-references are weak: a released parent must not
        leak in the child's dependents map."""
        import gc

        spec = _concrete_mpileaks(session)
        child = spec["libelf"]
        assert child._dependents

        del spec
        gc.collect()
        live = [ref() for ref in child._dependents.values()]
        assert all(parent is None for parent in live) or not child._dependents
