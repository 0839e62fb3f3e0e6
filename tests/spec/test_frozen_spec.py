"""Frozen concrete specs: ``freeze()`` makes a DAG immutable so that one
object can be shared by every caller; ``copy()`` is the mutable one.

Concretization publishes its answers frozen and ``Spec.from_dict``
returns a concrete payload frozen, so the memo, the persistent cache,
lockfiles and database records hand out one object instead of copies.
"""

import pytest

from repro.spec.errors import FrozenSpecError, SpecError
from repro.spec.spec import Spec, VariantMap

#: every write a frozen node refuses, applied to a concrete mpileaks DAG
MUTATIONS = {
    "setter": lambda s: setattr(s["libelf"], "architecture", "bgq"),
    "variants_setter": lambda s: setattr(s, "variants", {"debug": True}),
    "variant_write": lambda s: s.variants.__setitem__("debug", True),
    "variant_update": lambda s: s["libelf"].variants.update(debug=True),
    "constrain": lambda s: s.constrain("mpileaks"),
    "add_dependency": lambda s: s["libelf"]._add_dependency(Spec("zlib@1.0")),
    "edge_insert": lambda s: s.dependencies.__setitem__("zlib", Spec("zlib")),
    "edge_delete": lambda s: s.dependencies.__delitem__("callpath"),
    "edge_retype": lambda s: s.dependencies.set_deptypes("callpath", "build"),
    "edge_set": lambda s: s.dependencies.set_edge(
        "callpath", s["callpath"], "link"),
    "prefix": lambda s: setattr(s, "prefix", "/opt/elsewhere"),
}


@pytest.fixture
def frozen(session):
    return Spec.from_dict(session.concretize("mpileaks").to_dict())


class TestFreeze:
    def test_freeze_marks_every_node_and_caches_only_the_root_hash(
        self, session
    ):
        mutable = session.concretize("mpileaks").copy()
        for node in mutable.traverse():
            node._hash = None
        assert mutable.freeze() is mutable
        assert all(node.frozen for node in mutable.traverse())
        assert mutable._hash is not None
        # the other hashes stay lazy: each walks its whole sub-DAG
        assert all(n._hash is None for n in mutable.traverse(root=False))

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_write_raises_and_changes_nothing(self, frozen, mutation):
        before = (frozen.to_dict(), frozen.dag_hash(), str(frozen))
        with pytest.raises(FrozenSpecError) as raised:
            MUTATIONS[mutation](frozen)
        assert isinstance(raised.value, SpecError)
        assert (frozen.to_dict(), frozen.dag_hash(), str(frozen)) == before

    def test_copy_is_mutable(self, frozen):
        mutable = frozen.copy()
        assert not any(node.frozen for node in mutable.traverse())
        for mutation in MUTATIONS.values():
            mutation(mutable.copy())  # none raises
        mutable["libelf"].architecture = "bgq"
        assert mutable.dag_hash() != frozen.dag_hash()
        assert frozen["libelf"].architecture != "bgq"

    def test_invalidate_caches_never_walks_a_frozen_node(self, frozen):
        key = frozen._dag_key()
        frozen["libelf"].invalidate_caches()
        frozen.invalidate_caches()
        assert frozen._concrete and frozen._dkey is key
        assert all(node._dependents == {} for node in frozen.traverse())

    def test_frozen_child_takes_no_back_reference(self, frozen):
        parent = Spec("app@1.0")
        parent._add_dependency(frozen)
        assert frozen._dependents == {}
        key = parent._dag_key()
        parent.architecture = "bgq"  # the mutable parent still invalidates
        assert parent._dag_key() != key

    def test_unowned_variant_map_stays_writable(self, frozen):
        loose = VariantMap()
        loose["debug"] = True
        loose.update(shared=False)
        assert dict(loose) == {"debug": True, "shared": False}
        assert dict(frozen.variants.copy()) == dict(frozen.variants)


class TestFromDict:
    def test_concrete_payload_comes_back_frozen(self, session):
        concrete = session.concretize("mpileaks")
        rebuilt = Spec.from_dict(concrete.to_dict())
        assert all(node.frozen for node in rebuilt.traverse())
        assert rebuilt.dag_hash() == concrete.dag_hash()
        assert rebuilt.to_dict() == concrete.to_dict()

    def test_concrete_payload_fires_no_invalidation(
        self, session, monkeypatch
    ):
        payload = session.concretize("mpileaks").to_dict()
        calls = []
        real = Spec.invalidate_caches

        def counting(self):
            calls.append(self.name)
            return real(self)

        monkeypatch.setattr(Spec, "invalidate_caches", counting)
        Spec.from_dict(payload)
        assert calls == []

    def test_abstract_payload_stays_mutable_and_invalidates(self):
        abstract = Spec("mpileaks ^callpath@1.0")
        rebuilt = Spec.from_dict(abstract.to_dict())
        assert not any(node.frozen for node in rebuilt.traverse())
        key = rebuilt._dag_key()
        rebuilt["callpath"].architecture = "bgq"  # back-references kept
        assert rebuilt._dag_key() != key

    def test_legacy_list_edges_default_to_build_link(self, session):
        payload = session.concretize("libdwarf").to_dict()
        for node in payload["nodes"]:
            node["dependencies"] = sorted(node["dependencies"])
        rebuilt = Spec.from_dict(payload)
        assert rebuilt.frozen
        assert rebuilt.dependencies.deptypes("libelf") == frozenset(
            ("build", "link"))
