"""The no-op work the fixed point and the disk hit skip, counted.

Each test counts calls into the layer below and fails if the skipped
work comes back: a compiler version chosen twice for one (compiler,
requirements) pair in one concretization, a version intersection for a
bare-name constraint, a compiler text parsed twice by ``from_dict``.
The answers themselves are pinned by ``test_golden_answers.py``.
"""

import pytest

from repro.core.policies import DefaultPolicy
from repro.spec import spec as spec_module
from repro.spec.errors import FrozenSpecError, UnsatisfiableSpecNameError
from repro.spec.spec import CompilerSpec, Spec
from repro.util.intern import InternPool
from repro.version import VersionList


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper; returns its call log."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestCompilerChoice:
    def _choices(self, monkeypatch):
        keys = []
        real = DefaultPolicy.choose_compiler_version

        def counting(policy, registry, cspec, requirements=()):
            keys.append((str(cspec), tuple(str(r) for r in requirements)))
            return real(policy, registry, cspec, requirements=requirements)

        monkeypatch.setattr(DefaultPolicy, "choose_compiler_version", counting)
        return keys

    def test_one_choice_per_distinct_compiler_per_concretization(
            self, session, monkeypatch):
        keys = self._choices(monkeypatch)
        concrete = session.concretize("mpileaks", use_cache=False)
        assert len(list(concrete.traverse())) >= 6
        assert keys and len(keys) == len(set(keys))
        # a second concretization chooses again: the memo is per run
        session.concretize("mpileaks %gcc", use_cache=False)
        assert len(keys) > len(set(keys))

    def test_the_solver_chooses_once_per_attempt(self, session, monkeypatch):
        keys = self._choices(monkeypatch)
        solver = session.snapshots.current().concretizer("solver")
        candidate = Spec("mpileaks")
        solver._fixed_point(candidate)
        assert keys and len(keys) == len(set(keys))


class TestBareConstraint:
    def test_bare_name_constrain_intersects_no_versions(self, monkeypatch):
        target = Spec("libelf@0.8.12:%gcc+debug ^mpich")
        before = str(target)
        calls = _counting(monkeypatch, VersionList, "intersection")
        assert target.constrain(Spec("libelf"), deps=False) is False
        assert target.constrain(Spec("libelf")) is False
        assert target.constrain(Spec()) is False
        assert calls == []
        assert str(target) == before

    def test_universal_list_narrows_nothing(self, monkeypatch):
        versions = VersionList("1.2:1.4,2.0")
        calls = _counting(monkeypatch, VersionList, "intersection")
        assert versions.intersect(VersionList(":")) is False
        assert versions.satisfies(VersionList(":"), strict=True)
        assert calls == []
        assert str(versions) == "1.2:1.4,2.0"
        assert versions.intersect(VersionList("1.3:")) is True
        assert str(versions) == "1.3:1.4,2.0"

    def test_bare_constraints_keep_their_meaning(self):
        anonymous = Spec()
        assert anonymous.constrain(Spec("libelf")) is True
        assert anonymous.name == "libelf"
        with pytest.raises(UnsatisfiableSpecNameError):
            Spec("libelf").constrain(Spec("libdwarf"))
        frozen = Spec("libelf").freeze()
        with pytest.raises(FrozenSpecError):
            frozen.constrain(Spec("libelf"))
        # a bare name with dependencies still merges them
        spec = Spec("libdwarf")
        assert spec.constrain(Spec("libdwarf ^libelf@0.8.12")) is True
        assert str(spec) == "libdwarf ^libelf@0.8.12"


class TestStoredCompilers:
    def test_each_distinct_compiler_text_is_parsed_once(self, session,
                                                        monkeypatch):
        concrete = session.concretize("mpileaks", use_cache=False)
        data = concrete.to_dict()
        texts = sorted({nd["compiler"] for nd in data["nodes"]})
        assert len(texts) < len(data["nodes"])
        monkeypatch.setattr(spec_module, "_STORED_COMPILERS", InternPool())
        parsed = []
        real_init = CompilerSpec.__init__

        def counting(cspec, name, versions=None):
            if isinstance(name, str) and versions is None:
                parsed.append(name)
            real_init(cspec, name, versions)

        monkeypatch.setattr(CompilerSpec, "__init__", counting)
        first = Spec.from_dict(data)
        second = Spec.from_dict(data)
        assert sorted(parsed) == texts
        assert first.dag_hash() == second.dag_hash() == concrete.dag_hash()
        # two answers never share a compiler; a copy owns its own
        a, b = first["libelf"].compiler, second["libelf"].compiler
        assert a == b and a is not b and a.versions is not b.versions
        mutable = first.copy()
        assert mutable["libelf"].compiler is not mutable["libdwarf"].compiler
        mutable["libelf"].constrain(Spec("libelf%gcc@4.9.2"))
        assert first.dag_hash() == concrete.dag_hash()


class TestStoredVersions:
    def test_frozen_nodes_of_one_version_share_a_list(self, session,
                                                      monkeypatch):
        concrete = session.concretize("mpileaks", use_cache=False)
        data = concrete.to_dict()
        monkeypatch.setattr(spec_module, "_STORED_VERSIONS", InternPool())
        first = Spec.from_dict(data)
        second = Spec.from_dict(data)
        for name in ("libelf", "callpath"):
            a, b = first[name], second[name]
            assert a.versions is b.versions
            assert a.node_repr()[1] == str(a.versions)
        assert first.dag_hash() == second.dag_hash() == concrete.dag_hash()
        # a copy owns its lists; writing one leaves the shared list alone
        mutable = first.copy()
        assert mutable["libelf"].versions is not first["libelf"].versions
        mutable["libelf"].versions.intersect(VersionList("0.8.13"))
        assert str(first["libelf"].versions) == str(concrete["libelf"].versions)
        assert second.dag_hash() == concrete.dag_hash()

    def test_abstract_payload_nodes_own_their_lists(self):
        abstract = Spec("mpileaks@2: ^callpath@1.0")
        data = abstract.to_dict()
        a, b = Spec.from_dict(data), Spec.from_dict(data)
        assert a.versions is not b.versions
        assert a["callpath"].versions is not b["callpath"].versions
