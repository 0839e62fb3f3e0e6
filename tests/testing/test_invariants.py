"""The invariant checkers: clean results pass, doctored results fail."""

import pytest

from repro.compilers.registry import Compiler, CompilerRegistry
from repro.config.config import Config
from repro.core.concretizer import Concretizer
from repro.repo.providers import ProviderIndex
from repro.spec.spec import Spec
from repro.testing.generators import RepoGenerator
from repro.testing.invariants import (
    InvariantViolation,
    assert_invariants,
    check_all,
    check_concretization,
    check_roundtrip,
)


@pytest.fixture(scope="module")
def universe():
    repo = RepoGenerator(21, count=15, virtuals=2).build()
    index = ProviderIndex.from_repo(repo)
    registry = CompilerRegistry(
        [Compiler("gcc", "4.9.2"), Compiler("intel", "15.0.1")]
    )
    config = Config()
    config.update(
        "defaults",
        {"preferences": {"compiler_order": ["gcc@4.9.2"],
                         "architecture": "linux-x86_64"}},
    )
    return repo, index, Concretizer(repo, index, registry, config)


def test_clean_results_pass_every_invariant(universe):
    repo, index, concretizer = universe
    for name in repo.all_package_names():
        concrete = concretizer.concretize(Spec(name))
        assert check_all(name, concrete, repo, index, concretizer) == []


def test_assert_invariants_raises_with_context(universe):
    repo, index, concretizer = universe
    concrete = concretizer.concretize(Spec("gen-000"))
    # doctor the result: un-stamp concreteness and drop the architecture
    # so the structural check fails too
    doctored = concrete.copy()
    doctored._concrete = False
    doctored.architecture = None
    with pytest.raises(InvariantViolation, match="case-7"):
        assert_invariants(
            "gen-000", doctored, repo, index, concretizer, context="case-7"
        )


def test_detects_unsatisfied_request(universe):
    repo, index, concretizer = universe
    concrete = concretizer.concretize(Spec("gen-000"))
    violations = check_concretization("gen-000 %intel", concrete, repo, index)
    assert any("satisfy" in v for v in violations)


def test_detects_unknown_package(universe):
    repo, index, concretizer = universe
    concrete = concretizer.concretize(Spec("gen-000"))
    foreign = Spec("no-such-package@1.0")
    foreign._concrete = foreign._normal = True
    violations = check_concretization("no-such-package", foreign, repo, index)
    assert any("unknown package" in v for v in violations)

    del concrete  # silence linters; the fixture result is exercised above


def test_roundtrip_detects_lossy_serialization(universe, monkeypatch):
    """If from_dict ever became lossy, check_roundtrip must notice."""
    repo, index, concretizer = universe
    concrete = concretizer.concretize(Spec("gen-003"))
    assert check_roundtrip(concrete, concretizer=concretizer) == []

    real_from_dict = Spec.from_dict.__func__

    def lossy_from_dict(cls, data):
        # a concrete payload comes back frozen; mangle a mutable copy
        spec = real_from_dict(cls, data).copy()
        spec.name = spec.name + "-mangled"
        return spec

    monkeypatch.setattr(Spec, "from_dict", classmethod(lossy_from_dict))
    violations = check_roundtrip(concrete)
    assert any("round-trip changed the spec" in v for v in violations)
