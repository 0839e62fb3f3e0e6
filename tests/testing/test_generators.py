"""Generative models: determinism, replayability, and plannability."""

import pytest

from repro.testing import derive_seed, session_seed
from repro.testing.generators import (
    FUZZ_ALPHABET,
    GEN_COMPILERS,
    RepoGenerator,
    SpecGenerator,
    SpecTextGenerator,
    greedy_dead_end_corpus,
)


def _concretizer_stack(repo, extra_config=None, compilers=GEN_COMPILERS):
    """(greedy, solver) over one repo with the generated universes'
    standard gcc-first configuration."""
    from repro.compilers.registry import Compiler, CompilerRegistry
    from repro.config.config import Config
    from repro.core.concretizer import Concretizer
    from repro.core.solver import SolverConcretizer
    from repro.repo.providers import ProviderIndex

    index = ProviderIndex.from_repo(repo)
    registry = CompilerRegistry([Compiler(*cs.split("@")) for cs in compilers])
    config = Config()
    config.update(
        "defaults",
        {"preferences": {"compiler_order": [GEN_COMPILERS[0]],
                         "architecture": "linux-x86_64"}},
    )
    if extra_config:
        config.update("user", extra_config)
    args = (repo, index, registry, config)
    return Concretizer(*args), SolverConcretizer(*args, max_attempts=128)


def _fingerprint(repo):
    """A structural digest of a generated repository."""
    out = []
    for name in repo.all_package_names():
        cls = repo.get_class(name)
        deps = sorted(
            (d, str(dc.spec), str(dc.when))
            for d, dcs in cls.dependencies.items()
            for dc in dcs
        )
        out.append(
            (
                name,
                sorted(str(v) for v in cls.versions),
                sorted(cls.variants),
                deps,
                sorted(str(p.spec) for p in cls.provided),
            )
        )
    return out


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_distinguishes_names_and_master(self):
        seeds = {
            derive_seed(1, "a"),
            derive_seed(1, "b"),
            derive_seed(2, "a"),
            derive_seed(1, "a", 0),
        }
        assert len(seeds) == 4

    def test_session_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_SEED", "777")
        assert session_seed() == 777


class TestRepoGenerator:
    def test_same_seed_same_universe(self):
        a = RepoGenerator(33, count=20, virtuals=2).build()
        b = RepoGenerator(33, count=20, virtuals=2).build()
        assert _fingerprint(a) == _fingerprint(b)

    def test_different_seed_different_universe(self):
        a = RepoGenerator(33, count=20).build()
        b = RepoGenerator(34, count=20).build()
        assert _fingerprint(a) != _fingerprint(b)

    def test_virtuals_have_multiple_providers(self):
        from repro.repo.providers import ProviderIndex

        repo = RepoGenerator(5, count=10, virtuals=2).build()
        index = ProviderIndex.from_repo(repo)
        assert index.virtual_names() == ["vif-0", "vif-1"]
        for vname in index.virtual_names():
            assert len(index.providers_for(vname)) >= 2

    def test_universe_is_acyclic_and_concretizable(self):
        """Every generated package concretizes (the layered-DAG and
        leaf-provider guarantees hold)."""
        from repro.compilers.registry import Compiler, CompilerRegistry
        from repro.config.config import Config
        from repro.core.concretizer import Concretizer
        from repro.repo.providers import ProviderIndex
        from repro.spec.spec import Spec

        repo = RepoGenerator(8, count=15, virtuals=2).build()
        index = ProviderIndex.from_repo(repo)
        registry = CompilerRegistry([Compiler("gcc", "4.9.2")])
        config = Config()
        config.update(
            "defaults",
            {"preferences": {"compiler_order": ["gcc@4.9.2"],
                             "architecture": "linux-x86_64"}},
        )
        concretizer = Concretizer(repo, index, registry, config)
        for name in repo.all_package_names():
            concrete = concretizer.concretize(Spec(name))
            assert concrete.concrete


class TestNamePrefixing:
    """Regression: generated universes used unprefixed names (gen-NNN,
    vif-N), so registering two generated repos — or a generated repo
    next to another corpus — in one Session silently shadowed packages:
    the RepoPath answers with the first repo's class and the second
    universe's constraints are never seen."""

    def test_two_generated_repos_collide_without_prefixes(self):
        a = RepoGenerator(11, count=10, virtuals=1).build()
        b = RepoGenerator(22, count=10, virtuals=1).build()
        # the hazard this fixes: same names, different directive bodies
        assert set(a.all_package_names()) & set(b.all_package_names())

    def test_name_prefix_makes_universes_disjoint(self):
        a = RepoGenerator(11, count=10, virtuals=1, name_prefix="alpha").build()
        b = RepoGenerator(22, count=10, virtuals=1, name_prefix="beta").build()
        assert not set(a.all_package_names()) & set(b.all_package_names())
        assert all(n.startswith("alpha-") for n in a.all_package_names())

    def test_prefixed_knob_packages_stay_disjoint_too(self):
        kwargs = dict(count=12, virtuals=2, conflict_density=1.0,
                      when_depth=2, provider_overlap=1.0)
        a = RepoGenerator(11, name_prefix="alpha", **kwargs).build()
        b = RepoGenerator(11, name_prefix="beta", **kwargs).build()
        assert not set(a.all_package_names()) & set(b.all_package_names())

    def test_mixed_corpora_in_one_session_both_resolve(self, tmp_path):
        """A generated universe registered next to the builtin corpus:
        every name resolves to its own repo's class, and both sides
        concretize inside one Session."""
        from repro.session import Session

        session = Session.create(str(tmp_path / "u"))
        extra = RepoGenerator(11, count=8, virtuals=1,
                              namespace="gen.alpha", name_prefix="alpha").build()
        session.add_repo(extra)
        builtin_names = set(session.repo.repos[-1].all_package_names())
        assert not builtin_names & set(extra.all_package_names())
        assert session.concretize("mpileaks").concrete
        assert session.concretize(extra.all_package_names()[0]).concrete

    def test_prefixed_universe_concretizes(self):
        from repro.spec.spec import Spec

        repo = RepoGenerator(8, count=15, virtuals=2, name_prefix="px",
                             hub_bias=0.6, max_deps=4).build()
        greedy, _ = _concretizer_stack(repo)
        for name in repo.all_package_names():
            assert greedy.concretize(Spec(name)).concrete


class TestConflictKnobs:
    def test_default_knobs_preserve_old_universes(self):
        """Knobless builds must stay byte-identical to pre-knob builds:
        campaign seeds recorded before the knobs existed still replay."""
        plain = RepoGenerator(33, count=20, virtuals=2).build()
        explicit = RepoGenerator(33, count=20, virtuals=2,
                                 conflict_density=0.0, when_depth=0,
                                 provider_overlap=0.0).build()
        assert _fingerprint(plain) == _fingerprint(explicit)

    def test_knobbed_universe_is_deterministic(self):
        kwargs = dict(count=20, virtuals=3, conflict_density=0.8,
                      when_depth=2, provider_overlap=0.5)
        a = RepoGenerator(77, **kwargs).build()
        b = RepoGenerator(77, **kwargs).build()
        assert _fingerprint(a) == _fingerprint(b)

    def test_conflict_density_adds_dead_end_families(self):
        repo = RepoGenerator(77, count=20, virtuals=3,
                             conflict_density=1.0).build()
        names = repo.all_package_names()
        assert any(n.startswith("clash-") for n in names)
        assert any(n.endswith("-aaa-impl") for n in names)
        assert any(n.startswith("hardpick-") for n in names)
        assert any(n.startswith("varpick-") for n in names)
        assert any(n.startswith("verpick-") for n in names)

    def test_poisoned_provider_is_preferred(self):
        """The -aaa-impl provider must outrank the benign ones under the
        default name tie-break, or greedy would never dead-end on it."""
        from repro.core.policies import DefaultPolicy
        from repro.config.config import Config
        from repro.repo.providers import ProviderIndex

        repo = RepoGenerator(77, count=20, virtuals=3,
                             conflict_density=1.0).build()
        index = ProviderIndex.from_repo(repo)
        policy = DefaultPolicy(Config())
        for vname in index.virtual_names():
            ordered = policy.order_providers(
                vname, index.providers_for(vname))
            assert ordered[0].name.endswith("-aaa-impl"), vname

    def test_when_depth_builds_conditional_chains(self):
        repo = RepoGenerator(77, count=20, when_depth=3).build()
        cls = repo.get_class("chain-0-0")
        (dc,) = cls.dependencies["chain-0-1"]
        assert str(dc.when) == "@2:"
        # the tail link is a leaf
        assert not repo.get_class("chain-0-2").dependencies

    def test_overlap_provider_serves_adjacent_virtuals(self):
        from repro.repo.providers import ProviderIndex

        repo = RepoGenerator(77, count=20, virtuals=3,
                             provider_overlap=1.0).build()
        index = ProviderIndex.from_repo(repo)
        cls = repo.get_class("dual-0-aaa-impl")
        assert sorted(str(p.spec) for p in cls.provided) == ["vif-0", "vif-1"]
        assert "dual-0-aaa-impl" in [
            p.name for p in index.providers_for("vif-0")
        ]

    def test_conflict_universe_fails_typed_or_concretizes(self):
        """Every package either concretizes or fails with a *typed*
        concretization error — never an untyped crash — under both
        concretizers."""
        from repro.core.concretizer import ConcretizationError
        from repro.spec.errors import SpecError

        repo = RepoGenerator(77, count=15, virtuals=2, conflict_density=1.0,
                             when_depth=2, provider_overlap=0.5).build()
        greedy, solver = _concretizer_stack(repo)
        for name in repo.all_package_names():
            for concretizer in (greedy, solver):
                try:
                    concrete = concretizer.concretize(name)
                    assert concrete.concrete
                except (ConcretizationError, SpecError):
                    pass

    def test_solver_rescues_what_the_knobs_poison(self):
        """The knobs must actually produce greedy-dead-end requests the
        solver rescues — the whole point of a conflict-rich universe."""
        from repro.core.concretizer import ConcretizationError

        repo = RepoGenerator(77, count=20, virtuals=3,
                             conflict_density=1.0).build()
        greedy, solver = _concretizer_stack(repo)
        rescued = 0
        for name in repo.all_package_names():
            try:
                greedy.concretize(name)
                continue
            except ConcretizationError:
                pass
            concrete = solver.concretize(name)
            assert concrete.concrete
            rescued += 1
        assert rescued >= 3


class TestDeadEndCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return greedy_dead_end_corpus()

    def test_corpus_is_deterministic(self, corpus):
        again = greedy_dead_end_corpus()
        assert [s.label for s in corpus] == [s.label for s in again]
        assert [s.request for s in corpus] == [s.request for s in again]

    def test_covers_both_rescuer_classes(self, corpus):
        """Some scenarios need only a provider deviation (§4.5's
        provider search would do), the others a version, variant or
        compiler deviation."""
        provider_only = set()
        for scenario in corpus:
            _, solver = _concretizer_stack(scenario.repo, scenario.config)
            solver.concretize(scenario.request)
            kinds = {key[0] for key in solver.last_deviations}
            provider_only.add(kinds == {"provider"})
        assert provider_only == {True, False}

    def test_greedy_always_dead_ends(self, corpus):
        from repro.core.concretizer import ConcretizationError

        for scenario in corpus:
            greedy, _ = _concretizer_stack(scenario.repo, scenario.config)
            with pytest.raises(ConcretizationError):
                greedy.concretize(scenario.request)

    def test_solver_learns_nogoods_on_dead_ends(self, corpus):
        for scenario in corpus:
            _, solver = _concretizer_stack(scenario.repo, scenario.config)
            solver.concretize(scenario.request)
            assert solver.last_nogoods >= 1, scenario.label


class TestSpecGenerator:
    def test_stream_is_deterministic(self):
        repo = RepoGenerator(3, count=10).build()
        a = SpecGenerator(9, repo).specs(25)
        b = SpecGenerator(9, repo).specs(25)
        assert a == b

    def test_per_index_replay(self):
        """spec(i) regenerates case i without replaying the stream."""
        repo = RepoGenerator(3, count=10).build()
        stream = SpecGenerator(9, repo).specs(25)
        assert SpecGenerator(9, repo).spec(17) == stream[17]

    def test_specs_name_known_packages(self):
        repo = RepoGenerator(3, count=10).build()
        names = set(repo.all_package_names())
        for text in SpecGenerator(9, repo).specs(30):
            root = text.split("@")[0].split("%")[0]
            root = root.split("+")[0].split("~")[0].split("=")[0].split(" ")[0]
            assert root in names


class TestSpecTextGenerator:
    def test_streams_are_deterministic(self):
        a, b = SpecTextGenerator(4), SpecTextGenerator(4)
        for i in range(20):
            assert a.soup(i) == b.soup(i)
            assert a.unicode_soup(i) == b.unicode_soup(i)
            assert a.plausible(i) == b.plausible(i)
            assert a.mutant(i) == b.mutant(i)

    def test_soup_stays_on_alphabet(self):
        gen = SpecTextGenerator(4)
        for i in range(50):
            assert set(gen.soup(i)) <= set(FUZZ_ALPHABET)

    def test_plausible_usually_parses(self):
        from repro.spec.errors import SpecError
        from repro.spec.parser import parse_specs
        from repro.version import VersionParseError

        gen = SpecTextGenerator(4)
        parsed = 0
        for i in range(100):
            try:
                parse_specs(gen.plausible(i))
                parsed += 1
            except (SpecError, VersionParseError):
                pass
        assert parsed > 80  # plausible means *usually* valid
