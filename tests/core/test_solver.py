"""The optimizing solver concretizer: search, learning, optimality.

The contract under test (src/repro/core/solver.py): the first solution
returned is the best-scoring consistent one; *optimal* greedy successes
reproduce byte-identically (the zero-deviation assignment wins every
tie), while suboptimal ones are strictly improved; greedy dead ends
across *every* choice axis (provider, version, variant, compiler) are
rescued; failures learn nogoods whose subsumption skips (backjumps)
prune whole regions without evaluation.
"""

import itertools

import pytest

from repro.compilers.registry import Compiler, CompilerRegistry
from repro.config.config import Config
from repro.core.concretizer import ConcretizationError, Concretizer
from repro.core.solver import (
    W_CDEP,
    W_PROVIDER,
    W_REUSE,
    W_STEP,
    SolverConcretizer,
    SolverLimitError,
)
from repro.repo.providers import ProviderIndex
from repro.repo.repository import Repository
from repro.spec.errors import SpecError
from repro.spec.spec import Spec
from repro.testing.generators import (
    GEN_COMPILERS,
    RepoGenerator,
    _make_package,
    greedy_dead_end_corpus,
)

#: two-toolchain registry keeps exhaustive enumeration spaces small
SMALL_COMPILERS = ("gcc@4.9.2", "intel@15.0.1")


def _stack(repo, extra_config=None, compilers=SMALL_COMPILERS, **solver_kwargs):
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
    return Concretizer(*args), SolverConcretizer(*args, **solver_kwargs)


def _enumerate_consistent(solver, request):
    """Every distinct consistent DAG reachable in the solver's deviation
    space, by brute force over the full assignment product: the ground
    truth the branch-and-bound search must match."""
    abstract = Spec(request)
    variables = solver._choice_variables(abstract)
    space = 1
    for v in variables:
        space *= len(v.domain)
    assert space <= 6000, "enumeration space too large to be exhaustive"
    solutions = {}
    for combo in itertools.product(*[range(len(v.domain)) for v in variables]):
        assignment = {i: idx for i, idx in enumerate(combo) if idx}
        try:
            candidate = solver._materialize(abstract, variables, assignment)
            concrete = solver._fixed_point(candidate)
        except (ConcretizationError, SpecError):
            continue
        solutions[concrete.dag_hash()] = solver.score(concrete)
    return solutions


class TestGreedyIdentity:
    def test_hash_identical_on_builtin_corpus(self, session):
        """Whenever greedy succeeds, the solver's provably-best answer
        is greedy's answer — preferences dominate the objective, so the
        zero-deviation assignment wins every tie."""
        for request in ("mpileaks", "dyninst", "libelf@0.8.11"):
            greedy = session.concretize(request)
            solved = session.concretize(request, concretizer="solver",
                                        use_cache=False)
            assert solved.dag_hash() == greedy.dag_hash(), request

    def test_single_attempt_and_proof_when_greedy_works(self):
        repo = RepoGenerator(21, count=12, virtuals=2).build()
        greedy, solver = _stack(repo)
        for name in repo.all_package_names():
            g = greedy.concretize(name)
            s = solver.concretize(name)
            assert s.dag_hash() == g.dag_hash(), name
            assert solver.last_attempts == 1, name
            assert solver.last_proven_optimal, name
            assert solver.last_deviations == {}, name


class TestRescues:
    @pytest.fixture(scope="class")
    def corpus(self):
        return greedy_dead_end_corpus()

    def test_rescues_every_corpus_scenario(self, corpus):
        for scenario in corpus:
            greedy, solver = _stack(scenario.repo, scenario.config,
                                    compilers=GEN_COMPILERS)
            with pytest.raises(ConcretizationError):
                greedy.concretize(scenario.request)
            concrete = solver.concretize(scenario.request)
            assert concrete.concrete, scenario.label
            assert solver.last_proven_optimal, scenario.label
            assert solver.last_nogoods >= 1, scenario.label

    def test_provider_rescues_pick_the_expected_providers(self, corpus):
        """§4.5's provider dead ends: the solver deviates from the
        preferred providers only, to the first consistent ones in the
        policy order, and keeps every other choice greedy's."""
        expected = {
            "hwloc-version-pin": {"mpi2": "bmpi@1.0", "hwloc": "hwloc@1.9"},
            "provider-pair": {"vinta": "a2@1.0", "vintb": "b2@1.0",
                              "libx": "libx@2"},
        }
        scenarios = {s.label: s for s in corpus}
        for label, picks in expected.items():
            scenario = scenarios[label]
            _, solver = _stack(scenario.repo, scenario.config,
                               compilers=GEN_COMPILERS)
            concrete = solver.concretize(scenario.request)
            got = {name: "%s@%s" % (concrete[name].name, concrete[name].version)
                   for name in picks}
            assert got == picks, label
            assert {key[0] for key in solver.last_deviations} == {"provider"}

    def test_backjumps_skip_the_provider_subspace(self):
        """A root-compiler conflict makes every provider deviation
        futile; the learned nogood must prune them *without* greedy
        evaluation — popped as backjumps, not attempts."""
        repo = Repository(namespace="solver.backjump")
        for i in range(3):
            name = "vimp-%d" % i
            repo.add_class(name, _make_package(name, ["1.0"], [],
                                               provided="vint"))
        repo.add_class("croot", _make_package(
            "croot", ["1.0"], [("vint", "", None)],
            conflict_decls=["%gcc"]))
        _, solver = _stack(repo)
        concrete = solver.concretize("croot")
        assert str(concrete.compiler) == "intel@15.0.1"
        assert solver.last_backjumps >= 2  # both provider alternatives
        assert solver.last_attempts <= 3
        assert solver.last_proven_optimal


class TestChoiceSpace:
    def test_choice_variables_construct_no_spec(self, session, monkeypatch):
        """Regression: the choice space parsed a constraint Spec for every
        version, variant flip, compiler and provider of every reachable
        package before greedy's assignment was evaluated, though one
        assignment forces a handful.  The domains keep the constraint
        text, and _materialize parses what an assignment forces."""
        _, solver = _stack(session.repo)
        abstract = Spec("mpileaks")
        # the first call memoizes the provider rankings, which the
        # policy computes over candidate provider Specs
        solver._choice_variables(abstract)
        constructed = []
        real_init = Spec.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args or kwargs)
            real_init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Spec, "__init__", counting_init)
            variables = solver._choice_variables(abstract)
        assert constructed == []
        assert {v.key[0] for v in variables} == {
            "provider", "version", "variant", "compiler"
        }
        for v in variables:
            assert v.domain[0] is None
            assert all(isinstance(choice, str) for choice in v.domain[1:])


class TestOptimality:
    def test_exhaustive_enumeration_on_corpus(self):
        """Ground truth: over the *entire* deviation space, no
        consistent DAG scores below the solver's answer, and the
        solver's answer is one of the enumerated DAGs."""
        for scenario in greedy_dead_end_corpus():
            _, solver = _stack(scenario.repo, scenario.config)
            concrete = solver.concretize(scenario.request)
            score = solver.score(concrete)
            assert solver.last_score == score, scenario.label
            solutions = _enumerate_consistent(solver, scenario.request)
            assert solutions, scenario.label
            assert concrete.dag_hash() in solutions, scenario.label
            best = min(solutions.values())
            assert score == best, (
                "%s: solver scored %d but %d is achievable"
                % (scenario.label, score, best)
            )

    def test_exhaustive_enumeration_on_generated_universe(self):
        """The same ground-truth property over a small conflict-rich
        *generated* universe — the ISSUE's acceptance bar."""
        repo = RepoGenerator(13, count=4, virtuals=1,
                             conflict_density=1.0).build()
        _, solver = _stack(repo)
        checked = 0
        for name in repo.all_package_names():
            variables = solver._choice_variables(Spec(name))
            space = 1
            for v in variables:
                space *= len(v.domain)
            if space > 6000:
                continue
            try:
                concrete = solver.concretize(name)
            except ConcretizationError:
                # then nothing in the space may be consistent
                assert not _enumerate_consistent(solver, name), name
                continue
            if not solver.last_proven_optimal:
                continue
            solutions = _enumerate_consistent(solver, name)
            assert solver.score(concrete) == min(solutions.values()), name
            checked += 1
        assert checked >= 5  # the property actually ran

    def test_solver_improves_past_a_poisoned_provider(self):
        """Greedy's provider myopia made concrete: the preferred
        provider pins a dependency to its non-newest version (W_STEP),
        which a provider deviation (W_PROVIDER) avoids.  Greedy
        *succeeds* — and the solver must still return the strictly
        better DAG, proven optimal by exhaustive enumeration."""
        repo = Repository(namespace="solver.improve")
        repo.add_class("anchor", _make_package("anchor", ["2.0", "1.0"], []))
        repo.add_class("vpick-aaa", _make_package(
            "vpick-aaa", ["1.0"], [("anchor", "@1.0", None)],
            provided="vgood"))
        repo.add_class("vpick-zzz", _make_package(
            "vpick-zzz", ["1.0"], [], provided="vgood"))
        repo.add_class("top", _make_package(
            "top", ["1.0"], [("vgood", "", None)]))
        greedy, solver = _stack(repo)
        g = greedy.concretize("top")
        s = solver.concretize("top")
        assert s.dag_hash() != g.dag_hash()
        assert solver.last_score < solver.score(g)
        assert solver.last_deviations == {("provider", "vgood"): 1}
        assert solver.last_proven_optimal
        solutions = _enumerate_consistent(solver, "top")
        assert solver.last_score == min(solutions.values())
        # the greedy DAG is in the space too — consistent, just worse
        assert g.dag_hash() in solutions

    def test_weight_hierarchy_protects_greedy_identity(self):
        """Every preference weight must dominate the largest possible
        reuse delta, or reuse could override an explicit preference and
        break greedy hash-identity."""
        max_reuse_delta = 1000 * W_REUSE  # far beyond any test DAG
        assert W_PROVIDER > max_reuse_delta
        assert W_CDEP > max_reuse_delta
        assert W_STEP > max_reuse_delta
        # and the provider subspace (§4.5's hwloc case) is explored
        # before any single non-provider deviation, for up to ten
        # ranked providers per virtual
        assert 9 * W_PROVIDER < W_CDEP < W_STEP


class TestReuse:
    def test_installed_specs_break_ties(self, session):
        """With deviations tied at zero, the reuse term steers the
        solver toward installed nodes — but never against preferences:
        the greedy DAG is fully installed, so its score drops and it
        still wins."""
        spec, _ = session.install("mpileaks")
        solver = SolverConcretizer(
            session.repo, session.provider_index, session.compilers,
            session.config, session.policy, database=session.db,
        )
        concrete = solver.concretize("mpileaks")
        assert concrete.dag_hash() == spec.dag_hash()
        installed_nodes = sum(1 for _ in spec.traverse())
        fresh = SolverConcretizer(
            session.repo, session.provider_index, session.compilers,
            session.config, session.policy,
        )
        fresh_concrete = fresh.concretize("mpileaks")
        assert fresh_concrete.dag_hash() == concrete.dag_hash()
        # same DAG, but the reuse term credits every installed node
        assert fresh.last_score - solver.last_score == \
            installed_nodes * W_REUSE


    def test_a_solve_reads_the_installed_set_once(self, session):
        """``score`` runs on every successful attempt; the installed
        hashes it reads (a database query and a walk of every record)
        are read once per solve.  A standalone ``score`` reads its own."""
        session.install("libdwarf")
        queries = []

        class CountingDatabase:
            def query(self):
                queries.append(1)
                return session.db.query()

        repo = Repository(namespace="solver.installed")
        repo.add_class("anchor", _make_package("anchor", ["2.0", "1.0"], []))
        repo.add_class("vpick-aaa", _make_package(
            "vpick-aaa", ["1.0"], [("anchor", "@1.0", None)],
            provided="vgood"))
        repo.add_class("vpick-zzz", _make_package(
            "vpick-zzz", ["1.0"], [], provided="vgood"))
        repo.add_class("top", _make_package(
            "top", ["1.0"], [("vgood", "", None)]))
        _, solver = _stack(repo, database=CountingDatabase())
        scores = []
        real_score = solver.score
        solver.score = lambda *a, **k: scores.append(1) or real_score(*a, **k)
        concrete = solver.concretize("top")
        assert len(scores) >= 2  # greedy's DAG, then the better one
        assert len(queries) == 1
        del solver.score
        solver.score(concrete)
        assert len(queries) == 2


class TestSharedRankings:
    def test_two_requests_on_one_state_reach_each_package_once(
            self, session, monkeypatch):
        """Rankings are pure functions of the frozen State: the second
        solver it builds finds every influence closure computed, and
        runs ``_reachable`` only over its own request's roots."""
        calls = []
        real = SolverConcretizer._reachable

        def counting(self, roots):
            calls.append(tuple(roots))
            return real(self, roots)

        monkeypatch.setattr(SolverConcretizer, "_reachable", counting)
        state = session.snapshots.current()
        first = state.concretize("mpileaks", "solver", use_cache=False)
        assert len(calls) > 5
        del calls[:]
        second = state.concretize("mpileaks", "solver", use_cache=False)
        assert calls == [("mpileaks",)]
        assert second.dag_hash() == first.dag_hash()
        assert state.concretizer("solver")._rank_memo is \
            state.concretizer("solver")._rank_memo

    def test_a_solver_built_outside_a_state_keeps_its_own(self):
        repo = RepoGenerator(3, count=6, virtuals=1).build()
        _, one = _stack(repo)
        _, two = _stack(repo)
        one.concretize(repo.all_package_names()[0])
        assert one._rank_memo and two._rank_memo == {}


class TestLimitsAndErrors:
    def test_attempt_budget_raises_typed_limit_error(self):
        scenario = greedy_dead_end_corpus()[0]  # hwloc: needs 2 attempts
        _, solver = _stack(scenario.repo, scenario.config,
                           max_attempts=1)
        with pytest.raises(SolverLimitError):
            solver.concretize(scenario.request)

    def test_impossible_request_fails_typed_after_search(self):
        repo = Repository(namespace="solver.impossible")
        repo.add_class("pin", _make_package("pin", ["9"], []))
        repo.add_class("broken", _make_package(
            "broken", ["1.0"], [("pin", "@1:2", None)]))
        _, solver = _stack(repo)
        with pytest.raises(ConcretizationError):
            solver.concretize("broken")

    def test_anonymous_spec_rejected(self):
        repo = RepoGenerator(3, count=4, virtuals=0).build()
        _, solver = _stack(repo)
        with pytest.raises(ConcretizationError):
            solver.concretize(Spec("@2:"))


class TestTelemetry:
    def test_counters_and_span(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.sinks import MemorySink

        scenario = greedy_dead_end_corpus()[0]
        index = ProviderIndex.from_repo(scenario.repo)
        registry = CompilerRegistry(
            [Compiler(*cs.split("@")) for cs in GEN_COMPILERS])
        config = Config()
        config.update(
            "defaults",
            {"preferences": {"compiler_order": [GEN_COMPILERS[0]],
                             "architecture": "linux-x86_64"}})
        config.update("user", scenario.config)
        telemetry = Telemetry()
        sink = telemetry.add_sink(MemorySink())
        solver = SolverConcretizer(scenario.repo, index, registry, config,
                                   telemetry=telemetry)
        solver.concretize(scenario.request)
        assert telemetry.counters.get("solver.attempts") == \
            solver.last_attempts
        assert telemetry.counters.get("solver.nogoods") == solver.last_nogoods
        spans = sink.spans("solver.search")
        assert spans
        attrs = spans[-1]["attrs"]
        assert attrs["attempts"] == solver.last_attempts
        assert attrs["proven_optimal"] is True
