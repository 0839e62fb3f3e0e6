"""The greedy-vs-solver differential oracle: classification and the
minimizer."""

import pytest

from repro.compilers.registry import Compiler, CompilerRegistry
from repro.config.config import Config
from repro.repo.providers import ProviderIndex
from repro.repo.repository import Repository
from repro.spec.spec import Spec
from repro.testing.generators import RepoGenerator, SpecGenerator, _make_package
from repro.testing.oracle import (
    AGREE_ERROR,
    AGREE_SUCCESS,
    DIVERGENCE,
    IMPROVEMENT,
    OPTIMALITY_DIVERGENCE,
    RESCUE,
    Comparison,
    DifferentialOracle,
)


def _build_oracle(conflict_density=0.0, **kwargs):
    repo = RepoGenerator(55, count=20, virtuals=2,
                         conflict_density=conflict_density).build()
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
    return DifferentialOracle(repo, index, registry, config,
                              max_attempts=512, **kwargs)


@pytest.fixture(scope="module")
def oracle():
    return _build_oracle()


@pytest.fixture(scope="module")
def conflict_oracle():
    """An oracle over a conflict-rich universe: real greedy dead ends."""
    return _build_oracle(conflict_density=1.0)


class TestClassification:
    def test_agreement_on_valid_request(self, oracle):
        comparison = oracle.compare("gen-000")
        assert comparison.kind == AGREE_SUCCESS
        assert comparison.greedy_hash == comparison.solver_hash
        assert comparison.solver_score == comparison.best_score
        assert not comparison.divergent

    def test_agreement_on_impossible_request(self, oracle):
        # no compiler named pgi is registered: both must fail, typed
        comparison = oracle.compare("gen-000 %pgi")
        assert comparison.kind == AGREE_ERROR
        assert comparison.greedy_error is not None
        assert comparison.solver_error is not None
        assert comparison.solver_score is None

    def test_generated_stream_never_diverges(self, oracle):
        generator = SpecGenerator(31, oracle.greedy.repo)
        kinds = set()
        for i in range(60):
            comparison = oracle.compare(generator.spec(i))
            kinds.add(comparison.kind)
            assert not comparison.divergent, comparison.to_dict()
        assert AGREE_SUCCESS in kinds  # the stream exercises real successes

    def test_real_rescue_on_conflict_universe(self, conflict_oracle):
        """Requests for the knob-generated dead ends classify as benign
        rescues with the solver's search statistics attached."""
        names = conflict_oracle.greedy.repo.all_package_names()
        rescue_kinds = set()
        for name in names:
            if not (name.startswith(("hardpick", "varpick", "verpick",
                                     "clash", "needs-"))):
                continue
            comparison = conflict_oracle.compare(name)
            assert not comparison.divergent, comparison.to_dict()
            rescue_kinds.add(comparison.kind)
        assert RESCUE in rescue_kinds

    def test_improvement_when_solver_beats_a_greedy_success(self):
        """Greedy's myopic provider pick drags in a version downgrade a
        cheap provider deviation avoids entirely: the solver's strictly
        better score makes the hash mismatch benign, not a divergence."""
        repo = Repository(namespace="oracle.improve")
        repo.add_class("anchor", _make_package("anchor", ["2.0", "1.0"], []))
        # the alphabetically-preferred provider pins anchor to its
        # non-newest version (a W_STEP consequence greedy cannot see)
        repo.add_class("vpick-aaa", _make_package(
            "vpick-aaa", ["1.0"], [("anchor", "@1.0", None)],
            provided="vgood"))
        repo.add_class("vpick-zzz", _make_package(
            "vpick-zzz", ["1.0"], [], provided="vgood"))
        repo.add_class("top", _make_package(
            "top", ["1.0"], [("vgood", "", None)]))
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
        poisoned = DifferentialOracle(repo, index, registry, config,
                                      max_attempts=512)
        comparison = poisoned.compare("top")
        assert comparison.kind == IMPROVEMENT
        assert not comparison.divergent
        assert comparison.solver_hash != comparison.greedy_hash
        assert comparison.solver_score == comparison.best_score
        # one provider deviation...
        assert poisoned.solver.last_deviations == {("provider", "vgood"): 1}
        # ...and the improved DAG drops the poisoned subtree entirely
        greedy_score = poisoned.solver.score(
            poisoned.greedy.concretize(Spec("top")))
        assert comparison.solver_score < greedy_score

    def test_rescue_classified_when_only_greedy_fails(self, oracle, monkeypatch):
        """Greedy dead ends that the search survives are benign rescues —
        the solver exists precisely to explore past them (§4.5)."""
        from repro.core.concretizer import ConcretizationError

        real_run = DifferentialOracle._run

        def run_with_greedy_dead_end(concretizer, request):
            if concretizer is oracle.greedy:
                return None, None, ConcretizationError.__name__
            return real_run(concretizer, request)

        monkeypatch.setattr(DifferentialOracle, "_run",
                            staticmethod(run_with_greedy_dead_end))
        comparison = oracle.compare("gen-000")
        assert comparison.kind == RESCUE
        assert not comparison.divergent

    def test_divergence_when_hashes_differ(self, oracle, monkeypatch):
        """A different solver hash at the same score is nondeterminism."""
        real_run = DifferentialOracle._run

        def run_with_skewed_solver(concretizer, request):
            s_hash, spec, err = real_run(concretizer, request)
            if concretizer is oracle.solver and s_hash is not None:
                return "deadbeef" + s_hash[8:], spec, err
            return s_hash, spec, err

        monkeypatch.setattr(DifferentialOracle, "_run",
                            staticmethod(run_with_skewed_solver))
        comparison = oracle.compare("gen-000", minimize=False)
        assert comparison.kind == DIVERGENCE
        assert comparison.divergent

    def test_divergence_when_solver_loses_a_solution(self, oracle,
                                                     monkeypatch):
        """The solver's space contains greedy's answer: a greedy
        solution it cannot reproduce is a bug, never a benign miss."""
        from repro.core.concretizer import ConcretizationError

        real_run = DifferentialOracle._run

        def run_with_solver_failure(concretizer, request):
            if concretizer is oracle.solver:
                return None, None, ConcretizationError.__name__
            return real_run(concretizer, request)

        monkeypatch.setattr(DifferentialOracle, "_run",
                            staticmethod(run_with_solver_failure))
        comparison = oracle.compare("gen-000", minimize=False)
        assert comparison.kind == DIVERGENCE

    def test_optimality_divergence_when_solver_scores_worse(self, oracle,
                                                            monkeypatch):
        """If greedy's DAG scores strictly better on the solver's own
        objective, the optimization contract is broken."""
        real_score = oracle.solver.score
        real_run = DifferentialOracle._run

        def run_with_private_solver_spec(concretizer, request):
            result = real_run(concretizer, request)
            if concretizer is oracle.solver:
                # hand the score shim a distinct spec object to inflate
                monkeypatch.setattr(
                    oracle.solver, "score",
                    lambda c: real_score(c) + (1 if c is result[1] else 0),
                )
            return result

        monkeypatch.setattr(DifferentialOracle, "_run",
                            staticmethod(run_with_private_solver_spec))
        comparison = oracle.compare("gen-000", minimize=False)
        assert comparison.kind == OPTIMALITY_DIVERGENCE
        assert comparison.divergent
        assert comparison.solver_score > comparison.best_score

    def test_classify_matrix(self):
        """The full decision table, driven directly (no concretizer).
        Arguments: greedy hash, solver hash, greedy score, solver
        score."""
        classify = DifferentialOracle._classify
        # both succeed, same hash
        assert classify("h", "h", 5, 5) == AGREE_SUCCESS
        # solver hash differs with a strictly better score: benign
        assert classify("h", "x", 9, 5) == IMPROVEMENT
        # solver hash differs at the same score: nondeterminism
        assert classify("h", "x", 5, 5) == DIVERGENCE
        # solver worse than greedy
        assert classify("h", "x", 5, 9) == OPTIMALITY_DIVERGENCE
        # greedy fails, solver rescues
        assert classify(None, "x", None, 9) == RESCUE
        # greedy ok, the solver failed
        assert classify("h", None, 5, None) == DIVERGENCE
        # both failed
        assert classify(None, None, None, None) == AGREE_ERROR


class TestMinimizer:
    def test_minimizer_strips_irrelevant_components(self, oracle, monkeypatch):
        """With divergence pinned to one variant flag, every other
        constraint must be shaved off the reproducer."""
        monkeypatch.setattr(
            oracle, "_diverges", lambda request: "+shared" in request
        )
        minimized = oracle.minimize(
            "gen-013@2:%gcc+shared=linux-x86_64 ^gen-000@1:"
        )
        assert "+shared" in minimized
        assert "@2:" not in minimized
        assert "%gcc" not in minimized
        assert "^gen-000" not in minimized

    def test_minimizer_is_identity_without_strippable_cause(self, oracle,
                                                            monkeypatch):
        monkeypatch.setattr(oracle, "_diverges", lambda request: True)
        # every component strippable: reduces to the bare name
        assert oracle.minimize("gen-013@2:%gcc+shared") == "gen-013"

    def test_optimality_divergence_is_minimized_too(self, oracle, monkeypatch):
        """Both divergence kinds feed ddmin: Comparison.divergent is the
        single switch the minimizer keys on."""
        comparison = Comparison("r", OPTIMALITY_DIVERGENCE)
        assert comparison.divergent
        monkeypatch.setattr(
            oracle, "compare",
            lambda request, minimize=False: Comparison(
                request,
                OPTIMALITY_DIVERGENCE if "+shared" in request else AGREE_SUCCESS,
            ),
        )
        assert oracle.minimize("gen-013@2:+shared") == "gen-013+shared"

    def test_comparison_serializes(self):
        comparison = Comparison("a", AGREE_SUCCESS, greedy_hash="h",
                                solver_hash="h", solver_attempts=7,
                                solver_score=12)
        data = comparison.to_dict()
        assert data["kind"] == AGREE_SUCCESS
        assert data["greedy_hash"] == "h"
        assert data["solver_attempts"] == 7
        assert data["solver_score"] == 12
        assert data["solver_hash"] == "h"
