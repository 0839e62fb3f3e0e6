"""The §4.5 search past greedy dead ends (the paper's future work): the
hwloc case and its relatives, solved by the optimizing solver through the
session (``concretizer="solver"``)."""

import pytest

from repro.core.concretizer import ConcretizationError
from repro.core.solver import SolverConcretizer, SolverLimitError
from repro.directives import depends_on, provides, version
from repro.package.package import Package
from repro.spec.spec import Spec


@pytest.fixture
def hwloc_session(bare_repo_session):
    """The paper's §4.5 hwloc example: the preferred MPI conflicts."""
    repo = bare_repo_session.repo.repos[0]

    @repo.register("hwloc")
    class Hwloc(Package):
        version("1.8", "x")
        version("1.9", "y")

    @repo.register("ampi")
    class Ampi(Package):
        version("1.0", "x")
        provides("mpi2")
        depends_on("hwloc@1.8")  # strict: conflicts with P's hwloc@1.9

    @repo.register("bmpi")
    class Bmpi(Package):
        version("1.0", "x")
        provides("mpi2")
        depends_on("hwloc@1.9")

    @repo.register("p")
    class P(Package):
        version("1.0", "x")
        depends_on("hwloc@1.9")
        depends_on("mpi2")

    bare_repo_session.config.update(
        "user", {"preferences": {"providers": {"mpi2": ["ampi", "bmpi"]}}}
    )
    return bare_repo_session


def searcher(session, **kwargs):
    """A solver over the session's current State."""
    state = session.snapshots.current()
    return SolverConcretizer(
        state.repo, state.provider_index, state.compilers, state.config,
        state.policy, **kwargs,
    )


class TestHwlocCase:
    def test_greedy_fails(self, hwloc_session):
        with pytest.raises(ConcretizationError):
            hwloc_session.concretize(Spec("p"))

    def test_backtracking_succeeds(self, hwloc_session):
        concretizer = searcher(hwloc_session)
        concrete = concretizer.concretize(Spec("p"))
        assert concrete.concrete
        assert concrete["mpi2"].name == "bmpi"
        assert str(concrete["hwloc"].version) == "1.9"
        assert concretizer.last_attempts >= 2  # greedy + at least one retry
        # and the session's solver variant answers the same
        assert hwloc_session.concretize(
            "p", concretizer="solver"
        ).dag_hash() == concrete.dag_hash()

    def test_user_constraint_still_respected(self, hwloc_session):
        concretizer = searcher(hwloc_session)
        # explicitly forcing the bad provider must still fail
        with pytest.raises(ConcretizationError):
            concretizer.concretize(Spec("p ^ampi"))


class TestNoRegression:
    def test_identical_to_greedy_when_greedy_works(self, session):
        greedy = session.concretize(Spec("mpileaks"))
        solved = searcher(session).concretize(Spec("mpileaks"))
        assert solved == greedy
        assert solved.dag_hash() == greedy.dag_hash()

    def test_single_attempt_when_greedy_works(self, session):
        concretizer = searcher(session)
        concretizer.concretize(Spec("mpileaks"))
        assert concretizer.last_attempts == 1

    def test_preference_order_preserved(self, hwloc_session):
        """The most preferred consistent assignment wins: if both
        providers work at equal cost, the search returns the greedy
        answer.  (Without the hwloc@1.9 pin, ampi's hwloc@1.8 is a
        version downgrade bmpi avoids, and the solver improves on greedy
        by picking bmpi — tests/testing/test_oracle.py covers that.)"""
        repo = hwloc_session.repo.repos[0]

        @repo.register("cmpi")
        class Cmpi(Package):
            version("1.0", "x")
            provides("mpi3")

        @repo.register("dmpi")
        class Dmpi(Package):
            version("1.0", "x")
            provides("mpi3")

        @repo.register("q")
        class Q(Package):
            version("1.0", "x")
            depends_on("mpi3")  # either MPI works, at no other cost

        hwloc_session.config.update(
            "user", {"preferences": {"providers": {"mpi3": ["dmpi", "cmpi"]}}}
        )
        greedy = hwloc_session.concretize(Spec("q"))
        concrete = searcher(hwloc_session).concretize(Spec("q"))
        assert concrete["mpi3"].name == "dmpi"  # still the preferred one
        assert concrete.dag_hash() == greedy.dag_hash()


class TestMultipleChoicePoints:
    def test_two_virtuals_searched(self, bare_repo_session):
        repo = bare_repo_session.repo.repos[0]

        @repo.register("libx")
        class Libx(Package):
            version("1", "a")
            version("2", "b")

        @repo.register("va1")
        class Va1(Package):
            version("1.0", "x")
            provides("vinta")
            depends_on("libx@1")

        @repo.register("va2")
        class Va2(Package):
            version("1.0", "x")
            provides("vinta")
            depends_on("libx@2")

        @repo.register("vb1")
        class Vb1(Package):
            version("1.0", "x")
            provides("vintb")
            depends_on("libx@1")

        @repo.register("vb2")
        class Vb2(Package):
            version("1.0", "x")
            provides("vintb")
            depends_on("libx@2")

        @repo.register("app")
        class App(Package):
            version("1.0", "x")
            depends_on("vinta")
            depends_on("vintb")
            depends_on("libx@2")

        # preferences steer both virtuals at the conflicting providers
        bare_repo_session.config.update(
            "user",
            {"preferences": {"providers": {"vinta": ["va1", "va2"],
                                           "vintb": ["vb1", "vb2"]}}},
        )
        with pytest.raises(ConcretizationError):
            bare_repo_session.concretize(Spec("app"))
        concrete = searcher(bare_repo_session).concretize(Spec("app"))
        assert concrete["vinta"].name == "va2"
        assert concrete["vintb"].name == "vb2"
        assert str(concrete["libx"].version) == "2"


class TestLimits:
    def test_attempt_budget(self, bare_repo_session):
        repo = bare_repo_session.repo.repos[0]

        @repo.register("pin")
        class Pin(Package):
            version("9", "x")

        for i in range(6):
            ns = {}
            from repro.directives.directives import DirectiveMeta

            version("1.0", "x")
            provides("vimp")
            depends_on("pin@1:2")  # impossible range: pin only has @9
            cls = DirectiveMeta("Imp%d" % i, (Package,), ns)
            repo.add_class("imp-%d" % i, cls)

        @repo.register("needs-vimp")
        class NeedsVimp(Package):
            version("1.0", "x")
            depends_on("vimp")

        with pytest.raises(SolverLimitError):
            searcher(bare_repo_session, max_attempts=3).concretize(
                Spec("needs-vimp")
            )

    def test_unsolvable_reports_all_failed(self, hwloc_session):
        repo = hwloc_session.repo.repos[0]

        @repo.register("r")
        class R(Package):
            version("1.0", "x")
            depends_on("hwloc@:1.7")  # no provider's hwloc matches
            depends_on("mpi2")

        with pytest.raises(ConcretizationError, match="consistent|conflict|version"):
            searcher(hwloc_session).concretize(Spec("r"))
