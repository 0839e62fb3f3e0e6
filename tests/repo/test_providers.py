"""Versioned virtual dependencies and the provider index (§3.3, Figure 5)."""

import pytest

from repro.directives import depends_on, provides, version
from repro.package.package import Package
from repro.repo.providers import ProviderIndex
from repro.repo.repository import Repository
from repro.spec.spec import Spec


@pytest.fixture
def figure5_repo():
    """Exactly the Figure 5 packages."""
    repo = Repository(namespace="fig5")

    @repo.register("mvapich2")
    class Mvapich2(Package):
        version("1.9", "a")
        version("2.0", "b")
        provides("mpi@:2.2", when="@1.9")
        provides("mpi@:3.0", when="@2.0")

    @repo.register("mpich")
    class Mpich(Package):
        version("3.0.4", "a")
        version("1.4", "b")
        provides("mpi@:3", when="@3:")
        provides("mpi@:1", when="@1:1.5")

    @repo.register("mpileaks")
    class Mpileaks(Package):
        version("1.0", "x")
        depends_on("mpi")

    @repo.register("gerris")
    class Gerris(Package):
        version("1.0", "x")
        depends_on("mpi@2:")

    return repo


@pytest.fixture
def index(figure5_repo):
    return ProviderIndex.from_repo(figure5_repo)


class TestProviderIndex:
    def test_virtual_detection(self, index):
        assert index.is_virtual("mpi")
        assert not index.is_virtual("mpileaks")
        assert "mpi" in index

    def test_unconstrained_request(self, index):
        names = {p.name for p in index.providers_for("mpi")}
        assert names == {"mvapich2", "mpich"}

    def test_figure5_any_mpi(self, index):
        # "Any version of mvapich2 or mpich could be used to satisfy the
        # mpi constraint [of mpileaks]."
        providers = index.providers_for(Spec("mpi"))
        versions = {(p.name, str(p.versions)) for p in providers}
        assert ("mvapich2", "1.9") in versions
        assert ("mvapich2", "2.0") in versions
        assert ("mpich", "3:") in versions
        assert ("mpich", "1:1.5") in versions

    def test_figure5_gerris_constraint(self, index):
        # "Gerris needs MPI version 2 or higher.  So any version except
        # mpich 1.x could be used."
        providers = index.providers_for(Spec("mpi@2:"))
        versions = {(p.name, str(p.versions)) for p in providers}
        assert ("mvapich2", "1.9") in versions       # provides up to 2.2
        assert ("mvapich2", "2.0") in versions
        assert ("mpich", "3:") in versions
        assert ("mpich", "1:1.5") not in versions    # mpi@:1 only

    def test_mpi3_request(self, index):
        providers = index.providers_for(Spec("mpi@3:"))
        versions = {(p.name, str(p.versions)) for p in providers}
        assert ("mvapich2", "2.0") in versions
        assert ("mvapich2", "1.9") not in versions
        assert ("mpich", "3:") in versions

    def test_no_provider(self, index):
        assert index.providers_for(Spec("mpi@99:")) == []
        assert index.providers_for(Spec("nosuchvirtual")) == []

    def test_providers_for_name(self, index):
        assert index.providers_for_name("mpi") == ["mpich", "mvapich2"]

    def test_satisfies_virtual(self, figure5_repo, index):
        mvapich2 = figure5_repo.get_class("mvapich2")
        mpich = figure5_repo.get_class("mpich")
        assert index.satisfies_virtual(Spec("mvapich2@2.0"), Spec("mpi@3:"), mvapich2)
        assert not index.satisfies_virtual(Spec("mvapich2@1.9"), Spec("mpi@3:"), mvapich2)
        assert not index.satisfies_virtual(Spec("mpich@1.4"), Spec("mpi@2:"), mpich)
        assert index.satisfies_virtual(Spec("mpich@3.0.4"), Spec("mpi@2:"), mpich)

    def test_constraint_transfer(self, index):
        # Non-version constraints on the virtual carry to the provider.
        providers = index.providers_for(Spec("mpi%gcc@4.9=bgq"))
        assert providers
        for p in providers:
            assert p.compiler.name == "gcc"
            assert p.architecture == "bgq"

    def test_unconditional_provides(self):
        repo = Repository(namespace="uncond")

        @repo.register("openmpi")
        class Openmpi(Package):
            version("1.8.2", "x")
            provides("mpi@:2.2")

        index = ProviderIndex.from_repo(repo)
        providers = index.providers_for(Spec("mpi@2:"))
        assert [p.name for p in providers] == ["openmpi"]
        assert providers[0].versions.universal  # no when => any version


class TestProviderMemo:
    """providers_for memoizes on the virtual spec's DAG key; results are
    defensive copies."""

    def test_repeat_queries_are_equal_but_not_shared(self, index):
        first = index.providers_for(Spec("mpi@2:"))
        second = index.providers_for(Spec("mpi@2:"))
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        first[0].variants["mangled"] = True
        assert index.providers_for(Spec("mpi@2:")) == second

    def test_memo_keeps_evicting_past_1024_distinct_specs(self, index):
        """Regression: the memo used a fixed admission cap — after 1024
        distinct virtual specs it stopped memoizing entirely, so every
        later providers_for call was a cold scan (hit-rate pinned to
        zero for the rest of the process).  Bounded LRU eviction keeps
        recent constraints hot no matter how many have been seen."""
        from repro.repo.providers import MEMO_CAP

        total = MEMO_CAP + 64
        for i in range(total):
            index.providers_for(Spec("mpi@:%d.%d" % (i // 10 + 1, i % 10)))
        # re-query the most recent constraints: with LRU these are all
        # still resident; with the old admission cap none of the post-cap
        # keys were ever stored, so every one of these would miss
        hits_before = index.memo_hits
        for i in range(total - 32, total):
            index.providers_for(Spec("mpi@:%d.%d" % (i // 10 + 1, i % 10)))
        assert index.memo_hits - hits_before == 32
        # and the memo stayed bounded while the hit-rate stayed > 0
        assert len(index._memo) == MEMO_CAP
        # the oldest constraint was evicted: asking again is a miss
        misses = index.memo_misses
        index.providers_for(Spec("mpi@:1.0"))
        assert index.memo_misses == misses + 1
        assert index.memo_hits > 0
