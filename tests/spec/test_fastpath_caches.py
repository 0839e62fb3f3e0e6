"""The spec fast path: cached reprs and hashes, and their invalidation
under *direct attribute mutation*.

Every node parameter (``name``, ``versions``, ``compiler``,
``architecture``, ``external``) is an invalidating property and the
variant map notifies its owner, so code that pokes a spec directly —
tests do, and the concretizer's ``_apply_external`` does — can never be
served a stale cached identity or satisfies verdict.
"""

from repro.spec.spec import Spec
from repro.version import ver


class TestStrictProviderAsymmetry:
    """Regression (satellite 1): a provider of ``mpi@3:`` must satisfy a
    request for ``mpi@2:``, but a provider of ``mpi@2:`` must NOT be
    treated as guaranteed to satisfy ``mpi@3:``."""

    def test_version_level(self):
        assert ver("3:").satisfies(ver("2:"), strict=True)
        assert not ver("2:").satisfies(ver("3:"), strict=True)

    def test_spec_level(self):
        assert Spec("mpi@3:").satisfies(Spec("mpi@2:"), strict=True)
        assert not Spec("mpi@2:").satisfies(Spec("mpi@3:"), strict=True)

    def test_non_strict_stays_an_overlap_check(self):
        assert Spec("mpi@2:").satisfies(Spec("mpi@3:"))
        assert Spec("mpi@3:").satisfies(Spec("mpi@2:"))


class TestDirectMutationInvalidates:
    def _eq_state(self, spec):
        return (hash(spec), str(spec))

    def test_versions_assignment(self):
        a, b = Spec("libelf@0.8.13"), Spec("libelf@0.8.13")
        assert a == b and hash(a) == hash(b)
        a.versions = ver("0.8.12")
        assert a != b
        assert str(a.versions) == "0.8.12"

    def test_name_assignment(self):
        a = Spec("libelf")
        hash(a)  # prime the cached dag key
        a.name = "libelf-mangled"
        assert str(a) == "libelf-mangled"
        assert a != Spec("libelf")
        assert a == Spec("libelf-mangled")

    def test_compiler_and_architecture_assignment(self):
        a = Spec("libelf%gcc@4.9.2=linux-x86_64")
        hash(a)
        a.architecture = None
        assert a == Spec("libelf%gcc@4.9.2")
        a.compiler = None
        assert a == Spec("libelf")

    def test_external_assignment(self):
        a, b = Spec("mpich"), Spec("mpich")
        assert a == b
        a.external = "/opt/vendor/mpich"
        assert a != b

    def test_variant_map_mutation(self):
        a, b = Spec("libelf"), Spec("libelf")
        assert a == b
        a.variants["debug"] = True
        assert a != b
        assert a == Spec("libelf+debug")
        del a.variants["debug"]
        assert a == b

    def test_mutating_a_copied_dependency_diverges_the_copy(self):
        full = Spec("mpileaks ^callpath@1.0")
        copy = full.copy()
        assert copy == full
        copy["callpath"].variants["debug"] = True
        assert copy != full
        assert copy["callpath"].satisfies("callpath+debug")


class TestSatisfiesMemo:
    """Verdicts stay right under repeated queries and mutation.  No
    verdict is memoized any more, so these pin the answers a memo would
    have to keep."""

    def test_memo_survives_repeated_queries(self):
        a = Spec("mpileaks@2.3+debug")
        b = Spec("mpileaks@2:")
        assert a.satisfies(b)
        assert a.satisfies(b)

    def test_mutating_self_clears_the_memo(self):
        a = Spec("mpileaks@2.3")
        assert a.satisfies("mpileaks@2:")
        a.versions = ver("1.0")
        assert not a.satisfies("mpileaks@2:")

    def test_mutating_other_changes_the_key(self):
        a = Spec("mpileaks@2.3")
        b = Spec("mpileaks@2:")
        assert a.satisfies(b)
        b.versions = ver("3:")
        # b's dag key changed, so the stale verdict cannot be reused
        assert not a.satisfies(b)

    def test_mutating_a_dependency_clears_ancestor_memos(self):
        full = Spec("mpileaks ^callpath@1.0")
        assert full.satisfies("mpileaks ^callpath@1:")
        full["callpath"].versions = ver("0.5")
        assert not full.satisfies("mpileaks ^callpath@1:")

    def test_intersects_memo_agrees_with_constrain(self):
        a = Spec("mpileaks@2:")
        assert a.intersects("mpileaks@:3")
        assert a.intersects("mpileaks@:3")
        assert not Spec("mpileaks@:1").intersects("mpileaks@2:")
        assert not Spec("mpileaks@:1").intersects("mpileaks@2:")
