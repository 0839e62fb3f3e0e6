"""``Spec.traverse`` against a recursive reference walk.

The walk is one generator frame over an explicit stack.  These tests
keep the recursive generator it replaced as the reference and compare
every ``order``/``root``/``depth``/``deptype`` combination on
concretized DAGs of the builtin corpus and of generated universes,
diamonds and anonymous nodes, plus the one mutation the concretizer
makes mid-walk: repointing the edges of the node just yielded.
"""

import itertools

import pytest

from repro.compilers.registry import Compiler, CompilerRegistry
from repro.config.config import Config
from repro.core.concretizer import ConcretizationError, Concretizer
from repro.repo.providers import ProviderIndex
from repro.spec.errors import SpecError
from repro.spec.spec import Spec, canonical_deptype
from repro.testing.generators import GEN_COMPILERS, RepoGenerator, SpecGenerator


def reference(spec, order="pre", root=True, depth=False, deptype=None,
              _visited=None, _d=0):
    """The recursive walk, as it was before the explicit stack."""
    if deptype is not None and not isinstance(deptype, frozenset):
        deptype = canonical_deptype(deptype)
    if _visited is None:
        _visited = set()
    key = spec.name or id(spec)
    if key in _visited:
        return
    _visited.add(key)

    def emit():
        return (_d, spec) if depth else spec

    if order == "pre" and root:
        yield emit()
    for name in sorted(spec.dependencies):
        if deptype is not None and not (
            spec.dependencies.deptypes(name) & deptype
        ):
            continue
        yield from reference(
            spec.dependencies[name], order=order, root=True, depth=depth,
            deptype=deptype, _visited=_visited, _d=_d + 1,
        )
    if order == "post" and root:
        yield emit()


DEPTYPES = (None, "build", "link", "run", ("link", "run"), ("build", "run"),
            "all")
COMBINATIONS = list(itertools.product(
    ("pre", "post"), (True, False), (True, False), DEPTYPES))


def _ids(items):
    """A walk's output by identity: ``(depth, id)`` pairs or ids."""
    return [(i[0], id(i[1])) if isinstance(i, tuple) else id(i)
            for i in items]


def assert_same_walks(spec):
    for order, root, depth, deptype in COMBINATIONS:
        kwargs = dict(order=order, root=root, depth=depth, deptype=deptype)
        assert _ids(list(spec.traverse(**kwargs))) == \
            _ids(list(reference(spec, **kwargs))), kwargs


def diamond():
    """a -> b -> d ; a -> c -> d, typed edges, d shared."""
    a, b, c, d = Spec("a@1"), Spec("b@1"), Spec("c@1"), Spec("d@1")
    b._add_dependency(d, ("build",))
    c._add_dependency(d, ("link", "run"))
    a._add_dependency(b, ("build", "link"))
    a._add_dependency(c, ("run",))
    return a


def anonymous_nodes():
    """Two anonymous nodes under one named root: keyed by identity."""
    root = Spec("top@1")
    for name in ("x", "y"):
        child = Spec()
        child.versions = Spec("z@2").versions
        root.dependencies[name] = child
    named = Spec("leaf@1")
    root._add_dependency(named, ("link",))
    return root


@pytest.fixture(scope="module")
def generated_dags():
    """Concretized DAGs of three generated universes (not frozen)."""
    dags = []
    for seed in (3, 17, 41):
        repo = RepoGenerator(seed, count=30, virtuals=2, hub_bias=0.6,
                             max_deps=4).build()
        config = Config()
        config.update("defaults", {"preferences": {
            "compiler_order": [GEN_COMPILERS[0]],
            "architecture": "linux-x86_64"}})
        concretizer = Concretizer(
            repo, ProviderIndex.from_repo(repo),
            CompilerRegistry(Compiler(*c.split("@")) for c in GEN_COMPILERS),
            config)
        for text in SpecGenerator(seed, repo).specs(12):
            try:
                dags.append(concretizer.concretize(text))
            except (ConcretizationError, SpecError):
                continue
    return dags


class TestSameSequence:
    def test_hand_built_shapes(self):
        for spec in (diamond(), anonymous_nodes(), Spec("lonely@1"),
                     Spec("mpileaks ^callpath ^mpich@3")):
            assert_same_walks(spec)

    def test_concretized_corpus_dags(self, session):
        for text in ("mpileaks", "ares ^mvapich", "libdwarf", "callpath"):
            concrete = session.concretize(text)
            assert_same_walks(concrete)
            assert_same_walks(concrete.copy())

    def test_generated_universes(self, generated_dags):
        assert len(generated_dags) >= 12
        for concrete in generated_dags:
            assert_same_walks(concrete)

    def test_bad_deptype_raises_before_the_first_node(self):
        with pytest.raises(SpecError):
            next(diamond().traverse(deptype="bogus"))


class TestMidWalkRepointing:
    """The concretizer's virtual swap replaces an edge of the node the
    walk just handed out; the walk must read that node's child names
    after the yield and each child when it reaches it."""

    @staticmethod
    def _walk(walker, spec):
        seen = []
        for node in walker(spec):
            seen.append(node.name)
            old = node.dependencies.get("mpi")
            if old is not None:
                del node.dependencies["mpi"]
                node.dependencies["mpich"] = Spec("mpich@3")
        return seen

    def test_repointing_matches_the_reference(self):
        def build():
            root = Spec("app@1")
            mid = Spec("mid@1")
            mid._add_dependency(Spec("mpi"))
            mid._add_dependency(Spec("zlib@1"))
            root._add_dependency(mid)
            root._add_dependency(Spec("mpi"))
            return root

        walked = self._walk(Spec.traverse, build())
        expected = self._walk(reference, build())
        assert walked == expected
        assert walked.count("mpich") == 1 and "mpi" not in walked

    def test_repointing_on_a_generated_dag(self, generated_dags):
        concrete = max(generated_dags, key=lambda s: len(list(s.traverse())))
        a, b = concrete.copy(), concrete.copy()
        victim = sorted(n.name for n in a.traverse(root=False))[0]

        def swap(walker, spec):
            seen = []
            for node in walker(spec):
                seen.append(node.name)
                if victim in node.dependencies:
                    del node.dependencies[victim]
                    node.dependencies["swapped"] = Spec("swapped@1")
            return seen

        assert swap(Spec.traverse, a) == swap(reference, b)
