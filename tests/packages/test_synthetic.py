"""The deterministic synthetic corpus (the Figure 8 universe)."""

import pytest

from repro.packages.synthetic import full_universe, synthetic_repo
from repro.spec.spec import Spec


class TestGeneration:
    def test_deterministic(self):
        a = synthetic_repo(count=40, seed=3)
        b = synthetic_repo(count=40, seed=3)
        assert a.all_package_names() == b.all_package_names()
        for name in a.all_package_names():
            ca, cb = a.get_class(name), b.get_class(name)
            assert sorted(ca.dependencies) == sorted(cb.dependencies)
            assert sorted(map(str, ca.versions)) == sorted(map(str, cb.versions))

    def test_seed_changes_corpus(self):
        a = synthetic_repo(count=40, seed=3)
        b = synthetic_repo(count=40, seed=4)
        different = any(
            sorted(a.get_class(n).dependencies) != sorted(b.get_class(n).dependencies)
            for n in a.all_package_names()
        )
        assert different

    def test_acyclic_by_construction(self):
        repo = synthetic_repo(count=60, seed=1)
        for name in repo.all_package_names():
            index = int(name.split("-")[1])
            for dep in repo.get_class(name).dependencies:
                if dep.startswith("syn-"):
                    assert int(dep.split("-")[1]) < index

    def test_dag_size_spread(self):
        """Transitive closures must span Figure 8's x-axis (1 .. 50+)."""
        repo = synthetic_repo(count=185, seed=42)

        sizes = {}

        def closure(name):
            if name in sizes:
                return sizes[name]
            cls = repo.get_class(name)
            deps = set()
            for dep in cls.dependencies:
                if not repo.exists(dep):
                    continue  # virtual
                deps.add(dep)
                deps |= closure(dep)
            sizes[name] = deps
            return deps

        all_sizes = [len(closure(n)) + 1 for n in repo.all_package_names()]
        assert min(all_sizes) == 1
        assert max(all_sizes) >= 50

    def test_full_universe_size(self):
        universe = full_universe(total=245)
        assert len(universe) == 245


class TestConcretizability:
    def test_sample_concretizes(self, tmp_path):
        from repro.session import Session

        universe = full_universe(total=245)
        session = Session.create(str(tmp_path / "u"), packages=None)
        session.repo.repos = universe.repos
        synthetic = [n for n in universe.all_package_names() if n.startswith("syn-")]
        sample = ["syn-000", "syn-023", "syn-046", "syn-100", synthetic[-1]]
        for name in sample:
            concrete = session.concretize(Spec(name))
            assert concrete.concrete
