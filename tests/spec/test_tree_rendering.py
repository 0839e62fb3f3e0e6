"""Spec.tree() and large-DAG rendering edge cases."""

import pytest

from repro.spec.graph import graph_ascii, graph_dot
from repro.spec.spec import Spec


class TestTree:
    def test_single_node(self):
        assert Spec("mpileaks@1.0").tree() == "mpileaks@1.0"

    def test_indentation_by_depth(self, session):
        concrete = session.concretize(Spec("mpileaks"))
        lines = concrete.tree().splitlines()
        assert lines[0].startswith("mpileaks")
        libelf_lines = [l for l in lines if "libelf" in l]
        assert libelf_lines
        # libelf is 4 levels down: callpath -> dyninst -> libdwarf -> libelf
        # (first-visit depth via sorted traversal)
        assert libelf_lines[0].startswith(" " * 8)

    def test_tree_shows_all_parameters(self, session):
        concrete = session.concretize(Spec("mpileaks"))
        for line in concrete.tree().splitlines():
            assert "@" in line and "%" in line

    def test_custom_indent(self):
        root = Spec("a@1")
        root._add_dependency(Spec("b@1"))
        text = root.tree(indent=4)
        assert "\n    b@1" in text


class TestStr:
    def test_one_str_makes_one_traversal(self, session, monkeypatch):
        concrete = session.concretize(Spec("ares ^mvapich"))
        walks = []
        real = Spec.traverse

        def counting(self, *args, **kwargs):
            if kwargs.get("_visited") is None:  # a walk, not its recursion
                walks.append(self.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Spec, "traverse", counting)
        text = str(concrete)
        assert walks == ["ares"]
        assert text.count("^") == len(list(real(concrete))) - 1


class TestLargeDagRendering:
    def test_ares_ascii(self, session):
        concrete = session.concretize(Spec("ares ^mvapich"))
        text = graph_ascii(concrete)
        # every unique package appears; shared nodes marked
        for name in ("ares", "hypre", "python", "zlib"):
            assert name in text
        assert "*" in text  # zlib etc. are shared

    def test_ares_dot_is_valid_shape(self, session):
        concrete = session.concretize(Spec("ares ^mvapich"))
        dot = graph_dot(concrete, name="ares")
        assert dot.startswith('digraph "ares"')
        assert dot.rstrip().endswith("}")
        # 47 node declarations (attribute lines end in "];"; edges don't)
        assert dot.count("];") == 47

    def test_dot_edges_unique(self, session):
        concrete = session.concretize(Spec("mpileaks"))
        dot = graph_dot(concrete)
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(edge_lines) == len(set(edge_lines))


class TestRepoListPattern:
    def test_pattern_filter(self, tmp_path, capsys):
        from repro.cli.main import main

        root = str(tmp_path / "u")
        code = main(["--root", root, "repo-list", "py-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "py-numpy" in out and "py-scipy" in out
        assert "mpileaks" not in out
