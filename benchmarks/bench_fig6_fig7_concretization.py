"""Figures 6 and 7: the concretization pipeline and its output.

Figure 6 is the algorithm itself (intersect constraints → resolve
virtuals → concretize parameters, iterate); this benchmark traces one
run stage by stage.  Figure 7 is the fully concrete DAG produced from
Figure 2(a)'s unconstrained ``mpileaks``: every node gains a version,
compiler+version, variants, and architecture.
"""

from conftest import write_result

from repro.spec.graph import graph_ascii
from repro.spec.spec import Spec


def test_fig6_pipeline_trace(bench_session, benchmark):
    session = bench_session
    concretizer = session.concretizer
    spec = Spec("mpileaks@2.3 ^callpath+debug")

    lines = ["Figure 6: concretization pipeline trace for %r" % str(spec), ""]
    work = spec.copy()

    changed = concretizer._expand_dependencies(work)
    lines.append("[intersect constraints / expand deps]  changed=%s" % changed)
    lines.append("  nodes: %s" % ", ".join(sorted(n.name for n in work.traverse())))
    virtuals = [n.name for n in work.traverse() if concretizer._is_virtual(n.name)]
    lines.append("  virtual nodes: %s" % (", ".join(virtuals) or "none"))

    changed = concretizer._resolve_virtuals(work)
    lines.append("[resolve virtual deps]  changed=%s" % changed)
    providers = [
        "%s provides %s" % (n.name, ",".join(sorted(n.provided_virtuals)))
        for n in work.traverse()
        if n.provided_virtuals
    ]
    lines.append("  %s" % "; ".join(providers))

    changed = concretizer._concretize_parameters(work, {})
    lines.append("[concretize parameters]  changed=%s" % changed)
    for node in work.traverse():
        lines.append("  %s" % node.node_str())
    write_result("fig6_pipeline.txt", "\n".join(lines) + "\n")

    assert virtuals == ["mpi"]
    assert any("mvapich2" in p for p in providers)

    # the benchmark: the full pipeline end to end
    result = benchmark(session.concretize, Spec("mpileaks@2.3 ^callpath+debug"))
    assert result.concrete


def test_fig7_concrete_dag(bench_session, benchmark):
    session = bench_session
    concrete = benchmark(session.concretize, Spec("mpileaks"))

    lines = ["Figure 7: concretized spec from Figure 2(a)", ""]
    lines.append(graph_ascii(concrete))
    write_result("fig7_concrete.txt", "\n".join(lines) + "\n")

    # Figure 7's property: every parameter of every node is resolved.
    for node in concrete.traverse():
        assert node.versions.concrete is not None
        assert node.compiler is not None and node.compiler.concrete
        assert node.architecture is not None
    # and rendering shows all of them, like the figure's node labels
    for node in concrete.traverse():
        label = node.node_str()
        assert "@" in label and "%" in label and "=" in label
