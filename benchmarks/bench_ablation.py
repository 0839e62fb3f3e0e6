"""Ablations of the design choices DESIGN.md calls out.

Three knobs, each isolated:

1. **Greedy vs. solver concretization** (§3.4 vs §4.5): the paper
   chose greedy because conflicts "have been rare so far".  Measured:
   when greedy succeeds, the solver's answer is greedy's (one identical
   pass, plus building its choice space to prove the answer optimal —
   about 2-3x a greedy pass on mpileaks); when greedy dead-ends on a
   provider choice, the solver finds the consistent assignment at the
   cost of N extra greedy passes.
2. **Provider-index caching**: the reverse index (§3.3) is built once
   per repo change, not per concretization.  Measured: time per
   concretize with a cached index vs. rebuilding it each call.
3. **Sub-DAG reuse** (§3.4.2): hash-addressed prefixes let a second
   configuration skip shared subtree builds entirely.  Measured:
   virtual build seconds with reuse vs. a cold store.
"""

import time

from conftest import write_result

from repro.core.concretizer import ConcretizationError, Concretizer
from repro.core.solver import SolverConcretizer
from repro.directives import depends_on, provides, version
from repro.package.package import Package
from repro.repo.providers import ProviderIndex
from repro.session import Session
from repro.spec.spec import Spec


def _timed(fn, repeats=20):
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def test_ablation_solver(bench_session, tmp_path_factory, benchmark):
    session = bench_session
    greedy_args = (
        session.repo, session.provider_index, session.compilers,
        session.config, session.policy,
    )
    greedy = Concretizer(*greedy_args)
    solver = SolverConcretizer(*greedy_args)

    t_greedy = _timed(lambda: greedy.concretize(Spec("mpileaks")))
    t_solver_ok = _timed(lambda: solver.concretize(Spec("mpileaks")))

    # a conflict case (the §4.5 hwloc shape) in a scratch session
    scratch = Session.create(str(tmp_path_factory.mktemp("ablate")), packages=None)
    repo = scratch.repo.repos[0]

    @repo.register("hwloc")
    class Hwloc(Package):
        version("1.8", "x")
        version("1.9", "y")

    @repo.register("ampi")
    class Ampi(Package):
        version("1.0", "x")
        provides("mpi9")
        depends_on("hwloc@1.8")

    @repo.register("bmpi")
    class Bmpi(Package):
        version("1.0", "x")
        provides("mpi9")
        depends_on("hwloc@1.9")

    @repo.register("p")
    class P(Package):
        version("1.0", "x")
        depends_on("hwloc@1.9")
        depends_on("mpi9")

    scratch.config.update(
        "user", {"preferences": {"providers": {"mpi9": ["ampi", "bmpi"]}}}
    )
    state = scratch.snapshots.current()
    rescuer = state.concretizer("solver")
    greedy_fails = False
    try:
        scratch.concretize(Spec("p"))
    except ConcretizationError:
        greedy_fails = True
    solved = rescuer.concretize(Spec("p"))
    attempts = rescuer.last_attempts

    lines = [
        "Ablation 1: greedy vs solver concretization",
        "",
        "mpileaks (no conflict):",
        "  greedy:        %.6f s" % t_greedy,
        "  solver:        %.6f s  (%.2fx)" % (t_solver_ok, t_solver_ok / t_greedy),
        "",
        "hwloc conflict case (the paper's §4.5 example):",
        "  greedy:        FAILS (as documented)" if greedy_fails else "  greedy: ok?!",
        "  solver:        solves with %s in %d greedy passes"
        % (solved["mpi9"].name, attempts),
    ]
    write_result("ablation_solver.txt", "\n".join(lines) + "\n")

    assert greedy_fails
    assert solved["mpi9"].name == "bmpi"
    # when greedy works, the solver evaluates that one pass and returns it
    assert solver.concretize(Spec("mpileaks")) == greedy.concretize(Spec("mpileaks"))
    assert solver.last_attempts == 1

    benchmark(solver.concretize, Spec("mpileaks"))


def test_ablation_provider_index_cache(universe_session, benchmark):
    # over the full 245-package universe, where index construction has a
    # real cost (it scans every package's provides() declarations)
    session = universe_session

    def with_cache():
        session.concretizer.concretize(Spec("mpileaks"))

    def rebuild_index_each_call():
        index = ProviderIndex.from_repo(session.repo)
        Concretizer(
            session.repo, index, session.compilers, session.config, session.policy
        ).concretize(Spec("mpileaks"))

    t_cached = _timed(with_cache)
    t_rebuilt = _timed(rebuild_index_each_call)
    t_index = _timed(lambda: ProviderIndex.from_repo(session.repo), repeats=50)

    lines = [
        "Ablation 2: provider-index caching (245-package universe)",
        "",
        "index construction alone:            %.6f s" % t_index,
        "concretize mpileaks, cached index:   %.6f s" % t_cached,
        "concretize mpileaks, rebuilt index:  %.6f s  (%.2fx)"
        % (t_rebuilt, t_rebuilt / t_cached),
        "",
        "index build is %.0f%% of one concretization; a session doing N"
        % (t_index / t_cached * 100),
        "concretizations saves (N-1) x %.6f s by caching." % t_index,
    ]
    write_result("ablation_provider_index.txt", "\n".join(lines) + "\n")
    # the scan really costs something, and skipping it can only help;
    # assert on the directly-measured component (ratios are noise-bound
    # because the scan is small relative to a whole concretization)
    assert t_index > 0
    assert t_rebuilt >= t_cached * 0.9

    benchmark(with_cache)


def test_ablation_subdag_reuse(tmp_path_factory, benchmark):
    # with reuse: second configuration in the same store
    shared = Session.create(str(tmp_path_factory.mktemp("reuse")))
    _, first = shared.install("mpileaks ^mpich")
    _, second = shared.install("mpileaks ^openmpi")
    reused_seconds = sum(s.virtual_seconds for s in second.built)

    # without reuse: same second configuration in a cold store
    cold = Session.create(str(tmp_path_factory.mktemp("cold")))
    _, cold_result = cold.install("mpileaks ^openmpi")
    cold_seconds = sum(s.virtual_seconds for s in cold_result.built)

    lines = [
        "Ablation 3: shared sub-DAG reuse (Figure 9's payoff)",
        "",
        "second config, shared store:  %6.2f model-seconds (%d packages built)"
        % (reused_seconds, len(second.built)),
        "second config, cold store:    %6.2f model-seconds (%d packages built)"
        % (cold_seconds, len(cold_result.built)),
        "saved by reuse:               %6.2f model-seconds (%.0f%%)"
        % (cold_seconds - reused_seconds,
           (1 - reused_seconds / cold_seconds) * 100),
    ]
    write_result("ablation_subdag_reuse.txt", "\n".join(lines) + "\n")

    assert len(second.built) == 3          # openmpi, callpath, mpileaks
    assert len(cold_result.built) == 6     # the whole stack
    assert reused_seconds < cold_seconds

    def fresh_reuse_install(counter=[0]):
        counter[0] += 1
        s = Session.create(str(tmp_path_factory.mktemp("bench-reuse-%d" % counter[0])))
        s.install("mpileaks ^mpich")
        s.install("mpileaks ^openmpi")

    benchmark.pedantic(fresh_reuse_install, rounds=2, iterations=1)
