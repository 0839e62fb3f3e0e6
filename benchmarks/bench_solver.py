"""The optimizing solver on a conflict-rich universe: rescues and latency.

The greedy concretizer dead-ends whenever a preferred provider, version,
variant default, or compiler runs into a declared conflict; the solver
exists to search past those dead ends and return the *best-scoring*
consistent DAG.  This benchmark drives both concretizers over the
same generated conflict-rich universe (the selftest campaign's phase-5
fixture shape) and records two numbers:

* **rescue rate** — the fraction of greedy failures the solver turns
  into solutions, and
* **solve latency** — wall-clock per solver concretization across the
  whole stream, plus the attempt counts behind it (branch-and-bound
  with request floors keeps constrained requests near one attempt).

Every count is derived from a fixed seed, so the JSON report is
deterministic run-to-run; only the wall-clock keys move.
"""

import json
import statistics
import time

from conftest import write_result

from repro.compilers.registry import Compiler, CompilerRegistry
from repro.config.config import Config
from repro.core.concretizer import Concretizer
from repro.core.solver import SolverConcretizer
from repro.repo.providers import ProviderIndex
from repro.spec.spec import Spec
from repro.telemetry.metrics import bench_report
from repro.testing.generators import GEN_COMPILERS, RepoGenerator, SpecGenerator
from repro.testing.oracle import TYPED_ERRORS

#: the universe and stream are pinned — rescue counts are part of the gate
SEED = 1347

#: generated abstract requests swept per concretizer
CASES = 150

#: conflict-rich knobs, matching the selftest campaign's solver phase
UNIVERSE = dict(count=40, virtuals=3, conflict_density=0.8, when_depth=2,
                provider_overlap=0.5)


def _fixture():
    repo = RepoGenerator(SEED, **UNIVERSE).build()
    index = ProviderIndex.from_repo(repo)
    registry = CompilerRegistry(
        Compiler(*cs.split("@")) for cs in GEN_COMPILERS
    )
    config = Config()
    config.update(
        "defaults",
        {"preferences": {"compiler_order": [GEN_COMPILERS[0]],
                         "architecture": "linux-x86_64"}},
    )
    args = (repo, index, registry, config)
    return repo, args


def _attempt(concretizer, request):
    try:
        return concretizer.concretize(Spec(request))
    except TYPED_ERRORS:
        return None


def test_solver_rescue_rate_and_latency(benchmark):
    repo, args = _fixture()
    greedy = Concretizer(*args)
    solver = SolverConcretizer(*args, max_attempts=512)
    requests = SpecGenerator(SEED, repo).specs(CASES)

    # the stream contains duplicate requests, so every tally below is
    # index-aligned (dict-keying by request would collapse repeats)
    start = time.perf_counter()
    greedy_results = [_attempt(greedy, request) for request in requests]
    greedy_wall = time.perf_counter() - start

    # -- the measured pass: the full stream through the solver ------------
    def solver_sweep():
        results = []
        attempts = []
        proven = 0
        start = time.perf_counter()
        for request in requests:
            concrete = _attempt(solver, request)
            results.append(concrete)
            if concrete is not None:
                attempts.append(solver.last_attempts)
                proven += bool(solver.last_proven_optimal)
        return results, attempts, proven, time.perf_counter() - start

    solver_results, attempts, proven, solver_wall = benchmark.pedantic(
        solver_sweep, rounds=1, iterations=1
    )

    greedy_failures = [
        i for i, g in enumerate(greedy_results) if g is None
    ]
    rescued = [
        i for i in greedy_failures if solver_results[i] is not None
    ]
    # a hash mismatch on a greedy success is benign exactly when the
    # solver's DAG scores strictly better (an "improvement" — greedy's
    # provider myopia corrected); anything else is a real divergence
    improvements = []
    divergences = []
    for i, (g, s) in enumerate(zip(greedy_results, solver_results)):
        if g is None or s is None or s.dag_hash() == g.dag_hash():
            continue
        if solver.score(s) < solver.score(g):
            improvements.append(i)
        else:
            divergences.append(i)
    solved = [s for s in solver_results if s is not None]

    report = bench_report(
        "solver",
        {
            "cases": CASES,
            "greedy_failures": len(greedy_failures),
            "rescued": len(rescued),
            "rescue_rate": round(len(rescued) / len(greedy_failures), 3),
            "improvements": len(improvements),
            "divergences": len(divergences),
            "proven_optimal_rate": round(proven / len(solved), 3),
            "attempts_mean": round(statistics.mean(attempts), 2),
            "attempts_max": max(attempts),
            "solver_wall_seconds": round(solver_wall, 4),
            "greedy_wall_seconds": round(greedy_wall, 4),
            "solve_wall_seconds_mean": round(solver_wall / CASES, 5),
        },
        meta=dict(UNIVERSE, seed=SEED, max_attempts=512),
    )
    lines = [
        "Optimizing solver: conflict-rich universe, %d requests" % CASES,
        "",
        "greedy failures: %d; rescued by solver: %d (%.0f%%)" % (
            len(greedy_failures), len(rescued),
            100.0 * len(rescued) / len(greedy_failures),
        ),
        "improvements over greedy: %d; divergences: %d; proven optimal: "
        "%d/%d" % (
            len(improvements), len(divergences), proven, len(solved),
        ),
        "attempts: mean %.2f, max %d; solver wall %.3fs (greedy %.3fs)" % (
            statistics.mean(attempts), max(attempts), solver_wall,
            greedy_wall,
        ),
    ]
    write_result(
        "BENCH_solver.json",
        json.dumps(report, indent=1, sort_keys=True) + "\n",
    )
    write_result("solver.txt", "\n".join(lines) + "\n")

    # the gates: any hash mismatch on a greedy success must be a strict
    # score improvement, the universe produces real dead ends, and
    # every answer is proven
    assert not divergences
    assert rescued, "the conflict knobs produced no rescuable dead ends"
    assert proven == len(solved), "an unproven incumbent leaked through"
