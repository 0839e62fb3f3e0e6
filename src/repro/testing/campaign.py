"""Seeded selftest campaigns: the engine behind ``repro-spack selftest``.

A campaign has six phases, all driven entirely by one master seed:

1. **Concretization sweep** — generate a package universe
   (:class:`~repro.testing.generators.RepoGenerator`) and N abstract
   requests over it, run every request through the differential oracle
   (greedy vs. solver), and check the full invariant battery on each
   successful result.
2. **Fault sweep** — generate M fault plans
   (:meth:`~repro.testing.faults.FaultPlan.generate`), and for each one
   build a fresh session, arm the plan, install a small real stack,
   then disarm and re-install to prove the store heals.  The first
   ``len(points)`` plans are fixed single-fault plans, one per fault
   point, so every point is demonstrably reached in every campaign
   regardless of what the random remainder draws.
3. **Cache-equivalence sweep** — generate K more abstract requests and
   concretize each one cold (cache bypassed) and warm (served from the
   persistent concretization cache's on-disk payload), for both the
   greedy and solver variants.  Warm results must be *byte-identical*
   to cold ones — same ``dag_hash``, same serialized node dicts —
   including under an armed ``concretize.cache.corrupt`` fault, where
   the cache must detect the rot and fall back to a cold
   concretization.
4. **Splice-equivalence sweep** — install a DAG whose build-only tool
   changed twice: once served by *splicing* runtime-hash twins out of a
   donor's build cache, once built purely from source.  Both stores
   must agree on every observable — dag hashes, serialized nodes,
   per-node manifest file digests — and pass store verification plus
   the concretization invariant battery; some cases arm a
   ``buildcache.splice_stale`` fault to prove the corrupted-donor
   fallback (a source build) is equivalent too.
5. **Solver sweep** — generate a *conflict-rich* universe (the
   generator's ``conflict_density``/``when_depth``/``provider_overlap``
   knobs turned up, so greedy dead-ends on a meaningful fraction of
   requests) and run every request through the oracle: greedy vs.
   the optimizing solver.  Solver successes are re-checked against the
   concretization invariant battery, and every tenth case
   re-concretizes through a Session with an armed
   ``concretize.cache.corrupt`` fault — the corrupted-cache fallback
   must reproduce the oracle's answer byte-for-byte.  Rescues and
   ``improvement`` outcomes (the solver strictly beating a greedy
   success on its own objective) are counted — they are the point of
   the solver; ``divergence`` and ``optimality-divergence`` fail the
   campaign.
6. **Environment-unification sweep** — over a *name-prefixed*,
   hub-biased universe (shared sub-DAGs by construction), draw seeded
   root sets and unify each one serially and with a 2-wide solve pool.
   A coherent result (one node per shared package, one provider per
   virtual, pool-width-independent ``dag_hash`` set) or a typed
   conflict/root diagnostic passes; anything else is a divergence.

The report is JSONL with sorted keys and no timestamps, hostnames, or
absolute paths, so two same-seed runs produce *byte-identical* files —
that equality is itself asserted by CI.
"""

import json
import os
import shutil

from repro.testing import derive_seed, session_seed
from repro.testing.faults import (
    ALL_FAULT_POINTS,
    BUILDCACHE_SPLICE_STALE,
    FaultPlan,
    SimulatedKill,
)
from repro.testing.generators import (
    GEN_COMPILERS,
    RepoGenerator,
    SpecGenerator,
)
from repro.testing.invariants import check_all, check_concretization
from repro.testing.oracle import AGREE_SUCCESS, RESCUE, DifferentialOracle

#: the spec name the db.write_race fault writes into the index; it has no
#: prefix on disk, so recovery checks skip it by name
from repro.store.database import FOREIGN_NAME  # noqa: E402


class CampaignConfig:
    """Knobs for one campaign run; everything defaults sensibly."""

    def __init__(self, seed=None, specs=200, fault_plans=50, packages=40,
                 virtuals=2, max_attempts=512, fault_target="libdwarf",
                 points=ALL_FAULT_POINTS, cache_specs=200, splice_cases=6,
                 solver_cases=200, env_cases=25):
        self.seed = session_seed() if seed is None else int(seed)
        self.specs = int(specs)
        self.fault_plans = int(fault_plans)
        self.packages = int(packages)
        self.virtuals = int(virtuals)
        #: the oracle solver's attempt budget (phases 1 and 5)
        self.max_attempts = int(max_attempts)
        #: the builtin-corpus spec each fault plan installs
        self.fault_target = fault_target
        self.points = tuple(points)
        #: generated requests for the cache-equivalence sweep (phase 3)
        self.cache_specs = int(cache_specs)
        #: spliced-vs-built store comparisons (phase 4)
        self.splice_cases = int(splice_cases)
        #: oracle cases over the conflict-rich universe (phase 5)
        self.solver_cases = int(solver_cases)
        #: environment unification cases (phase 6)
        self.env_cases = int(env_cases)

    def to_dict(self):
        return {
            "seed": self.seed,
            "specs": self.specs,
            "fault_plans": self.fault_plans,
            "packages": self.packages,
            "virtuals": self.virtuals,
            "max_attempts": self.max_attempts,
            "fault_target": self.fault_target,
            "points": list(self.points),
            "cache_specs": self.cache_specs,
            "splice_cases": self.splice_cases,
            "solver_cases": self.solver_cases,
            "env_cases": self.env_cases,
        }


class CampaignReport:
    """Everything a campaign learned, serializable as deterministic JSONL."""

    def __init__(self, config):
        self.config = config
        #: one dict per oracle case (request, kind, violations, ...)
        self.oracle_cases = []
        #: one dict per fault plan (plan, outcome, injected, recovered)
        self.fault_cases = []
        #: one dict per (request, variant) cache-equivalence comparison
        self.cache_cases = []
        #: one dict per spliced-vs-built store comparison
        self.splice_cases = []
        #: one dict per solver-sweep case
        self.solver_cases = []
        #: one dict per environment-unification case
        self.env_cases = []

    # -- aggregation --------------------------------------------------------
    def outcome_counts(self):
        counts = {}
        for case in self.oracle_cases:
            counts[case["kind"]] = counts.get(case["kind"], 0) + 1
        return counts

    def divergences(self):
        return [c for c in self.oracle_cases if c["kind"] == "divergence"]

    def violations(self):
        return [c for c in self.oracle_cases if c["violations"]]

    def injection_totals(self):
        totals = {}
        for case in self.fault_cases:
            for point, n in case["injected"].items():
                totals[point] = totals.get(point, 0) + n
        return totals

    def unrecovered(self):
        return [c for c in self.fault_cases if not c["recovered"]]

    def cache_outcome_counts(self):
        counts = {}
        for case in self.cache_cases:
            counts[case["kind"]] = counts.get(case["kind"], 0) + 1
        return counts

    def cache_divergences(self):
        """Warm-cache results that differed from their cold twin."""
        return [c for c in self.cache_cases if c["kind"] == "divergence"]

    def splice_divergences(self):
        """Spliced stores that differed observably from built ones
        (including cases that errored outright)."""
        return [c for c in self.splice_cases if c["kind"] != "match"]

    def solver_outcome_counts(self):
        counts = {}
        for case in self.solver_cases:
            counts[case["kind"]] = counts.get(case["kind"], 0) + 1
        return counts

    def solver_rescues(self):
        return [c for c in self.solver_cases if c["kind"] == "rescue"]

    def solver_divergences(self):
        """Solver-sweep cases where something is wrong: mismatched hashes,
        a suboptimal solver answer, an invariant violation on a solver
        success, or a corrupted-cache re-concretization that did not
        reproduce the oracle's answer."""
        return [
            c for c in self.solver_cases
            if c["kind"] in ("divergence", "optimality-divergence")
            or c.get("violations")
            or c.get("fault") == "mismatch"
        ]

    def env_outcome_counts(self):
        counts = {}
        for case in self.env_cases:
            counts[case["kind"]] = counts.get(case["kind"], 0) + 1
        return counts

    def env_divergences(self):
        """Environment cases where unification is wrong: a shared
        package resolved to more than one node, a shared virtual to more
        than one provider, the unified result depended on the solve pool
        width, or the engine failed with something other than a typed
        per-root/conflict diagnostic."""
        return [c for c in self.env_cases if c["kind"] == "divergence"]

    @property
    def ok(self):
        """The campaign's verdict: no divergence, no invariant violation,
        every requested fault point injected at least once, every
        faulted store healed, every warm-cache concretization
        byte-identical to its cold twin, and every spliced store
        indistinguishable from its built twin.  An oracle-only run
        (``fault_plans=0``) waives the coverage requirement, not the
        others."""
        totals = self.injection_totals()
        covered = self.config.fault_plans == 0 or all(
            totals.get(p, 0) > 0 for p in self.config.points
        )
        return (
            not self.divergences()
            and not self.violations()
            and not self.unrecovered()
            and not self.cache_divergences()
            and not self.splice_divergences()
            and not self.solver_divergences()
            and not self.env_divergences()
            and covered
        )

    def summary(self):
        return {
            "type": "summary",
            "seed": self.config.seed,
            "oracle_outcomes": self.outcome_counts(),
            "divergences": len(self.divergences()),
            "invariant_violations": len(self.violations()),
            "injections": self.injection_totals(),
            "unrecovered": len(self.unrecovered()),
            "cache_outcomes": self.cache_outcome_counts(),
            "cache_divergences": len(self.cache_divergences()),
            "splice_cases": len(self.splice_cases),
            "splice_divergences": len(self.splice_divergences()),
            "solver_cases": len(self.solver_cases),
            "solver_outcomes": self.solver_outcome_counts(),
            "solver_rescues": len(self.solver_rescues()),
            "solver_divergences": len(self.solver_divergences()),
            "env_cases": len(self.env_cases),
            "env_outcomes": self.env_outcome_counts(),
            "env_divergences": len(self.env_divergences()),
            "ok": self.ok,
        }

    # -- serialization ------------------------------------------------------
    def lines(self):
        """The JSONL lines, deterministic for a given seed."""
        def dump(obj):
            return json.dumps(obj, sort_keys=True, separators=(",", ":"))

        yield dump({"type": "campaign", "config": self.config.to_dict()})
        for case in self.oracle_cases:
            yield dump(dict(case, type="oracle-case"))
        for case in self.fault_cases:
            yield dump(dict(case, type="fault-case"))
        for case in self.cache_cases:
            yield dump(dict(case, type="cache-case"))
        for case in self.splice_cases:
            yield dump(dict(case, type="splice-case"))
        for case in self.solver_cases:
            yield dump(dict(case, type="solver-case"))
        for case in self.env_cases:
            yield dump(dict(case, type="env-case"))
        yield dump(self.summary())

    def write(self, path):
        with open(path, "w") as f:
            for line in self.lines():
                f.write(line + "\n")
        return path


# -- phase 1: oracle + invariants sweep --------------------------------------

def _oracle_fixture(config):
    """(repo, provider_index, compilers, cfg) for the generated universe."""
    from repro.compilers.registry import Compiler, CompilerRegistry
    from repro.config.config import Config
    from repro.repo.providers import ProviderIndex

    repo = RepoGenerator(
        derive_seed(config.seed, "repo"),
        count=config.packages,
        virtuals=config.virtuals,
    ).build()
    provider_index = ProviderIndex.from_repo(repo)
    registry = CompilerRegistry(
        Compiler(*cs.split("@")) for cs in GEN_COMPILERS
    )
    cfg = Config()
    cfg.update(
        "defaults",
        {
            "preferences": {
                "compiler_order": [GEN_COMPILERS[0]],
                "architecture": "linux-x86_64",
            }
        },
    )
    return repo, provider_index, registry, cfg


def run_oracle_phase(config, report, log=None):
    repo, provider_index, compilers, cfg = _oracle_fixture(config)
    oracle = DifferentialOracle(
        repo, provider_index, compilers, cfg, max_attempts=config.max_attempts
    )
    generator = SpecGenerator(derive_seed(config.seed, "specs"), repo)

    from repro.spec.spec import Spec

    for i in range(config.specs):
        request = generator.spec(i)
        comparison = oracle.compare(request)
        violations = []
        if comparison.kind == AGREE_SUCCESS:
            concrete = oracle.greedy.concretize(Spec(request))
            violations = check_all(
                request, concrete, repo, provider_index, oracle.greedy
            )
        elif comparison.kind == RESCUE:
            concrete = oracle.solver.concretize(Spec(request))
            violations = check_concretization(
                request, concrete, repo, provider_index
            )
        report.oracle_cases.append(
            {
                "case": i,
                "request": request,
                "kind": comparison.kind,
                "greedy_error": comparison.greedy_error,
                "solver_error": comparison.solver_error,
                "solver_attempts": comparison.solver_attempts,
                "minimized": comparison.minimized,
                "violations": violations,
            }
        )
        if log and (i + 1) % 50 == 0:
            log("  oracle: %d/%d cases" % (i + 1, config.specs))
    return report


# -- phase 2: fault sweep ----------------------------------------------------

#: the splice scenario's requests: the two DAGs differ only in the
#: build-only tool's version, so every link/run sub-DAG is a
#: runtime-hash twin — the splice precondition
SPLICE_DONOR_REQUEST = "splicetop ^splicetool@1.0"
SPLICE_TARGET_REQUEST = "splicetop ^splicetool@2.0"


def _splice_repo():
    """A three-package universe built for splice scenarios.

    ``splicetop`` links ``splicelib`` and needs ``splicetool`` only at
    build time; ``splicelib`` itself is built with the tool too.
    Retargeting the tool's version changes every node's ``dag_hash``
    but nobody's ``runtime_hash``.  Packages use the default
    configure/make build so artifacts carry genuine RPATHs — what the
    splice relocation must re-target.
    """
    from repro.directives import depends_on, version
    from repro.directives.directives import DirectiveMeta
    from repro.fetch.mockweb import mock_checksum
    from repro.package.package import Package
    from repro.repo.repository import Repository
    from repro.util.naming import mod_to_class

    repo = Repository(namespace="splice")
    decls = [
        ("splicetool", ("1.0", "2.0"), []),
        ("splicelib", ("1.0",), [("splicetool", "build")]),
        ("splicetop", ("1.0",), [("splicelib", None), ("splicetool", "build")]),
    ]
    for name, versions, deps in decls:
        ns = {
            "url": "https://mock.example.org/%s/%s-1.0.tar.gz" % (name, name),
            "__doc__": "splice scenario package %s" % name,
            "build_units": 2,
            "unit_cost": 0.001,
        }
        for v in versions:
            version(v, mock_checksum(name, v))
        for dep, deptype in deps:
            depends_on(dep, type=deptype)
        repo.add_class(name, DirectiveMeta(mod_to_class(name), (Package,), ns))
    return repo


def _fault_plan(config, index, targets):
    """Plan ``index``: fixed single-fault coverage plans first, then
    seeded random ones."""
    from repro.testing.faults import EXECUTOR_CRASH, Fault

    if index < len(config.points):
        point = config.points[index]
        where = "post-stage" if point == EXECUTOR_CRASH else None
        target = targets[0] if point == EXECUTOR_CRASH else None
        plan = FaultPlan(
            [Fault(point, target=target, where=where)],
            seed=derive_seed(config.seed, "faults", index),
        )
        return plan
    return FaultPlan.generate(
        derive_seed(config.seed, "faults", index),
        targets=targets,
        points=config.points,
    )


def run_fault_phase(config, report, workdir, log=None):
    from repro.errors import ReproError
    from repro.session import Session
    from repro.store.verify import verify_store

    target = config.fault_target
    for p in range(config.fault_plans):
        root = os.path.join(workdir, "plan-%03d" % p)
        session = Session.create(root, install_jobs=1)
        targets = sorted(
            node.name for node in session.concretize(target).traverse()
        )
        plan = _fault_plan(config, p, targets)

        # A buildcache.corrupt fault only fires on the pull path, so any
        # plan carrying it gets a build cache warmed by a sibling session:
        # the faulted install pulls, the corruption is injected, the
        # digest check rejects it, and the executor falls back to source.
        # A buildcache.splice_stale fault fires only while fetching a
        # runtime-hash *twin*, which the builtin target can never produce
        # — those plans swap in the splice universe: a donor publishes
        # the old-tool closure, the faulted install requests the
        # new-tool DAG, and every unchanged link/run sub-DAG arrives by
        # splice (where the fault corrupts the payload and the digest
        # check forces the source-build fallback).
        cache_root = None
        install_target = target
        if BUILDCACHE_SPLICE_STALE in plan.points():
            srepo = _splice_repo()
            cache_root = os.path.join(workdir, "plan-%03d-cache" % p)
            warm_root = os.path.join(workdir, "plan-%03d-warm" % p)
            warm = Session.create(warm_root, packages=srepo, install_jobs=1)
            warm.seed_web()
            warm.enable_buildcache(root=cache_root, push=True)
            warm.install(SPLICE_DONOR_REQUEST, jobs=1)
            shutil.rmtree(warm_root, ignore_errors=True)
            shutil.rmtree(root, ignore_errors=True)
            session = Session.create(root, packages=srepo, install_jobs=1)
            session.seed_web()
            session.enable_buildcache(root=cache_root, pull=True)
            install_target = SPLICE_TARGET_REQUEST
        elif "buildcache.corrupt" in plan.points():
            cache_root = os.path.join(workdir, "plan-%03d-cache" % p)
            warm_root = os.path.join(workdir, "plan-%03d-warm" % p)
            warm = Session.create(warm_root, install_jobs=1)
            warm.enable_buildcache(root=cache_root, push=True)
            warm.install(target, jobs=1)
            shutil.rmtree(warm_root, ignore_errors=True)
            session.enable_buildcache(root=cache_root, pull=True)

        # The target concretization above warmed the session's in-process
        # memo; a concretize.cache.corrupt fault fires inside the on-disk
        # lookup, so drop the memo to force the armed install's
        # concretization back through it.
        if "concretize.cache.corrupt" in plan.points():
            session.forget_concretizations()

        # The telemetry.trace.drop site lives inside the hub's emit
        # loop, which only runs while a sink is attached; give such
        # plans a listener so the point is reachable (the install's
        # outcome must be identical either way — that is the contract).
        if "telemetry.trace.drop" in plan.points():
            from repro.telemetry import MemorySink

            session.telemetry.add_sink(MemorySink())

        session.faults.arm(plan)
        outcome, error = "clean", None
        try:
            session.install(install_target, jobs=1)
        except SimulatedKill:
            outcome, error = "crashed", "SimulatedKill"
        except ReproError as e:
            outcome, error = "errored", type(e).__name__
        finally:
            session.faults.disarm()
        injected = session.faults.injection_counts()
        if outcome == "clean" and injected:
            outcome = "absorbed"  # faults fired but the install survived

        # recovery: a fresh install over the same store must heal it
        recovered = True
        recovery_error = None
        try:
            session.install(install_target, jobs=1)
            issues = [
                i for i in verify_store(session)
                if i.spec.name != FOREIGN_NAME
            ]
            if issues or not session.db.query(install_target.split()[0]):
                recovered = False
                recovery_error = "; ".join(str(i) for i in issues) or "not installed"
        except (ReproError, SimulatedKill) as e:
            recovered = False
            recovery_error = type(e).__name__

        report.fault_cases.append(
            {
                "case": p,
                "plan": plan.to_dict(),
                "outcome": outcome,
                "error": error,
                "injected": injected,
                "recovered": recovered,
                "recovery_error": recovery_error,
            }
        )
        shutil.rmtree(root, ignore_errors=True)
        if cache_root:
            shutil.rmtree(cache_root, ignore_errors=True)
        if log and (p + 1) % 10 == 0:
            log("  faults: %d/%d plans" % (p + 1, config.fault_plans))
    return report


# -- phase 3: cache-equivalence sweep ----------------------------------------

def _node_dicts(spec):
    """Canonical serialization of a concrete DAG for byte comparison."""
    return json.dumps(
        [node.to_node_dict() for node in spec.traverse()], sort_keys=True
    )


def run_cache_phase(config, report, workdir, log=None):
    """Concretize generated requests cold and warm; any byte difference
    is a divergence.

    Every tenth case arms a ``concretize.cache.corrupt`` fault for the
    warm lookup, so the sweep also proves the corruption fallback never
    changes results — the cache must drop the rotten entry and
    re-concretize to the same answer.
    """
    from repro.errors import ReproError
    from repro.session import Session
    from repro.spec.spec import Spec
    from repro.testing.faults import CONCRETIZE_CACHE_CORRUPT, Fault

    repo, _provider_index, compilers, cfg = _oracle_fixture(config)
    session = Session(
        os.path.join(workdir, "cache-phase"), repo, config=cfg,
        compilers=compilers,
    )
    generator = SpecGenerator(derive_seed(config.seed, "cache-specs"), repo)
    for i in range(config.cache_specs):
        request = generator.spec(i)
        for variant in ("greedy", "solver"):
            with_fault = i % 10 == 0
            try:
                cold = session.concretize(
                    Spec(request), concretizer=variant, use_cache=False
                )
            except ReproError as e:
                report.cache_cases.append({
                    "case": i, "request": request, "variant": variant,
                    "kind": "error", "error": type(e).__name__,
                    "fault": False,
                })
                continue
            # First warm call persists the entry; forgetting the
            # in-process memo forces the second one through the on-disk
            # payload — the serialization round-trip under test.
            session.concretize(Spec(request), concretizer=variant)
            session.forget_concretizations()
            if with_fault:
                session.faults.arm([Fault(CONCRETIZE_CACHE_CORRUPT)])
            try:
                warm = session.concretize(Spec(request), concretizer=variant)
            finally:
                if with_fault:
                    session.faults.disarm()
            same = (
                warm.dag_hash() == cold.dag_hash()
                and _node_dicts(warm) == _node_dicts(cold)
            )
            report.cache_cases.append({
                "case": i, "request": request, "variant": variant,
                "kind": "match" if same else "divergence",
                "error": None, "fault": with_fault,
            })
        if log and (i + 1) % 50 == 0:
            log("  cache: %d/%d cases" % (i + 1, config.cache_specs))
    shutil.rmtree(os.path.join(workdir, "cache-phase"), ignore_errors=True)
    return report


# -- phase 4: splice-equivalence sweep ---------------------------------------

def _manifest_files(session, spec):
    """{node name: manifest ``files`` dict} over an installed DAG.

    The digests are root-normalized, so two stores under different
    roots are byte-comparable; ``spliced_from`` and the rest of the
    manifest envelope are deliberately excluded — provenance may say
    where bytes came from, the bytes themselves must not differ.
    """
    from repro.store.layout import METADATA_DIR

    layout = session.store.layout
    out = {}
    for node in spec.traverse():
        path = os.path.join(
            layout.path_for_spec(node), METADATA_DIR, "manifest.json"
        )
        with open(path) as f:
            out[node.name] = json.load(f)["files"]
    return out


def run_splice_phase(config, report, workdir, log=None):
    """Install the splice scenario spliced and from source; any
    observable difference between the two stores is a divergence.

    Per case: a donor session publishes the old-tool closure to a build
    cache; a pulling session installs the new-tool DAG, whose unchanged
    link/run sub-DAGs must arrive by splice; a third session builds the
    same DAG purely from source.  The spliced and built stores must
    agree on ``dag_hash``, serialized node dicts, and per-node manifest
    file digests, and both must pass store verification and the
    concretization invariant battery.  Every third case arms a
    ``buildcache.splice_stale`` fault, so the corrupted-donor fallback
    (a source build mid-splice) is proven equivalent too.
    """
    from repro.core.concretizer import Concretizer
    from repro.errors import ReproError
    from repro.repo.providers import ProviderIndex
    from repro.session import Session
    from repro.store.verify import verify_store
    from repro.testing.faults import Fault

    for i in range(config.splice_cases):
        base = os.path.join(workdir, "splice-%03d" % i)
        with_fault = i % 3 == 2
        srepo = _splice_repo()
        case = {
            "case": i,
            "request": SPLICE_TARGET_REQUEST,
            "fault": with_fault,
            "error": None,
        }
        try:
            cache_root = os.path.join(base, "cache")
            donor = Session.create(
                os.path.join(base, "donor"), packages=srepo, install_jobs=1
            )
            donor.seed_web()
            donor.enable_buildcache(root=cache_root, push=True)
            donor.install(SPLICE_DONOR_REQUEST, jobs=1)

            spliced = Session.create(
                os.path.join(base, "spliced"), packages=srepo, install_jobs=1
            )
            spliced.seed_web()
            spliced.enable_buildcache(root=cache_root, pull=True)
            if with_fault:
                spliced.faults.arm([Fault(BUILDCACHE_SPLICE_STALE)])
            try:
                sspec, sresult = spliced.install(SPLICE_TARGET_REQUEST, jobs=1)
            finally:
                if with_fault:
                    spliced.faults.disarm()

            built = Session.create(
                os.path.join(base, "built"), packages=srepo, install_jobs=1
            )
            built.seed_web()
            bspec, _ = built.install(SPLICE_TARGET_REQUEST, jobs=1)
        except (ReproError, OSError) as e:
            case.update(kind="error", error=type(e).__name__,
                        divergence=[], spliced=[], violations=[])
            report.splice_cases.append(case)
            shutil.rmtree(base, ignore_errors=True)
            continue

        divergence = []
        if sspec.dag_hash() != bspec.dag_hash():
            divergence.append("dag-hash")
        if _node_dicts(sspec) != _node_dicts(bspec):
            divergence.append("node-dicts")
        if _manifest_files(spliced, sspec) != _manifest_files(built, bspec):
            divergence.append("manifests")
        if verify_store(spliced):
            divergence.append("spliced-verify")
        if verify_store(built):
            divergence.append("built-verify")
        spliced_names = sorted(s.spec.name for s in sresult.spliced)
        injected = spliced.faults.injection_counts()
        if not with_fault and not spliced_names:
            # the whole point of the scenario: unchanged link/run
            # sub-DAGs must be served by splice, not rebuilt
            divergence.append("no-splice")
        if with_fault and not injected.get(BUILDCACHE_SPLICE_STALE):
            divergence.append("fault-not-injected")
        provider_index = ProviderIndex.from_repo(srepo)
        violations = check_all(
            SPLICE_TARGET_REQUEST, sspec, srepo, provider_index,
            Concretizer(srepo, provider_index, built.compilers, built.config),
        )
        if violations:
            divergence.append("invariants")
        case.update(
            kind="match" if not divergence else "divergence",
            divergence=divergence,
            spliced=spliced_names,
            violations=violations,
        )
        report.splice_cases.append(case)
        shutil.rmtree(base, ignore_errors=True)
        if log:
            log("  splice: %d/%d cases" % (i + 1, config.splice_cases))
    return report


# -- phase 5: solver sweep ----------------------------------------------------

def _solver_fixture(config):
    """Like :func:`_oracle_fixture` but conflict-rich: the generator's
    dead-end knobs are turned up so greedy demonstrably fails on part of
    the stream and the solver's rescues are exercised for real."""
    from repro.compilers.registry import Compiler, CompilerRegistry
    from repro.config.config import Config
    from repro.repo.providers import ProviderIndex

    repo = RepoGenerator(
        derive_seed(config.seed, "solver-repo"),
        count=config.packages,
        virtuals=max(3, config.virtuals),
        conflict_density=1.0,
        when_depth=3,
        provider_overlap=0.8,
    ).build()
    provider_index = ProviderIndex.from_repo(repo)
    registry = CompilerRegistry(
        Compiler(*cs.split("@")) for cs in GEN_COMPILERS
    )
    cfg = Config()
    cfg.update(
        "defaults",
        {
            "preferences": {
                "compiler_order": [GEN_COMPILERS[0]],
                "architecture": "linux-x86_64",
            }
        },
    )
    return repo, provider_index, registry, cfg


def run_solver_phase(config, report, workdir, log=None):
    """Greedy-vs-solver differential sweep over the conflict-rich
    universe.

    Every case goes through the oracle; solver successes are re-checked against the concretization
    invariants.  Every tenth case additionally re-concretizes through a
    Session whose on-disk concretization cache is corrupted by an armed
    ``concretize.cache.corrupt`` fault — the fallback must both fire
    (the fault injects) and reproduce the oracle's solver answer.
    """
    from repro.session import Session
    from repro.spec.spec import Spec
    from repro.testing.faults import CONCRETIZE_CACHE_CORRUPT, Fault

    repo, provider_index, compilers, cfg = _solver_fixture(config)
    oracle = DifferentialOracle(
        repo, provider_index, compilers, cfg, max_attempts=config.max_attempts
    )
    generator = SpecGenerator(derive_seed(config.seed, "solver-specs"), repo)
    session = Session(
        os.path.join(workdir, "solver-phase"), repo, config=cfg,
        compilers=compilers,
    )

    for i in range(config.solver_cases):
        request = generator.spec(i)
        comparison = oracle.compare(request)
        violations = []
        if comparison.solver_hash is not None:
            concrete = oracle.solver.concretize(Spec(request))
            violations = check_concretization(
                request, concrete, repo, provider_index
            )

        fault = None
        if i % 10 == 0 and comparison.solver_hash is not None:
            cold = session.concretize(
                Spec(request), concretizer="solver", use_cache=False
            )
            # persist the entry, then force the armed lookup through the
            # on-disk payload the fault corrupts
            session.concretize(Spec(request), concretizer="solver")
            session.forget_concretizations()
            before = session.faults.injection_counts().get(
                CONCRETIZE_CACHE_CORRUPT, 0
            )
            session.faults.arm([Fault(CONCRETIZE_CACHE_CORRUPT)])
            try:
                warm = session.concretize(
                    Spec(request), concretizer="solver"
                )
            finally:
                session.faults.disarm()
            fired = session.faults.injection_counts().get(
                CONCRETIZE_CACHE_CORRUPT, 0
            ) - before
            same = (
                fired > 0
                and cold.dag_hash() == comparison.solver_hash
                and warm.dag_hash() == comparison.solver_hash
            )
            fault = "match" if same else "mismatch"

        report.solver_cases.append(
            {
                "case": i,
                "request": request,
                "kind": comparison.kind,
                "greedy_error": comparison.greedy_error,
                "solver_error": comparison.solver_error,
                "solver_attempts": comparison.solver_attempts,
                "solver_score": comparison.solver_score,
                "best_score": comparison.best_score,
                "minimized": comparison.minimized,
                "violations": violations,
                "fault": fault,
            }
        )
        if log and (i + 1) % 50 == 0:
            log("  solver: %d/%d cases" % (i + 1, config.solver_cases))
    shutil.rmtree(os.path.join(workdir, "solver-phase"), ignore_errors=True)
    return report


# -- phase 6: environment-unification sweep -----------------------------------

def _env_fixture(config):
    """A *prefixed*, hub-biased universe for environment cases.

    ``name_prefix`` keeps generated names out of the builtin corpus's
    namespace (the collision bug this PR fixes); ``hub_bias`` funnels
    dependency edges through a few hub packages so random root sets
    genuinely share sub-DAGs — the thing unification is for.
    """
    from repro.compilers.registry import Compiler, CompilerRegistry
    from repro.config.config import Config

    repo = RepoGenerator(
        derive_seed(config.seed, "env-repo"),
        count=config.packages,
        virtuals=config.virtuals,
        name_prefix="env",
        hub_bias=0.6,
    ).build()
    registry = CompilerRegistry(
        Compiler(*cs.split("@")) for cs in GEN_COMPILERS
    )
    cfg = Config()
    cfg.update(
        "defaults",
        {
            "preferences": {
                "compiler_order": [GEN_COMPILERS[0]],
                "architecture": "linux-x86_64",
            }
        },
    )
    return repo, registry, cfg


def _env_coherence(unified):
    """Violation strings when a unified environment is *not* coherent:
    every shared package must be one node, every virtual one provider."""
    by_name = {}
    by_virtual = {}
    for _, concrete in unified.roots:
        for node in concrete.traverse():
            by_name.setdefault(node.name, set()).add(node.dag_hash())
            for vname in getattr(node, "provided_virtuals", ()):
                by_virtual.setdefault(vname, set()).add(node.name)
    issues = []
    for name in sorted(by_name):
        if len(by_name[name]) > 1:
            issues.append("package %s has %d nodes" % (name, len(by_name[name])))
    for vname in sorted(by_virtual):
        if len(by_virtual[vname]) > 1:
            issues.append(
                "virtual %s has providers %s"
                % (vname, ", ".join(sorted(by_virtual[vname])))
            )
    return issues


def run_env_phase(config, report, workdir, log=None):
    """Unify seeded root sets over the prefixed hub-biased universe.

    Each case draws 2–8 generated abstract requests as an environment's
    roots and unifies them twice — serial and with a 2-wide solve pool.
    A case is a divergence when the unified result is incoherent (a
    shared package with two nodes, a virtual with two providers), when
    the two pool widths disagree on the unified ``dag_hash`` set, or
    when unification dies with anything other than a typed per-root
    error or a :class:`~repro.env.unify.EnvironmentConflictError`
    (both are legitimate outcomes for random root sets and recorded as
    such).
    """
    import random

    from repro.env.unify import EnvironmentConflictError, unify_roots
    from repro.errors import ReproError
    from repro.session import Session

    repo, compilers, cfg = _env_fixture(config)
    session = Session(
        os.path.join(workdir, "env-phase"), repo, config=cfg,
        compilers=compilers,
    )
    generator = SpecGenerator(derive_seed(config.seed, "env-specs"), repo)
    rng = random.Random(derive_seed(config.seed, "env-cases"))
    serial = 0

    def concretize(spec):
        return session.concretize(spec, use_cache=False)

    for i in range(config.env_cases):
        width = rng.randint(2, 8)
        # pre-screen to individually-solvable roots: a root that cannot
        # concretize alone tells us nothing about *unification* (the
        # oracle phases already cover per-root failures exhaustively)
        roots = []
        for _ in range(width * 8):
            if len(roots) >= width:
                break
            request = generator.spec(serial)
            serial += 1
            if request in roots:
                continue
            try:
                concretize(request)
            except ReproError:
                continue
            roots.append(request)
        case = {"case": i, "roots": roots, "error": None}
        try:
            unified = unify_roots(roots, concretize, jobs=1)
        except EnvironmentConflictError as e:
            case.update(kind="conflict", error=e.message,
                        demands=sorted({r for r, _ in e.demands}))
            report.env_cases.append(case)
            continue
        except ReproError as e:
            case.update(kind="root-error", error=type(e).__name__)
            report.env_cases.append(case)
            continue

        issues = _env_coherence(unified)
        pooled = unify_roots(roots, concretize, jobs=2)
        if pooled.dag_hashes() != unified.dag_hashes():
            issues.append("jobs=2 produced a different unified node set")
        case.update(
            kind="divergence" if issues else "unified",
            issues=issues,
            unique_nodes=len(unified.nodes()),
            shared_packages=len(unified.shared_packages()),
            rounds=unified.rounds,
            pins=len(unified.pins),
        )
        report.env_cases.append(case)
        if log and (i + 1) % 10 == 0:
            log("  env: %d/%d cases" % (i + 1, config.env_cases))
    shutil.rmtree(os.path.join(workdir, "env-phase"), ignore_errors=True)
    return report


def run_campaign(config, workdir, log=None):
    """Run all phases; returns the :class:`CampaignReport`."""
    report = CampaignReport(config)
    if log:
        log("campaign seed %d: %d specs, %d fault plans, %d cache specs, "
            "%d splice cases, %d solver cases"
            % (config.seed, config.specs, config.fault_plans,
               config.cache_specs, config.splice_cases, config.solver_cases))
    if config.specs:
        run_oracle_phase(config, report, log=log)
    if config.fault_plans:
        run_fault_phase(config, report, workdir, log=log)
    if config.cache_specs:
        run_cache_phase(config, report, workdir, log=log)
    if config.splice_cases:
        run_splice_phase(config, report, workdir, log=log)
    if config.solver_cases:
        run_solver_phase(config, report, workdir, log=log)
    if config.env_cases:
        run_env_phase(config, report, workdir, log=log)
    return report
