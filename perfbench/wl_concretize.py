"""``concretize``: cold concretization over a generated universe.

A seeded ``SpecGenerator`` stream is concretized once per request through
``Session.concretize`` with both concretization caches on.  Position
sets the variant: three of every four requests use greedy (the config
default), the fourth the solver.  Every ``ENV_EVERY`` operations the
stream holds a named 10-root environment, concretized cold
(``force=True``, writing the lockfile) and then warm from the lockfile,
at ``jobs=2``.  Texts never repeat, so both caches are read and written
but never hit: this workload shows what the caches cost when they do
not help.

Only greedy requests carry the ``^`` pin the generator adds to one text
in five.  Almost every such pin names a package the root can never
reach: greedy rejects it at once with a typed error, while the solver
spends its whole budget and raises ``SolverLimitError``, a failed
operation.  The timed stream therefore sends the solver unpinned texts
only, and the traced replays end with ``PROBE_REQUESTS`` pinned solver
requests outside the timed operations (:meth:`ConcretizeWorkload.probe`),
which keep that defect in ``core.solver.limit``.
"""

import os
import random

from harness import Failure, Workload, classify

#: the universe is part of the benchmark's identity: one fixed
#: generator seed, so ``--seed`` varies the request stream and the runs
#: of different seeds measure one repository (different universes
#: differ in throughput by a factor of three)
UNIVERSE_SEED = 12
#: generated packages before the conflict knobs add theirs (~1.4k total)
UNIVERSE_COUNT = 1000
VIRTUALS = 6

#: block length: ENV_EVERY - 2 requests, then an env cold and warm op
ENV_EVERY = 50
ENV_ROOTS = 10
ENV_JOBS = 2
#: share of environment roots pinned to a compiler: roots that disagree
#: on a shared dependency's compiler make unification pin and re-solve
ENV_COMPILER_PIN = 0.3

#: the census covers the first CENSUS_OPS operations (six env pairs)
CENSUS_OPS = 300
#: pinned solver requests each traced replay makes after the prefix
PROBE_REQUESTS = 8


def build_universe():
    from repro.testing.generators import RepoGenerator

    generator = RepoGenerator(
        UNIVERSE_SEED, count=UNIVERSE_COUNT, virtuals=VIRTUALS,
        name_prefix="bench", hub_bias=0.6, max_deps=4,
        conflict_density=0.5, when_depth=2, provider_overlap=0.3,
    )
    return generator, generator.build()


def make_session(root, repo):
    from repro.compilers.registry import Compiler, CompilerRegistry
    from repro.config.config import Config
    from repro.session import Session
    from repro.testing.generators import GEN_COMPILERS

    config = Config()
    config.update("defaults", {"preferences": {
        "compiler_order": [GEN_COMPILERS[0]],
        "architecture": "linux-x86_64",
    }})
    return Session(
        root, repo, config=config,
        compilers=CompilerRegistry(
            Compiler(*text.split("@")) for text in GEN_COMPILERS
        ),
    )


class RequestStream:
    """The seeded request stream: SpecGenerator texts in order, each
    canonical text at most once, and fresh environment roots (a package
    name, some with a compiler).

    The generator's texts come in two strata, with and without its ``^``
    pin, each drawn in the generator's order; the caller says which
    (:func:`pinned_at`), so every block has the same share of pins.
    """

    def __init__(self, seed, repo, generator):
        from repro.testing import derive_seed
        from repro.testing.generators import SpecGenerator

        self.specs = SpecGenerator(seed, repo)
        self.cursors = {True: 0, False: 0}
        self.seen = set()
        self.names = [generator.package_name(i) for i in range(generator.count)]
        self.rng = random.Random(derive_seed(seed, "env-roots"))

    def next_request(self, pinned):
        from repro.errors import ReproError
        from repro.spec.spec import Spec

        while True:
            text = self.specs.spec(self.cursors[pinned])
            self.cursors[pinned] += 1
            try:
                canonical = str(Spec(text))
            except ReproError:
                canonical = text  # e.g. "a ^a": the answer is the parse error
            if ("^" in text) == pinned and canonical not in self.seen:
                self.seen.add(canonical)
                return text

    def env_roots(self):
        from repro.testing.generators import GEN_COMPILERS

        roots = []
        while len(roots) < ENV_ROOTS:
            text = self.names[self.rng.randrange(len(self.names))]
            if self.rng.random() < ENV_COMPILER_PIN:
                text += "%" + self.rng.choice(GEN_COMPILERS)
            if text not in self.seen:
                self.seen.add(text)
                roots.append(text)
        return roots


def variant_of(i):
    """Greedy for three of every four requests, solver for the fourth."""
    return "solver" if (i % ENV_EVERY) % 4 == 3 else "greedy"


def pinned_at(i):
    """Does request *i* carry a ``^`` pin?  Every fifth slot of a block
    (slots 0, 5, ..., 45) when greedy serves it: 8 pins per block."""
    return (i % ENV_EVERY) % 5 == 0 and variant_of(i) == "greedy"


def kind_of(i):
    slot = i % ENV_EVERY
    if slot == ENV_EVERY - 2:
        return "env-cold"
    if slot == ENV_EVERY - 1:
        return "env-warm"
    return variant_of(i)


class ConcretizeWorkload(Workload):
    census_ops = CENSUS_OPS
    #: whole blocks, so every run has the same share of environment ops
    unit_ops = ENV_EVERY
    #: five processes: the peak RSS of each follows the one solver request
    #: in it that exhausts its budget with the largest search, so the
    #: median needs more of them than the other workloads
    parts = 5

    def setup(self):
        self.generator, self.repo = build_universe()
        self.session = make_session(os.path.join(self.scratch, "session"), self.repo)
        self.session.provider_index  # built in set-up, as a user's first call would
        self.stream = RequestStream(self.seed, self.repo, self.generator)
        self.request = None
        self.env = None
        self.cold = None

    def prepare(self, i):
        kind = kind_of(i)
        self.op_labels.append(kind)
        if kind == "env-cold":
            self.env = self.session.environment("bench-env-%d" % (i // ENV_EVERY))
            for root in self.stream.env_roots():
                self.env.add(root)
        elif kind != "env-warm":
            self.request = self.stream.next_request(pinned_at(i))

    def operate(self, i):
        kind = kind_of(i)
        if kind == "env-cold":
            return self.session.env_concretize(self.env, jobs=ENV_JOBS, force=True)
        if kind == "env-warm":
            return self.session.env_concretize(self.env, jobs=ENV_JOBS)
        return self.session.concretize(self.request, concretizer=kind)

    def check(self, i, outcome):
        kind = kind_of(i)
        if isinstance(outcome, BaseException):
            label = classify(outcome)
            if kind == "env-cold":
                self.cold = label
            elif kind == "env-warm" and label != self.cold:
                raise Failure("EnvWarmMismatch", "warm %s, cold %s"
                              % (label, self.cold), wrong=True)
            return label
        if kind == "env-cold":
            self._check_env(outcome)
            self.cold = outcome
            if i < self.census_ops:
                self.bump("env/rounds", outcome.rounds)
                self.bump("env/pins", len(outcome.pins))
            return "ok"
        if kind == "env-warm":
            self._check_env(outcome)
            if not hasattr(self.cold, "dag_hashes") or (
                outcome.dag_hashes() != self.cold.dag_hashes()
            ):
                raise Failure("EnvWarmMismatch", "warm result differs from cold",
                              wrong=True)
            if i < self.census_ops and outcome.resolves == 0:
                self.bump("env/warm_restores")
            return "ok"
        self._check_answer(self.request, outcome)
        return "ok"

    def probe(self, tracer):
        """After the replayed prefix: ``PROBE_REQUESTS`` solver requests
        with the generator's ``^`` pin, traced as operations past the
        prefix.  A ``SolverLimitError`` here is the known budget defect
        (counted in ``core.solver.limit`` and the census), not a failed
        operation; other outcomes are checked like the stream's."""
        from repro.core.solver import SolverLimitError

        failures = {}
        for k in range(PROBE_REQUESTS):
            text = self.stream.next_request(pinned=True)
            tracer.op = self.census_ops + 1 + k
            tracer.active = True
            try:
                outcome = self.session.concretize(text, concretizer="solver")
            except Exception as error:  # noqa: BLE001 -- classified below
                outcome = error
            finally:
                tracer.active = False
                tracer.op = None
            try:
                if isinstance(outcome, SolverLimitError):
                    label = "SolverLimitError"
                elif isinstance(outcome, BaseException):
                    label = classify(outcome)
                else:
                    self._check_answer(text, outcome)
                    label = "ok"
            except Failure as failure:
                label = failure.kind
                failures[label] = failures.get(label, 0) + 1
                if failure.wrong:
                    self.wrong_answers.append("probe %d: %s" % (k, failure))
            self.bump("probe/solver-pinned/%s" % label)
        return failures

    def _check_answer(self, text, concrete):
        from repro.spec.spec import Spec
        from repro.testing.invariants import check_concretization

        violations = check_concretization(
            Spec(text), concrete, self.session.repo, self.session.provider_index
        )
        if violations:
            raise Failure("InvariantViolation", "; ".join(violations), wrong=True)

    def _check_env(self, unified):
        for root, concrete in unified.roots:
            self._check_answer(root, concrete)
        by_name = {}
        for _, concrete in unified.roots:
            for node in concrete.traverse():
                by_name.setdefault(node.name, set()).add(node.dag_hash())
        split = sorted(name for name, hashes in by_name.items() if len(hashes) > 1)
        if split:
            raise Failure("EnvNotUnified", ", ".join(split), wrong=True)
