"""Differential oracle: greedy vs. solver concretization.

The two concretizers implement the same contract by different
strategies, which makes them oracles for each other (the technique
ASP-based solvers later formalized: divergence between implementations
is evidence of a bug even when neither answer is obviously wrong).
The solver adds a second axis: it *scores* every answer, so the oracle
can also catch a solution that is consistent but suboptimal.  The
independent check of the solver's optimality itself is the
exhaustive enumeration in ``tests/core/test_solver.py``.

Outcome classification for one abstract request:

``agree-success``
    Both succeed with the *same DAG hash*.  The common case: the
    solver's zero-deviation baseline is the greedy pass, so whenever
    greedy's answer is optimal the two are byte-identical.
``improvement``
    Greedy succeeded but the solver returned a *strictly better-scoring*
    DAG.  Benign and expected on conflict-rich universes: greedy's
    myopic provider pick can drag in a version pin a cheap provider
    deviation avoids — the reason real Spack moved to an optimizing
    solver.  A solver hash mismatch *without* a strictly better score
    stays a divergence: same-score different-hash is nondeterminism,
    worse-score is an optimality bug.
``rescue``
    Greedy fails and the solver finds a solution (§4.5's dead ends,
    past provider, version, variant or compiler choices).  Campaigns
    count rescues but do not flag them.
``agree-error``
    Both fail with typed errors.  Benign: the error *types* may differ
    (greedy reports the first contradiction, the solver reports
    exhaustion) and that difference is allowlisted; what matters is
    that neither invented a solution the other proves impossible.
``optimality-divergence``
    The solver succeeded, but greedy found a *strictly better-scoring*
    DAG under the solver's own objective.  Always a bug: the solver's
    whole contract is that its first answer is the best-scoring
    consistent one.
``divergence``
    Anything else — successes with mismatched hashes, or the solver
    failing where greedy succeeded (its space contains greedy's answer).
    Always a bug; the oracle attaches a minimized reproducer.
"""

import re

from repro.compilers.registry import CompilerError
from repro.core.concretizer import ConcretizationError, Concretizer
from repro.core.solver import SolverConcretizer
from repro.spec.errors import SpecError
from repro.spec.spec import Spec
from repro.version import VersionParseError

#: benign outcome kinds (everything except the two divergence kinds)
AGREE_SUCCESS = "agree-success"
AGREE_ERROR = "agree-error"
RESCUE = "rescue"
IMPROVEMENT = "improvement"
DIVERGENCE = "divergence"
OPTIMALITY_DIVERGENCE = "optimality-divergence"

#: error families the oracle treats as "typed, clean failure"
TYPED_ERRORS = (ConcretizationError, SpecError, VersionParseError,
                CompilerError)

#: syntactic components the minimizer may strip, one at a time
_COMPONENT = re.compile(
    r"""
      \s*\^[^\s^]+          # a ^dependency constraint
    | %[A-Za-z0-9_.@:-]+    # a compiler pin
    | @[^%+~=^\s]+          # a version constraint
    | [+~][A-Za-z0-9_]+     # a variant flag
    | =[A-Za-z0-9_.-]+      # an architecture pin
    """,
    re.VERBOSE,
)


class Comparison:
    """The oracle's verdict on one request."""

    def __init__(self, request, kind, greedy_hash=None, greedy_error=None,
                 minimized=None, solver_hash=None, solver_error=None,
                 solver_attempts=0, solver_score=None, best_score=None):
        self.request = request
        self.kind = kind
        self.greedy_hash = greedy_hash
        self.solver_hash = solver_hash
        #: error *type name*, kept as a string so reports stay JSON-able
        self.greedy_error = greedy_error
        self.solver_error = solver_error
        #: assignments the solver search evaluated
        self.solver_attempts = solver_attempts
        #: objective value of the solver's DAG (None when it failed)
        self.solver_score = solver_score
        #: best objective either variant achieved (None when both failed)
        self.best_score = best_score
        #: smallest request string that still diverges (divergences only)
        self.minimized = minimized

    @property
    def divergent(self):
        return self.kind in (DIVERGENCE, OPTIMALITY_DIVERGENCE)

    def to_dict(self):
        return {
            "request": self.request,
            "kind": self.kind,
            "greedy_hash": self.greedy_hash,
            "solver_hash": self.solver_hash,
            "greedy_error": self.greedy_error,
            "solver_error": self.solver_error,
            "solver_attempts": self.solver_attempts,
            "solver_score": self.solver_score,
            "best_score": self.best_score,
            "minimized": self.minimized,
        }

    def __repr__(self):
        return "Comparison(%r, %s)" % (self.request, self.kind)


class DifferentialOracle:
    """Runs greedy and the solver on requests and classifies outcomes.

    ``max_attempts`` is the solver's attempt budget.
    """

    def __init__(self, repo, provider_index, compilers, config, policy=None,
                 max_attempts=2048):
        self.greedy = Concretizer(repo, provider_index, compilers, config,
                                  policy=policy)
        self.solver = SolverConcretizer(
            repo, provider_index, compilers, config, policy=policy,
            max_attempts=max_attempts,
        )

    # -- running one side ---------------------------------------------------
    @staticmethod
    def _run(concretizer, request):
        """(dag_hash, concrete, error_type_name) — exactly one of
        hash/error is set; untyped exceptions propagate (they are crashes
        the caller should see raw)."""
        try:
            concrete = concretizer.concretize(Spec(request))
        except TYPED_ERRORS as e:
            return None, None, type(e).__name__
        return concrete.dag_hash(), concrete, None

    # -- the oracle ---------------------------------------------------------
    def compare(self, request, minimize=True):
        """Classify one request; see the module docstring for the kinds."""
        request = str(request)
        g_hash, g_spec, g_err = self._run(self.greedy, request)
        s_hash, s_spec, s_err = self._run(self.solver, request)
        solver_attempts = self.solver.last_attempts

        # score every success on the solver's objective scale
        s_score = self.solver.score(s_spec) if s_spec is not None else None
        g_score = self.solver.score(g_spec) if g_spec is not None else None
        scores = [x for x in (g_score, s_score) if x is not None]
        best_score = min(scores) if scores else None

        kind = self._classify(g_hash, s_hash, g_score, s_score)

        minimized = None
        if kind in (DIVERGENCE, OPTIMALITY_DIVERGENCE) and minimize:
            minimized = self.minimize(request)
        return Comparison(
            request, kind,
            greedy_hash=g_hash, solver_hash=s_hash,
            greedy_error=g_err, solver_error=s_err,
            solver_attempts=solver_attempts,
            solver_score=s_score, best_score=best_score, minimized=minimized,
        )

    @staticmethod
    def _classify(g_hash, s_hash, g_score, s_score):
        # greedy's consistent solution beats the solver's: the
        # optimization contract is broken
        if s_score is not None and g_score is not None and g_score < s_score:
            return OPTIMALITY_DIVERGENCE
        if g_hash is not None:
            if s_hash == g_hash:
                return AGREE_SUCCESS
            if s_hash is not None and s_score < g_score:
                # the solver beat greedy on its own objective — the
                # optimization working as designed, not a bug
                return IMPROVEMENT
            # a different hash without a strictly better score is
            # nondeterminism (same score); no hash is a lost solution
            return DIVERGENCE
        if s_hash is not None:
            return RESCUE
        return AGREE_ERROR

    # -- reproducer minimization -------------------------------------------
    def _diverges(self, request):
        try:
            return self.compare(request, minimize=False).divergent
        except Exception:  # noqa: BLE001 — a crash while shrinking is
            return False   # not the divergence we are reducing

    def minimize(self, request):
        """Greedy ddmin over syntactic components: repeatedly drop any
        single constraint (version, compiler, variant, arch, ^dep) while
        the result still diverges.  Returns the fixed point."""
        current = str(request)
        shrunk = True
        while shrunk:
            shrunk = False
            for match in list(_COMPONENT.finditer(current)):
                candidate = (
                    current[: match.start()] + current[match.end():]
                ).strip()
                if not candidate or candidate == current:
                    continue
                if self._diverges(candidate):
                    current = candidate
                    shrunk = True
                    break
        return current
