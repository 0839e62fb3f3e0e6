"""The concretizer: abstract spec DAG → concrete build DAG (paper §3.4).

This is the paper's primary contribution.  :class:`Concretizer` implements
the Figure 6 pipeline: intersect user constraints with package-file
constraints, resolve versioned virtual dependencies through the provider
index, fill in unspecified parameters from site/user policies, and iterate
to a fixed point.  The algorithm is greedy — it never backtracks; an
inconsistent first choice raises an error the user resolves by being more
explicit (§4.5).  :class:`SolverConcretizer` is the search §4.5 leaves
for future work: it explores deviations from the greedy choices and
returns the best-scoring consistent DAG.
"""

from repro.core.concretizer import (
    ConcretizationError,
    Concretizer,
    ConflictError,
    CyclicDependencyError,
    NoBuildableProviderError,
    NoSatisfyingVersionError,
    UnknownPackageError,
)
from repro.core.policies import DefaultPolicy
from repro.core.solver import SolverConcretizer, SolverLimitError
from repro.errors import ReproError

#: the concretizer variants by name — what the ``concretizer:`` config
#: key, every ``--concretizer`` option and the daemon's ``concretizer``
#: parameter choose among
CONCRETIZERS = {"greedy": Concretizer, "solver": SolverConcretizer}


class UnknownConcretizerError(ReproError):
    """A concretizer variant that is not in :data:`CONCRETIZERS`."""


def concretizer_variant(name, config):
    """The variant to run: ``name`` when given, else the ``concretizer:``
    key of ``config``, else greedy."""
    variant = name or config.get("concretizer", default="greedy")
    if variant not in CONCRETIZERS:
        raise UnknownConcretizerError(
            "Unknown concretizer %r (expected one of: %s)"
            % (variant, ", ".join(CONCRETIZERS))
        )
    return variant


__all__ = [
    "CONCRETIZERS",
    "Concretizer",
    "SolverConcretizer",
    "SolverLimitError",
    "DefaultPolicy",
    "ConcretizationError",
    "ConflictError",
    "UnknownConcretizerError",
    "UnknownPackageError",
    "NoSatisfyingVersionError",
    "NoBuildableProviderError",
    "CyclicDependencyError",
    "concretizer_variant",
]
