"""Environments: many abstract roots concretized together (ROADMAP 4).

Public surface:

* :class:`~repro.env.environment.Environment` — durable manifest +
  lockfile around a root set.
* :func:`~repro.env.unify.unify_roots` — the per-root solve +
  merge/unify engine.
* :class:`~repro.env.unify.UnifiedEnvironment` — the unified result.
* :class:`~repro.env.unify.EnvironmentConflictError` — two roots
  demand incompatible constraints on a shared package.
"""

from repro.env.environment import Environment, EnvironmentStateError
from repro.env.unify import (
    EnvironmentConflictError,
    UnificationDivergedError,
    UnifiedEnvironment,
    unify_roots,
)

__all__ = [
    "Environment",
    "EnvironmentStateError",
    "EnvironmentConflictError",
    "UnificationDivergedError",
    "UnifiedEnvironment",
    "unify_roots",
]
