"""``repro.testing``: first-class correctness tooling.

The paper's claims — concretization reaches a valid fixed point over a
combinatorial spec space, installs are reproducible — are *testable
properties*, not aspirations.  This subsystem hunts for violations
mechanically, both from pytest and from the ``repro-spack selftest``
CLI:

* :mod:`~repro.testing.faults` — a seeded :class:`FaultPlan` armed on a
  session's :class:`FaultInjector` makes the fetcher, executor,
  database, and lock layers fail at chosen points (transient and
  permanent fetch errors, crash-mid-build kills, database write races,
  lock timeouts), so retry/backoff, failure propagation, stale-snapshot
  merges, and orphan-prefix healing are exercised deterministically.
* :mod:`~repro.testing.generators` — deterministic
  :class:`RepoGenerator` / :class:`SpecGenerator` /
  :class:`SpecTextGenerator` synthesize random-but-reproducible package
  universes, abstract specs over them, and parser fuzz inputs.  Every
  RNG derives from one session seed (:func:`session_seed`), so any
  failure is replayable.
* :mod:`~repro.testing.invariants` — concretizer postcondition checks
  (fully concrete, constraints satisfied, idempotent, parse/print and
  dict round-trips, stable DAG hash).
* :mod:`~repro.testing.oracle` — a differential oracle comparing the
  greedy concretizer against the solver on every generated case, with
  a spec minimizer for divergences.
* :mod:`~repro.testing.campaign` — the seeded campaign runner behind
  ``repro-spack selftest``, reporting as JSONL.
"""

import hashlib
import os

#: default session seed for deterministic test campaigns; override with
#: $REPRO_TEST_SEED to replay a failure seen elsewhere
DEFAULT_SESSION_SEED = 20260806


def session_seed():
    """The session-wide master seed every test RNG derives from."""
    return int(os.environ.get("REPRO_TEST_SEED", DEFAULT_SESSION_SEED))


def derive_seed(master, *names):
    """A stable sub-seed for a named purpose.

    ``derive_seed(seed, "parser-fuzz", 17)`` is the same integer on
    every machine and Python version (sha256, not ``hash()``), so a
    single printed master seed replays any derived stream.
    """
    text = "%d:%s" % (int(master), ":".join(str(n) for n in names))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


from repro.testing.faults import (  # noqa: E402
    ALL_FAULT_POINTS,
    DB_WRITE_RACE,
    EXECUTOR_CRASH,
    FETCH_PERMANENT,
    FETCH_TRANSIENT,
    LOCK_TIMEOUT,
    Fault,
    FaultInjector,
    FaultPlan,
    SimulatedKill,
)
from repro.testing.generators import (  # noqa: E402
    RepoGenerator,
    SpecGenerator,
    SpecTextGenerator,
)
from repro.testing.invariants import (  # noqa: E402
    InvariantViolation,
    assert_invariants,
    check_concretization,
    check_determinism,
    check_idempotence,
    check_roundtrip,
)
from repro.testing.oracle import Comparison, DifferentialOracle  # noqa: E402
from repro.testing.campaign import (  # noqa: E402
    CampaignConfig,
    CampaignReport,
    run_campaign,
)

__all__ = [
    "ALL_FAULT_POINTS",
    "DB_WRITE_RACE",
    "EXECUTOR_CRASH",
    "FETCH_PERMANENT",
    "FETCH_TRANSIENT",
    "LOCK_TIMEOUT",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "SimulatedKill",
    "RepoGenerator",
    "SpecGenerator",
    "SpecTextGenerator",
    "InvariantViolation",
    "assert_invariants",
    "check_concretization",
    "check_determinism",
    "check_idempotence",
    "check_roundtrip",
    "Comparison",
    "DifferentialOracle",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "DEFAULT_SESSION_SEED",
    "session_seed",
    "derive_seed",
]
