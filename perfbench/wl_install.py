"""``install``: the ARES stack built from source, from binaries, spliced.

Each pass draws ``CONFIGS`` configurations of one row of the Table 3
support matrix (``repro.packages.ares``) and installs each, in matrix
order, with ``Session.install(text, jobs=2)`` three times over:

1. *source* -- into fresh store A, pushing every build to a build cache;
2. *binary* -- into fresh store B, pulling from A's build cache;
3. *splice* -- again into B with ``^cmake@2.8.12``: cmake is a
   build-only dependency, so ares splices from its runtime twin.

One row shares its compiler, architecture and MPI, so later
configurations reuse most earlier nodes: the install database grows and
the bookkeeping for reused nodes runs alongside real builds.

Matrix order matters: ``Session.install`` returns an installed spec
that satisfies an abstract request, and an installed ``ares@2015.06+lite``
satisfies the request ``ares@2015.06``.  In matrix order (C, P, L, D)
the lite configuration comes after the current one, so every
configuration is installed in its own right.
"""

import os
import random

from harness import Failure, Workload

#: configurations per pass, drawn from one support-matrix row
CONFIGS = 3
JOBS = 2
PHASES = ("source", "binary", "splice")
SPLICE_SUFFIX = " ^cmake@2.8.12"


def draw_pass(seed, k):
    """The configurations of pass ``k``: a seeded row with at least
    ``CONFIGS`` configurations, then a seeded ``CONFIGS`` of them."""
    from repro.packages import ares
    from repro.testing import derive_seed

    rng = random.Random(derive_seed(seed, "ares-pass", k))
    rows = [row for row in ares.SUPPORT_MATRIX if len(row[3]) >= CONFIGS]
    compiler, arch, mpi, letters = rows[rng.randrange(len(rows))]
    chosen = set(rng.sample(letters, CONFIGS))
    return ["%s %s %s %s" % (ares.CONFIGS[letter], compiler, arch, mpi)
            for letter in letters if letter in chosen]


def records_by_hash(db, root):
    """{dag_hash: prefix relative to the store root} of non-external
    records."""
    return {
        record.spec.dag_hash(): os.path.relpath(record.prefix, root)
        for record in db.all_records()
        if not record.spec.external
    }


class InstallWorkload(Workload):
    #: one pass; runs measure whole passes, so each has the same phase mix
    census_ops = unit_ops = CONFIGS * len(PHASES)
    #: a pass takes 5-14 s, longer than a part's share of --seconds, so a
    #: part is one pass and a run is as many passes as fill --seconds
    #: (three to six)
    parts = 6

    def setup(self):
        self.pass_index = -1
        self.pass_of = []
        self._open_pass(0)

    def _open_pass(self, k):
        from repro.session import Session

        base = os.path.join(self.scratch, "pass-%d" % k)
        cache = os.path.join(base, "buildcache")
        self.store_a = Session.create(os.path.join(base, "A"))
        self.store_a.enable_buildcache(root=cache, push=True)
        self.store_b = Session.create(os.path.join(base, "B"))
        self.store_b.enable_buildcache(root=cache, push=False)
        self.configs = draw_pass(self.seed, k)
        self.pass_index = k

    def _position(self, i):
        per_pass = CONFIGS * len(PHASES)
        k, j = divmod(i, per_pass)
        phase, c = divmod(j, CONFIGS)
        return k, PHASES[phase], c

    def prepare(self, i):
        k, phase, _ = self._position(i)
        if k != self.pass_index:
            self._open_pass(k)
        self.op_labels.append(phase)
        self.pass_of.append(k)

    def operate(self, i):
        _, phase, c = self._position(i)
        text = self.configs[c]
        if phase == "source":
            return self.store_a.install(text, jobs=JOBS)
        if phase == "binary":
            return self.store_b.install(text, jobs=JOBS)
        return self.store_b.install(text + SPLICE_SUFFIX, jobs=JOBS)

    def check(self, i, outcome):
        if isinstance(outcome, BaseException):
            # every configuration installs; any error is a failure
            raise Failure(type(outcome).__name__, str(outcome))
        _, phase, c = self._position(i)
        concrete, result = outcome
        if phase == "binary" and result.built:
            raise Failure("BinaryBuiltFromSource",
                          ", ".join(s.spec.name for s in result.built), wrong=True)
        if phase == "splice" and "ares" not in [s.spec.name for s in result.spliced]:
            raise Failure("AresNotSpliced", concrete.name, wrong=True)
        if i < self.census_ops:
            for kind in ("built", "cached", "spliced", "reused"):
                self.bump("nodes/%s/%s" % (phase, kind), len(getattr(result, kind)))
        if c == CONFIGS - 1:
            self._check_store(self.store_a if phase == "source" else self.store_b)
        return "ok"

    def _check_store(self, session):
        """After a phase: ``verify_store`` is clean and the database
        equals one rebuilt from the prefixes' provenance."""
        from repro.store.database import Database
        from repro.store.verify import verify_store

        issues = verify_store(session)
        if issues:
            raise Failure("StoreVerify", "; ".join(map(str, issues[:5])), wrong=True)
        # rebuild into a scratch root whose opt/ is the store's own
        scan = os.path.join(self.scratch, "rebuild-%d" % len(self.latencies))
        os.makedirs(scan)
        os.symlink(os.path.join(session.store.root, "opt"), os.path.join(scan, "opt"))
        rebuilt = Database(scan)
        if records_by_hash(rebuilt, scan) != records_by_hash(session.db, session.store.root):
            raise Failure("DatabaseDrift", session.store.root, wrong=True)

    def phase_seconds(self):
        """Each phase's summed install time, one value per pass
        (reported as a median, not a BENCHMARK.json metric)."""
        totals = {}
        for latency, label, k in zip(self.latencies, self.op_labels, self.pass_of):
            totals[k, label] = totals.get((k, label), 0.0) + latency
        return {
            "%s_s" % phase: [s for (k, label), s in sorted(totals.items())
                             if label == phase]
            for phase in PHASES
        }
