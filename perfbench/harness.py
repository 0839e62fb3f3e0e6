"""The harness every workload runs under: base class, failure
classification and the timed loop (see ``worker.py``)."""

import resource
import time

#: iterations of the reference loop (about 6 ms on a 2-core x86-64 VM)
CALIBRATION_ITERATIONS = 100000
#: a run times the reference loop before its first operation and then
#: between operations, at most this often
CALIBRATE_EVERY_S = 0.25


def reference_loop():
    """Wall seconds of a fixed pure-Python integer loop.

    The host this benchmark shares slows every process on it by up to
    2x for minutes at a time, and this loop slows with it; ``run.py``
    scales operation times by the loop's mean time over the run (see
    ``NOTES.md``).  The loop creates no container object, so the
    program's heap and garbage collector do not reach it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


class Failure(Exception):
    """An operation whose output is wrong or missing; ``kind`` names the
    failure class, ``wrong`` marks a wrong answer (not just a refusal)."""

    def __init__(self, kind, detail="", wrong=False):
        super().__init__("%s: %s" % (kind, detail))
        self.kind = kind
        self.wrong = wrong


def classify(error):
    """Outcome class of an exception raised by an operation: a typed
    ``ReproError`` is an answer, except ``SolverLimitError`` (the
    solver gave up) and anything untyped, which are failures."""
    from repro.core.solver import SolverLimitError
    from repro.errors import ReproError

    if isinstance(error, SolverLimitError):
        raise Failure("SolverLimitError", str(error)) from error
    if isinstance(error, ReproError):
        return type(error).__name__
    raise Failure(type(error).__name__, str(error)) from error


class Workload:
    """Base of the three workloads; see ``worker.py`` for the protocol."""

    #: operations the census covers (every run completes at least these)
    census_ops = 1
    #: a run stops only after a whole number of these operations
    unit_ops = 1
    #: worker processes an untraced run is split into, at most (see run.py)
    parts = 3
    #: False when the traced code runs in another process (the daemon)
    traces_in_process = True

    def __init__(self, seed, scratch, trace_out=None, part=0):
        from repro.testing import derive_seed

        #: part k of a run draws its inputs from its own seed; part 0
        #: uses the run's seed, so traced replays see the same inputs
        self.seed = seed if part == 0 else derive_seed(seed, "part", part)
        self.scratch = scratch
        self.trace_out = trace_out
        self.census = {}
        #: wall seconds of each timed operation, filled by run_loop
        self.latencies = []
        #: per-operation label (phase or endpoint), for per-phase census
        self.op_labels = []
        #: descriptions of wrong answers found by the checks
        self.wrong_answers = []
        #: wall seconds of each timing of the reference loop, by run_loop
        self.calibration = []

    def setup_seconds(self, t0):
        return time.time() - t0

    def bump(self, key, n=1):
        self.census[key] = self.census.get(key, 0) + n

    def count(self, i, outcome):
        """Census: operations by label and outcome class."""
        if i < self.census_ops:
            self.bump("ops/%s/%s" % (self.op_labels[i], outcome))

    def finish(self):
        return {}

    def probe(self, tracer):
        """Traced replays only: untimed requests after the prefix, traced
        as operations past it; returns failure counts by class."""
        return {}

    def phase_seconds(self):
        """{metric name: [values]} reported beside the gated metrics."""
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


def run_loop(workload, seconds, max_ops, tracer):
    """Exactly ``max_ops`` operations when given; otherwise whole units
    of ``unit_ops`` operations, past the census prefix, until another
    unit would end more than half a unit after ``seconds``.  Returns
    failure counts by class and the loop's wall seconds; latencies and
    wrong answers land on the workload, and so do the reference loop's
    timings, taken between operations (untimed)."""
    failures = {}
    workload.calibration.append(reference_loop())
    start = calibrated = time.perf_counter()
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i >= workload.census_ops and i % workload.unit_ops == 0:
            elapsed = time.perf_counter() - start
            unit_s = elapsed * workload.unit_ops / i
            if elapsed + unit_s / 2 >= seconds:
                break
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            workload.calibration.append(reference_loop())
            calibrated = time.perf_counter()
        workload.prepare(i)
        if tracer is not None:
            tracer.op = i + 1
            tracer.active = True
        t0 = time.perf_counter()
        try:
            outcome = workload.operate(i)
        except Exception as error:  # noqa: BLE001 -- classified below
            outcome = error
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            tracer.op = None
        workload.latencies.append(elapsed)
        try:
            label = workload.check(i, outcome)
        except Failure as failure:
            label = failure.kind
            failures[failure.kind] = failures.get(failure.kind, 0) + 1
            if failure.wrong:
                workload.wrong_answers.append("op %d: %s" % (i, failure))
        workload.count(i, label)
        i += 1
    return failures, time.perf_counter() - start


