"""``service``: one ``repro-spack serve`` daemon, one closed-loop client.

The client waits for each answer before sending the next request, like
an MCP agent waiting for each tool result (list, find, info, spec,
install).  The seeded mix:

* ~61% ``spack_spec`` -- heavy-tailed (Zipf) popularity over a hot set
  of ``HOT_SPECS`` builtin-repo ``SpecGenerator`` requests, so most are
  memo hits, plus a fixed ``COLD_SHARE`` of first-seen texts;
* ~15% ``spack_list``, ~12% ``spack_info``, ~10% ``spack_find``;
* ~1% ``spack_install`` of a small leaf package with one of four
  compilers;
* ~1% ``spack_env`` with 3-5 builtin roots.

Installs are rare on purpose: at a 4% share they took half the wall time.
"""

import bisect
import os
import random
import subprocess
import sys
import time

from harness import Failure, Workload
from repro.errors import ReproError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HOT_SPECS = 300
#: a flat-ish power law: the hottest text is ~4% of spec requests, so
#: one seed's few favourite specs do not set the median latency
ZIPF_S = 0.6
COLD_SHARE = 0.06
LEAVES = ("libelf", "zlib", "bzip2", "sqlite", "qd", "rng")
#: (cumulative share, endpoint)
MIX = (
    (0.61, "spack_spec"),
    (0.76, "spack_list"),
    (0.88, "spack_info"),
    (0.98, "spack_find"),
    (0.99, "spack_install"),
    (1.00, "spack_env"),
)
CENSUS_OPS = 2000
START_TIMEOUT_S = 60


def typed_error_names():
    """Names of every ``ReproError`` subclass but ``SolverLimitError``:
    the remote error types that count as answers."""
    import importlib
    import pkgutil

    import repro
    from repro.errors import ReproError

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)  # defines its error classes
    names = set()
    pending = [ReproError]
    while pending:
        cls = pending.pop()
        names.add(cls.__name__)
        pending.extend(cls.__subclasses__())
    names.discard("SolverLimitError")
    return names


class RequestMix:
    """The seeded request stream; request *i* depends only on the seed
    and on how many first-seen spec texts came before it."""

    def __init__(self, seed):
        from repro.packages import builtin_repo
        from repro.testing import derive_seed
        from repro.testing.generators import GEN_COMPILERS, SpecGenerator

        self.seed = seed
        self.derive = derive_seed
        repo = builtin_repo()
        self.names = sorted(repo.all_package_names())
        self.compilers = GEN_COMPILERS
        self.specs = SpecGenerator(seed, repo)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_SPECS)]
        total = sum(weights)
        self.cumulative = []
        running = 0.0
        for w in weights:
            running += w / total
            self.cumulative.append(running)
        self.next_cold = HOT_SPECS

    def request(self, i):
        rng = random.Random(self.derive(self.seed, "service", i))
        roll = rng.random()
        endpoint = next(name for share, name in MIX if roll < share)
        if endpoint == "spack_spec":
            if rng.random() < COLD_SHARE:
                text = self.specs.spec(self.next_cold)
                self.next_cold += 1
            else:
                rank = bisect.bisect_left(self.cumulative, rng.random())
                text = self.specs.spec(min(rank, HOT_SPECS - 1))
            return endpoint, {"spec": text}
        if endpoint == "spack_list":
            if rng.random() < 0.3:
                return endpoint, {}
            name = rng.choice(self.names)
            start = rng.randrange(max(1, len(name) - 2))
            return endpoint, {"query": name[start:start + 3]}
        if endpoint == "spack_info":
            return endpoint, {"package": rng.choice(self.names)}
        if endpoint == "spack_find":
            if rng.random() < 0.5:
                return endpoint, {}
            return endpoint, {"query": rng.choice(LEAVES)}
        if endpoint == "spack_install":
            return endpoint, {"spec": "%s %%%s" % (
                rng.choice(LEAVES), rng.choice(self.compilers))}
        return endpoint, {"roots": rng.sample(self.names, rng.randint(3, 5))}


class ServiceWorkload(Workload):
    census_ops = CENSUS_OPS
    traces_in_process = False

    def setup(self):
        from repro.service import ServiceClient

        self.mix = RequestMix(self.seed)
        self.typed = typed_error_names()
        self.root = os.path.join(self.scratch, "daemon")
        args = ["--root", self.root, "serve", "--port", "0"]
        if self.trace_out:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                   "--trace-out", self.trace_out, "--"] + args
        else:
            cmd = [sys.executable, "-m", "repro.cli.main"] + args
        os.makedirs(self.scratch, exist_ok=True)
        self.stderr = open(os.path.join(self.scratch, "daemon.log"), "w")
        self.started = time.time()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, cwd=ROOT)
        host, port = self._read_address()
        self.client = ServiceClient(host, port)
        self.connected = time.time()
        self.answers = {}
        self.request = None

    def _read_address(self):
        deadline = time.time() + START_TIMEOUT_S
        while time.time() < deadline:
            line = self.proc.stdout.readline().decode()
            if not line:
                break
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
        self.close()
        raise RuntimeError("daemon did not start")

    def setup_seconds(self, t0):
        """From starting the daemon process (its imports included) to a
        connected client."""
        return self.connected - self.started

    def prepare(self, i):
        self.request = self.mix.request(i)
        self.op_labels.append(self.request[0])

    def operate(self, i):
        endpoint, params = self.request
        return self.client.call(endpoint, **params)

    def check(self, i, outcome):
        from repro.service import ServiceClientError

        endpoint, params = self.request
        if isinstance(outcome, ServiceClientError):
            if outcome.remote_type not in self.typed:
                raise Failure(outcome.remote_type, outcome.remote_message)
            label = outcome.remote_type
            answer = "error:" + label
        elif isinstance(outcome, BaseException):
            raise Failure(type(outcome).__name__, str(outcome))
        else:
            label = "ok"
            answer = outcome.get("dag_hash") if endpoint == "spack_spec" else None
        if endpoint == "spack_spec":
            text = params["spec"]
            if i < self.census_ops and text in self.answers:
                self.bump("spack_spec/repeat")
            previous = self.answers.setdefault(text, answer)
            if previous != answer:
                raise Failure("AnswerMismatch", "%s: %s then %s"
                              % (text, previous, answer), wrong=True)
        return label

    def finish(self):
        """Stop the daemon, then check every distinct ``spack_spec``
        answer against a cold, cache-free concretization on a fresh
        builtin session, and the daemon's store."""
        from repro.errors import ReproError
        from repro.session import Session
        from repro.store.verify import verify_store

        self.close()
        failures = {}
        fresh = Session.create(os.path.join(self.scratch, "reference"))
        for text, answer in sorted(self.answers.items()):
            try:
                expected = fresh.concretize(text, use_cache=False).dag_hash()
            except ReproError as error:
                expected = "error:" + type(error).__name__
            if expected != answer:
                failures["AnswerMismatch"] = failures.get("AnswerMismatch", 0) + 1
                self.wrong_answers.append("spack_spec %r: daemon %s, cold %s"
                                          % (text, answer, expected))
        issues = verify_store(Session.create(self.root))
        if issues:
            failures["StoreVerify"] = len(issues)
            self.wrong_answers.extend(str(issue) for issue in issues[:5])
        return failures

    def peak_rss_mb(self):
        """The daemon's high-water mark (it is this process's only
        waited-for child)."""
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        """Ask the daemon to shut down and wait for it to exit (kill it
        if it does not)."""
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.shutdown()
            except (OSError, ValueError, ReproError):
                pass  # the daemon is gone or unreachable: the wait decides
            finally:
                client.close()
                self.client = None
        proc = getattr(self, "proc", None)
        if proc is not None and proc.poll() is None:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc is not None:
            proc.stdout.close()
            self.stderr.close()
            self.proc = None
