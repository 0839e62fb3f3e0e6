"""The span taxonomy in docs/observability.md cannot drift from the code:
every span name a traced daemon request, a parallel install and an
environment concretization record must have a row in its table."""

import os
import re

from repro.service import ServiceDaemon
from repro.session import Session
from repro.telemetry import Telemetry
from repro.telemetry.sinks import MemorySink

DOC = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "observability.md"
)


def documented_spans():
    """Span names from the first column of the "Spans:" table, with
    ``a.{b,c}`` rows expanded to ``a.b`` and ``a.c``."""
    with open(DOC) as f:
        text = f.read()
    table = text.split("\nSpans:\n\n", 1)[1].split("\n\n", 1)[0]
    names = set()
    for row in table.splitlines()[2:]:  # past the header and rule
        cell = re.match(r"\| `([^`]+)` \|", row).group(1)
        stem, _, alternatives = cell.partition("{")
        if alternatives:
            names.update(stem + alt for alt in alternatives.rstrip("}").split(","))
        else:
            names.add(cell)
    return names


def recorded_spans(tmp_path):
    hub = Telemetry()
    sink = MemorySink()
    hub.add_sink(sink)
    session = Session.create(str(tmp_path / "universe"), telemetry=hub)
    with ServiceDaemon(session, workers=2) as daemon:
        daemon.call("spack_spec", {"spec": "libdwarf", "concretizer": "solver"})
    session.install("mpileaks", jobs=2)
    env = session.environment("dev")
    env.add("libdwarf")
    env.add("dyninst")
    env.concretize(session)
    return {record["name"] for record in sink.spans()}


def test_every_recorded_span_is_documented(tmp_path):
    recorded = recorded_spans(tmp_path)
    # the three runs reach every layer whose spans the table once lacked
    assert {
        "service.request", "solver.search", "concretize.cache.lookup",
        "install.plan", "scheduler.run", "env.concretize",
    } <= recorded
    assert sorted(recorded - documented_spans()) == []
