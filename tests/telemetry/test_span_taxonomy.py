"""The event taxonomy in docs/observability.md cannot drift from the
code: every span name and every counter a traced daemon request, a
parallel install and an environment concretization record must have a
row in its table."""

import fnmatch
import os
import re

import pytest

from repro.service import ServiceDaemon
from repro.session import Session
from repro.telemetry import Telemetry
from repro.telemetry.sinks import MemorySink

DOC = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "observability.md"
)


def documented(section):
    """Names from the first column of the ``section`` table ("Spans:",
    "Counters:"), with ``a.{b,c}`` rows expanded to ``a.b`` and ``a.c``
    and a ``<placeholder>`` turned into a ``*`` wildcard."""
    with open(DOC) as f:
        text = f.read()
    table = text.split("\n%s\n\n" % section, 1)[1].split("\n\n", 1)[0]
    names = set()
    for row in table.splitlines()[2:]:  # past the header and rule
        cell = re.match(r"\| `([^`]+)` \|", row).group(1)
        cell = re.sub(r"<[^>]+>", "*", cell)
        stem, _, alternatives = cell.partition("{")
        if alternatives:
            names.update(stem + alt for alt in alternatives.rstrip("}").split(","))
        else:
            names.add(cell)
    return names


def undocumented(recorded, section):
    patterns = documented(section)
    return sorted(
        name for name in recorded
        if not any(fnmatch.fnmatchcase(name, p) for p in patterns)
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(span names, counter names) of the three runs."""
    hub = Telemetry()
    sink = MemorySink()
    hub.add_sink(sink)
    root = tmp_path_factory.mktemp("taxonomy") / "universe"
    session = Session.create(str(root), telemetry=hub)
    with ServiceDaemon(session, workers=2) as daemon:
        daemon.call("spack_spec", {"spec": "libdwarf", "concretizer": "solver"})
    session.install("mpileaks", jobs=2)
    env = session.environment("dev")
    env.add("libdwarf")
    env.add("dyninst")
    env.concretize(session)
    return {record["name"] for record in sink.spans()}, set(hub.counters)


def test_every_recorded_span_is_documented(recorded):
    spans, _ = recorded
    # the three runs reach every layer whose spans the table once lacked
    assert {
        "service.request", "solver.search", "concretize.cache.lookup",
        "install.plan", "scheduler.run", "env.concretize",
    } <= spans
    assert undocumented(spans, "Spans:") == []


def test_every_recorded_counter_is_documented(recorded):
    _, counters = recorded
    assert {
        "service.requests", "service.snapshot.fork", "solver.attempts",
        "install.built", "env.lock.miss", "concretize.cache.miss",
    } <= counters
    assert undocumented(counters, "Counters:") == []


def test_the_counter_table_lists_what_the_prose_once_lacked():
    counters = documented("Counters:")
    assert {
        "concretize.cache.evict", "concretize.cache.invalidate",
        "env.lock.hit", "env.lock.miss", "buildcache.push",
        "buildcache.splice_hit", "buildcache.splice_fallback",
        "install.cached", "install.failed", "install.skipped",
        "install.spliced", "fetch.retries", "service.requests",
        "service.errors", "service.batch.coalesced", "service.snapshot.fork",
        "solver.attempts", "store.orphan_prefixes_healed",
    } <= counters
