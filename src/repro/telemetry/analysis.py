"""Trace analysis: reconstruct span trees and explain where time went.

The hub streams flat records (:mod:`repro.telemetry.sinks`); this module
turns any record list — a ``MemorySink.records``, a parsed
``--telemetry-log`` JSONL file — back into the original forest of span
trees and computes the operational summaries the ``repro-spack diag``
CLI renders:

* **critical path** — the chain of spans that actually bounded the wall
  clock of a trace, via last-finishing-child decomposition (the chain a
  ``-j N`` install could not have run any faster without shortening);
* **self-time rollups** — per span-name totals with *self* time
  (duration minus child durations), so "install.phase.build dominates"
  is one table away;
* **concurrency utilization** — busy-workers-over-time reconstructed
  from overlapping span intervals (did ``-j 4`` actually keep four
  workers busy?);
* **cache effectiveness** — buildcache / concretization-cache hit
  ratios with time-saved attribution, from the stream's
  ``telemetry.summary`` counters and the measured span durations.

Everything here is read-only over plain dicts: no hub, no session, no
clock — analysis of a trace is reproducible from its bytes.
"""

import json


#: seconds of timestamp slack tolerated when chaining sibling intervals
#: (span-start/span-end wall timestamps come from separate time.time()
#: calls and may jitter a few microseconds against each other)
EPSILON = 1e-6


class SpanNode:
    """One reconstructed span: identity, interval, attrs, children."""

    __slots__ = (
        "span_id", "parent_id", "trace_id", "name", "attrs",
        "start_ts", "end_ts", "duration_s", "error", "children",
    )

    def __init__(self, span_id, name, parent_id=None, trace_id=None):
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attrs = {}
        self.start_ts = None
        self.end_ts = None
        self.duration_s = None
        self.error = None
        self.children = []

    @property
    def finished(self):
        return self.duration_s is not None

    @property
    def self_time_s(self):
        """Duration not covered by (finished) children."""
        if self.duration_s is None:
            return 0.0
        child_total = sum(
            c.duration_s for c in self.children if c.duration_s is not None
        )
        return max(0.0, self.duration_s - child_total)

    def walk(self):
        """This node and every descendant, depth-first, children in
        start order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self):
        """``name [package]`` when the span carries package context."""
        pkg = self.attrs.get("package") or self.attrs.get("spec")
        return "%s [%s]" % (self.name, pkg) if pkg else self.name

    def __repr__(self):
        return "SpanNode(%r, id=%s, %d children)" % (
            self.name, self.span_id, len(self.children),
        )


class TraceAnalysis:
    """A reconstructed forest of span trees plus derived summaries."""

    def __init__(self, records):
        self.records = list(records)
        self.spans = {}     # span_id -> SpanNode
        self.roots = []     # spans with no parent, in start order
        self.orphans = []   # spans whose parent id never appeared
        self.events = []    # plain event records
        self.summary = None  # attrs of the last telemetry.summary event
        self._build()

    # -- construction ------------------------------------------------------
    @classmethod
    def from_jsonl(cls, path):
        """Analyze a ``--telemetry-log`` capture."""
        records = []
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return cls(records)

    def _build(self):
        for record in self.records:
            kind = record.get("event")
            if kind == "span-start":
                node = self.spans.get(record["span"])
                if node is None:
                    node = SpanNode(record["span"], record["name"])
                    self.spans[node.span_id] = node
                node.name = record["name"]
                node.parent_id = record.get("parent")
                node.trace_id = record.get("trace")
                node.start_ts = record.get("ts")
                node.attrs.update(record.get("attrs") or {})
            elif kind == "span-end":
                node = self.spans.get(record["span"])
                if node is None:  # end without start (truncated log head)
                    node = SpanNode(record["span"], record["name"])
                    node.parent_id = record.get("parent")
                    node.trace_id = record.get("trace")
                    self.spans[node.span_id] = node
                node.end_ts = record.get("ts")
                node.duration_s = record.get("duration_s")
                node.error = record.get("error")
                node.attrs.update(record.get("attrs") or {})
                if node.start_ts is None and node.end_ts is not None:
                    node.start_ts = node.end_ts - (node.duration_s or 0.0)
            elif kind == "event":
                self.events.append(record)
                if record.get("name") == "telemetry.summary":
                    self.summary = record.get("attrs") or {}
        # link children (start order keeps rendering deterministic)
        for node in self.spans.values():
            if node.parent_id is None:
                self.roots.append(node)
            else:
                parent = self.spans.get(node.parent_id)
                if parent is None:
                    self.orphans.append(node)
                else:
                    parent.children.append(node)
        ordering = lambda n: (  # noqa: E731 — local sort key
            n.start_ts if n.start_ts is not None else float("inf"),
            n.span_id,
        )
        self.roots.sort(key=ordering)
        self.orphans.sort(key=ordering)
        for node in self.spans.values():
            node.children.sort(key=ordering)

    # -- trace grouping ----------------------------------------------------
    def traces(self):
        """{trace_id: [root spans]} — one entry per trace in the stream.

        Pre-trace-context logs (no ``trace`` field) group under None.
        """
        by_trace = {}
        for root in self.roots:
            by_trace.setdefault(root.trace_id, []).append(root)
        # an orphan is still part of *some* trace; surface it there so
        # single-rootedness checks see it
        for orphan in self.orphans:
            by_trace.setdefault(orphan.trace_id, []).append(orphan)
        return by_trace

    def trace_root(self, name=None):
        """The root of the (single) trace of interest: the first root
        named ``name``, or the root owning the most spans when no name
        is given.  None when the stream has no finished root."""
        candidates = [r for r in self.roots if r.finished]
        if name is not None:
            candidates = [r for r in candidates if r.name == name]
        if not candidates:
            return None
        if name is not None:
            return candidates[0]
        return max(candidates, key=lambda r: sum(1 for _ in r.walk()))

    # -- critical path -----------------------------------------------------
    def critical_path(self, root=None):
        """The spans bounding ``root``'s wall clock, chronologically.

        Last-finishing-child decomposition: walking back from a span's
        end, the child that finished last was what the span was waiting
        on; before that child *started*, the previous last-finisher was;
        and so on.  Each chain element recursively contributes its own
        critical children.  The result always starts with the root; a
        parent precedes its children.
        """
        if root is None:
            root = self.trace_root()
        if root is None:
            return []
        path = []
        self._critical_visit(root, path)
        return path

    def _critical_visit(self, span, path):
        path.append(span)
        kids = [
            c for c in span.children
            if c.finished and c.start_ts is not None and c.end_ts is not None
        ]
        chain = []
        bound = span.end_ts if span.end_ts is not None else float("inf")
        while True:
            candidates = [c for c in kids if c.end_ts <= bound + EPSILON]
            if not candidates:
                break
            last = max(candidates, key=lambda c: (c.end_ts, c.span_id))
            chain.append(last)
            bound = last.start_ts
        for link in reversed(chain):  # chronological order
            self._critical_visit(link, path)

    def critical_path_seconds(self, root=None, path=None):
        """Self time summed along the critical path: the trace's wall
        clock minus any idle gaps the chain could not cover."""
        if path is None:
            path = self.critical_path(root)
        on_path = {s.span_id for s in path}
        total = 0.0
        for span in path:
            if span.duration_s is None:
                continue
            covered = sum(
                c.duration_s
                for c in span.children
                if c.span_id in on_path and c.duration_s is not None
            )
            total += max(0.0, span.duration_s - covered)
        return total

    # -- rollups -----------------------------------------------------------
    def self_time_rollup(self):
        """Per span-name totals over every finished span in the stream.

        Returns ``{name: {"count", "total_s", "self_s", "min_s",
        "max_s"}}`` — ``self_s`` is time not covered by child spans, so
        the column sums to wall clock instead of double-counting nested
        phases.
        """
        rollup = {}
        for node in self.spans.values():
            if not node.finished:
                continue
            row = rollup.setdefault(
                node.name,
                {"count": 0, "total_s": 0.0, "self_s": 0.0,
                 "min_s": None, "max_s": None},
            )
            row["count"] += 1
            row["total_s"] += node.duration_s
            row["self_s"] += node.self_time_s
            row["min_s"] = (
                node.duration_s if row["min_s"] is None
                else min(row["min_s"], node.duration_s)
            )
            row["max_s"] = (
                node.duration_s if row["max_s"] is None
                else max(row["max_s"], node.duration_s)
            )
        return rollup

    # -- concurrency -------------------------------------------------------
    def concurrency(self, names=("install.node", "install.cached",
                                 "install.spliced")):
        """Busy-workers-over-time from overlapping span intervals.

        ``names``: span names counted as "a busy worker" (the spans of
        the executor's source build, cache install and splice by
        default).  Returns max/average concurrency, total busy seconds,
        the spanned window, and utilization (busy / (window * max)) —
        the fraction of the observed worker pool that was actually
        working.
        """
        names = set(names)
        intervals = [
            (s.start_ts, s.end_ts)
            for s in self.spans.values()
            if s.name in names and s.start_ts is not None and s.end_ts is not None
        ]
        if not intervals:
            return {
                "spans": 0, "max_concurrency": 0, "avg_concurrency": 0.0,
                "busy_seconds": 0.0, "window_seconds": 0.0, "utilization": 0.0,
            }
        edges = []
        for start, end in intervals:
            edges.append((start, 1))
            edges.append((end, -1))
        edges.sort()
        window_start, window_end = edges[0][0], edges[-1][0]
        busy = sum(end - start for start, end in intervals)
        level = 0
        max_level = 0
        prev_ts = window_start
        weighted = 0.0  # integral of concurrency over time
        for ts, delta in edges:
            weighted += level * (ts - prev_ts)
            level += delta
            max_level = max(max_level, level)
            prev_ts = ts
        window = max(window_end - window_start, 0.0)
        avg = weighted / window if window > 0 else 0.0
        return {
            "spans": len(intervals),
            "max_concurrency": max_level,
            "avg_concurrency": avg,
            "busy_seconds": busy,
            "window_seconds": window,
            "utilization": (
                busy / (window * max_level) if window > 0 and max_level else 0.0
            ),
        }

    # -- cache effectiveness -----------------------------------------------
    def cache_effectiveness(self):
        """Hit ratios and time-saved attribution for both caches.

        Counters come from the stream's ``telemetry.summary`` (or are 0
        when the log ended before one); time-saved is attributed from
        measured span durations: every ``install.cached`` node saved
        (mean source-build node time − its own time), every
        concretization-cache hit saved roughly one mean cold
        concretization.
        """
        counters = (self.summary or {}).get("counters", {})

        def ratio(hit, miss):
            total = hit + miss
            return hit / total if total else None

        built = [
            s.duration_s for s in self.spans.values()
            if s.name == "install.node" and s.finished
        ]
        cached = [
            s.duration_s for s in self.spans.values()
            if s.name == "install.cached" and s.finished
        ]
        mean_build = sum(built) / len(built) if built else None
        mean_cached = sum(cached) / len(cached) if cached else None
        bc_saved = None
        if cached and mean_build is not None:
            bc_saved = sum(max(0.0, mean_build - d) for d in cached)

        conc_cold = [
            s.duration_s for s in self.spans.values()
            if s.name == "concretize" and s.finished
        ]
        conc_hits = counters.get("concretize.cache.hit", 0)
        conc_misses = counters.get("concretize.cache.miss", 0)
        conc_saved = None
        if conc_hits and conc_cold:
            conc_saved = conc_hits * (sum(conc_cold) / len(conc_cold))

        return {
            "buildcache": {
                "hits": counters.get("buildcache.hit", 0),
                "misses": counters.get("buildcache.miss", 0),
                "hit_ratio": ratio(
                    counters.get("buildcache.hit", 0),
                    counters.get("buildcache.miss", 0),
                ),
                "nodes_from_cache": len(cached),
                "mean_build_s": mean_build,
                "mean_cached_s": mean_cached,
                "time_saved_s": bc_saved,
            },
            "concretize_cache": {
                "hits": conc_hits,
                "misses": conc_misses,
                "invalidations": counters.get("concretize.cache.invalidate", 0),
                "hit_ratio": ratio(conc_hits, conc_misses),
                "mean_cold_s": (
                    sum(conc_cold) / len(conc_cold) if conc_cold else None
                ),
                "time_saved_s": conc_saved,
            },
        }

    # -- rendering ---------------------------------------------------------
    def render_tree(self, stream, root=None, highlight_critical=True,
                    min_duration_s=0.0):
        """Print an indented tree (one line per span, parents first),
        the critical path marked with ``*``.  Returns the critical path
        so callers can report its length without recomputing."""
        roots = [root] if root is not None else self.roots
        critical = set()
        path = []
        if highlight_critical:
            path = self.critical_path(root)
            critical = {s.span_id for s in path}
        for top in roots:
            self._render_node(stream, top, 0, critical, min_duration_s)
        return path

    def _render_node(self, stream, node, depth, critical, min_duration_s):
        if node.finished and node.duration_s < min_duration_s:
            return
        marker = "*" if node.span_id in critical else " "
        duration = (
            "%10.1f ms" % (node.duration_s * 1000.0)
            if node.finished else "   (unfinished)"
        )
        error = "  ERROR:%s" % node.error if node.error else ""
        stream.write(
            "%s %s%-*s %s%s\n"
            % (marker, "  " * depth, max(1, 46 - 2 * depth),
               node.label(), duration, error)
        )
        for child in node.children:
            self._render_node(stream, child, depth + 1, critical, min_duration_s)
