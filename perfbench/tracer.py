"""Out-of-program tracing: wrap public functions, keep spans in memory.

The program's own telemetry stays off during every benchmark run.  For
the one traced run per workload, :class:`Tracer` replaces the functions
named in :mod:`layers` with timing wrappers, records one span per call
(name, start, end, parent span, operation id) and writes them out when
the run ends as ``repro.telemetry`` records, so
``TraceAnalysis.self_time_rollup`` computes self time from them.

Two kinds of boundary:

* ``span`` -- one span record per call;
* ``agg`` -- the hottest calls, counted and timed in aggregate.  Their
  self time is folded, per enclosing span and per name, into one
  synthetic child span, so the enclosing span's self time excludes it
  and the rollup still adds up.

Work a span hands to a thread pool stays in its trace: while tracing,
``ThreadPoolExecutor.submit`` carries the submitting span into the
worker, and the time the task sat in the queue is added to that span's
``wait_s``.  Time spent acquiring a ``repro.util.lock.Lock`` is added to
the ``wait_s`` of the span that acquires it.

:meth:`Tracer.restore` puts every original attribute back.
"""

import concurrent.futures
import functools
import itertools
import json
import threading
import time


class _Frame:
    __slots__ = ("kind", "name", "span_id", "parent_id", "op", "t0", "ts",
                 "child_s", "agg_s", "children", "attrs")

    def __init__(self, kind, name, span_id, parent_id, op):
        self.kind = kind
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.op = op
        self.ts = time.time()
        self.t0 = time.perf_counter()
        self.child_s = 0.0
        self.agg_s = {}
        self.children = set()
        self.attrs = {}


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.active = False
        #: id of the operation the harness is timing (None during setup)
        self.op = None
        #: (span_id, parent_id, op, name, start_ts, duration_s, attrs, failed)
        self.spans = []
        #: aggregate name -> calls
        self.agg_calls = {}
        #: span_id -> queue and lock wait seconds charged to that span
        self.waits = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- per-thread frame stack --------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enclosing_span(self):
        """(span_id, op) of the innermost open span on this thread, else
        the span this thread's pool task was submitted from."""
        for frame in reversed(self._stack()):
            if frame.kind == "span":
                return frame.span_id, frame.op
        inherited = getattr(self._local, "inherited", None)
        if inherited is not None:
            return inherited
        return None, self.op

    def _enclosing_frame(self):
        for frame in reversed(self._stack()):
            if frame.kind == "span":
                return frame
        return None

    def charge_wait(self, seconds, span_id=None):
        if span_id is None:
            span_id = self._enclosing_span()[0]
        if span_id is None:
            return
        with self._lock:
            self.waits[span_id] = self.waits.get(span_id, 0.0) + seconds

    def enter(self, kind, name):
        stack = self._stack()
        if kind == "span":
            parent_id, op = self._enclosing_span()
            frame = _Frame(kind, name, next(self._ids), parent_id, op)
            enclosing = self._enclosing_frame()
            if enclosing is not None:
                enclosing.children.add(name)
        else:
            frame = _Frame(kind, name, None, None, None)
        stack.append(frame)
        return frame

    def exit(self, frame, failed=False):
        duration = time.perf_counter() - frame.t0
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            stack.remove(frame)
        if stack:
            stack[-1].child_s += duration
        if frame.kind == "agg":
            with self._lock:
                self.agg_calls[frame.name] = self.agg_calls.get(frame.name, 0) + 1
            # self time goes to the enclosing span's synthetic child; a
            # call outside every span is counted but not timed
            owner = self._enclosing_frame()
            if owner is not None:
                owner.agg_s[frame.name] = (
                    owner.agg_s.get(frame.name, 0.0)
                    + max(0.0, duration - frame.child_s)
                )
            return
        record = (
            frame.span_id, frame.parent_id, frame.op, frame.name, frame.ts,
            duration, frame.attrs, failed,
        )
        synthetic = [
            (next(self._ids), frame.span_id, frame.op, name, frame.ts,
             seconds, {"aggregate": True}, False)
            for name, seconds in sorted(frame.agg_s.items())
        ]
        with self._lock:
            self.spans.append(record)
            self.spans.extend(synthetic)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, kind, name, func, pre=None, post=None):
        """A wrapper timing ``func`` as a ``kind`` boundary called
        ``name``.  ``pre(frame, args)`` and ``post(frame, args, result,
        error)`` may record attributes on the span frame (hit, attempts,
        ...) from arguments, return values and public attributes."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            frame = tracer.enter(kind, name)
            if pre is not None:
                pre(frame, args)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                if post is not None:
                    post(frame, args, None, error)
                tracer.exit(frame, failed=True)
                raise
            if post is not None:
                post(frame, args, result, None)
            tracer.exit(frame)
            return result

        return wrapper

    def wrap_context_manager(self, name, func):
        """A wrapper for a function returning a context manager: the span
        covers the whole ``with`` block, not just the call."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            if not tracer.active:
                return inner
            return _SpanContext(tracer, name, inner)

        return wrapper

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` (a class or module) and remember the
        original, as stored in the owner's ``__dict__``."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install_plumbing(self):
        """Context propagation into thread pools and lock-wait timing."""
        from repro.util.lock import Lock

        tracer = self
        submit = concurrent.futures.ThreadPoolExecutor.submit

        def traced_submit(pool, fn, *args, **kwargs):
            if not tracer.active:
                return submit(pool, fn, *args, **kwargs)
            context = tracer._enclosing_span()
            submitted = time.perf_counter()

            def run_in_worker(*a, **kw):
                tracer.charge_wait(time.perf_counter() - submitted, context[0])
                saved = getattr(tracer._local, "inherited", None)
                tracer._local.inherited = context
                try:
                    return fn(*a, **kw)
                finally:
                    tracer._local.inherited = saved

            return submit(pool, run_in_worker, *args, **kwargs)

        acquire = Lock.__dict__["acquire"]

        def traced_acquire(lock, *args, **kwargs):
            if not tracer.active:
                return acquire(lock, *args, **kwargs)
            start = time.perf_counter()
            try:
                return acquire(lock, *args, **kwargs)
            finally:
                tracer.charge_wait(time.perf_counter() - start)

        self.patch(concurrent.futures.ThreadPoolExecutor, "submit", traced_submit)
        self.patch(Lock, "acquire", traced_acquire)

    def restore(self):
        """Put back every patched attribute, newest first."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def records(self):
        """The spans as ``repro.telemetry`` span-start/span-end records."""
        out = []
        with self._lock:
            spans = list(self.spans)
            waits = dict(self.waits)
        for span_id, parent_id, op, name, ts, duration, attrs, failed in spans:
            attrs = dict(attrs)
            if span_id in waits:
                attrs["wait_s"] = waits[span_id]
            out.append({"event": "span-start", "name": name, "span": span_id,
                        "parent": parent_id, "trace": op, "ts": ts,
                        "attrs": {}})
            end = {"event": "span-end", "name": name, "span": span_id,
                   "parent": parent_id, "trace": op, "ts": ts + duration,
                   "duration_s": duration, "attrs": attrs}
            if failed:
                end["error"] = "failed"
            out.append(end)
        return out

    def write(self, path, extra=None):
        """One JSON document: span records, aggregate counts, extras."""
        with self._lock:
            agg_calls = dict(self.agg_calls)
        blob = {
            "records": self.records(),
            "agg_calls": agg_calls,
            "extra": extra or {},
        }
        with open(path, "w") as f:
            json.dump(blob, f)


class _SpanContext:
    """Times a context manager's whole ``with`` block as one span."""

    __slots__ = ("tracer", "name", "inner", "frame")

    def __init__(self, tracer, name, inner):
        self.tracer = tracer
        self.name = name
        self.inner = inner
        self.frame = None

    def __enter__(self):
        self.frame = self.tracer.enter("span", self.name)
        try:
            return self.inner.__enter__()
        except BaseException:
            self.tracer.exit(self.frame, failed=True)
            raise

    def __exit__(self, exc_type, exc, tb):
        try:
            return self.inner.__exit__(exc_type, exc, tb)
        finally:
            self.tracer.exit(self.frame, failed=exc_type is not None)
