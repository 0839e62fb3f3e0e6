"""Bounded, thread-safe intern pools for parsed value objects.

Concretization re-parses the same handful of constraint atoms thousands
of times (``bench_profile_hotspots.py``): every ``depends_on`` re-reads
its ``@2:`` text, every comparison re-derives the same component keys.
Interning collapses those into one shared immutable object per distinct
source text, so identity checks short-circuit equality and the parse
cost is paid once per session instead of once per use.

The pool is *bounded*: once ``maxsize`` distinct keys are live it stops
admitting new entries (callers keep their un-interned object, which is
always correct — interning is an optimization, never a semantic).  This
caps memory on adversarial workloads (e.g. fuzzing campaigns generating
millions of distinct version strings) without an LRU's bookkeeping cost
on the hot path.

Statistics are exact under concurrency without slowing the read path:
each thread increments a private :class:`_StatsCell` (no lock, no
sharing), and ``hits``/``misses``/``stats()`` fold every live cell on
demand.  A bare shared counter here would lose updates — the service
daemon's worker pool hammers ``get`` from many threads at once — and a
lock on ``get`` would serialize the hottest read in the system.
"""

import threading


class _StatsCell:
    """One thread's private hit/miss tally (folded on read)."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0


class InternPool:
    """Map hashable keys to canonical values, bounded, thread-safe.

    ``get(key)`` returns the canonical value or None; ``put(key, value)``
    admits a value (first writer wins) and returns the canonical one.
    ``intern(key, factory)`` combines both.  Statistics (``hits``,
    ``misses``) are kept for telemetry and tests.
    """

    __slots__ = ("maxsize", "_table", "_lock", "_local", "_cells")

    def __init__(self, maxsize=65536):
        self.maxsize = int(maxsize)
        self._table = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: every thread's cell, appended under the lock; folding walks
        #: this list so counts survive their owning thread's death
        self._cells = []

    def _cell(self):
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = _StatsCell()
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        return cell

    @property
    def hits(self):
        return sum(cell.hits for cell in self._cells)

    @property
    def misses(self):
        return sum(cell.misses for cell in self._cells)

    def get(self, key):
        # dict reads are atomic under the GIL; stats go to a per-thread
        # cell so the hot path never takes (or races on) the lock
        value = self._table.get(key)
        if value is not None:
            try:
                self._local.cell.hits += 1
            except AttributeError:  # this thread's first count
                self._cell().hits += 1
        return value

    def put(self, key, value):
        cell = self._cell()
        with self._lock:
            existing = self._table.get(key)
            if existing is not None:
                return existing
            if len(self._table) < self.maxsize:
                self._table[key] = value
            cell.misses += 1
            return value

    def intern(self, key, factory):
        """Canonical value for ``key``, creating it with ``factory()``."""
        value = self.get(key)
        if value is not None:
            return value
        return self.put(key, factory())

    def __len__(self):
        return len(self._table)

    def clear(self):
        with self._lock:
            self._table.clear()
            for cell in self._cells:
                cell.hits = 0
                cell.misses = 0

    def stats(self):
        return {"size": len(self._table), "hits": self.hits,
                "misses": self.misses, "maxsize": self.maxsize}
