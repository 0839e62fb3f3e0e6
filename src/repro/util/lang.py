"""Small language-level helpers used across the library.

These mirror the utilities the original system leaned on: value-object
ordering via a single key function, cheap memoization for hot lookups, and
a few iterator helpers.  Keeping them here avoids re-deriving comparison
boilerplate in :mod:`repro.version` and :mod:`repro.spec`, which are the
hottest code paths in the concretizer (see DESIGN.md §5).
"""

import functools


def key_ordering(cls):
    """Class decorator: derive all rich comparisons from ``_cmp_key``.

    The decorated class must define ``_cmp_key(self)`` returning a tuple.
    Equality additionally requires the other object to expose a
    ``_cmp_key`` (so comparing against unrelated types returns
    ``NotImplemented`` rather than raising).  A matching ``__hash__`` is
    generated from the same key, keeping hash/eq consistent.
    """
    if not hasattr(cls, "_cmp_key"):
        raise TypeError("%s must define _cmp_key() to use @key_ordering" % cls.__name__)

    def _compare(op):
        def comparator(self, other):
            if not hasattr(other, "_cmp_key"):
                return NotImplemented
            return op(self._cmp_key(), other._cmp_key())

        return comparator

    def _eq(self, other):
        # Interned value objects (see util/intern.py) hit this identity
        # check and skip the key comparison entirely.
        if self is other:
            return True
        if not hasattr(other, "_cmp_key"):
            return NotImplemented
        return self._cmp_key() == other._cmp_key()

    def _ne(self, other):
        if self is other:
            return False
        if not hasattr(other, "_cmp_key"):
            return NotImplemented
        return self._cmp_key() != other._cmp_key()

    cls.__eq__ = _eq
    cls.__ne__ = _ne
    cls.__lt__ = _compare(lambda a, b: a < b)
    cls.__le__ = _compare(lambda a, b: a <= b)
    cls.__gt__ = _compare(lambda a, b: a > b)
    cls.__ge__ = _compare(lambda a, b: a >= b)
    cls.__hash__ = lambda self: hash(self._cmp_key())
    return cls


def memoized(func):
    """Memoize a function of hashable arguments.

    Unlike :func:`functools.lru_cache`, the cache is unbounded and exposed
    as ``func.cache`` so tests can clear it between sessions.
    """
    cache = {}

    @functools.wraps(func)
    def wrapper(*args):
        if args not in cache:
            cache[args] = func(*args)
        return cache[args]

    wrapper.cache = cache
    return wrapper


def dedupe(iterable):
    """Yield items in order, skipping duplicates (by equality)."""
    seen = set()
    for item in iterable:
        if item not in seen:
            seen.add(item)
            yield item


class lazy_property:
    """Descriptor computing a value once per instance, then caching it.

    Used for expensive derived values (e.g. a spec's English explanation)
    that must not be computed during hot concretizer loops.
    """

    def __init__(self, func):
        self.func = func
        functools.update_wrapper(self, func)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = self.func(obj)
        obj.__dict__[self.func.__name__] = value
        return value


def stable_partition(iterable, predicate):
    """Split items into (matching, non-matching) lists, preserving order."""
    yes, no = [], []
    for item in iterable:
        (yes if predicate(item) else no).append(item)
    return yes, no
