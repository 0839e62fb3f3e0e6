"""Core version classes: :class:`Version`, :class:`VersionRange`,
:class:`VersionList`.

Semantics
---------
A version string is split into components at ``.``, ``-`` and ``_``
boundaries and at letter/digit transitions; numeric components compare
numerically and sort *after* alphabetic ones at the same position (so
``1.2a < 1.2.0``).  A shorter version that is a prefix of a longer one
compares less (``1.2 < 1.2.1`` and also ``1.2 < 1.2alpha`` — suffixes
always extend the family upward, exactly as in the 2015-era original;
"prerelease" ordering is *not* special-cased).

**Prefix families.**  A bare version constraint like ``@1.4`` denotes the
whole family ``1.4, 1.4.0, 1.4.2, ...`` — anything whose components start
with ``1.4``.  Range endpoints inherit this: ``@:1.4`` includes ``1.4.2``.
Internally every constraint is mapped to a closed interval in *key space*,
where the family of ``v`` is ``[key(v), key(v) + (SUP,)]`` with ``SUP`` a
sentinel sorting after any real component.  Intersection, union, and
subset then reduce to interval arithmetic — one code path for all nine
Version/Range/List combinations.
"""

import re

from repro.errors import ReproError
from repro.util.intern import InternPool
from repro.util.lang import key_ordering

__all__ = ["Version", "VersionRange", "VersionList", "ver", "any_version"]

#: Canonical instances per source text.  Version objects are immutable,
#: so one shared instance per distinct string is safe; identity then
#: short-circuits ``==`` before any key comparison (see util/intern.py).
_VERSION_POOL = InternPool()

#: Parsed constraint tuples per VersionList source text.  Lists are
#: mutable, so the pool stores immutable tuples of their (immutable)
#: members and every lookup builds a fresh list around them.
_LIST_PARSE_POOL = InternPool()

#: Canonical VersionRange per ``lo:hi`` atom text (ranges are immutable).
_RANGE_POOL = InternPool()

#: Marks "no argument given" in Version.__new__ so pickle's no-arg
#: reconstruction is distinguishable from an (invalid) Version(None).
_UNSET = object()


class VersionParseError(ReproError):
    """Raised for strings that cannot be parsed as a version constraint."""


#: Valid version text: like grammar ids but may not contain ':' or ','.
_VALID_VERSION = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")

#: Split into alternating digit / alpha runs; separators are dropped.
_SEGMENT_RE = re.compile(r"[0-9]+|[A-Za-z]+")

#: Sentinel component key that sorts after every real component key.
_SUP = (2,)

#: Interval endpoints for fully open ranges.
_NEG_INF = ()
_POS_INF = ((3,),)


def _component_key(component):
    """Key for one component: alphabetic sorts before numeric."""
    if isinstance(component, int):
        return (1, component)
    return (0, component)


@key_ordering
class Version:
    """A single version, e.g. ``1.4.2`` or ``2.0-beta1``.

    As a *constraint*, a Version denotes its whole prefix family (see
    module docstring); as a *concrete value* it is just a point.  The
    original, unnormalized string is preserved for display.
    """

    __slots__ = ("string", "components", "_key", "_ival")

    def __new__(cls, string=_UNSET):
        # The no-arg form exists only for pickle/copy reconstruction.
        if string is _UNSET:
            return super().__new__(cls)
        if isinstance(string, (int, float)):
            string = str(string)
        if cls is Version:
            cached = _VERSION_POOL.get(string)
            if cached is not None:
                return cached
        if not isinstance(string, str) or not _VALID_VERSION.match(string):
            raise VersionParseError("Invalid version string: %r" % (string,))
        self = super().__new__(cls)
        self.string = string
        self.components = tuple(
            int(seg) if seg.isdigit() else seg for seg in _SEGMENT_RE.findall(string)
        )
        self._key = tuple(_component_key(c) for c in self.components)
        # Precomputed prefix-family interval: [key, key + (SUP,)].
        self._ival = (self._key, self._key + (_SUP,))
        if cls is Version:
            self = _VERSION_POOL.put(string, self)
        return self

    def __init__(self, string=_UNSET):
        # All construction work happens in __new__ so interned instances
        # are never re-parsed; instances are immutable afterwards.
        pass

    def _cmp_key(self):
        return self._key

    @property
    def key(self):
        """Component-key tuple used for interval arithmetic."""
        return self._key

    def up_to(self, index):
        """The version formed by the first ``index`` components.

        ``Version('1.23.4').up_to(2) == Version('1.23')``.  Useful for
        family checks and for URL extrapolation.
        """
        return Version(".".join(str(c) for c in self.components[:index]))

    def is_predecessor(self, other):
        """True if ``other`` is this version with the last component + 1.

        Works for numeric components (``1.0`` → ``1.1``) and for alpha
        suffix components, where "+1" means incrementing the final letter
        (``1.0a`` → ``1.0b``, ``2.0rc1`` → ``2.0rc2`` via the numeric
        rule).  ``...z`` has no single-letter successor and returns False.
        """
        if len(self.components) != len(other.components):
            return False
        if self.components[:-1] != other.components[:-1]:
            return False
        a, b = self.components[-1], other.components[-1]
        if isinstance(a, int) and isinstance(b, int):
            return b == a + 1
        if isinstance(a, str) and isinstance(b, str):
            return (
                len(a) == len(b)
                and a[:-1] == b[:-1]
                and a[-1] not in "zZ"
                and ord(b[-1]) == ord(a[-1]) + 1
            )
        return False

    def __contains__(self, other):
        """Prefix-family membership: ``Version('1.4.2') in Version('1.4')``."""
        if isinstance(other, str):
            other = Version(other)
        if isinstance(other, Version):
            return other.components[: len(self.components)] == self.components
        return _interval(other)[0] >= self.key and _interval(other)[1] <= _family_sup(self)

    def satisfies(self, other, strict=False):
        """True if this version meets the constraint ``other``.

        ``other`` may be a Version (family membership), VersionRange,
        VersionList, or string form of any of these.  With ``strict``,
        the whole prefix family this version denotes must be contained
        in ``other``, not just the point itself.
        """
        other = ver(other)
        if strict:
            return VersionList([self]).satisfies(other, strict=True)
        if isinstance(other, Version):
            return self in other
        return other.contains_version(self)

    def __str__(self):
        return self.string

    def __repr__(self):
        return "Version(%r)" % self.string

    def __format__(self, spec):
        return format(self.string, spec)


def _family_sup(version):
    """Upper interval endpoint of a version's prefix family."""
    return version._ival[1]


def _interval(constraint):
    """Map a Version or VersionRange to a closed interval in key space.

    Both classes precompute the interval at construction (they are
    immutable), so this is a single attribute read on the hot path.
    """
    return constraint._ival


def _from_interval(lo_key, hi_key, lo_obj, hi_obj):
    """Map an interval back to a Version (if it is exactly one family) or
    a VersionRange.  ``lo_obj``/``hi_obj`` are the Version objects whose
    keys produced the endpoints (None for open ends)."""
    if lo_obj is not None and hi_obj is not None:
        if lo_key == lo_obj.key and hi_key == _family_sup(lo_obj) and lo_obj == hi_obj:
            return lo_obj
    return VersionRange(lo_obj, hi_obj)


@key_ordering
class VersionRange:
    """An inclusive range ``lo:hi``; either end may be open (None).

    Endpoints use prefix-family semantics: ``1.2:1.4`` contains ``1.4.2``
    (the paper's "between 2.3 and 2.5.6 inclusive" reading).
    """

    __slots__ = ("lo", "hi", "_ival")

    def __init__(self, lo, hi):
        if isinstance(lo, str):
            lo = Version(lo)
        if isinstance(hi, str):
            hi = Version(hi)
        self.lo = lo
        self.hi = hi
        ilo = lo._ival[0] if lo is not None else _NEG_INF
        ihi = hi._ival[1] if hi is not None else _POS_INF
        self._ival = (ilo, ihi)
        if lo is not None and hi is not None and ilo > ihi:
            raise VersionParseError("Empty version range: %s:%s" % (lo, hi))

    def _cmp_key(self):
        return self._ival

    def contains_version(self, version):
        lo, hi = self._ival
        return lo <= version.key <= hi

    __contains__ = contains_version

    def satisfies(self, other, strict=False):
        """Compatibility (overlap) or, with ``strict``, containment.

        The non-strict default answers "could some version satisfy both
        constraints?"; ``strict=True`` answers "is every version allowed
        by this range also allowed by ``other``?" — the question provider
        selection and ``Spec.satisfies(..., strict=True)`` actually ask.
        """
        return VersionList([self]).satisfies(other, strict=strict)

    def overlaps(self, other):
        return VersionList([self]).overlaps(other)

    def __str__(self):
        return "%s:%s" % (self.lo or "", self.hi or "")

    def __repr__(self):
        return "VersionRange(%r, %r)" % (
            str(self.lo) if self.lo else None,
            str(self.hi) if self.hi else None,
        )


def _parse_single(text):
    """Parse one constraint atom: ``1.2``, ``1.2:1.4``, ``:1.4``, ``1.2:``, ``:``."""
    text = text.strip()
    if ":" in text:
        cached = _RANGE_POOL.get(text)
        if cached is not None:
            return cached
        lo_s, _, hi_s = text.partition(":")
        lo = Version(lo_s) if lo_s else None
        hi = Version(hi_s) if hi_s else None
        return _RANGE_POOL.put(text, VersionRange(lo, hi))
    return Version(text)


class VersionList:
    """An ordered union of disjoint Versions and VersionRanges.

    This is the type stored on every spec node.  The universal constraint
    (no restriction at all) is ``VersionList(':')``; the empty list is
    unsatisfiable and only appears transiently during intersection.
    """

    def __init__(self, constraints=None):
        self.constraints = []
        if constraints is None:
            return
        if isinstance(constraints, str):
            parsed = _LIST_PARSE_POOL.get(constraints)
            if parsed is not None:
                self.constraints = list(parsed)
                return
            if not constraints.strip():
                raise VersionParseError("Empty version constraint string")
            parts = [p for p in constraints.split(",")]
            for part in parts:
                self.add(_parse_single(part))
            _LIST_PARSE_POOL.put(constraints, tuple(self.constraints))
        elif isinstance(constraints, (Version, VersionRange)):
            self.add(constraints)
        elif isinstance(constraints, VersionList):
            self.constraints = [c for c in constraints.constraints]
        else:
            for item in constraints:
                self.add(ver(item) if isinstance(item, str) else item)

    # -- construction ----------------------------------------------------
    def add(self, constraint):
        """Union a Version/VersionRange/VersionList into this list."""
        if isinstance(constraint, VersionList):
            for c in constraint.constraints:
                self.add(c)
            return
        if not isinstance(constraint, (Version, VersionRange)):
            raise TypeError("Cannot add %r to VersionList" % (constraint,))

        lo, hi = _interval(constraint)
        lo_obj = constraint if isinstance(constraint, Version) else constraint.lo
        hi_obj = constraint if isinstance(constraint, Version) else constraint.hi

        merged = []
        for existing in self.constraints:
            elo, ehi = _interval(existing)
            if ehi < lo or hi < elo:  # disjoint
                merged.append(existing)
                continue
            # overlapping: absorb into the new interval
            if elo < lo:
                lo, lo_obj = elo, existing if isinstance(existing, Version) else existing.lo
            if ehi > hi:
                hi, hi_obj = ehi, existing if isinstance(existing, Version) else existing.hi
        merged.append(_from_interval(lo, hi, lo_obj, hi_obj))
        merged.sort(key=_interval)
        self.constraints = merged

    def copy(self):
        new = VersionList()
        new.constraints = list(self.constraints)
        return new

    # -- queries ----------------------------------------------------------
    @property
    def concrete(self):
        """The single Version in this list, or None if not exactly one."""
        if len(self.constraints) == 1 and isinstance(self.constraints[0], Version):
            return self.constraints[0]
        return None

    def contains_version(self, version):
        """True if the concrete ``version`` falls in this union."""
        if isinstance(version, str):
            version = Version(version)
        return any(
            lo <= version.key <= hi
            for lo, hi in (_interval(c) for c in self.constraints)
        )

    __contains__ = contains_version

    def overlaps(self, other):
        """True if some version could satisfy both lists."""
        other = _as_list(other)
        for a in self.constraints:
            alo, ahi = _interval(a)
            for b in other.constraints:
                blo, bhi = _interval(b)
                if alo <= bhi and blo <= ahi:
                    return True
        return False

    def satisfies(self, other, strict=False):
        """Compatibility (overlap) or, with ``strict``, containment in other.

        Containment holds when each of this list's intervals lies inside
        one of ``other``'s.  That is the answer
        ``self.intersection(other) == self`` gives, without building the
        intersection: ``other``'s intervals are disjoint, so an interval
        that meets two of them intersects to two pieces, never to itself.
        """
        other = _as_list(other)
        if not strict:
            return self.overlaps(other)
        if other.universal:
            return True  # every list is contained in the universal one
        outer = [_interval(c) for c in other.constraints]
        for constraint in self.constraints:
            lo, hi = _interval(constraint)
            if not any(olo <= lo and hi <= ohi for olo, ohi in outer):
                return False
        return True

    def intersection(self, other):
        """Return a new VersionList: pairwise interval intersection."""
        other = _as_list(other)
        result = VersionList()
        for a in self.constraints:
            alo, ahi = _interval(a)
            a_lo_obj = a if isinstance(a, Version) else a.lo
            a_hi_obj = a if isinstance(a, Version) else a.hi
            for b in other.constraints:
                blo, bhi = _interval(b)
                b_lo_obj = b if isinstance(b, Version) else b.lo
                b_hi_obj = b if isinstance(b, Version) else b.hi
                lo, lo_obj = max((alo, a_lo_obj), (blo, b_lo_obj), key=lambda t: t[0])
                hi, hi_obj = min((ahi, a_hi_obj), (bhi, b_hi_obj), key=lambda t: t[0])
                if lo <= hi:
                    result.add(_from_interval(lo, hi, lo_obj, hi_obj))
        return result

    def intersect(self, other):
        """Intersect in place; return True if this list changed."""
        other = _as_list(other)
        if other.universal:
            return False  # a bare constraint (``depends_on('x')``) narrows nothing
        new = self.intersection(other)
        changed = new != self
        self.constraints = new.constraints
        return changed

    def union(self, other):
        new = self.copy()
        new.add(_as_list(other))
        return new

    def highest(self):
        """Highest point version mentioned: top of the last interval."""
        if not self.constraints:
            return None
        last = self.constraints[-1]
        return last if isinstance(last, Version) else (last.hi or last.lo)

    def lowest(self):
        if not self.constraints:
            return None
        first = self.constraints[0]
        return first if isinstance(first, Version) else (first.lo or first.hi)

    @property
    def universal(self):
        """True if this is the unconstrained list ``:``."""
        constraints = self.constraints
        if len(constraints) != 1:
            return False
        only = constraints[0]
        return type(only) is VersionRange and only.lo is None and only.hi is None

    # -- dunder ------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, VersionList) and [
            _interval(c) for c in self.constraints
        ] == [_interval(c) for c in other.constraints]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(tuple(_interval(c) for c in self.constraints))

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __bool__(self):
        return bool(self.constraints)

    def __str__(self):
        return ",".join(str(c) for c in self.constraints)

    def __repr__(self):
        return "VersionList(%r)" % str(self)


def _as_list(obj):
    """Coerce any version constraint (or string) to a VersionList."""
    if isinstance(obj, VersionList):
        return obj
    if isinstance(obj, (Version, VersionRange)):
        return VersionList([obj])
    if isinstance(obj, str):
        return VersionList(obj)
    raise TypeError("Cannot coerce %r to a VersionList" % (obj,))


def ver(obj):
    """Coerce strings/objects into the narrowest version type.

    ``'1.2'`` → Version; ``'1.2:'`` → VersionList of one range... actually:
    strings with ``,`` or ``:`` become a VersionList; plain version strings
    become a Version; existing version objects pass through unchanged.
    """
    if isinstance(obj, (Version, VersionRange, VersionList)):
        return obj
    if isinstance(obj, (int, float)):
        return Version(str(obj))
    if isinstance(obj, str):
        if "," in obj:
            return VersionList(obj)
        if ":" in obj:
            return VersionList(obj)
        return Version(obj)
    if isinstance(obj, (list, tuple)):
        return VersionList(obj)
    raise TypeError("Cannot coerce %r to a version" % (obj,))


def any_version():
    """A fresh universal VersionList (``:``)."""
    return VersionList(":")
