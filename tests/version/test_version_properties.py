"""Property-based tests: the version algebra is a lattice-ish structure.

Hypothesis generates arbitrary versions, ranges, and unions; the laws
checked here are the ones the concretizer silently relies on:
commutativity/associativity/idempotence of intersection, consistency of
``satisfies`` with intersection, and union/contains coherence.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.version import Version, VersionList, VersionRange, any_version


# -- strategies ----------------------------------------------------------------

components = st.integers(min_value=0, max_value=30)


@st.composite
def versions(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    parts = [str(draw(components)) for _ in range(n)]
    return Version(".".join(parts))


@st.composite
def ranges(draw):
    a = draw(versions())
    b = draw(versions())
    lo, hi = sorted([a, b])
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return VersionRange(lo, hi)
    if kind == 1:
        return VersionRange(lo, None)
    if kind == 2:
        return VersionRange(None, hi)
    return VersionRange(None, None)


@st.composite
def version_lists(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vl = VersionList()
    for _ in range(n):
        if draw(st.booleans()):
            vl.add(draw(versions()))
        else:
            vl.add(draw(ranges()))
    return vl


# -- laws -------------------------------------------------------------------------


@given(version_lists(), version_lists())
def test_intersection_commutative(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(version_lists(), version_lists(), version_lists())
@settings(max_examples=60)
def test_intersection_associative(a, b, c):
    assert a.intersection(b).intersection(c) == a.intersection(b.intersection(c))


@given(version_lists())
def test_intersection_idempotent(a):
    assert a.intersection(a) == a


@given(version_lists())
def test_universal_is_identity(a):
    assert any_version().intersection(a) == a


@given(version_lists(), version_lists())
def test_overlap_iff_nonempty_intersection(a, b):
    assert a.overlaps(b) == bool(a.intersection(b))


@given(version_lists(), version_lists())
def test_strict_satisfies_is_containment(a, b):
    # strict satisfaction == intersection leaves a unchanged
    assert a.satisfies(b, strict=True) == (a.intersection(b) == a)


def test_strict_satisfies_agrees_with_intersection_seeded():
    """Strict ``satisfies`` tests interval containment; it must answer
    as ``intersection(other) == self`` does on random lists, including
    ones built to be contained (``other`` a union over ``self``)."""
    rng = random.Random(4242)

    def version():
        parts = [str(rng.randint(0, 6)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            parts[-1] += rng.choice("ab")
        return ".".join(parts)

    def atom():
        roll = rng.random()
        if roll < 0.4:
            return version()
        lo, hi = sorted((Version(version()), Version(version())))
        return "%s:%s" % (lo if roll < 0.85 else "", hi if roll > 0.55 else "")

    def vlist():
        return VersionList(",".join(atom() for _ in range(rng.randint(1, 4))))

    contained = 0
    for _ in range(3000):
        a = vlist()
        b = a.union(vlist()) if rng.random() < 0.4 else vlist()
        expected = b.universal or a.intersection(b) == a
        assert a.satisfies(b, strict=True) == expected, (str(a), str(b))
        contained += expected
    assert 600 < contained < 2400  # both answers were exercised


@given(versions(), version_lists())
def test_contains_implies_constraint_overlap(v, a):
    # Membership of the point implies the family constraint @v overlaps a.
    # (The converse does not hold: the constraint @2.0 denotes the whole
    # 2.0 family and overlaps @2.0.0 even though the point 2.0 is not in
    # it — that asymmetry is the prefix-family semantics working.)
    if a.contains_version(v):
        assert VersionList([v]).overlaps(a)


@given(version_lists(), version_lists(), versions())
def test_union_contains_both(a, b, v):
    u = a.union(b)
    if a.contains_version(v) or b.contains_version(v):
        assert u.contains_version(v)


@given(version_lists(), version_lists(), versions())
def test_intersection_is_conjunction(a, b, v):
    i = a.intersection(b)
    assert i.contains_version(v) == (a.contains_version(v) and b.contains_version(v))


@given(version_lists())
def test_string_round_trip(a):
    assert VersionList(str(a)) == a


@given(versions(), versions())
def test_ordering_total(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(versions())
def test_version_in_own_family(v):
    assert v.satisfies(v)
    assert v in v
