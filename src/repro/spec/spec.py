"""The :class:`Spec` DAG type — the paper's central data structure (§3.2).

A spec describes one build configuration of a package: its version,
compiler (with version), named boolean variants, target architecture, and
a dependency map to further specs.  A spec may be *abstract* (any of these
unconstrained — describing a family of builds) or *concrete* (every
parameter fixed, every dependency resolved — describing exactly one
build).  Concretization (:mod:`repro.core`) turns the former into the
latter.

Two comparison semantics matter everywhere (DESIGN.md §5):

* ``a.satisfies(b)`` — *compatibility*: could one build satisfy both ``a``
  and ``b``?  Used for ``when=`` predicates evaluated against
  partially-concrete specs during normalization.
* ``a.satisfies(b, strict=True)`` — *containment*: is every build matching
  ``a`` also matched by ``b``?  Used to verify a concrete result honors
  the user's abstract request.

``a.constrain(b)`` intersects ``b``'s constraints into ``a`` and raises an
:class:`~repro.spec.errors.UnsatisfiableSpecError` subclass naming the
conflicting parameter kind when the intersection is empty.
"""

import hashlib
import itertools
import operator
import weakref

from repro.spec import errors as err
from repro.util.intern import InternPool
from repro.util.lang import key_ordering
from repro.util.naming import validate_name
from repro.version import VersionList, any_version, ver

#: every dependency type an edge may carry: needed to *build* the
#: dependent (compilers, cmake), needed at *link* time (ABI — part of
#: the runtime identity), needed at *run* time (interpreters, loaders)
ALL_DEPTYPES = ("build", "link", "run")

#: what a bare ``depends_on`` (and a user ``^`` edge) means — Spack's
#: historical default: most dependencies are headers + libraries
DEFAULT_DEPTYPES = ("build", "link")

#: the edge types that contribute to :meth:`Spec.runtime_hash` — the
#: sub-DAG a built binary actually carries into production
RUNTIME_DEPTYPES = frozenset(("link", "run"))

_DEFAULT_EDGE = frozenset(DEFAULT_DEPTYPES)

#: every valid edge-type set by its sorted names (how ``to_dict`` stores
#: it), and the text each contributes to the DAG hashes
_EDGE_TYPES = {
    names: frozenset(names)
    for n in range(1, len(ALL_DEPTYPES) + 1)
    for names in itertools.combinations(sorted(ALL_DEPTYPES), n)
}
_EDGE_TEXT = {types: ",".join(names) for names, types in _EDGE_TYPES.items()}

#: the provided virtuals of a frozen node that provides none (most do)
_NO_VIRTUALS = frozenset()

#: stored compiler texts (``gcc@4.9.2``) that :meth:`Spec.from_dict`
#: parsed -> (name, version constraints, canonical text): a long-lived
#: process parses each distinct text once
_STORED_COMPILERS = InternPool(maxsize=4096)

#: stored version texts (``1.2.3``) that :meth:`Spec.from_dict` read
#: into a frozen node -> (the VersionList those nodes share, its
#: canonical text)
_STORED_VERSIONS = InternPool(maxsize=4096)


def canonical_deptype(deptype):
    """Normalize a deptype argument to a frozenset of valid type names.

    Accepts ``None``/``"all"`` (every type), a single type name, or an
    iterable of names; raises :class:`~repro.spec.errors.SpecError` for
    anything outside :data:`ALL_DEPTYPES`.
    """
    if deptype is None or deptype == "all":
        return frozenset(ALL_DEPTYPES)
    if isinstance(deptype, str):
        deptype = (deptype,)
    result = frozenset(deptype)
    invalid = result - frozenset(ALL_DEPTYPES)
    if invalid:
        raise err.SpecError(
            "Invalid dependency type(s): %s (must be among %s)"
            % (", ".join(sorted(invalid)), ", ".join(ALL_DEPTYPES))
        )
    if not result:
        raise err.SpecError("Dependency type set cannot be empty")
    return result


def deptype_chars(deptypes):
    """Compact ``blr``-style rendering of a deptype set (graph output)."""
    return "".join(t[0] for t in ALL_DEPTYPES if t in deptypes)


@key_ordering
class CompilerSpec:
    """A compiler constraint: toolchain name plus a version constraint.

    ``%gcc`` → any gcc; ``%[email protected]`` → that version family.  A compiler
    name refers to the full toolchain (C, C++, Fortran), per §3.2.3.
    """

    __slots__ = ("name", "versions")

    def __init__(self, name, versions=None):
        if isinstance(name, CompilerSpec):
            self.name = name.name
            self.versions = name.versions.copy()
            return
        if "@" in name:
            name, _, vstring = name.partition("@")
            if versions is not None:
                raise err.SpecError("CompilerSpec given both @ string and versions")
            versions = vstring
        self.name = validate_name(name)
        if versions is None:
            self.versions = any_version()
        elif isinstance(versions, VersionList):
            self.versions = versions.copy()
        else:
            self.versions = VersionList(ver(versions))

    @property
    def concrete(self):
        return self.versions.concrete is not None

    @property
    def version(self):
        """The single concrete version (only valid on concrete compiler specs)."""
        v = self.versions.concrete
        if v is None:
            raise err.SpecError("CompilerSpec %s is not concrete" % self)
        return v

    def satisfies(self, other, strict=False):
        other = CompilerSpec(other) if isinstance(other, str) else other
        if self.name != other.name:
            return False
        return self.versions.satisfies(other.versions, strict=strict)

    def constrain(self, other):
        """Intersect ``other`` into self; return True if changed."""
        other = CompilerSpec(other) if isinstance(other, str) else other
        if self.name != other.name:
            raise err.UnsatisfiableCompilerSpecError(self, other)
        if not self.versions.overlaps(other.versions):
            raise err.UnsatisfiableCompilerSpecError(self, other)
        return self.versions.intersect(other.versions)

    def copy(self):
        return CompilerSpec(self.name, self.versions.copy())

    def _cmp_key(self):
        return (self.name, tuple(str(c) for c in self.versions))

    def __str__(self):
        if self.versions.universal:
            return self.name
        return "%s@%s" % (self.name, self.versions)

    def __repr__(self):
        return "CompilerSpec(%r)" % str(self)


def _owner_write(method):
    """Wrap a :class:`VariantMap` mutator: refuse it when the owning Spec
    is frozen, and invalidate the owner's caches after it."""

    def write(self, *args, **kwargs):
        ref = self._owner_ref
        owner = ref() if ref is not None else None
        if owner is not None and owner._frozen:
            raise err.FrozenSpecError(owner.name, "variants")
        result = method(self, *args, **kwargs)
        if owner is not None:
            owner.invalidate_caches()
        return result

    return write


class VariantMap(dict):
    """Named boolean build options on one spec node (§3.2.3, "Variants").

    The map may be *owned* by a Spec node: mutating an owned map
    invalidates the owner's cached reprs/hashes (see
    :meth:`Spec.invalidate_caches`), so direct ``spec.variants[x] = True``
    writes cannot leave stale cached state behind, and is refused with
    :class:`~repro.spec.errors.FrozenSpecError` once the owner is frozen.
    """

    def __init__(self, owner=None):
        self._owner_ref = weakref.ref(owner) if owner is not None else None

    __setitem__ = _owner_write(dict.__setitem__)
    __delitem__ = _owner_write(dict.__delitem__)
    update = _owner_write(dict.update)
    pop = _owner_write(dict.pop)
    clear = _owner_write(dict.clear)
    setdefault = _owner_write(dict.setdefault)

    def satisfies(self, other, strict=False):
        for name, value in other.items():
            if name in self:
                if self[name] != value:
                    return False
            elif strict:
                return False
        return True

    def constrain(self, other):
        changed = False
        for name, value in other.items():
            if name in self:
                if self[name] != value:
                    raise err.UnsatisfiableVariantSpecError(
                        "%s%s" % ("+" if self[name] else "~", name),
                        "%s%s" % ("+" if value else "~", name),
                    )
            else:
                self[name] = value
                changed = True
        return changed

    def copy(self):
        new = VariantMap()
        new.update(self)
        return new

    def __str__(self):
        return "".join(
            ("+%s" % name) if value else ("~%s" % name)
            for name, value in sorted(self.items())
        )


class _DependencyMap(dict):
    """Dependency edges of one Spec node, keyed by package name.

    Behaves exactly like the plain dict it replaces, with two additions:

    * inserting an edge registers a *weak* back-reference from the child
      to its new parent.  Those back-references are what let
      :meth:`Spec.invalidate_caches` propagate upward — without them,
      mutating a dependency shared by a concrete DAG would leave every
      ancestor serving a stale cached ``_hash`` with ``_concrete`` still
      True.  Removing an edge invalidates the former parent's caches
      (its DAG just changed) and drops the back-reference.
    * every edge carries a **dependency type** set (build/link/run).  A
      plain ``map[name] = dep`` write keeps an existing edge's types, or
      defaults a new edge to :data:`DEFAULT_DEPTYPES`; ``set_edge``
      inserts with explicit types; re-typing an edge invalidates the
      owner's caches the same way reshaping the DAG does, because the
      types participate in both DAG hashes.
    """

    __slots__ = ("_owner_ref", "_edge_types")

    def __init__(self, owner):
        self._owner_ref = weakref.ref(owner)
        #: name -> frozenset of dependency types for that edge
        self._edge_types = {}

    def _writable_owner(self):
        """The owning Spec, refusing any edge write once it is frozen."""
        owner = self._owner_ref()
        if owner is not None and owner._frozen:
            raise err.FrozenSpecError(owner.name, "dependencies")
        return owner

    def __setitem__(self, name, dep):
        owner = self._writable_owner()
        super().__setitem__(name, dep)
        self._edge_types.setdefault(name, _DEFAULT_EDGE)
        if owner is not None:
            if isinstance(dep, Spec):
                dep._register_parent(owner)
            # the owner's DAG just changed shape; its cached DAG repr
            # and hash are stale (ancestors' too)
            owner.invalidate_caches()

    def __delitem__(self, name):
        owner = self._writable_owner()
        dep = self.get(name)
        super().__delitem__(name)
        self._edge_types.pop(name, None)
        if owner is not None:
            if isinstance(dep, Spec):
                dep._dependents.pop(id(owner), None)
            owner.invalidate_caches()

    # -- typed-edge API -----------------------------------------------------
    def set_edge(self, name, dep, deptypes):
        """Insert (or repoint) an edge with explicit dependency types."""
        deptypes = canonical_deptype(deptypes)
        self[name] = dep  # refuses a frozen owner before anything changes
        self._edge_types[name] = deptypes

    def deptypes(self, name):
        """The dependency-type set of the edge to ``name``."""
        return self._edge_types.get(name, _DEFAULT_EDGE)

    def set_deptypes(self, name, deptypes):
        """Re-type an existing edge; returns True if the types changed."""
        owner = self._writable_owner()
        deptypes = canonical_deptype(deptypes)
        if self._edge_types.get(name) == deptypes:
            return False
        self._edge_types[name] = deptypes
        if owner is not None:
            # edge types are hashed state: ancestors' cached DAG reprs,
            # dag_hash, and runtime_hash are all stale now
            owner.invalidate_caches()
        return True

    def add_deptypes(self, name, deptypes):
        """Union ``deptypes`` into an edge; returns True if it changed."""
        merged = self.deptypes(name) | canonical_deptype(deptypes)
        return self.set_deptypes(name, merged)


class Spec:
    """A node in (and handle to) a spec DAG.

    Construct from a spec expression (``Spec("mpileaks@1.2 %gcc ^mpich")``),
    from another Spec (copy), or programmatically via keywords.

    Attributes
    ----------
    name : str or None
        Package name; None for anonymous constraint specs (``when='%gcc'``).
    versions : VersionList
        Version constraint; the universal list when unconstrained.
    compiler : CompilerSpec or None
    variants : VariantMap
    architecture : str or None
    dependencies : dict[str, Spec]
        Direct dependency edges, keyed by package name.  A DAG never
        contains two nodes with the same name (§3.2.1), so names are
        unique identifiers within one spec.
    external : str or None
        Install prefix of a pre-existing (non-built) installation; set by
        the concretizer from ``packages`` config (used e.g. for vendor MPI
        in the ARES study, §4.4).
    provided_virtuals : set[str]
        Virtual names this node was chosen to provide (stamped by the
        concretizer when it swaps a provider in for a virtual node).
    """

    def __init__(
        self,
        spec_like=None,
        *,
        name=None,
        versions=None,
        compiler=None,
        variants=None,
        architecture=None,
        dependencies=None,
    ):
        if isinstance(spec_like, Spec):
            self._init_empty()
            self._dup(spec_like)
            return
        if isinstance(spec_like, str):
            from repro.spec.parser import parse_specs

            self._init_empty()
            specs = parse_specs(spec_like, into=self)
            if len(specs) != 1:
                raise err.SpecParseError(
                    "Expected exactly one spec, got %d from %r"
                    % (len(specs), spec_like)
                )
            return
        if spec_like is not None:
            raise TypeError("Cannot construct Spec from %r" % (spec_like,))

        self._init_empty()
        if name is not None:
            self.name = validate_name(name)
        if versions is not None:
            vl = ver(versions)
            self.versions = vl if isinstance(vl, VersionList) else VersionList([vl])
        if compiler is not None:
            self.compiler = (
                compiler if isinstance(compiler, CompilerSpec) else CompilerSpec(compiler)
            )
        if variants:
            self.variants.update(variants)
        if architecture is not None:
            self.architecture = architecture
        for dep in dependencies or ():
            self._add_dependency(dep if isinstance(dep, Spec) else Spec(dep))

    def _init_empty(self, versions=None):
        #: set by freeze(): every write below raises FrozenSpecError
        self._frozen = False
        #: id(parent) -> weakref to parents holding an edge to this node;
        #: maintained by _DependencyMap, consumed by invalidate_caches().
        #: Set first: the parameter setters below call invalidate_caches.
        self._dependents = {}
        self._concrete = False
        self._normal = False
        self._hash = None
        self._rhash = None
        self._nrepr = None
        self._dkey = None
        #: the rendered text, kept once a frozen node renders it
        self._str = None
        self._p_name = None
        self._p_versions = any_version() if versions is None else versions
        self._p_compiler = None
        self._p_variants = VariantMap(owner=self)
        self._p_architecture = None
        self._p_external = None
        self.dependencies = _DependencyMap(self)
        self.provided_virtuals = set()
        self.namespace = None

    # -- cached-state parameter properties -----------------------------------
    # Node parameters are properties so that *any* assignment — including
    # direct writes from tests or package code — invalidates the cached
    # node/DAG reprs and hash on this node and its ancestors, or raises
    # FrozenSpecError on a frozen node.  Mutation discipline
    # therefore has a single choke point instead of being scattered across
    # every caller.  Reads are the hot side (the concretizer reads
    # parameters hundreds of thousands of times per run), so they go
    # through a C-level attrgetter.
    def _make_param(attr):  # noqa: N805 - class-body helper, deleted below
        private = "_p_" + attr

        def fset(self, value):
            if self._frozen:
                raise err.FrozenSpecError(self._p_name, attr)
            setattr(self, private, value)
            self.invalidate_caches()

        return property(operator.attrgetter(private), fset)

    name = _make_param("name")
    versions = _make_param("versions")
    compiler = _make_param("compiler")
    architecture = _make_param("architecture")
    external = _make_param("external")
    del _make_param

    @property
    def variants(self):
        return self._p_variants

    @variants.setter
    def variants(self, value):
        if self._frozen:
            raise err.FrozenSpecError(self._p_name, "variants")
        owned = VariantMap(owner=self)
        dict.update(owned, value or {})
        self._p_variants = owned
        self.invalidate_caches()

    def _dup_node(self, other):
        """Copy ``other``'s node-level fields (everything but edges) into
        this fresh node: it has no cached state and no parents, so the
        fields are written directly, not through the invalidating
        setters."""
        self._p_name = other._p_name
        self._p_versions = other._p_versions.copy()
        compiler = other._p_compiler
        self._p_compiler = compiler.copy() if compiler else None
        dict.update(self._p_variants, other._p_variants)
        self._p_architecture = other._p_architecture
        self._p_external = other._p_external
        self.provided_virtuals = set(other.provided_virtuals)
        self.namespace = other.namespace
        self._concrete = other._concrete
        self._normal = other._normal
        self._hash = other._hash
        self._rhash = other._rhash

    def _dup(self, other, deps=True):
        """Become a copy of ``other`` (used by copy() and __init__).

        The copy is DAG-aware: shared nodes in ``other`` (a diamond like
        mpileaks→callpath→dyninst / mpileaks→dyninst) stay shared in the
        copy, preserving the one-node-per-name invariant structurally.
        """
        self._dup_node(other)
        if deps:
            other._copy_deps_into(self, {other.name or id(other): self})
        else:
            self._concrete = False
            self._normal = False
            self._hash = None
            self._rhash = None

    def _copy_deps_into(self, new, memo):
        """Give the fresh node ``new`` this node's edges, to copies made
        once per name (``memo``).  Each edge is written directly, as
        :meth:`from_dict` writes it — the dict entry, the edge type and
        the child's back-reference — so no invalidation fires and the
        copied nodes keep the state :meth:`_dup_node` gave them."""
        edges = self.dependencies
        copied = new.dependencies
        for name, dep in edges.items():
            key = dep.name or id(dep)
            child = memo.get(key)
            if child is None:
                child = memo[key] = Spec()
                child._dup_node(dep)
                dep._copy_deps_into(child, memo)
            dict.__setitem__(copied, name, child)
            copied._edge_types[name] = edges.deptypes(name)
            child._register_parent(new)

    # -- construction helpers ---------------------------------------------
    def _add_dependency(self, dep_spec, deptypes=None):
        if self._frozen:
            raise err.FrozenSpecError(self.name, "dependencies")
        if dep_spec.name is None:
            raise err.SpecParseError("Dependency specs must be named")
        if dep_spec.name == self.name:
            # traversal dedups nodes by name, so a same-named dependency
            # would be invisible to rendering/hashing — reject it here
            raise err.InvalidDependencyError(
                "Package %r cannot depend on itself" % self.name
            )
        if dep_spec.name in self.dependencies:
            raise err.DuplicateDependencyError(
                "Cannot depend on %r twice" % dep_spec.name
            )
        # the edge write invalidates this node and its ancestors
        if deptypes is None:
            self.dependencies[dep_spec.name] = dep_spec
        else:
            self.dependencies.set_edge(dep_spec.name, dep_spec, deptypes)

    def _register_parent(self, parent):
        """Record a weak back-reference to a parent holding an edge here
        (none on a frozen node: it never invalidates)."""
        if self._frozen:
            return
        key = id(parent)
        if key not in self._dependents:
            # the callback prunes the entry when the parent is collected,
            # so a recycled id() can never alias a dead parent
            self._dependents[key] = weakref.ref(
                parent, lambda _ref, s=self, k=key: s._dependents.pop(k, None)
            )

    def _reset_caches(self):
        """Drop this node's cached state; True if some of it was
        DAG-level (concreteness or a hash), which ancestors may share."""
        held = (self._concrete or self._normal or self._hash is not None
                or self._rhash is not None)
        self._hash = None
        self._rhash = None
        self._concrete = False
        self._normal = False
        self._nrepr = None
        return held

    def invalidate_caches(self):
        """Drop cached state here, and on every ancestor that holds some.

        A concrete DAG caches ``_hash`` and its canonical node/DAG reprs
        per node; mutating a shared child (``constrain``,
        ``_add_dependency``, any parameter assignment) changes every
        ancestor's DAG state too, so invalidation climbs the parent
        back-references — otherwise ancestors keep serving stale cached
        state with ``_concrete`` still True.

        The climb starts only from nodes that held DAG-level state
        (``_concrete``, ``_normal``, ``_hash``, ``_rhash``), which is
        sound because:

        * a hash is stored only on a concrete node;
        * concreteness is DAG-wide: a concrete node's descendants are
          concrete, and invalidation clears it on every ancestor, so a
          node without it has no ancestor with it;
        * ``_nrepr`` describes the node alone, and ``_dkey`` (the whole
          DAG's key) is stored only on frozen nodes;
        * a frozen node never changes, so it is never invalidated.

        Inside the fixed point, which works on a private non-concrete
        copy, a write therefore resets one node.
        """
        if self._frozen or not self._reset_caches():
            return
        seen = {id(self)}
        stack = [self]
        while stack:
            node = stack.pop()
            for ref in list(node._dependents.values()):
                parent = ref()
                if parent is not None and id(parent) not in seen:
                    seen.add(id(parent))
                    if parent._reset_caches():
                        stack.append(parent)

    def copy(self, deps=True):
        """A mutable copy of this DAG (or of this node alone): the way to
        change a frozen spec."""
        new = Spec()
        new._dup(self, deps=deps)
        return new

    def freeze(self):
        """Make this DAG immutable and return it.

        Concretization publishes its results frozen and hands the same
        object to every caller — a concrete spec is a value named by its
        hash (§3.4.2).  One walk marks every node (a frozen node's
        sub-DAG is already frozen, so the walk stops there) and the
        root's ``dag_hash`` is cached.  The other cached reprs and
        hashes stay lazy: on a frozen node they are pure functions of
        frozen fields, so a racing second computation stores the same
        value.  Parameter, variant, edge and ``prefix`` writes,
        ``constrain`` and ``_add_dependency`` then raise
        :class:`~repro.spec.errors.FrozenSpecError`; :meth:`copy` returns
        a mutable DAG.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            if not node._frozen:
                node._frozen = True
                # parent back-references only serve invalidation
                node._dependents = {}
                stack.extend(node.dependencies.values())
        self.dag_hash()
        return self

    @property
    def frozen(self):
        """True once :meth:`freeze` has made this node immutable."""
        return self._frozen

    # -- predicates ---------------------------------------------------------
    @property
    def anonymous(self):
        return self.name is None

    @property
    def concrete(self):
        """True when every parameter on every node is fixed.

        The concretizer stamps ``_concrete`` after validation; for
        hand-built specs this falls back to a structural check (which
        cannot validate variant *completeness* without the package file).
        """
        if self._concrete:
            return True
        return (
            self.name is not None
            and self.versions.concrete is not None
            and self.compiler is not None
            and self.compiler.concrete
            and self.architecture is not None
            and all(d.concrete for d in self.dependencies.values())
        )

    @property
    def version(self):
        v = self.versions.concrete
        if v is None:
            raise err.SpecError("Spec %s has no concrete version" % self)
        return v

    @property
    def prefix(self):
        """Install prefix of this node (Figure 1's ``spec['callpath'].prefix``).

        Stamped by the installer/store before a build; external packages
        use their configured path.
        """
        if self.external:
            return self.external
        stamped = getattr(self, "_prefix", None)
        if stamped is None:
            raise err.SpecError(
                "Spec %s has no install prefix (not attached to a store)" % self.name
            )
        return stamped

    @prefix.setter
    def prefix(self, value):
        if self._frozen:
            raise err.FrozenSpecError(self.name, "prefix")
        self._prefix = value

    # -- traversal ----------------------------------------------------------
    def traverse(self, order="pre", root=True, depth=False, deptype=None):
        """Iterate over the DAG's unique nodes (by name), depth first.

        ``order``: 'pre' (parents first) or 'post' (children first).
        ``root``: False leaves this node out (its sub-DAG is walked).
        ``depth``: yield ``(depth, spec)`` tuples instead of specs.
        ``deptype``: only follow edges whose type set overlaps this
        (a name, an iterable of names, or None for every edge) — e.g.
        ``traverse(deptype=("link", "run"))`` walks the runtime closure.

        One generator frame walks an explicit stack of (node, depth,
        iterator over its sorted child names).  The walk stays lazy: in
        pre-order a node's child names are read only after the node is
        yielded, and each child is looked up when the walk reaches it,
        so a caller may repoint the edges of the node it was just handed
        (the concretizer's virtual swap does).
        """
        if deptype is not None and not isinstance(deptype, frozenset):
            deptype = canonical_deptype(deptype)
        pre = order == "pre"
        post = order == "post"
        visited = {self._p_name or id(self)}
        if pre and root:
            yield (0, self) if depth else self
        stack = [(self, 0, iter(sorted(self.dependencies)))]
        while stack:
            node, d, names = stack[-1]
            deps = node.dependencies
            for name in names:
                if deptype is not None and not deps.deptypes(name) & deptype:
                    continue
                child = deps[name]
                key = child._p_name or id(child)
                if key in visited:
                    continue
                visited.add(key)
                if pre:
                    yield (d + 1, child) if depth else child
                    if not child.dependencies:
                        continue  # a leaf: nothing below it to walk
                stack.append((child, d + 1, iter(sorted(child.dependencies))))
                break
            else:
                stack.pop()
                if post and (root or stack):
                    yield (d, node) if depth else node

    def link_run_subdag(self):
        """A copy of this DAG restricted to link/run edges.

        This is the sub-DAG :meth:`runtime_hash` is computed over — what
        a built binary of this spec actually carries at run time.  Nodes
        reachable only through build-type edges (compilers, cmake) are
        absent; surviving edges keep only their runtime-relevant types.
        """
        memo = {}

        def build(node):
            key = node.name or id(node)
            copied = memo.get(key)
            if copied is not None:
                return copied
            copied = Spec()
            copied._dup_node(node)
            memo[key] = copied
            for name in sorted(node.dependencies):
                runtime = node.dependencies.deptypes(name) & RUNTIME_DEPTYPES
                if not runtime:
                    continue
                child = build(node.dependencies[name])
                copied.dependencies.set_edge(name, child, runtime)
            return copied

        return build(self)

    def flat_dependencies(self):
        """All nodes below the root, keyed by name (copies not made)."""
        return {s.name: s for s in self.traverse(root=False)}

    def __contains__(self, spec_like):
        """True if some node in this DAG satisfies ``spec_like``.

        Enables idioms like ``'mpich' in spec`` and
        ``Spec('callpath@1.2') in spec`` from package code.
        """
        other = spec_like if isinstance(spec_like, Spec) else Spec(spec_like)
        return any(
            node.satisfies(other) for node in self.traverse()
            if other.name is None or node.name == other.name
        )

    def __getitem__(self, name):
        """Look up a dependency (or self) by package name or virtual name.

        Packages use ``spec['callpath'].prefix`` in install() (Figure 1).
        Virtual lookups (``spec['mpi']``) resolve through
        ``provided_virtuals`` stamps on concretized nodes.
        """
        for node in self.traverse():
            if node.name == name or name in node.provided_virtuals:
                return node
        raise KeyError("No node named %r in spec %s" % (name, self))

    # -- satisfies / constrain ----------------------------------------------
    def satisfies_node(self, other, strict=False):
        """Node-only satisfaction: ignore dependency structure."""
        if other.name is not None and self.name != other.name:
            return False
        if not self.versions.satisfies(other.versions, strict=strict):
            return False
        if other.compiler is not None:
            if self.compiler is None:
                if strict:
                    return False
            elif not self.compiler.satisfies(other.compiler, strict=strict):
                return False
        if not self.variants.satisfies(other.variants, strict=strict):
            return False
        if other.architecture is not None:
            if self.architecture is None:
                if strict:
                    return False
            elif self.architecture != other.architecture:
                return False
        return True

    def satisfies(self, other, strict=False):
        """See the module docstring for the two semantics.

        ``other`` may be a Spec or a spec string.  Dependency constraints
        in ``other`` are matched against *any* node of this DAG with the
        same name (names are unique per DAG).
        """
        other = other if isinstance(other, Spec) else Spec(other)
        if not self.satisfies_node(other, strict=strict):
            return False
        if not other.dependencies:
            return True
        mine = {s.name: s for s in self.traverse()}
        for name, odep in other.flat_dependencies().items():
            sdep = mine.get(name)
            if sdep is None:
                if strict:
                    return False
                continue
            if not sdep.satisfies_node(odep, strict=strict):
                return False
        return True

    def constrain(self, other, deps=True):
        """Intersect ``other``'s constraints into this spec.

        Returns True if anything changed; raises an UnsatisfiableSpecError
        subclass if the constraints cannot be merged, and FrozenSpecError
        on a frozen spec.
        """
        if self._frozen:
            raise err.FrozenSpecError(self.name, "constraints")
        other = other if isinstance(other, Spec) else Spec(other)
        if (
            other._p_compiler is None
            and other._p_architecture is None
            and other._p_external is None
            and not other._p_variants
            and not (deps and other.dependencies)
            and other._p_name in (None, self._p_name)
            and other._p_versions.universal
            and self._p_versions.constraints
        ):
            # a bare name (``depends_on('libelf')``) constrains nothing
            return False
        if other.name is not None and self.name is not None and self.name != other.name:
            raise err.UnsatisfiableSpecNameError(self.name, other.name)

        # the setters, the owned VariantMap and edge writes invalidate
        # as they write; only the in-place version narrowing here does not
        changed = False
        if self.name is None and other.name is not None:
            self.name = other.name
            changed = True
        if not self.versions.overlaps(other.versions):
            raise err.UnsatisfiableVersionSpecError(self.versions, other.versions)
        narrowed = self.versions.intersect(other.versions)
        if other.compiler is not None:
            if self.compiler is None:
                self.compiler = other.compiler.copy()
                changed = True
            else:
                narrowed |= self.compiler.constrain(other.compiler)
        changed |= self.variants.constrain(other.variants)
        if other.architecture is not None:
            if self.architecture is None:
                self.architecture = other.architecture
                changed = True
            elif self.architecture != other.architecture:
                raise err.UnsatisfiableArchitectureSpecError(
                    self.architecture, other.architecture
                )
        if other.external is not None:
            if self.external is None:
                self.external = other.external
                changed = True
        if deps and other.dependencies:
            changed |= self._constrain_dependencies(other)
        if narrowed:
            self.invalidate_caches()
        return changed or narrowed

    def _constrain_dependencies(self, other):
        changed = False
        for name, odep in other.dependencies.items():
            if name in self.dependencies:
                changed |= self.dependencies[name].constrain(odep)
                changed |= self.dependencies.add_deptypes(
                    name, other.dependencies.deptypes(name))
            else:
                self.dependencies.set_edge(
                    name, odep.copy(), other.dependencies.deptypes(name))
                changed = True
        return changed

    def intersects(self, other):
        """True if a build could satisfy both specs (symmetric overlap)."""
        other = other if isinstance(other, Spec) else Spec(other)
        try:
            self.copy().constrain(other)
        except err.UnsatisfiableSpecError:
            return False
        return True

    # -- hashing -------------------------------------------------------------
    def node_repr(self):
        """Canonical tuple describing this node, without dependencies.

        Cached until the next mutation: every parameter write goes
        through the property setters (or the owned VariantMap), both of
        which call :meth:`invalidate_caches`.
        """
        nrepr = self._nrepr
        if nrepr is None:
            nrepr = self._nrepr = (
                self.name or "",
                str(self.versions),
                str(self.compiler) if self.compiler else "",
                tuple(sorted(self.variants.items())),
                self.architecture or "",
                self.external or "",
            )
        return nrepr

    def dag_hash(self, length=None):
        """Stable content hash of the full DAG (paper §3.4.2's SHA hash).

        Every edge contributes its dependency types, so re-typing an
        edge changes the hash exactly like reshaping the DAG would.
        Cached once the spec is marked concrete; abstract specs recompute
        since they may still be mutated.
        """
        if self._hash is None or not self._concrete:
            # one sha1 update over the joined parts: the same bytes as
            # one update per part, so every stored hash still verifies
            parts = []
            self._hash_into(parts, {})
            h = hashlib.sha1("".join(parts).encode()).hexdigest()
            if not self._concrete:
                return h[:length] if length else h
            self._hash = h
        return self._hash[:length] if length else self._hash

    def _visit_key(self, visited):
        """Deterministic traversal key: the name, or — for anonymous
        nodes — a stable per-traversal ordinal.  ``id(self)`` is NOT
        usable here: it differs across processes, and two anonymous
        nodes must hash by their *position* in the walk, not by where
        the allocator happened to put them."""
        key = self.name if self.name is not None else ("<anon>", id(self))
        ordinal = visited.get(key)
        if ordinal is None:
            visited[key] = len(visited)
            return None  # first visit
        return self.name if self.name is not None else "<anon#%d>" % ordinal

    def _hash_into(self, parts, visited):
        if self._visit_key(visited) is not None:
            return
        parts.append(repr(self.node_repr()))
        for name in sorted(self.dependencies):
            types = _EDGE_TEXT[self.dependencies.deptypes(name)]
            parts.append("^%s[%s]" % (name, types))
            self.dependencies[name]._hash_into(parts, visited)

    def runtime_hash(self, length=None):
        """Content hash of only the link/run sub-DAG (the splice key).

        Two concrete specs with equal runtime hashes carry the same
        binaries at run time even if their *build-only* sub-DAGs differ
        (a newer cmake, a different compiler-support tool) — which is
        exactly when the build cache may splice one's prefix in for the
        other instead of rebuilding ("Bridging the Gap Between Binary
        and Source Based Package Management in Spack", PAPERS.md).
        Invalidated alongside ``dag_hash`` by the ancestor back-refs.
        """
        if self._rhash is None or not self._concrete:
            parts = []
            self._runtime_hash_into(parts, {})
            h = hashlib.sha1("".join(parts).encode()).hexdigest()
            if not self._concrete:
                return h[:length] if length else h
            self._rhash = h
        return self._rhash[:length] if length else self._rhash

    def _runtime_hash_into(self, parts, visited):
        if self._visit_key(visited) is not None:
            return
        parts.append(repr(self.node_repr()))
        for name in sorted(self.dependencies):
            runtime = self.dependencies.deptypes(name) & RUNTIME_DEPTYPES
            if not runtime:
                continue  # build-only edges are invisible at run time
            parts.append("^%s[%s]" % (name, _EDGE_TEXT[runtime]))
            self.dependencies[name]._runtime_hash_into(parts, visited)

    # -- equality --------------------------------------------------------------
    def eq_node(self, other):
        return self.node_repr() == other.node_repr()

    def _dag_repr(self, visited):
        marker = self._visit_key(visited)
        if marker is not None:
            return (marker,)
        return self.node_repr() + tuple(
            (name, tuple(sorted(self.dependencies.deptypes(name))),
             self.dependencies[name]._dag_repr(visited))
            for name in sorted(self.dependencies)
        )

    def _dag_key(self):
        """The full-DAG canonical tuple: the comparison key for
        ``__eq__``/``__hash__``.  Stored only on a frozen node, whose
        DAG never changes; a mutable DAG computes it per call, so no
        write below has to reach it."""
        dkey = self._dkey
        if dkey is None:
            dkey = self._dag_repr({})
            if self._frozen:
                self._dkey = dkey
        return dkey

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Spec):
            return NotImplemented
        return self._dag_key() == other._dag_key()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self._dag_key())

    def __lt__(self, other):
        if not isinstance(other, Spec):
            return NotImplemented
        return self._dag_key() < other._dag_key()

    # -- rendering ---------------------------------------------------------------
    def node_str(self):
        """Canonical text for this node alone (no dependencies)."""
        parts = [self.name or ""]
        if not self.versions.universal:
            parts.append("@%s" % self.versions)
        if self.compiler is not None:
            parts.append("%%%s" % self.compiler)
        if self.variants:
            parts.append(str(self.variants))
        if self.architecture is not None:
            parts.append("=%s" % self.architecture)
        return "".join(parts)

    def __str__(self):
        """Canonical, re-parseable rendering: root node, then each unique
        dependency node flattened with ``^`` in name order (as the original
        prints specs — edge structure is re-derived by normalization).
        A frozen spec renders once and keeps the text."""
        text = self._str
        if text is None:
            deps = self.flat_dependencies()
            parts = [self.node_str()]
            parts.extend("^%s" % deps[name].node_str() for name in sorted(deps))
            text = " ".join(parts)
            if self._frozen:
                self._str = text
        return text

    def __repr__(self):
        return "Spec(%r)" % str(self)

    def format(self, fmt, **extra):
        """Expand ``${...}`` tokens for view projections and layouts (§4.3.1).

        Supported tokens: PACKAGE, VERSION, COMPILER, COMPILERNAME,
        COMPILERVER, OPTIONS, ARCHITECTURE, HASH (or HASH:n), and
        <VIRTUAL>NAME / <VIRTUAL>VER for any virtual provided by a
        dependency (e.g. MPINAME, MPIVER).  Extra keyword tokens override.
        """
        import re as _re

        def lookup(token):
            if token in extra:
                return str(extra[token])
            if token == "PACKAGE":
                return self.name or ""
            if token == "VERSION":
                v = self.versions.concrete
                return str(v) if v else str(self.versions)
            if token == "COMPILER":
                return str(self.compiler) if self.compiler else ""
            if token == "COMPILERNAME":
                return self.compiler.name if self.compiler else ""
            if token == "COMPILERVER":
                return str(self.compiler.versions) if self.compiler else ""
            if token == "OPTIONS":
                return str(self.variants)
            if token == "ARCHITECTURE":
                return self.architecture or ""
            if token == "HASH" or token.startswith("HASH:"):
                length = int(token.split(":")[1]) if ":" in token else None
                return self.dag_hash(length)
            if token.endswith("NAME") or token.endswith("VER"):
                virtual = token[:-4] if token.endswith("NAME") else token[:-3]
                virtual = virtual.lower()
                for node in self.traverse():
                    if virtual in node.provided_virtuals:
                        if token.endswith("NAME"):
                            return node.name
                        v = node.versions.concrete
                        return str(v) if v else str(node.versions)
                return ""
            raise err.SpecError("Unknown format token ${%s}" % token)

        return _re.sub(r"\$\{([A-Za-z0-9:_]+)\}", lambda m: lookup(m.group(1)), fmt)

    # -- serialization ---------------------------------------------------------------
    def to_dict(self):
        """JSON-able representation of the whole DAG.

        Nodes are listed once each (they are unique by name) with their
        parameters; edges are recorded as name lists — this is the format
        of the provenance ``spec.json`` files the installer writes
        (§3.4.3) and of the install database.
        """
        nodes = [node.to_node_dict() for node in self.traverse()]
        return {"root": self.name, "nodes": nodes}

    def to_node_dict(self):
        """JSON-able representation of this node alone (edges as names).

        One entry of :meth:`to_dict`'s ``nodes`` list; also the unit the
        concretization-cache equivalence tests compare byte-for-byte.
        """
        return {
            "name": self.name,
            "versions": str(self.versions),
            "compiler": str(self.compiler) if self.compiler else None,
            "variants": dict(self.variants),
            "architecture": self.architecture,
            "external": self.external,
            "provided_virtuals": sorted(self.provided_virtuals),
            "dependencies": {
                name: sorted(self.dependencies.deptypes(name))
                for name in sorted(self.dependencies)
            },
            "concrete": bool(self._concrete),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec DAG written by :meth:`to_dict` (sharing preserved).

        Fields and edges are written directly, not through the
        invalidating setters: a node under construction has nothing
        cached, and its node repr is set from the fields as they are
        written.  Each distinct compiler text is parsed once (a bounded
        pool shared by the process) and each edge-type list is looked up
        in a table of the valid sets.  A concrete payload (a database
        record, a lockfile root, a persistent-cache entry) comes back
        frozen, as :meth:`freeze` leaves a DAG, ready to be shared; its
        nodes share one CompilerSpec per distinct compiler, and frozen
        nodes share one VersionList per version text (a bounded pool
        shared by the process), which like every field of a frozen node
        is never changed in place (:meth:`copy` copies both).  An
        abstract payload comes back mutable, each node owning its
        fields, with the parent back-references invalidation walks.
        """
        built = {}
        node_data = {nd["name"]: nd for nd in data["nodes"]}
        frozen = bool(node_data[data["root"]].get("concrete"))
        compilers = {}  # text -> (canonical text, the frozen nodes' CompilerSpec)

        def build(name):
            node = built.get(name)
            if node is not None:
                return node
            nd = node_data[name]
            node = built[name] = cls.__new__(cls)
            if frozen:
                versions, versions_text = _stored_versions(nd["versions"])
            else:
                versions = VersionList(nd["versions"])
                versions_text = str(versions)
            node._init_empty(versions)
            node._frozen = frozen
            node._p_name = nd["name"]
            compiler_text = ""
            if nd["compiler"]:
                entry = compilers.get(nd["compiler"])
                if entry is None:
                    entry = compilers[nd["compiler"]] = _stored_compiler(
                        nd["compiler"])
                compiler_text, cspec = entry
                node._p_compiler = cspec if frozen else cspec.copy()
            variants = nd["variants"]
            dict.update(node._p_variants, variants)
            node._p_architecture = nd["architecture"]
            node._p_external = nd["external"]
            node._nrepr = (
                node._p_name or "", versions_text, compiler_text,
                tuple(sorted(variants.items())), node._p_architecture or "",
                node._p_external or "",
            )
            virtuals = nd["provided_virtuals"]
            if not frozen:
                node.provided_virtuals = set(virtuals)
            else:
                node.provided_virtuals = (
                    frozenset(virtuals) if virtuals else _NO_VIRTUALS)
            deps = nd["dependencies"]
            typed = isinstance(deps, dict)  # legacy list form: build+link
            for dep_name in sorted(deps) if typed else deps:
                child = build(dep_name)
                dict.__setitem__(node.dependencies, dep_name, child)
                node.dependencies._edge_types[dep_name] = (
                    _stored_deptypes(deps[dep_name]) if typed else _DEFAULT_EDGE
                )
                if not frozen:
                    child._register_parent(node)
            node._concrete = node._normal = bool(nd.get("concrete"))
            return node

        root = build(data["root"])
        if frozen:
            root.dag_hash()  # cached, as freeze() does
        return root

    # -- misc ---------------------------------------------------------------------
    def tree(self, indent=2):
        """Indented multi-line rendering of the DAG (CLI ``spec`` output)."""
        lines = []
        for d, node in self.traverse(depth=True):
            lines.append("%s%s" % (" " * (indent * d), node.node_str()))
        return "\n".join(lines)


def _stored_compiler(text):
    """(canonical text, a new CompilerSpec) for a stored compiler text,
    parsed once per distinct text (:data:`_STORED_COMPILERS`)."""
    parsed = _STORED_COMPILERS.get(text)
    if parsed is None:
        cspec = CompilerSpec(text)
        parsed = _STORED_COMPILERS.put(
            text, (cspec.name, tuple(cspec.versions), str(cspec))
        )
    name, constraints, canonical = parsed
    cspec = CompilerSpec.__new__(CompilerSpec)
    cspec.name = name
    cspec.versions = VersionList()
    cspec.versions.constraints = list(constraints)
    return canonical, cspec


def _stored_versions(text):
    """(the shared VersionList, its canonical text) for a stored version
    text, parsed once per distinct text (:data:`_STORED_VERSIONS`)."""
    stored = _STORED_VERSIONS.get(text)
    if stored is None:
        versions = VersionList(text)
        stored = _STORED_VERSIONS.put(text, (versions, str(versions)))
    return stored


def _stored_deptypes(types):
    """The canonical frozenset for a stored edge-type list: a table
    lookup for the sorted lists ``to_dict`` writes, a validating parse
    for anything else."""
    canonical = _EDGE_TYPES.get(tuple(types)) if isinstance(types, list) else None
    return canonical if canonical is not None else canonical_deptype(types)
