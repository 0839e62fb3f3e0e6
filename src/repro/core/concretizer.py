"""The greedy, fixed-point concretization algorithm (paper §3.4, Figure 6).

Pipeline per iteration (repeated until nothing changes):

1. **Expand dependencies** — walk every node's package file, evaluate each
   ``depends_on`` whose ``when`` predicate is *guaranteed* by the node's
   current constraints (strict containment — a predicate on a parameter
   that is still open does not fire until the parameter is fixed), and
   merge the declared constraints into the DAG.  Nodes are unique per
   name, so constraints from different dependents intersect on one node —
   conflicting requirements surface here as UnsatisfiableSpecErrors.
2. **Resolve virtuals** — replace interface nodes (``mpi``) with provider
   nodes chosen from the :class:`~repro.repo.ProviderIndex`; an existing
   DAG node that can provide the interface (e.g. a user-supplied
   ``^mvapich2``) always wins, otherwise site/user provider preferences
   order the candidates.
3. **Concretize parameters** — fix versions, compilers, compiler
   versions, variants, and architectures from policies.  Setting a
   parameter can make new ``when`` predicates fire, so the cycle repeats
   (the paper's ``+mpi`` example).

The algorithm is greedy: no backtracking.  If the first policy-preferred
choice leads to a contradiction the user gets an error and resolves it by
being more explicit (§4.5's ``hwloc`` example is a test case).
"""

from repro.compilers.registry import CompilerFeatureError
from repro.errors import ReproError
from repro.spec.errors import UnknownVariantError, UnsatisfiableSpecError
from repro.spec.spec import Spec
from repro.version import Version, VersionList
from repro.core.policies import DefaultPolicy


class ConcretizationError(ReproError):
    """Concretization could not produce a concrete spec."""


class UnknownPackageError(ConcretizationError):
    def __init__(self, name, context=None):
        message = "Unknown package %r" % name
        if context:
            message += " (required by %s)" % context
        super().__init__(message)
        self.name = name


class NoSatisfyingVersionError(ConcretizationError):
    def __init__(self, name, constraint):
        super().__init__(
            "Package %r has no declared version satisfying @%s" % (name, constraint)
        )


class NoBuildableProviderError(ConcretizationError):
    def __init__(self, virtual_spec):
        super().__init__(
            "No provider satisfies virtual dependency %s" % virtual_spec,
            long_message="Force a provider with ^<package>, or relax the "
            "constraints on %s." % virtual_spec.name,
        )


class CyclicDependencyError(ConcretizationError):
    def __init__(self, cycle):
        super().__init__(
            "Circular dependency detected: %s" % " -> ".join(cycle)
        )


class ConflictError(ConcretizationError):
    """A concretized node hit a package's declared ``conflicts()``."""


#: Safety bound on fixed-point iterations; real DAGs converge in a handful.
MAX_ITERATIONS = 128


class Concretizer:
    """Turns abstract specs into concrete ones against a package universe.

    Parameters
    ----------
    repo : RepoPath or Repository
    provider_index : ProviderIndex
    compilers : CompilerRegistry
    config : Config
    policy : DefaultPolicy, optional
        Site-customizable decision rules.
    database : Database, optional
        Installed specs, for concretizers that prefer reusing them
        (:attr:`reuses_installed`); the greedy pass ignores it.
    """

    #: whether the answer depends on ``database`` (what is installed);
    #: the concretization cache then keys on the installed set too
    reuses_installed = False

    def __init__(self, repo, provider_index, compilers, config, policy=None,
                 trace=None, telemetry=None, database=None):
        self.repo = repo
        self.provider_index = provider_index
        self.compilers = compilers
        self.config = config
        self.policy = policy or DefaultPolicy(config)
        self.database = database
        #: optional callback(event: dict) observing the Figure 6 pipeline
        self.trace = trace
        #: optional session Telemetry hub; pipeline stages become
        #: ``concretize.<stage>`` events (same payloads as ``trace``)
        self.telemetry = telemetry

    def _observing(self):
        """True when some observer will actually see emitted events.

        Hot call sites check this *before* building event payloads —
        rendering specs and sorting node names is far more expensive
        than the emit itself, and must cost nothing when nobody
        listens (see benchmarks/bench_telemetry_overhead.py).
        """
        return self.trace is not None or (
            self.telemetry is not None and self.telemetry.enabled
        )

    def _emit(self, kind, **data):
        if self.trace is not None:
            self.trace(dict(data, event=kind))
        if self.telemetry is not None:
            self.telemetry.event("concretize." + kind, **data)

    # -- public API ----------------------------------------------------------
    def concretize(self, abstract_spec):
        """Return a new, fully concrete Spec satisfying ``abstract_spec``."""
        if isinstance(abstract_spec, str):
            abstract_spec = Spec(abstract_spec)
        if abstract_spec.name is None:
            raise ConcretizationError("Cannot concretize an anonymous spec")
        if self.telemetry is not None and self.telemetry.enabled:
            with self.telemetry.span("concretize", spec=str(abstract_spec)) as span:
                concrete = self._fixed_point(abstract_spec)
                span.set(nodes=len(list(concrete.traverse())))
                return concrete
        return self._fixed_point(abstract_spec)

    def _fixed_point(self, abstract_spec):
        spec = abstract_spec.copy()
        # Remember which compilers the *user* pinned: a defaulted compiler
        # may be silently re-chosen if a feature requirement (§4.5)
        # activates later; an explicit one may not.
        for node in spec.traverse():
            node._explicit_compiler = node.compiler is not None
        # (compiler, requirements) -> best registered compiler: the
        # registry cannot change during one concretization
        compiler_choices = {}

        for iteration in range(MAX_ITERATIONS):
            changed = self._expand_dependencies(spec)
            if self._observing():
                self._emit("expand", iteration=iteration, changed=changed,
                           nodes=sorted(n.name for n in spec.traverse()))
            virtual_changed = self._resolve_virtuals(spec)
            changed |= virtual_changed
            param_changed = self._concretize_parameters(spec, compiler_choices)
            changed |= param_changed
            if self._observing():
                self._emit("iteration", iteration=iteration, changed=changed)
            if not changed:
                break
        else:
            raise ConcretizationError(
                "Concretization of %s did not converge after %d iterations"
                % (abstract_spec, MAX_ITERATIONS)
            )

        self._prune_constraint_edges(spec)
        self._stamp_edge_deptypes(spec)
        self._check_cycles(spec)
        self._validate(spec)
        self._stamp_concrete(spec)
        return spec

    # -- helpers ------------------------------------------------------------------
    def _is_virtual(self, name):
        return not self.repo.exists(name) and self.provider_index.is_virtual(name)

    def _nodes(self, spec):
        return {node.name: node for node in spec.traverse()}

    # -- stage 1: dependency expansion ------------------------------------------------
    def _expand_dependencies(self, spec):
        changed = False
        nodes = self._nodes(spec)
        for node in list(nodes.values()):
            if not self.repo.exists(node.name):
                continue  # virtual or unknown; handled elsewhere
            cls = self.repo.get_class(node.name)
            for dep_name, constraints in cls.dependencies.items():
                for dc in constraints:
                    if dc.when is not None and not node.satisfies(dc.when, strict=True):
                        continue
                    changed |= self._merge_dependency(spec, nodes, node, dep_name, dc.spec)
        return changed

    def _merge_dependency(self, spec, nodes, parent, dep_name, constraint):
        """Ensure ``parent`` has an edge to the canonical ``dep_name`` node,
        merged with ``constraint``.  A concrete package already in the DAG
        that *provides* a virtual ``dep_name`` satisfies the edge."""
        changed = False

        # A virtual dependency may already be resolved: some DAG node
        # provides it.  Repoint the edge rather than re-adding the virtual.
        if self._is_virtual(dep_name):
            for candidate in nodes.values():
                if dep_name in candidate.provided_virtuals:
                    if parent.dependencies.get(candidate.name) is not candidate:
                        parent.dependencies[candidate.name] = candidate
                        changed = True
                    return changed

        target = nodes.get(dep_name)
        if target is None:
            target = Spec(name=dep_name)
            nodes[dep_name] = target
            changed = True
        if parent.dependencies.get(dep_name) is not target:
            existing = parent.dependencies.get(dep_name)
            if existing is not None and existing is not target:
                target.constrain(existing, deps=False)
            parent.dependencies[dep_name] = target
            changed = True
        try:
            changed |= target.constrain(constraint, deps=False)
            if constraint.compiler is not None:
                target._explicit_compiler = True
        except UnsatisfiableSpecError as e:
            raise ConcretizationError(
                "Conflicting constraints on %r (while expanding dependencies "
                "of %r): %s" % (dep_name, parent.name, e)
            ) from e
        # depends_on('a ^b@2') style nested constraints apply to the DAG too.
        for sub_name, sub in constraint.dependencies.items():
            changed |= self._merge_dependency(spec, nodes, target, sub_name, sub)
        return changed

    # -- stage 2: virtual resolution ---------------------------------------------------
    def _resolve_virtuals(self, spec):
        changed = False
        nodes = self._nodes(spec)
        for name, vnode in list(nodes.items()):
            if not self._is_virtual(name):
                continue
            # A package may both provide an interface and (conditionally)
            # depend on it; it can never provide it to *itself*.
            dependents = {
                n.name
                for n in nodes.values()
                if n.dependencies.get(name) is vnode
            }
            chosen = self._choose_provider(vnode, nodes, exclude=dependents)
            self._swap_virtual(spec, vnode, chosen)
            chosen.provided_virtuals.add(name)
            if self._observing():
                self._emit("virtual-resolved", virtual=str(vnode),
                           provider=chosen.name)
            nodes = self._nodes(spec)
            changed = True
        return changed

    def _choose_provider(self, vnode, nodes, exclude=frozenset()):
        """Pick (or reuse) the provider node for a virtual node."""
        candidates = [
            c
            for c in self.provider_index.providers_for(vnode)
            if c.name not in exclude
        ]
        if not candidates:
            raise NoBuildableProviderError(vnode)
        ordered = self.policy.order_providers(vnode.name, candidates)

        # Nodes already in the DAG whose package *could* provide this
        # virtual (a user-forced ^mvapich2, or a provider pulled in by
        # another dependent) take precedence over policy...
        forced = [
            n
            for n in nodes.values()
            if n is not vnode
            and self.repo.exists(n.name)
            and any(
                p.spec.name == vnode.name
                for p in self.repo.get_class(n.name).provided
            )
        ]
        if forced:
            for candidate in ordered:
                for existing in forced:
                    if existing.name == candidate.name and existing.intersects(candidate):
                        existing.constrain(candidate, deps=False)
                        return existing
            # ...but a forced provider that cannot satisfy the constraint
            # is a conflict the user must resolve (§3.4: "Spack will stop
            # and notify the user"), not something to silently route around.
            raise ConcretizationError(
                "%s cannot provide %s (required constraints conflict)"
                % (", ".join(sorted(n.name for n in forced)), vnode)
            )

        for candidate in ordered:
            fresh = Spec(name=candidate.name)
            try:
                fresh.constrain(candidate, deps=False)
                return fresh
            except UnsatisfiableSpecError:
                continue
        raise NoBuildableProviderError(vnode)

    def _swap_virtual(self, spec, vnode, provider):
        """Repoint every edge aimed at ``vnode`` to ``provider``."""
        for node in spec.traverse():
            if node.dependencies.get(vnode.name) is vnode:
                del node.dependencies[vnode.name]
                node.dependencies[provider.name] = provider

    # -- stage 3: parameter concretization ------------------------------------------------
    # Parameter writes go through the Spec setters and the owned
    # VariantMap, which invalidate the node's caches as they write.
    def _concretize_parameters(self, spec, compiler_choices):
        changed = False
        root = spec
        for node in spec.traverse():
            if not self.repo.exists(node.name):
                continue
            cls = self.repo.get_class(node.name)
            changed |= self._apply_external(node)
            changed |= self._concretize_version(node, cls)
            changed |= self._concretize_compiler(node, root, cls, compiler_choices)
            changed |= self._concretize_variants(node, cls)
            changed |= self._concretize_architecture(node, root)
        return changed

    def _apply_external(self, node):
        if node.external is not None:
            return False
        external = self.config.external_for(node.name)
        if external is None:
            return False
        ext_spec_string, prefix = external
        ext_spec = Spec(ext_spec_string)
        if node.intersects(ext_spec):
            node.constrain(ext_spec, deps=False)
            node.external = prefix
            return True
        return False

    def _concretize_version(self, node, cls):
        if node.versions.concrete is not None:
            return False
        chosen = self.policy.choose_version(node.name, cls.versions, node.versions)
        if chosen is None:
            raise NoSatisfyingVersionError(node.name, node.versions)
        node.versions = VersionList([chosen])
        return True

    def _active_compiler_requirements(self, node, cls):
        """Feature requirements whose ``when`` predicate holds (§4.5)."""
        return [
            feature
            for feature, when in cls.compiler_requirements
            if when is None or node.satisfies(when, strict=True)
        ]

    def _concretize_compiler(self, node, root, cls, choices):
        changed = False
        requirements = self._active_compiler_requirements(node, cls)
        if node.compiler is None:
            parent = root.compiler if node is not root else None
            cspec = self.policy.choose_compiler(
                self.compilers, parent, requirements=requirements
            )
            if cspec is None:
                raise ConcretizationError(
                    "No registered compiler can build %s (requires %s)"
                    % (node.name, ", ".join(map(str, requirements)) or "any")
                )
            node.compiler = cspec.copy()
            changed = True
        # Always resolve through the registry: ``%gcc@4.7`` means "the
        # best *registered* gcc in the 4.7 family" (§3.2.3) that also
        # satisfies the node's feature requirements; an unregistered or
        # feature-lacking compiler is an error even for point versions.
        try:
            best = self._best_compiler(node.compiler, requirements, choices)
        except CompilerFeatureError:
            if getattr(node, "_explicit_compiler", False):
                raise
            # the defaulted compiler turned out to lack a feature that a
            # later-activated requirement needs; re-choose from scratch
            cspec = self.policy.choose_compiler(
                self.compilers, None, requirements=requirements
            )
            if cspec is None:
                raise
            node.compiler = cspec.copy()
            changed = True
            best = self._best_compiler(node.compiler, requirements, choices)
        if node.compiler.versions.concrete != best.version:
            # an in-place write to the CompilerSpec: the node cannot see it
            node.compiler.versions = VersionList([best.version])
            node.invalidate_caches()
            changed = True
        return changed

    def _best_compiler(self, cspec, requirements, choices):
        """The policy's best registered compiler for ``cspec`` under
        ``requirements``, chosen once per distinct pair in ``choices``."""
        key = (cspec.name, tuple(cspec.versions), tuple(requirements))
        best = choices.get(key)
        if best is None:
            best = choices[key] = self.policy.choose_compiler_version(
                self.compilers, cspec, requirements=requirements
            )
        return best

    def _concretize_variants(self, node, cls):
        changed = False
        for vname, variant in cls.variants.items():
            if vname not in node.variants:
                node.variants[vname] = self.policy.choose_variant(node.name, variant)
                changed = True
        return changed

    def _concretize_architecture(self, node, root):
        if node.architecture is not None:
            return False
        parent = root.architecture if node is not root else None
        node.architecture = self.policy.choose_architecture(parent)
        return True

    def _edge_justified(self, parent, child):
        """Is parent→child a *declared* relationship (directly named, or
        the child provides a virtual the parent declares)?"""
        if not self.repo.exists(parent.name):
            return False
        cls = self.repo.get_class(parent.name)
        if child.name in cls.dependencies:
            return True
        return any(v in cls.dependencies for v in child.provided_virtuals)

    def _prune_constraint_edges(self, spec):
        """Drop user constraint edges, keep only declared dependencies.

        The spec syntax lets users constrain *any* package in the DAG from
        the root (Figure 2c's ``mpileaks ... ^libelf@0.8.11`` — libelf is
        three levels down).  After normalization those constraints have
        been merged into the canonical nodes; the leftover root edges are
        not real dependencies and must not affect the DAG's hash.  A
        pruned target that is then unreachable was never a dependency at
        all — that is a user error (§3.2.3's "must only know that
        mpileaks depends on callpath" has limits: the package must be
        *somewhere* in the DAG).
        """
        from repro.spec.errors import InvalidDependencyError

        pruned = []
        for node in list(spec.traverse()):
            for name, child in list(node.dependencies.items()):
                if not self._edge_justified(node, child):
                    del node.dependencies[name]
                    pruned.append(child)
        if not pruned:
            return
        remaining = {n.name for n in spec.traverse()}
        for child in pruned:
            if child.name not in remaining:
                raise InvalidDependencyError(
                    "Package %s does not depend on %s"
                    % (spec.name, child.name)
                )

    def _stamp_edge_deptypes(self, spec):
        """Re-type every surviving edge from its package declarations.

        Edges accumulate with the default ``("build", "link")`` type
        during expansion — user ``^`` constraints, virtual-provider
        swaps, and the solver's trial providers all create
        untyped edges.  Once the DAG has converged, each parent→child
        edge's types are exactly the union of the *active* declarations
        (``when=`` satisfied) naming the child directly or through a
        virtual it provides.  Run after pruning so only justified edges
        are stamped; idempotent, so re-concretizing an already-concrete
        spec leaves hashes unchanged.
        """
        for node in spec.traverse():
            if not self.repo.exists(node.name):
                continue
            cls = self.repo.get_class(node.name)
            for name, child in node.dependencies.items():
                deptypes = frozenset()
                for dc_name in (child.name, *sorted(child.provided_virtuals)):
                    for dc in cls.dependencies.get(dc_name, ()):
                        if dc.when is not None and not node.satisfies(
                            dc.when, strict=True
                        ):
                            continue
                        deptypes |= dc.deptypes
                if deptypes:
                    node.dependencies.set_deptypes(name, deptypes)

    # -- validation -------------------------------------------------------------------------
    def _check_cycles(self, spec):
        """DFS for back edges (the tool disallows circular dependencies)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {}
        stack = []

        def visit(node):
            color[node.name] = GRAY
            stack.append(node.name)
            for child in node.dependencies.values():
                state = color.get(child.name, WHITE)
                if state == GRAY:
                    cycle = stack[stack.index(child.name):] + [child.name]
                    raise CyclicDependencyError(cycle)
                if state == WHITE:
                    visit(child)
            stack.pop()
            color[node.name] = BLACK

        visit(spec)

    def _validate(self, spec):
        for node in spec.traverse():
            if self._is_virtual(node.name):
                raise ConcretizationError(
                    "Virtual %r survived concretization of %s" % (node.name, spec)
                )
            if not self.repo.exists(node.name):
                raise UnknownPackageError(node.name, context=spec.name)
            cls = self.repo.get_class(node.name)

            for vname in node.variants:
                if vname not in cls.variants:
                    raise UnknownVariantError(node.name, vname)
            if node.versions.concrete is None:
                raise ConcretizationError(
                    "Version of %r is not concrete: @%s" % (node.name, node.versions)
                )
            if node.compiler is None or not node.compiler.concrete:
                raise ConcretizationError(
                    "Compiler of %r is not concrete" % node.name
                )
            if node.architecture is None:
                raise ConcretizationError(
                    "Architecture of %r is not set" % node.name
                )
            if not self.config.is_buildable(node.name) and node.external is None:
                raise ConcretizationError(
                    "Package %r is not buildable (site policy) and no "
                    "configured external satisfies %s" % (node.name, node)
                )
            self._validate_dependencies(node, cls)
            from repro.package.package import PackageError

            pkg = cls(node)
            try:
                pkg.validate_conflicts()
            except PackageError as e:
                # a declared conflicts() hit is a *concretization* dead
                # end — type it so the solver's search
                # (and the differential oracle) can treat it as one
                raise ConflictError(str(e)) from e

    def _validate_dependencies(self, node, cls):
        """Every active depends_on must be satisfied by the resolved edge."""
        for dep_name, constraints in cls.dependencies.items():
            for dc in constraints:
                if dc.when is not None and not node.satisfies(dc.when, strict=True):
                    continue
                if self._is_virtual(dep_name):
                    provider = next(
                        (
                            d
                            for d in node.dependencies.values()
                            if dep_name in d.provided_virtuals
                        ),
                        None,
                    )
                    if provider is None:
                        raise ConcretizationError(
                            "Virtual dependency %r of %r is unresolved"
                            % (dep_name, node.name)
                        )
                    provider_cls = self.repo.get_class(provider.name)
                    if not self.provider_index.satisfies_virtual(
                        provider, dc.spec, provider_cls
                    ):
                        raise ConcretizationError(
                            "Provider %s does not satisfy %s (needed by %s)"
                            % (provider, dc.spec, node.name)
                        )
                else:
                    dep = node.dependencies.get(dep_name)
                    if dep is None:
                        raise ConcretizationError(
                            "Dependency %r of %r missing after concretization"
                            % (dep_name, node.name)
                        )
                    if not dep.satisfies(dc.spec, strict=True):
                        raise ConcretizationError(
                            "Dependency %s does not satisfy %s (needed by %s)"
                            % (dep, dc.spec, node.name)
                        )

    def _stamp_concrete(self, spec):
        for node in spec.traverse():
            node._normal = True
            node._concrete = True
            node._hash = None
            node._rhash = None
        spec.dag_hash()
        spec.runtime_hash()
