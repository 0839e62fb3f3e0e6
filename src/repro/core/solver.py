"""Optimizing solver concretization: full choice-space search.

The greedy algorithm (§3.4) commits to the first policy choice; §4.5
leaves a search past its dead ends for future work, and a search over
*virtual provider* assignments alone is the obvious first cut.  Real
Spack eventually replaced both with one optimizing ASP solver ("Using
Answer Set Programming for HPC Dependency Solving", PAPERS.md) because
dead ends also hide behind version pins, variant defaults, and compiler
conflicts, and because "a" solution is not the same thing as the *best*
solution.  :class:`SolverConcretizer` is that step in this codebase's
model:

**Choice space.**  From the abstract request it statically derives the
decision variables: one per reachable virtual interface (which
provider), per reachable package (which declared version), per declared
boolean variant (keep or flip the default), and per reachable package's
compiler (which registered toolchain).  Index 0 of every domain means
"leave it to greedy policy" — the all-defaults assignment *is* the
greedy concretization — so the search explores *deviations* from
policy, most-preferred first.

**Evaluation.**  Every assignment is complete: forced choices are merged
into the abstract spec (a forced provider becomes a ``^provider``
dependency; versions, variants and compilers become ``@version``,
``+variant`` and ``%compiler`` constraints) and one greedy fixed-point
pass fills in everything unforced.  One assignment = one attempt.

**Conflict-driven nogood learning.**  When a pass fails, the typed
error's message names the packages involved; the solver intersects that
set with each variable's static *influence closure* (the packages a
choice can possibly constrain) and records the minimal conflicting
assignment prefix — the influencing variables at their failing values —
as a *nogood*.  Any later assignment that agrees with a nogood on every
recorded variable is skipped without a concretization pass; those skips
are the search's backjumps (the whole conflicting region of the
enumeration is jumped over at once).

**Branch and bound.**  Assignments are enumerated best-first by a lower
bound on the weighted objective (below).  Every evaluated success is
scored exactly; the incumbent is replaced only by a strictly better
score.  The loop stops when the cheapest unexplored lower bound is no
better than the incumbent — at that point every unexplored assignment
is provably no better, so the solution returned is the best-scoring
consistent one, not merely the first found.  (With an exhausted attempt
budget the incumbent is still returned, flagged not-proven via
``last_proven_optimal``.)  Constraints in the *request itself* (a
``%compiler`` pin, an ``@version`` range, a ``+variant`` flip) force
the same minimum cost on every solution; that floor is charged to the
root bound up front and deducted from the affected variables' cost
vectors, so a pinned request converges as fast as a bare one instead
of exploring every deviation cheaper than the unavoidable cost.

**Objective** (lower is better; one integer)::

    W_STEP     * version-preference distance        (per node)
    W_STEP     * flipped-variant count              (per node/variant)
    W_STEP     * compiler global preference rank  } per node whose
    W_CDEP     + heterogeneity base cost          } compiler deviates
    W_PROVIDER * provider preference rank           (per virtual)
    W_REUSE    * nodes NOT already installed        (minimal change)

``W_PROVIDER`` is deliberately far below ``W_STEP`` so the entire
provider sub-space — the §4.5 hwloc case's space — is searched before
any single version/variant/compiler deviation: a provider-only rescue
costs a provider-only search's attempts, and the solver then keeps
going.  ``W_REUSE`` is far below everything else, so reuse of installed
specs (the ``Database`` handed in at construction) breaks ties among
equally-preferred solutions without ever overriding an explicit
preference.

A consequence worth naming: the solver is hash-identical to greedy
exactly when greedy's answer is *optimal* — the all-defaults
assignment is evaluated first and wins every tie.  On a
preference-aligned universe that is every greedy success.  But greedy
is myopic: a preferred provider can drag in a version downgrade
(``W_STEP``) that a cheap provider deviation (``W_PROVIDER``) avoids,
and there the solver returns a strictly better-scoring different DAG.
The differential oracle classifies that case as a benign
``improvement`` — it is the reason real Spack replaced greedy with an
optimizing solver — while same-score hash mismatches remain hard
divergences.

Telemetry: a ``solver.search`` span per concretization plus
``solver.attempts`` / ``solver.nogoods`` / ``solver.backjumps``
counters feeding the observatory.
"""

import heapq

from repro.core.concretizer import ConcretizationError, Concretizer
from repro.spec.errors import SpecError
from repro.spec.spec import CompilerSpec, Spec
from repro.version import Version

#: weight of one preference-distance step (versions, variants, and
#: compiler global rank) — the dominant term
W_STEP = 1000000
#: base cost of any node whose compiler deviates from what policy would
#: inherit (keeps DAGs single-toolchain unless a conflict forces it)
W_CDEP = 100000
#: weight of one provider-preference rank step; small enough that the
#: whole provider space is explored before any non-provider deviation
W_PROVIDER = 10000
#: weight of one not-installed node; must stay below every other weight
#: times any realistic DAG size, so reuse only ever breaks ties
W_REUSE = 1


class SolverLimitError(ConcretizationError):
    def __init__(self, spec, attempts):
        super().__init__(
            "Solver found no consistent configuration for %s in %d attempts"
            % (spec, attempts)
        )


class _Variable:
    """One decision: a key, a forcing domain, and per-index bound costs.

    ``domain[0]`` is always None ("greedy decides"); ``domain[i >= 1]``
    is a constraint Spec merged into the candidate.  ``costs[i]`` is the
    assignment's *lower bound* contribution — exact whenever the forced
    choice is actually used, and never above the true objective term (the
    branch-and-bound soundness requirement).
    """

    __slots__ = ("key", "target", "domain", "costs", "influence")

    def __init__(self, key, target, domain, costs, influence):
        self.key = key
        self.target = target        # package name the force applies to
        self.domain = domain        # [None, Spec, Spec, ...]
        self.costs = costs          # [0, int, int, ...]
        self.influence = influence  # frozenset of package/virtual names

    def __repr__(self):
        return "_Variable(%r, |%d|)" % (self.key, len(self.domain))


class SolverConcretizer(Concretizer):
    """Branch-and-bound CDCL-style search over the full choice space."""

    #: the reuse objective reads ``database`` (only its ``query()``)
    reuses_installed = True

    def __init__(self, *args, max_attempts=256, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_attempts = max_attempts
        #: introspection: the last concretize() call's search statistics
        self.last_attempts = 0
        self.last_nogoods = 0
        self.last_backjumps = 0
        self.last_score = None
        self.last_proven_optimal = False
        self.last_deviations = {}
        self._rank_memo = {}

    # -- public API ---------------------------------------------------------
    def concretize(self, abstract_spec):
        if isinstance(abstract_spec, str):
            abstract_spec = Spec(abstract_spec)
        if abstract_spec.name is None:
            raise ConcretizationError("Cannot concretize an anonymous spec")
        if self.telemetry is not None and self.telemetry.enabled:
            with self.telemetry.span(
                "solver.search", spec=str(abstract_spec)
            ) as span:
                concrete = self._solve(abstract_spec)
                span.set(
                    attempts=self.last_attempts,
                    nogoods=self.last_nogoods,
                    backjumps=self.last_backjumps,
                    score=self.last_score,
                    proven_optimal=self.last_proven_optimal,
                )
                return concrete
        return self._solve(abstract_spec)

    # -- objective ----------------------------------------------------------
    def score(self, concrete):
        """The weighted objective of a concrete DAG (lower is better).

        Pure function of the DAG, the package universe, and the policy
        stack — the oracle uses it to score *other* concretizers'
        answers on the same scale.
        """
        cost = 0
        installed = self._installed_hashes()
        root = concrete
        for node in concrete.traverse():
            if not self.repo.exists(node.name):
                continue
            cls = self.repo.get_class(node.name)
            order = self._version_preference(node.name, cls)
            v = node.versions.concrete
            if v is not None and v in order:
                cost += order.index(v) * W_STEP
            for vname in sorted(node.provided_virtuals):
                ranks = self._provider_ranks(vname)
                cost += ranks.get(node.name, 0) * W_PROVIDER
            cost += self._compiler_cost(node, root, cls)
            for vname, variant in cls.variants.items():
                if vname in node.variants and bool(
                    node.variants[vname]
                ) != bool(self.policy.choose_variant(node.name, variant)):
                    cost += W_STEP
            if node.dag_hash() not in installed:
                cost += W_REUSE
        return cost

    def _compiler_cost(self, node, root, cls):
        """0 when the node carries the compiler policy would give it;
        otherwise a heterogeneity base plus the global preference rank."""
        requirements = self._active_compiler_requirements(node, cls)
        default = self._default_compiler(
            root.compiler if node is not root else None, requirements
        )
        actual = str(node.compiler)
        if default is not None and actual == default:
            return 0
        ranked = self._ranked_compilers()
        rank = ranked.index(actual) if actual in ranked else len(ranked)
        return W_CDEP + rank * W_STEP

    def _default_compiler(self, parent_compiler, requirements):
        from repro.compilers.registry import CompilerError

        try:
            cspec = self.policy.choose_compiler(
                self.compilers, parent_compiler, requirements=requirements
            )
            if cspec is None:
                return None
            best = self.policy.choose_compiler_version(
                self.compilers, cspec, requirements=requirements
            )
        except CompilerError:
            return None
        return "%s@%s" % (best.name, best.version)

    # -- preference rankings (memoized per universe state) ------------------
    def _version_preference(self, name, cls):
        """Declared versions, most policy-preferred first."""
        memo_key = ("version", name)
        cached = self._rank_memo.get(memo_key)
        if cached is not None:
            return cached
        declared = sorted(cls.versions, reverse=True)
        preferred = []
        for entry in self.config.preferred_versions(name):
            pv = Version(str(entry))
            for v in declared:
                if v.satisfies(pv) and v not in preferred:
                    preferred.append(v)
        checksummed = [
            v for v in declared
            if cls.versions[v].get("checksum") and v not in preferred
        ]
        rest = [v for v in declared if v not in preferred and v not in checksummed]
        order = preferred + checksummed + rest
        self._rank_memo[memo_key] = order
        return order

    def _provider_ranks(self, vname):
        """{provider name: policy preference rank} for one virtual."""
        memo_key = ("provider", vname)
        cached = self._rank_memo.get(memo_key)
        if cached is not None:
            return cached
        candidates = self.provider_index.providers_for(Spec(name=vname))
        ordered = self.policy.order_providers(vname, candidates)
        names = list(dict.fromkeys(c.name for c in ordered))
        ranks = {n: i for i, n in enumerate(names)}
        self._rank_memo[memo_key] = ranks
        return ranks

    def _ranked_compilers(self):
        """Registered compilers as ``name@version`` strings, most
        policy-preferred first: config ``compiler_order`` entries resolve
        to their best registered match, everything else follows by name,
        newest first."""
        cached = self._rank_memo.get("compilers")
        if cached is not None:
            return cached
        ranked = []
        for entry in self.config.compiler_order():
            matches = self.compilers.compilers_for(CompilerSpec(entry))
            if matches:
                best = matches[-1]
                text = "%s@%s" % (best.name, best.version)
                if text not in ranked:
                    ranked.append(text)
        newest_first = sorted(
            self.compilers.all_compilers(), key=lambda c: c.version, reverse=True
        )
        for compiler in sorted(newest_first, key=lambda c: c.name):
            text = "%s@%s" % (compiler.name, compiler.version)
            if text not in ranked:
                ranked.append(text)
        self._rank_memo["compilers"] = ranked
        return ranked

    def _installed_hashes(self):
        if self.database is None:
            return frozenset()
        try:
            records = self.database.query()
        except Exception:  # noqa: BLE001 — reuse is best-effort advice
            return frozenset()
        hashes = set()
        for record in records:
            for node in record.spec.traverse():
                hashes.add(node.dag_hash())
        return frozenset(hashes)

    # -- choice-space derivation --------------------------------------------
    def _reachable(self, roots):
        """(packages, virtuals) statically reachable from ``roots`` —
        conditional dependencies and every provider over-approximated."""
        packages, virtuals = set(), set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in packages or name in virtuals:
                continue
            if self._is_virtual(name):
                virtuals.add(name)
                for provider in self.provider_index.providers_for(Spec(name=name)):
                    stack.append(provider.name)
                continue
            if not self.repo.exists(name):
                continue
            packages.add(name)
            stack.extend(self.repo.get_class(name).dependencies)
        return packages, virtuals

    def _influence(self, name):
        """The closure a choice at ``name`` can possibly constrain."""
        memo_key = ("influence", name)
        cached = self._rank_memo.get(memo_key)
        if cached is None:
            packages, virtuals = self._reachable([name])
            cached = frozenset(packages | virtuals | {name})
            self._rank_memo[memo_key] = cached
        return cached

    def _choice_variables(self, abstract_spec):
        """Decision variables for one request, deterministically ordered:
        providers first (cheap ranks — the provider sub-space), then
        versions, variants, and compilers."""
        roots = [abstract_spec.name]
        roots.extend(sorted(abstract_spec.flat_dependencies()))
        packages, virtuals = self._reachable(roots)

        variables = []
        for vname in sorted(virtuals):
            ranks = self._provider_ranks(vname)
            names = sorted(ranks, key=ranks.get)
            if len(names) < 2:
                continue
            domain = [None] + [Spec(name=n) for n in names[1:]]
            costs = [0] + [i * W_PROVIDER for i in range(1, len(names))]
            influence = frozenset().union(
                {vname}, *(self._influence(n) for n in names)
            )
            variables.append(_Variable(
                ("provider", vname), None, domain, costs, influence,
            ))

        for pname in sorted(packages):
            cls = self.repo.get_class(pname)
            order = self._version_preference(pname, cls)
            if len(order) > 1:
                domain = [None] + [
                    Spec("%s@%s" % (pname, v)) for v in order[1:]
                ]
                costs = [0] + [i * W_STEP for i in range(1, len(order))]
                variables.append(_Variable(
                    ("version", pname), pname, domain, costs,
                    self._influence(pname),
                ))

        for pname in sorted(packages):
            cls = self.repo.get_class(pname)
            for vname, variant in sorted(cls.variants.items()):
                default = bool(self.policy.choose_variant(pname, variant))
                flip = "~" if default else "+"
                variables.append(_Variable(
                    ("variant", pname, vname), pname,
                    [None, Spec("%s%s%s" % (pname, flip, vname))],
                    [0, W_STEP], self._influence(pname),
                ))

        ranked = self._ranked_compilers()
        if len(ranked) > 1:
            for pname in sorted(packages):
                if pname == abstract_spec.name:
                    # ranked[0] is the root's static default: forcing it
                    # is a no-op, so the domain starts at ranked[1]
                    options = ranked[1:]
                    costs = [0] + [
                        W_CDEP + (i + 1) * W_STEP for i in range(len(options))
                    ]
                else:
                    # a dependency's default is inherited from the root,
                    # so even ranked[0] can be a real deviation
                    options = ranked
                    costs = [0] + [
                        W_CDEP + i * W_STEP for i in range(len(options))
                    ]
                domain = [None] + [
                    Spec("%s%%%s" % (pname, text)) for text in options
                ]
                variables.append(_Variable(
                    ("compiler", pname), pname, domain, costs,
                    self._influence(pname),
                ))
        return variables

    def _request_floor(self, abstract_spec, variables):
        """The cost every solution of this request must pay, per variable.

        A request constraint (``@version`` range, ``+variant`` flip,
        ``%compiler`` pin) forces a deviation on *every* consistent
        solution — strict request satisfaction is part of the contract —
        so the minimum cost it implies is a true lower bound on the
        final score.  Returns ``(floor, shifted)`` where ``floor`` is
        the summed minimum and ``shifted`` replaces each affected
        variable's cost vector with its excess over that minimum:
        seeding the search bound with ``floor`` keeps bounds admissible
        while letting the incumbent-vs-bound break fire as early on a
        pinned request as on a bare one.

        Only provably-forced costs are charged; anything uncertain (a
        dependency's compiler pin the root may inherit for free, a
        package whose ``compiler_requirements`` can shift its default)
        contributes zero — the floor under-approximates, never over.
        """
        nodes = {abstract_spec.name: abstract_spec}
        nodes.update(abstract_spec.flat_dependencies())
        floor = 0
        shifted = []
        for variable in variables:
            node = nodes.get(variable.target)
            minimum = 0
            if node is not None:
                kind = variable.key[0]
                if kind == "version" and node.versions:
                    minimum = self._version_floor(variable, node)
                elif kind == "variant":
                    minimum = self._variant_floor(variable, node)
                elif kind == "compiler" and node.compiler is not None:
                    minimum = self._compiler_floor(
                        variable, node, node is abstract_spec
                    )
            if minimum:
                floor += minimum
                variable = _Variable(
                    variable.key, variable.target, variable.domain,
                    [max(0, cost - minimum) for cost in variable.costs],
                    variable.influence,
                )
            shifted.append(variable)
        return floor, shifted

    def _version_floor(self, variable, node):
        cls = self.repo.get_class(variable.target)
        order = self._version_preference(variable.target, cls)
        ranks = [
            i for i, v in enumerate(order) if v.satisfies(node.versions)
        ]
        return min(ranks) * W_STEP if ranks else 0

    def _variant_floor(self, variable, node):
        vname = variable.key[2]
        if vname not in node.variants:
            return 0
        cls = self.repo.get_class(variable.target)
        default = bool(self.policy.choose_variant(
            variable.target, cls.variants[vname]
        ))
        return W_STEP if bool(node.variants[vname]) != default else 0

    def _compiler_floor(self, variable, node, is_root):
        # a dependency inherits the root's compiler: its pin may end up
        # free, so only the root's pin provably costs anything — and only
        # when no feature requirement can shift the static default
        cls = self.repo.get_class(variable.target)
        if not is_root or getattr(cls, "compiler_requirements", None):
            return 0
        default = self._default_compiler(None, ())
        if default is not None and CompilerSpec(default).satisfies(
            node.compiler
        ):
            return 0
        candidates = [
            variable.costs[i]
            for i, choice in enumerate(variable.domain)
            if choice is not None
            and choice.compiler.satisfies(node.compiler)
        ]
        return min(candidates) if candidates else 0

    # -- candidate materialization ------------------------------------------
    def _materialize(self, abstract_spec, variables, assignment):
        """Merge every forced choice into a copy of the request."""
        candidate = abstract_spec.copy()
        for position, index in sorted(assignment.items()):
            variable = variables[position]
            force = variable.domain[index]
            flat = candidate.flat_dependencies()
            if force.name == candidate.name:
                candidate.constrain(force, deps=False)
            elif force.name in flat:
                flat[force.name].constrain(force, deps=False)
            else:
                candidate._add_dependency(force.copy())
        return candidate

    # -- conflict analysis --------------------------------------------------
    def _conflict_prefix(self, error, variables, assignment):
        """The minimal conflicting assignment prefix for a failed pass.

        The typed error's text names the packages involved; only the
        variables whose influence closure meets that set can have caused
        the failure, so the nogood records exactly those variables at
        their failing indices (unassigned = 0).  When nothing can be
        attributed the whole assignment is recorded — a weaker nogood
        that only prunes exact repeats.
        """
        text = str(error)
        long_message = getattr(error, "long_message", None)
        if long_message:
            text += " " + str(long_message)
        mentioned = {
            name
            for variable in variables
            for name in variable.influence
            if name in text
        }
        involved = [
            position
            for position, variable in enumerate(variables)
            if variable.influence & mentioned
        ]
        if not involved or not mentioned:
            involved = range(len(variables))
        return frozenset(
            (position, assignment.get(position, 0)) for position in involved
        )

    @staticmethod
    def _subsumed(nogood, assignment):
        return all(
            assignment.get(position, 0) == index for position, index in nogood
        )

    # -- the search ----------------------------------------------------------
    def _count(self, name):
        if self.telemetry is not None:
            self.telemetry.count("solver." + name)

    def _solve(self, abstract_spec):
        self.last_attempts = 0
        self.last_nogoods = 0
        self.last_backjumps = 0
        self.last_score = None
        self.last_proven_optimal = False
        self.last_deviations = {}

        variables = self._choice_variables(abstract_spec)
        floor, variables = self._request_floor(abstract_spec, variables)
        nogoods = []
        incumbent = None
        incumbent_score = None
        last_error = None

        # Best-first over assignment vectors.  Each heap entry is a
        # complete candidate (unassigned variables default to greedy);
        # children bump one variable at or past the frontier, so every
        # vector is generated exactly once and bounds grow monotonically.
        counter = 0
        heap = [(floor, 0, {}, 0)]
        pop_budget = max(1024, self.max_attempts * 64)

        while heap:
            bound, _, assignment, frontier = heapq.heappop(heap)
            pop_budget -= 1
            if incumbent_score is not None and bound >= incumbent_score:
                self.last_proven_optimal = True
                break
            if pop_budget <= 0 or self.last_attempts >= self.max_attempts:
                if incumbent is None:
                    raise SolverLimitError(abstract_spec, self.last_attempts)
                break

            skip = any(self._subsumed(ng, assignment) for ng in nogoods)
            if skip:
                self.last_backjumps += 1
                self._count("backjumps")
            else:
                self.last_attempts += 1
                self._count("attempts")
                try:
                    candidate = self._materialize(
                        abstract_spec, variables, assignment
                    )
                    concrete = self._fixed_point(candidate)
                except (ConcretizationError, SpecError) as e:
                    last_error = e
                    nogoods.append(
                        self._conflict_prefix(e, variables, assignment)
                    )
                    self.last_nogoods += 1
                    self._count("nogoods")
                else:
                    found = self.score(concrete)
                    if incumbent_score is None or found < incumbent_score:
                        incumbent = concrete
                        incumbent_score = found
                        self.last_deviations = {
                            variables[position].key: index
                            for position, index in assignment.items()
                        }

            for position in range(frontier, len(variables)):
                variable = variables[position]
                next_index = assignment.get(position, 0) + 1
                if next_index >= len(variable.domain):
                    continue
                child = dict(assignment)
                child[position] = next_index
                child_bound = (
                    bound
                    - variable.costs[next_index - 1]
                    + variable.costs[next_index]
                )
                if incumbent_score is not None and child_bound >= incumbent_score:
                    continue
                counter += 1
                heapq.heappush(heap, (child_bound, counter, child, position))
        else:
            # heap ran dry: the whole bounded space was explored
            if incumbent is not None:
                self.last_proven_optimal = True

        if incumbent is None:
            raise ConcretizationError(
                "All %d explored assignments for %s are inconsistent"
                % (self.last_attempts, abstract_spec),
                long_message="last failure: %s" % last_error,
            )
        self.last_score = incumbent_score
        return incumbent
