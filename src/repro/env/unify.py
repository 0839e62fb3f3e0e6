"""The environment merge/unify engine.

An environment's roots are concretized *together*: first every root is
solved independently, in order, on the caller's thread (a solve is pure
Python under the GIL, so a thread pool only adds its own overhead),
then a merge phase reconciles the results so that any package appearing
in several root DAGs resolves to **one** concrete node (one
``dag_hash``) environment-wide, and any virtual interface resolves to
one provider.

Reconciliation is pin-and-resolve: when two roots disagree on a shared
package, each distinct concrete candidate is tried — in a deterministic
preference order — as a forced ``^pin`` constraint on every affected
root, and the first candidate every root accepts wins.  When *no*
candidate satisfies all roots, the environment is genuinely
inconsistent and :class:`EnvironmentConflictError` reports which roots
demand what, in one diagnostic.

This is the coherent-set semantics Guix-style environments argue for
(PAPERS.md: *Reproducible and User-Controlled Software Environments in
HPC*): per-root resolution that is allowed to drift is exactly where
"dependency chaos" breakage hides.
"""

from repro.errors import ReproError
from repro.spec.errors import SpecError
from repro.spec.spec import Spec


class EnvironmentConflictError(ReproError):
    """Two (or more) roots demand incompatible constraints on a shared
    package: no single concrete node can satisfy every root.

    Carries ``package`` (the contested package or virtual name) and
    ``demands`` — ``(root_text, node_str)`` pairs naming each root and
    the concrete node it insists on.
    """

    def __init__(self, package, demands, attempts=()):
        self.package = package
        self.demands = list(demands)
        lines = ["environment roots disagree on %r:" % package]
        for root_text, node in self.demands:
            lines.append("  root %r demands %s" % (root_text, node))
        for node, root_text, error in attempts:
            lines.append(
                "  candidate %s rejected: root %r failed (%s: %s)"
                % (node, root_text, type(error).__name__, error)
            )
        super().__init__(
            "cannot unify environment: no single %r satisfies every root"
            % package,
            long_message="\n".join(lines),
        )


class UnificationDivergedError(ReproError):
    """Pin-and-resolve kept uncovering new divergences past the round
    bound — the universe couples packages faster than pinning settles
    them (not observed in practice; the bound is a safety valve)."""


class _Root:
    """One abstract root plus its accumulated pins and current solve."""

    __slots__ = ("text", "pins", "concrete")

    def __init__(self, text):
        self.text = text
        self.pins = {}  # contested key -> pinned node_str
        self.concrete = None

    def request(self):
        """The abstract Spec to solve: the root text with every accepted
        pin folded in as a forced dependency constraint."""
        spec = Spec(self.text)
        for key in sorted(self.pins):
            pin = Spec(self.pins[key])
            existing = None
            if spec.name == pin.name:
                existing = spec
            else:
                existing = spec.flat_dependencies().get(pin.name)
            if existing is not None:
                existing.constrain(pin, deps=False)
            else:
                spec._add_dependency(pin.copy())
        return spec


class UnifiedEnvironment:
    """The result of :func:`unify_roots`: every root's concrete DAG,
    with shared packages resolved to identical nodes."""

    def __init__(self, roots, rounds, resolves, pins):
        #: list of (root_text, concrete Spec)
        self.roots = roots
        #: merge rounds it took to reach a coherent fixpoint
        self.rounds = rounds
        #: total per-root concretizations issued (initial + re-solves)
        self.resolves = resolves
        #: accepted reconciliation pins: {package: node_str}
        self.pins = dict(pins)

    def nodes(self):
        """{dag_hash: node} over every root DAG — the environment's
        deduplicated install set."""
        out = {}
        for _, concrete in self.roots:
            for node in concrete.traverse():
                out.setdefault(node.dag_hash(), node)
        return out

    def dag_hashes(self):
        """Sorted dag_hash list of the unified node set."""
        return sorted(self.nodes())

    def shared_packages(self):
        """{package name: root count} for packages in 2+ root DAGs."""
        counts = {}
        for _, concrete in self.roots:
            for name in {n.name for n in concrete.traverse()}:
                counts[name] = counts.get(name, 0) + 1
        return {name: n for name, n in counts.items() if n >= 2}

    def stats(self):
        return {
            "roots": len(self.roots),
            "unique_nodes": len(self.nodes()),
            "shared_packages": len(self.shared_packages()),
            "rounds": self.rounds,
            "resolves": self.resolves,
            "pins": len(self.pins),
        }


class _RootFailure(Exception):
    """Internal: one root's solve raised; carries which root and what."""

    def __init__(self, root, error):
        super().__init__(str(error))
        self.root = root
        self.error = error


def _solve_all(roots, concretize_fn):
    """Concretize every listed root, in order.  The first root whose
    request or solve fails with a typed error raises
    :class:`_RootFailure`."""
    requests = []
    for root in roots:
        try:
            requests.append((root, root.request()))
        except (SpecError, ReproError) as error:
            # a pin can contradict the root's own text (app ^dep@1.5
            # pinned to dep@2.5): that is this root rejecting the
            # candidate, reported exactly like a failed solve
            raise _RootFailure(root, error) from error
    for root, request in requests:
        try:
            root.concrete = concretize_fn(request)
        except (SpecError, ReproError) as error:
            raise _RootFailure(root, error) from error


def _divergences(roots):
    """Contested keys, in deterministic processing order.

    Returns ``[(key, contested_name, candidates, demands)]`` where
    *candidates* maps dag_hash -> (node, root_count) and *demands*
    names each root's current choice.  Two kinds of key:

    * a package name — roots hold different concrete nodes of it;
    * ``virtual:<name>`` — roots chose different provider *packages*
      for one interface (same-name grouping can't see this: the nodes
      have different names entirely).
    """
    by_name = {}
    by_virtual = {}
    for root in roots:
        for node in root.concrete.traverse():
            slot = by_name.setdefault(node.name, {})
            entry = slot.setdefault(node.dag_hash(), [node, []])
            entry[1].append(root)
            for vname in getattr(node, "provided_virtuals", ()):
                vslot = by_virtual.setdefault(vname, {})
                ventry = vslot.setdefault(node.name, [node, []])
                ventry[1].append(root)

    out = []
    for name in sorted(by_name):
        slot = by_name[name]
        if len(slot) > 1:
            out.append(("package", name, slot))
    for vname in sorted(by_virtual):
        vslot = by_virtual[vname]
        if len(vslot) > 1:
            # re-key provider candidates by dag_hash like package slots
            slot = {
                node.dag_hash(): [node, hit_roots]
                for node, hit_roots in vslot.values()
            }
            out.append(("virtual", vname, slot))
    return out


def _ordered_candidates(slot):
    """Deterministic preference order over a contested slot: majority
    choice first (fewest re-solves), then newest version (what the
    default policy would pick), then canonical text."""
    cands = [(node, len(hit_roots)) for node, hit_roots in slot.values()]
    cands.sort(key=lambda c: c[0].node_str())
    cands.sort(key=lambda c: c[0].version, reverse=True)
    cands.sort(key=lambda c: c[1], reverse=True)
    return [node for node, _ in cands]


def _affected_roots(roots, kind, name):
    """Roots whose current DAG contains the contested package (or a
    provider of the contested virtual)."""
    hit = []
    for root in roots:
        for node in root.concrete.traverse():
            if node.name == name or (
                kind == "virtual"
                and name in getattr(node, "provided_virtuals", ())
            ):
                hit.append(root)
                break
    return hit


def unify_roots(root_texts, concretize_fn, max_rounds=None):
    """Concretize many roots into one coherent environment.

    ``concretize_fn(spec) -> concrete Spec`` must be pure
    (``Session.concretize`` and ``StateSnapshot.concretize`` both
    qualify); it is called on the caller's thread, one root at a time.
    Raises :class:`EnvironmentConflictError` when roots genuinely
    conflict; per-root typed errors (unknown package, unsatisfiable
    request) propagate as-is.
    """
    texts = [str(t) for t in root_texts]
    if not texts:
        return UnifiedEnvironment([], rounds=0, resolves=0, pins={})
    roots = [_Root(text) for text in texts]
    try:
        _solve_all(roots, concretize_fn)
    except _RootFailure as failure:
        raise failure.error  # an unpinned root failed on its own terms
    resolves = len(roots)

    if max_rounds is None:
        max_rounds = 8 + 4 * len(roots)
    pins = {}
    rounds = 0
    while True:
        contested = _divergences(roots)
        if not contested:
            break
        # only *actionable* divergences are pinnable: the candidate
        # nodes must differ in their own parameters (node_str).  Nodes
        # that differ only through their dependencies converge for free
        # once the deepest divergent descendant — which by induction IS
        # actionable — gets reconciled.
        actionable = [
            entry for entry in contested
            if len({node.node_str() for node, _ in entry[2].values()}) > 1
        ]
        if not actionable:
            raise UnificationDivergedError(
                "environment divergence is not pin-reconcilable",
                long_message="contested but identical node-for-node: %s"
                % ", ".join(name for _, name, _ in contested),
            )
        rounds += 1
        if rounds > max_rounds:
            raise UnificationDivergedError(
                "environment unification did not converge after %d rounds"
                % max_rounds,
                long_message="still contested: %s"
                % ", ".join(name for _, name, _ in contested),
            )
        kind, name, slot = actionable[0]
        affected = _affected_roots(roots, kind, name)
        demands = [
            (root.text, node.node_str())
            for node, hit_roots in sorted(
                slot.values(), key=lambda e: e[0].node_str()
            )
            for root in hit_roots
        ]
        attempts = []
        accepted = False
        for candidate in _ordered_candidates(slot):
            pin_text = candidate.node_str()
            trial = []
            for root in affected:
                saved = dict(root.pins)
                root.pins[name] = pin_text
                trial.append((root, saved))
            try:
                _solve_all(affected, concretize_fn)
                resolves += len(affected)
            except _RootFailure as failure:
                # typed rejection: some root cannot live with this
                # candidate; restore and try the next one
                attempts.append((pin_text, failure.root.text, failure.error))
                for root, saved in trial:
                    root.pins = saved
                _solve_all(affected, concretize_fn)
                resolves += len(affected)
                continue
            pins[name] = pin_text
            accepted = True
            break
        if not accepted:
            raise EnvironmentConflictError(name, demands, attempts)

    return UnifiedEnvironment(
        [(root.text, root.concrete) for root in roots],
        rounds=rounds,
        resolves=resolves,
        pins=pins,
    )
