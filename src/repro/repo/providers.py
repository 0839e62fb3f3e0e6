"""The provider index: versioned virtual dependencies (paper §3.3).

A *virtual* package (``mpi``, ``blas``) is an interface name, not a
package file.  Concrete packages declare what they provide::

    class Mvapich2(Package):
        provides('mpi@:2.2', when='@1.9')
        provides('mpi@:3.0', when='@2.0')

The :class:`ProviderIndex` is the reverse map the concretizer consults
(Figure 6, "Resolve Virtual Deps"): virtual name → candidate providers,
each with the interface versions it offers and the provider constraint
under which it offers them.
"""

import threading
from collections import OrderedDict

from repro.spec.spec import Spec
from repro.spec.errors import SpecError
from repro.version import any_version

#: the memo holds at most this many distinct constraint keys; beyond it
#: the least-recently-used entry is evicted (the memo keeps serving hot
#: constraints instead of freezing at the cap)
MEMO_CAP = 1024


class ProviderEntry:
    """One (provider, interface, condition) triple from a provides()."""

    __slots__ = ("provider_name", "provided_spec", "when")

    def __init__(self, provider_name, provided_spec, when):
        self.provider_name = provider_name
        self.provided_spec = provided_spec
        self.when = when

    def __repr__(self):
        return "ProviderEntry(%s provides %s when %s)" % (
            self.provider_name,
            self.provided_spec,
            self.when,
        )


class ProviderIndex:
    """Reverse index from virtual interface names to provider packages."""

    def __init__(self, package_classes):
        #: virtual name -> its ProviderEntry list; fixed once built, so
        #: no memo entry ever goes stale
        self._index = {}
        for name, cls in package_classes.items():
            for interface in getattr(cls, "provided", ()):
                self._index.setdefault(interface.spec.name, []).append(
                    ProviderEntry(name, interface.spec, interface.when)
                )
        #: providers_for results: a bounded LRU keyed by the virtual
        #: spec's canonical DAG tuple (which starts with its name)
        self._memo = OrderedDict()
        self._memo_lock = threading.Lock()
        self.memo_hits = 0
        self.memo_misses = 0

    @classmethod
    def from_repo(cls, repo):
        """Build an index over every package in a Repository/RepoPath."""
        return cls(repo.all_classes())

    # -- queries ------------------------------------------------------------
    def is_virtual(self, name):
        return name in self._index

    def virtual_names(self):
        return sorted(self._index)

    def providers_for(self, virtual_spec):
        """Candidate provider specs satisfying a virtual constraint.

        ``virtual_spec`` may be a name or a constrained spec (``mpi@2:``).
        Each returned provider spec carries the ``when`` condition's
        constraints (e.g. ``mvapich2@2.0`` for an ``mpi@2.1:`` request —
        only the 2.0 series of mvapich2 provides MPI 3).  Non-version
        constraints on the virtual (compiler, variants, arch) transfer to
        the provider, since an implementation node stands in for the
        interface node in the DAG.
        """
        vspec = virtual_spec if isinstance(virtual_spec, Spec) else Spec(virtual_spec)
        if vspec.name not in self._index:
            return []
        # Memo hit: the candidate list for this exact constraint has been
        # built before.  Return fresh copies — callers constrain/reorder
        # the candidates, and the memoized originals must stay pristine.
        memo_key = vspec._dag_key()
        with self._memo_lock:
            cached = self._memo.get(memo_key)
            if cached is not None:
                self._memo.move_to_end(memo_key)
                self.memo_hits += 1
                return [c.copy() for c in cached]
            self.memo_misses += 1
        candidates = []
        for entry in self._index[vspec.name]:
            if not entry.provided_spec.versions.overlaps(vspec.versions):
                continue
            provider = Spec(name=entry.provider_name)
            if entry.when is not None:
                try:
                    provider.constrain(entry.when)
                except SpecError:
                    continue
            # Transfer non-version constraints from the virtual request.
            carried = vspec.copy(deps=False)
            carried.name = entry.provider_name
            carried.versions = any_version()
            try:
                provider.constrain(carried)
            except SpecError:
                continue
            candidates.append(provider)
        result = _dedupe_specs(candidates)
        with self._memo_lock:
            self._memo[memo_key] = [c.copy() for c in result]
            self._memo.move_to_end(memo_key)
            while len(self._memo) > MEMO_CAP:
                self._memo.popitem(last=False)
        return result

    def providers_for_name(self, virtual_name):
        """All provider package names for a virtual, unconstrained."""
        return sorted({e.provider_name for e in self._index.get(virtual_name, ())})

    def satisfies_virtual(self, provider_spec, virtual_spec, package_class):
        """Does a (possibly concrete) provider spec satisfy a virtual
        constraint?  Used to validate existing DAG nodes against
        ``depends_on('mpi@2:')`` requirements."""
        vspec = virtual_spec if isinstance(virtual_spec, Spec) else Spec(virtual_spec)
        for interface in getattr(package_class, "provided", ()):
            if interface.spec.name != vspec.name:
                continue
            if interface.when is not None and not provider_spec.satisfies(interface.when):
                continue
            if interface.spec.versions.overlaps(vspec.versions):
                return True
        return False

    def __contains__(self, name):
        return self.is_virtual(name)


def _dedupe_specs(specs):
    result = []
    for spec in specs:
        if not any(spec == existing for existing in result):
            result.append(spec)
    return result
