"""Deterministic generative models: package universes, specs, fuzz text.

Everything here is driven by ``random.Random(seed)`` — no ambient
entropy, no ``hash()`` — so a single integer replays a whole campaign
on any machine.  These generators replace the ad-hoc ones that used to
live inside ``tests/spec/test_parser_fuzz.py`` and
``tests/core/test_concretize_properties.py``:

* :class:`RepoGenerator` synthesizes a layered-DAG package repository
  with versions, boolean variants, virtual interfaces with competing
  providers, and conditional (``when=``) dependencies — the full
  directive surface the concretizer has to reason about, in
  random-but-reproducible combinations.
* :class:`SpecGenerator` draws abstract requests over such a repo:
  version ranges, compiler pins, architectures, variant flags, and
  forced ``^provider`` choices — including occasionally-unsatisfiable
  ones, which the oracle and invariant layers expect to fail with
  *typed* errors.
* :class:`SpecTextGenerator` emits parser fuzz inputs: raw alphabet
  soup, token-assembled plausible specs, and mutations of valid
  renderings.
"""

import random

from repro.directives import conflicts, depends_on, provides, variant, version
from repro.directives.directives import DirectiveMeta
from repro.fetch.mockweb import mock_checksum
from repro.package.package import Package
from repro.repo.repository import Repository
from repro.util.naming import mod_to_class

#: compilers the generated universes assume registered (the Session
#: default toolchain covers all of these)
GEN_COMPILERS = ("gcc@4.9.2", "gcc@4.7.3", "intel@15.0.1", "clang@3.5.0")

#: architectures requests may pin
GEN_ARCHES = ("linux-x86_64", "bgq")

#: variant names the generator draws from
GEN_VARIANT_NAMES = ("shared", "debug", "mpi", "threads")


def _make_package(name, versions, dep_decls, provided=None, variants=(),
                  conflict_decls=()):
    """Build one Package subclass via the real directive machinery.

    ``dep_decls`` is a list of ``(dep_name, constraint_suffix, when)``
    tuples; constraint suffix is appended to the dependency name (e.g.
    ``"@2:"``), ``when`` is a predicate string or None.  ``provided``
    may be one virtual name or a tuple of them (overlap providers);
    ``conflict_decls`` is a list of ``conflicts()`` spec strings — the
    greedy dead ends the solver universes are seeded with.
    """
    ns = {
        "homepage": "https://mock.example.org/%s" % name,
        "url": "https://mock.example.org/%s/%s-%s.tar.gz" % (name, name, versions[0]),
        "__doc__": "Generated package %s (repro.testing.generators)." % name,
        "build_units": 2,
        "unit_cost": 0.001,
    }
    for v in versions:
        version(v, mock_checksum(name, v))
    for dep_name, suffix, when in dep_decls:
        depends_on(dep_name + suffix, when=when)
    if provided:
        names = (provided,) if isinstance(provided, str) else provided
        for vname in names:
            provides(vname)
    for vname in variants:
        variant(vname, default=(vname == "shared"),
                description="generated variant %s" % vname)
    for conflict_spec in conflict_decls:
        conflicts(conflict_spec)
    return DirectiveMeta(mod_to_class(name), (Package,), ns)


class RepoGenerator:
    """Synthesizes a deterministic random package repository.

    Structure guarantees (so generated universes are always plannable):

    * package *i* only depends on packages with smaller indices — the
      concrete DAG is acyclic by construction;
    * virtual providers are leaves, so provider substitution can never
      introduce a cycle;
    * every virtual has at least two providers, so the solver always
      has a real provider choice point to explore.

    Three *conflict knobs* turn a benign universe into one that forces
    real search (all default to off, and their draws come from seeds
    derived separately from the base stream, so a knobless build is
    byte-identical to what older seeds produced):

    * ``conflict_density`` (0..1) — per virtual, probability of adding
      an hwloc-style dead-end cluster: a new *alphabetically preferred*
      provider pinned to ``anchor-i@1.0`` plus a ``clash-i`` consumer
      that needs ``anchor-i@2.0`` (greedy picks the poisoned provider
      and dies; provider search rescues).  Also scales a family of
      solver-only dead ends — packages whose *default* compiler,
      variant, or version hits a declared ``conflicts()``, which no
      amount of provider re-enumeration can fix.
    * ``when_depth`` (int) — adds conditional dependency chains
      ``chain-k-0 → … → chain-k-(depth-1)`` whose every edge is gated
      on ``when="@2:"``, exercising fixpoint re-expansion under version
      deviations.
    * ``provider_overlap`` (0..1) — per adjacent virtual pair,
      probability of one leaf provider implementing *both* interfaces,
      coupling otherwise independent provider choices.
    """

    def __init__(self, seed, count=40, virtuals=2, namespace="generated",
                 conflict_density=0.0, when_depth=0, provider_overlap=0.0,
                 name_prefix=None, hub_bias=0.0, max_deps=3):
        self.seed = int(seed)
        self.count = max(4, int(count))
        self.virtuals = max(0, int(virtuals))
        self.namespace = namespace
        self.conflict_density = float(conflict_density)
        self.when_depth = max(0, int(when_depth))
        self.provider_overlap = float(provider_overlap)
        #: every generated package name gets this dash-joined prefix, so
        #: two generated universes (or a generated universe plus the
        #: builtin corpus) can share one Session's RepoPath without one
        #: repo's names shadowing the other's
        self.name_prefix = name_prefix
        #: preferential attachment toward low-index "hub" packages — the
        #: cmake/python/mpi shape real repositories have; 0 keeps the
        #: historic uniform draw (and its exact byte stream)
        self.hub_bias = float(hub_bias)
        self.max_deps = max(0, int(max_deps))

    def _pname(self, base):
        if self.name_prefix:
            return "%s-%s" % (self.name_prefix, base)
        return base

    def virtual_name(self, i):
        return self._pname("vif-%d" % i)

    def package_name(self, i):
        return self._pname("gen-%03d" % i)

    def build(self):
        """Generate and return the Repository."""
        rng = random.Random(self.seed)
        repo = Repository(namespace=self.namespace)
        names = []

        # virtual interfaces first: 2-3 leaf providers each
        provider_of = {}
        for vi in range(self.virtuals):
            vname = self.virtual_name(vi)
            provider_of[vname] = []
            for pi in range(rng.randint(2, 3)):
                pname = "%s-impl-%d" % (vname, pi)
                versions = self._draw_versions(rng)
                cls = _make_package(pname, versions, [], provided=vname)
                repo.add_class(pname, cls)
                provider_of[vname].append(pname)

        for i in range(self.count):
            name = self.package_name(i)
            versions = self._draw_versions(rng)
            variants = self._draw_variants(rng)
            dep_decls = self._draw_dependencies(rng, names, variants, versions)
            if provider_of and rng.random() < 0.25:
                vname = rng.choice(sorted(provider_of))
                when = self._draw_when(rng, variants, versions)
                dep_decls.append((vname, "", when))
            cls = _make_package(name, versions, dep_decls, variants=variants)
            repo.add_class(name, cls)
            names.append(name)

        # conflict knobs draw from their own derived streams so the
        # base universe above never shifts under older seeds
        if self.conflict_density > 0:
            self._add_conflict_clusters(repo, provider_of)
            self._add_solver_dead_ends(repo)
        if self.when_depth > 0:
            self._add_when_chains(repo)
        if self.provider_overlap > 0:
            self._add_overlap_providers(repo)
        return repo

    # -- conflict knobs ------------------------------------------------------
    def _knob_rng(self, stream):
        from repro.testing import derive_seed

        return random.Random(derive_seed(self.seed, "knob", stream))

    def _add_conflict_clusters(self, repo, provider_of):
        """Per virtual: a poisoned *preferred* provider plus a consumer
        whose anchor pin contradicts it (the paper's §4.5 hwloc shape).

        The new provider is named ``vif-i-aaa-impl`` so the default
        policy's name tie-break ranks it *first*; it pins
        ``anchor-i@1.0`` while ``clash-i`` needs ``anchor-i@2.0``, so
        greedy dies inside the preferred provider and only provider
        search (or better) escapes to ``vif-i-impl-0``.
        """
        rng = self._knob_rng("conflict")
        for vi in range(self.virtuals):
            if rng.random() >= self.conflict_density:
                continue
            vname = self.virtual_name(vi)
            anchor = self._pname("anchor-%d" % vi)
            repo.add_class(anchor, _make_package(anchor, ["1.0", "2.0"], []))
            poisoned = "%s-aaa-impl" % vname
            repo.add_class(poisoned, _make_package(
                poisoned, ["1.0"], [(anchor, "@1.0", None)], provided=vname,
            ))
            clash = self._pname("clash-%d" % vi)
            repo.add_class(clash, _make_package(
                clash, ["1.0"], [(vname, "", None), (anchor, "@2.0", None)],
            ))

    def _add_solver_dead_ends(self, repo):
        """Packages whose policy-*default* choice hits a declared
        ``conflicts()``: only a variant flip, version deviation, or
        compiler change rescues them — greedy and any provider-only
        search fail, the optimizing solver succeeds."""
        rng = self._knob_rng("dead-ends")
        n = max(1, int(round(self.conflict_density * self.count / 5.0)))
        for i in range(n):
            kind = ("hardpick", "varpick", "verpick")[i % 3]
            name = self._pname("%s-%d" % (kind, i))
            if kind == "hardpick":
                # default compiler_order is gcc-first everywhere
                cls = _make_package(name, ["1.0"], [],
                                    conflict_decls=["%gcc"])
            elif kind == "varpick":
                cls = _make_package(name, ["1.0"], [], variants=("shared",),
                                    conflict_decls=["+shared"])
            else:
                # 2.0 is newest (and checksummed) so policy prefers it
                cls = _make_package(name, ["1.0", "2.0"], [],
                                    conflict_decls=["@2.0"])
            repo.add_class(name, cls)
            # occasionally bury the dead end one level down so rescue
            # requires deviating a *dependency's* parameters
            if rng.random() < 0.5:
                consumer = "needs-%s" % name
                repo.add_class(consumer, _make_package(
                    consumer, ["1.0"], [(name, "", None)],
                ))

    def _add_when_chains(self, repo):
        """Conditional chains: every edge is gated on ``when="@2:"`` and
        every member's preferred version activates it, so deviating any
        member's version to 1.x prunes the rest of the chain."""
        chains = max(1, self.count // 10)
        for k in range(chains):
            # build leaf-first so each link's dependency already exists
            for j in reversed(range(self.when_depth)):
                name = self._pname("chain-%d-%d" % (k, j))
                deps = []
                if j + 1 < self.when_depth:
                    deps.append(("chain-%d-%d" % (k, j + 1), "", "@2:"))
                repo.add_class(name, _make_package(name, ["1.5", "2.5"], deps))

    def _add_overlap_providers(self, repo):
        """One leaf provider implementing two adjacent virtuals; its
        ``aaa`` name makes it the preferred pick for both, so choosing
        a provider for one interface constrains the other."""
        rng = self._knob_rng("overlap")
        for vi in range(self.virtuals - 1):
            if rng.random() >= self.provider_overlap:
                continue
            name = self._pname("dual-%d-aaa-impl" % vi)
            repo.add_class(name, _make_package(
                name, ["1.0"],
                [],
                provided=(self.virtual_name(vi), self.virtual_name(vi + 1)),
            ))

    # -- draws -------------------------------------------------------------
    def _draw_versions(self, rng):
        n = rng.randint(2, 4)
        return ["%d.%d" % (major + 1, rng.randint(0, 9)) for major in range(n)]

    def _draw_variants(self, rng):
        if rng.random() < 0.5:
            return ()
        return tuple(
            rng.sample(GEN_VARIANT_NAMES, rng.randint(1, 2))
        )

    def _draw_when(self, rng, variants, versions):
        """A predicate for a conditional dependency, or None."""
        roll = rng.random()
        if roll < 0.55 or (not variants and roll < 0.8):
            return None
        if variants and roll < 0.8:
            flag = rng.choice(variants)
            return ("+" if rng.random() < 0.7 else "~") + flag
        return "@%s:" % versions[rng.randrange(len(versions))].split(".")[0]

    def _draw_dependencies(self, rng, names, variants, versions):
        if not names:
            return []
        if self.hub_bias > 0:
            deps = self._draw_hubbed_deps(rng, names)
        else:
            # the historic uniform draw — byte-for-byte what older seeds
            # consumed from the stream, so knobless universes never shift
            deps = rng.sample(names, min(len(names), rng.randint(0, 3)))
        decls = []
        for dep in deps:
            suffix = ""
            if rng.random() < 0.2:
                # a version-range constraint on the dependency edge
                suffix = "@%d:" % rng.randint(1, 2)
            decls.append((dep, suffix, self._draw_when(rng, variants, versions)))
        return decls

    def _draw_hubbed_deps(self, rng, names):
        """Preferential attachment: a slice of each dependency draw goes
        to the earliest ~2% of packages (the universe's cmake/python/mpi
        analogues), the rest stays uniform — real repositories are a few
        hubs with enormous in-degree plus a long uniform tail."""
        hubs = names[: max(1, len(names) // 50)]
        picked = []
        for _ in range(rng.randint(0, self.max_deps)):
            pool = hubs if rng.random() < self.hub_bias else names
            dep = pool[rng.randrange(len(pool))]
            if dep not in picked:
                picked.append(dep)
        return picked


class DeadEndScenario:
    """One known greedy-dead-end universe: a tiny repo, the request that
    kills the greedy concretizer (and that the solver rescues), and
    config preference overrides the scenario assumes."""

    def __init__(self, label, repo, request, config=None):
        self.label = label
        self.repo = repo
        self.request = request
        self.config = config or {}

    def __repr__(self):
        return "DeadEndScenario(%r)" % self.label


def greedy_dead_end_corpus():
    """Hand-built scenarios where greedy provably dead-ends (§4.5).

    Deterministic — no randomness at all — so the corpus doubles as a
    regression suite: every scenario's greedy run must fail with a
    typed error, and the solver must rescue it.  The first two need
    only a provider deviation (§4.5's hwloc case and a coupled pair);
    the rest need a version, variant or compiler deviation.  Scenarios
    assume the :data:`GEN_COMPILERS` registry and gcc-first compiler
    order.
    """
    scenarios = []

    # 1. The paper's hwloc case: preferred MPI pins the wrong hwloc.
    repo = Repository(namespace="deadend.hwloc")
    repo.add_class("hwloc", _make_package("hwloc", ["1.9", "1.8"], []))
    repo.add_class("ampi", _make_package(
        "ampi", ["1.0"], [("hwloc", "@1.8", None)], provided="mpi2"))
    repo.add_class("bmpi", _make_package(
        "bmpi", ["1.0"], [("hwloc", "@1.9", None)], provided="mpi2"))
    repo.add_class("app", _make_package(
        "app", ["1.0"], [("hwloc", "@1.9", None), ("mpi2", "", None)]))
    scenarios.append(DeadEndScenario(
        "hwloc-version-pin", repo, "app",
        config={"preferences": {"providers": {"mpi2": ["ampi", "bmpi"]}}},
    ))

    # 2. Two coupled virtuals: only the dispreferred pair is consistent.
    repo = Repository(namespace="deadend.pair")
    repo.add_class("libx", _make_package("libx", ["2", "1"], []))
    for vname, tag in (("vinta", "a"), ("vintb", "b")):
        repo.add_class("%s1" % tag, _make_package(
            "%s1" % tag, ["1.0"], [("libx", "@1", None)], provided=vname))
        repo.add_class("%s2" % tag, _make_package(
            "%s2" % tag, ["1.0"], [("libx", "@2", None)], provided=vname))
    repo.add_class("pairapp", _make_package(
        "pairapp", ["1.0"],
        [("vinta", "", None), ("vintb", "", None), ("libx", "@2", None)]))
    scenarios.append(DeadEndScenario(
        "provider-pair", repo, "pairapp",
        config={"preferences": {"providers": {"vinta": ["a1", "a2"],
                                              "vintb": ["b1", "b2"]}}},
    ))

    # 3. Default compiler conflicts: only a %-deviation rescues.
    repo = Repository(namespace="deadend.compiler")
    repo.add_class("nogcc", _make_package(
        "nogcc", ["1.0"], [], conflict_decls=["%gcc"]))
    scenarios.append(DeadEndScenario("compiler-conflict", repo, "nogcc"))

    # 4. Default variant conflicts: only a flip rescues.
    repo = Repository(namespace="deadend.variant")
    repo.add_class("noshared", _make_package(
        "noshared", ["1.0"], [], variants=("shared",),
        conflict_decls=["+shared"]))
    scenarios.append(DeadEndScenario("variant-conflict", repo, "noshared"))

    # 5. Preferred version conflicts: only an older pick rescues.
    repo = Repository(namespace="deadend.version")
    repo.add_class("nonewest", _make_package(
        "nonewest", ["1.0", "2.0"], [], conflict_decls=["@2.0"]))
    scenarios.append(DeadEndScenario("version-conflict", repo, "nonewest"))

    # 6. A when= chain ending at an impossible pin: deviating the chain
    # head's version to 1.x prunes the poisoned tail.
    repo = Repository(namespace="deadend.chain")
    repo.add_class("pin", _make_package("pin", ["9"], []))
    repo.add_class("tail", _make_package(
        "tail", ["1.0"], [("pin", "@1:2", None)]))
    repo.add_class("head", _make_package(
        "head", ["1.5", "2.5"], [("tail", "", "@2:")]))
    scenarios.append(DeadEndScenario("deep-chain", repo, "head"))

    return scenarios


class SpecGenerator:
    """Draws abstract requests over a repository, deterministically.

    ``specs(n)`` yields ``n`` request strings; ``spec(i)`` regenerates
    request *i* alone (replay of one campaign case without rerunning
    the stream before it).
    """

    def __init__(self, seed, repo, compilers=GEN_COMPILERS, arches=GEN_ARCHES):
        self.seed = int(seed)
        self.repo = repo
        self.compilers = tuple(compilers)
        self.arches = tuple(arches)
        self._names = sorted(repo.all_package_names())

    def spec(self, i):
        """Request *i* of this generator's deterministic stream."""
        from repro.testing import derive_seed

        rng = random.Random(derive_seed(self.seed, "spec", i))
        return self._draw(rng)

    def specs(self, n):
        return [self.spec(i) for i in range(n)]

    def _draw(self, rng):
        name = rng.choice(self._names)
        cls = self.repo.get_class(name)
        parts = [name]

        if rng.random() < 0.4 and cls.versions:
            v = rng.choice(sorted(cls.versions))
            style = rng.random()
            if style < 0.5:
                parts.append("@%s" % v)
            elif style < 0.75:
                parts.append("@%s:" % str(v).split(".")[0])
            else:
                parts.append("@:%s" % v)
        if rng.random() < 0.35:
            compiler = rng.choice(self.compilers)
            if rng.random() < 0.5:
                compiler = compiler.split("@")[0]
            parts.append("%%%s" % compiler)
        if cls.variants and rng.random() < 0.4:
            vname = rng.choice(sorted(cls.variants))
            parts.append(("+" if rng.random() < 0.6 else "~") + vname)
        if rng.random() < 0.25:
            parts.append("=%s" % rng.choice(self.arches))
        if rng.random() < 0.2:
            # force a dependency constraint; may be a provider pin, may
            # be an unrelated package (a typed error both concretizers
            # must agree on)
            parts.append(" ^%s" % rng.choice(self._names))
        return "".join(parts)


#: character soup the parser must survive (superset of spec syntax)
FUZZ_ALPHABET = "abcxyz019._-@:%+~^= "


class SpecTextGenerator:
    """Parser fuzz inputs: soup, assembled tokens, and mutants.

    Three deterministic streams, each addressable by case index so a
    failing case replays in isolation:

    * :meth:`soup` — length-bounded random text over the spec alphabet;
    * :meth:`plausible` — token-assembled spec-shaped strings (names,
      versions, compilers, variants, arch, ``^`` chains) that are
      *usually* valid;
    * :meth:`mutant` — a plausible string with random character edits
      (insert/delete/replace), probing error paths near valid syntax.
    """

    NAMES = ("libelf", "mpileaks", "a", "xy-z0", "pkg_1", "m.p.i")
    VERSIONS = ("1.0", "2", "0.8.11:0.8.13", ":3", "4:", "1.0,2.1")
    COMPILERS = ("gcc", "gcc@4.9", "intel@15.0.1", "clang")
    ARCHES = ("linux-x86_64", "bgq")

    def __init__(self, seed):
        self.seed = int(seed)

    def _rng(self, stream, i):
        from repro.testing import derive_seed

        return random.Random(derive_seed(self.seed, "text", stream, i))

    def soup(self, i, max_len=40):
        rng = self._rng("soup", i)
        return "".join(
            rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(0, max_len))
        )

    def unicode_soup(self, i, max_len=30):
        rng = self._rng("unicode", i)
        return "".join(
            chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(1, max_len))
        )

    def plausible(self, i):
        rng = self._rng("plausible", i)
        parts = [rng.choice(self.NAMES)]
        if rng.random() < 0.5:
            parts.append("@" + rng.choice(self.VERSIONS))
        if rng.random() < 0.4:
            parts.append("%" + rng.choice(self.COMPILERS))
        if rng.random() < 0.4:
            parts.append(rng.choice("+~") + rng.choice(("shared", "debug", "mpi")))
        if rng.random() < 0.3:
            parts.append("=" + rng.choice(self.ARCHES))
        text = "".join(parts)
        for _ in range(rng.randint(0, 2)):
            text += " ^" + rng.choice(self.NAMES)
            if rng.random() < 0.4:
                text += "@" + rng.choice(self.VERSIONS)
        return text

    def mutant(self, i, mutations=2):
        rng = self._rng("mutant", i)
        text = list(self.plausible(i))
        for _ in range(rng.randint(1, mutations)):
            if not text:
                break
            op = rng.random()
            pos = rng.randrange(len(text))
            if op < 0.34:
                text.insert(pos, rng.choice(FUZZ_ALPHABET))
            elif op < 0.67:
                del text[pos]
            else:
                text[pos] = rng.choice(FUZZ_ALPHABET)
        return "".join(text)
