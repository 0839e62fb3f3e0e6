"""Compiler records, the registry, and PATH auto-detection.

A compiler name (``gcc``, ``intel``, ``xl``...) refers to a whole
toolchain: C, C++, Fortran 77 and Fortran 90 compilers (§3.2.3).  The
registry resolves a :class:`~repro.spec.spec.CompilerSpec` (``%gcc@4.7``)
to a concrete :class:`Compiler` record with real executable paths — in
this reproduction, paths into the fake toolchain built by
:mod:`repro.build.toolchain`.

``find_compilers`` mirrors the original's PATH scan: executables named
``<name>-<version>`` (e.g. ``gcc-4.9.2``, ``icc-15.0.1``) are detected
and grouped into toolchains.  Compilers can also be registered manually
through configuration, exactly as the paper describes.
"""

import os
import re

from repro.errors import ReproError
from repro.spec.spec import CompilerSpec
from repro.version import Version


class CompilerError(ReproError):
    """Problem with compiler definitions or resolution."""


class NoSuchCompilerError(CompilerError):
    def __init__(self, cspec):
        super().__init__("No registered compiler matches %s" % cspec)
        self.cspec = cspec


class CompilerFeatureError(CompilerError):
    """A matching compiler exists but lacks a required feature (§4.5)."""

    def __init__(self, cspec, requirements, candidates):
        super().__init__(
            "No compiler matching %s supports required feature(s): %s"
            % (cspec, ", ".join(str(f) for f in requirements)),
            long_message="candidates considered: %s"
            % ", ".join(str(c) for c in candidates),
        )
        self.requirements = list(requirements)


#: toolchain name -> (cc, cxx, f77, fc) basename stems
TOOLCHAIN_BINARIES = {
    "gcc": ("gcc", "g++", "gfortran", "gfortran"),
    "intel": ("icc", "icpc", "ifort", "ifort"),
    "clang": ("clang", "clang++", "gfortran", "gfortran"),
    "pgi": ("pgcc", "pgc++", "pgfortran", "pgfortran"),
    "xl": ("xlc", "xlc++", "xlf", "xlf90"),
}

#: cc basename stem -> toolchain name (for detection)
_CC_TO_TOOLCHAIN = {binaries[0]: name for name, binaries in TOOLCHAIN_BINARIES.items()}

_DETECT_RE = re.compile(
    r"^(%s)-(\d[A-Za-z0-9_.\-]*)$" % "|".join(map(re.escape, _CC_TO_TOOLCHAIN))
)


class Compiler:
    """A concrete toolchain: name, version, per-language executables, and
    versioned feature levels (cxx/openmp/cuda...; §4.5)."""

    def __init__(self, name, version, cc=None, cxx=None, f77=None, fc=None,
                 features=None):
        from repro.compilers.features import features_for

        self.name = name
        self.version = Version(str(version))
        self.cc = cc
        self.cxx = cxx
        self.f77 = f77
        self.fc = fc
        if features is None:
            self.features = features_for(name, self.version)
        else:
            self.features = {k: Version(str(v)) for k, v in features.items()}

    def supports(self, feature_spec):
        """True if this toolchain provides a feature level, e.g.
        ``supports('cxx@11:')`` or ``supports('openmp')``."""
        from repro.spec.spec import CompilerSpec

        want = (
            feature_spec
            if isinstance(feature_spec, CompilerSpec)
            else CompilerSpec(feature_spec)
        )
        level = self.features.get(want.name)
        if level is None:
            return False
        return want.versions.universal or level.satisfies(want.versions)

    @property
    def spec(self):
        return CompilerSpec(self.name, str(self.version))

    def satisfies(self, cspec):
        cspec = CompilerSpec(cspec) if isinstance(cspec, str) else cspec
        if self.name != cspec.name:
            return False
        return cspec.versions.universal or self.version.satisfies(cspec.versions)

    def __str__(self):
        return "%s@%s" % (self.name, self.version)

    def __repr__(self):
        return "Compiler(%s, cc=%r)" % (self, self.cc)

    def __eq__(self, other):
        return (
            isinstance(other, Compiler)
            and (self.name, self.version) == (other.name, other.version)
        )

    def __hash__(self):
        return hash((self.name, self.version))


class CompilerRegistry:
    """All compilers known to a session."""

    def __init__(self, compilers=()):
        self._compilers = []
        #: bumped by every add that changes the set; cheap change
        #: detector for the session's State (service/snapshot.py)
        self._mtoken = 0
        for compiler in compilers:
            self.add(compiler)

    def add(self, compiler):
        if compiler not in self._compilers:
            self._compilers.append(compiler)
            self._mtoken += 1

    def mutation_token(self):
        """Monotonic token changing whenever a compiler is added."""
        return self._mtoken

    def all_compilers(self):
        return sorted(self._compilers, key=lambda c: (c.name, c.version))

    def compilers_for(self, cspec):
        """All registered compilers matching a CompilerSpec, best last."""
        cspec = CompilerSpec(cspec) if isinstance(cspec, str) else cspec
        matches = [
            c
            for c in self._compilers
            if c.name == cspec.name
            and (cspec.versions.universal or c.version.satisfies(cspec.versions))
        ]
        return sorted(matches, key=lambda c: c.version)

    def compiler_for(self, cspec):
        """The single best (highest-version) match; raises if none."""
        matches = self.compilers_for(cspec)
        if not matches:
            raise NoSuchCompilerError(cspec)
        return matches[-1]

    def exists(self, cspec):
        return bool(self.compilers_for(cspec))

    def toolchain_names(self):
        return sorted({c.name for c in self._compilers})

    def __len__(self):
        return len(self._compilers)

    def __iter__(self):
        return iter(self.all_compilers())


def find_compilers(search_path):
    """Auto-detect toolchains on a PATH-like list of directories.

    Looks for C compilers named ``<cc-stem>-<version>`` and assembles the
    full toolchain from sibling binaries with the same version suffix.
    """
    if isinstance(search_path, str):
        search_path = search_path.split(os.pathsep)
    found = []
    seen = set()
    for directory in search_path:
        if not os.path.isdir(directory):
            continue
        for entry in sorted(os.listdir(directory)):
            match = _DETECT_RE.match(entry)
            if not match:
                continue
            cc_stem, version = match.groups()
            toolchain = _CC_TO_TOOLCHAIN[cc_stem]
            if (toolchain, version) in seen:
                continue
            seen.add((toolchain, version))
            stems = TOOLCHAIN_BINARIES[toolchain]
            paths = []
            for stem in stems:
                candidate = os.path.join(directory, "%s-%s" % (stem, version))
                paths.append(candidate if os.path.isfile(candidate) else None)
            found.append(
                Compiler(
                    toolchain,
                    version,
                    cc=paths[0],
                    cxx=paths[1],
                    f77=paths[2],
                    fc=paths[3],
                )
            )
    return found
