"""``Package``: the generic build template every package file extends.

A package class is a *template* for arbitrarily many build configurations
(§3.2): directives declare versions, dependencies, variants, virtuals, and
patches; the ``install(self, spec, prefix)`` method encodes the build
incantation.  The framework guarantees:

* ``spec`` is fully concrete when ``install`` runs;
* ``prefix`` is unique to this configuration (hash-addressed, §3.4.2);
* the build environment has compiler wrappers and dependency paths set up
  (§3.5), so most recipes can configure exactly as they would for a
  system install.
"""

import os

from repro.directives.directives import DirectiveMeta
from repro.errors import ReproError
from repro.spec.spec import Spec
from repro.version import Version
from repro.version.url import substitute_version


class PackageError(ReproError):
    """Something is wrong with a package definition or its use."""


class Package(metaclass=DirectiveMeta):
    """Base class for all packages.

    Subclasses normally define ``homepage``, ``url``, some ``version(...)``
    directives, ``depends_on(...)`` directives, and an
    ``install(self, spec, prefix)`` method (see Figure 1 of the paper for
    the canonical mpileaks example).

    Instances are created *per concrete spec* by the repository
    (``session.package_for(spec)``); ``self.spec`` is that spec.
    """

    #: Human-readable project URL (metadata only).
    homepage = None

    #: Example download URL; used to extrapolate URLs for other versions.
    url = None

    #: True for packages (like python) that support extension activation.
    extendable = False

    #: Set by the repository when the class is loaded; the authoritative
    #: package name (file name in the repo, which may contain '-').
    name = None

    #: Estimated compile units for the simulated build-cost model
    #: (Figures 10-11); loosely "how big is this package's source tree".
    build_units = 20

    def __init__(self, spec, session=None):
        if not isinstance(spec, Spec):
            raise TypeError("Package requires a Spec, got %r" % (spec,))
        if self.name is None:
            raise PackageError(
                "Package class %s was not loaded through a repository and "
                "has no name" % type(self).__name__
            )
        if spec.name != self.name:
            raise PackageError(
                "Spec %s does not match package %s" % (spec.name, self.name)
            )
        self.spec = spec
        self.session = session
        #: Stage directory assigned by the installer during a build.
        self.stage = None
        #: Names of patches actually applied during the last stage.
        self.applied_patches = []

    # -- identity -----------------------------------------------------------
    @property
    def version(self):
        return self.spec.version

    @property
    def prefix(self):
        """Install prefix for this package's concrete spec."""
        if self.spec.external:
            return self.spec.external
        if self.session is None:
            raise PackageError("Package %s has no session to compute a prefix" % self.name)
        return self.session.store.layout.path_for_spec(self.spec)

    @property
    def compiler(self):
        """The concrete compiler record backing ``%name@version``."""
        if self.session is None:
            raise PackageError("Package %s has no session" % self.name)
        return self.session.compilers.compiler_for(self.spec.compiler)

    def __repr__(self):
        return "<Package %s (%s)>" % (self.name, self.spec)

    # -- versions / URLs -------------------------------------------------------
    @classmethod
    def safe_versions(cls):
        """Versions declared with checksums, newest first."""
        return sorted(
            (v for v, meta in cls.versions.items() if meta.get("checksum")),
            reverse=True,
        )

    @classmethod
    def known_versions(cls):
        """All declared versions, newest first."""
        return sorted(cls.versions, reverse=True)

    def url_for_version(self, version):
        """Download URL for ``version``.

        Uses a per-version ``url=`` override when the ``version`` directive
        supplied one; otherwise extrapolates from the class ``url``
        attribute (§3.2.3 — "Spack can extrapolate URLs from versions").
        """
        version = Version(str(version))
        meta = self.versions.get(version)
        if meta and meta.get("url"):
            return meta["url"]
        if self.url is None:
            raise PackageError("Package %s has no url attribute" % self.name)
        return substitute_version(self.url, version)

    def checksum_for(self, version):
        meta = self.versions.get(Version(str(version)))
        return meta.get("checksum") if meta else None

    # -- virtuals -----------------------------------------------------------------
    @classmethod
    def provided_virtuals(cls, spec):
        """Virtual specs this package provides when built as ``spec``."""
        matched = []
        for interface in cls.provided:
            if interface.when is None or spec.satisfies(interface.when):
                matched.append(interface.spec)
        return matched

    @classmethod
    def provides(cls, virtual_name):
        return any(p.spec.name == virtual_name for p in cls.provided)

    # -- patches --------------------------------------------------------------------
    def patches_for_spec(self):
        """Patches whose ``when`` predicate matches this build's spec."""
        return [
            p for p in self.patches if p.when is None or self.spec.satisfies(p.when)
        ]

    # -- build ----------------------------------------------------------------------
    def install(self, spec, prefix):
        """Default build: the classic autotools incantation.

        Subclasses override this (possibly several times with ``@when``)
        for anything unusual.  The ``configure``/``make`` callables come
        from the active build context (:mod:`repro.build.shell`), which the
        installer arranges before calling this method.
        """
        from repro.build.shell import configure, make

        configure("--prefix=%s" % prefix)
        make()
        make("install")

    def flag_filter(self, argv):
        """Hook: programmatically rewrite compiler command lines (§3.5.2).

        "Because Spack controls the wrappers, package authors can
        programmatically filter the compiler flags used by build
        systems" — override to drop or rewrite flags on every compiler
        invocation of this package's build (e.g. strip ``-Werror`` when
        porting to a new compiler).  Receives and returns a full argv.
        """
        return argv

    def setup_environment(self, build_env, run_env):
        """Hook: extra environment for building dependents / running.

        ``build_env``/``run_env`` are
        :class:`~repro.util.environment.EnvironmentModifications`.
        """

    def setup_dependent_environment(self, env, dependent_spec):
        """Hook: environment this package contributes to dependents' builds."""

    # -- extensions (§4.2) -------------------------------------------------------------
    @property
    def extendee_spec(self):
        """The spec of the package this one extends, or None."""
        if not self.extendees:
            return None
        name = next(iter(self.extendees))
        try:
            return self.spec[name]
        except KeyError:
            ext_spec, _ = self.extendees[name]
            return ext_spec

    @property
    def is_extension(self):
        return bool(self.extendees)

    def activate(self, extension, **kwargs):
        """Hook called on the *extendee* to merge an extension in.

        Default: symlink the extension's files into this package's prefix,
        refusing on conflicts.  Extendable packages (python) override to
        merge known-conflicting metadata files (§4.2).
        """
        from repro.extensions.activation import default_activate

        default_activate(self, extension, **kwargs)

    def deactivate(self, extension, **kwargs):
        """Hook called on the *extendee* to remove an extension."""
        from repro.extensions.activation import default_deactivate

        default_deactivate(self, extension, **kwargs)

    # -- conflicts ------------------------------------------------------------------------
    def validate_conflicts(self):
        """Raise if this package's spec hits a declared ``conflicts``."""
        for conflict_spec, when_spec, msg in self.conflict_specs:
            applies = when_spec is None or self.spec.satisfies(when_spec)
            if applies and self.spec.satisfies(conflict_spec):
                raise PackageError(
                    "Package %s conflicts with %s%s"
                    % (self.name, conflict_spec, ": %s" % msg if msg else "")
                )
