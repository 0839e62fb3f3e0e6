"""Session-level extension operations: activate, deactivate, list.

The manager enforces the §4.2 invariants:

* only installed extensions can be activated, into an installed extendee;
* at most one version of an extension is active at a time;
* activation is recorded in the extendee's metadata, so ``extensions``
  can show activated vs merely-installed, and deactivation restores the
  pristine prefix.
"""

from repro.errors import ReproError
from repro.extensions.activation import (
    ExtensionError,
    activated_extensions,
    record_activation,
    record_deactivation,
)
from repro.spec.spec import Spec


class ExtensionManager:
    """Activate/deactivate extensions within a session."""

    def __init__(self, session):
        self.session = session

    # -- resolution helpers -------------------------------------------------
    def _resolve_installed(self, spec_like):
        spec = spec_like if isinstance(spec_like, Spec) else Spec(spec_like)
        if spec.concrete and self.session.db.installed(spec):
            return self.session.db.get(spec).spec
        records = self.session.db.query(spec)
        if not records:
            raise ExtensionError("Spec %s is not installed" % spec)
        if len(records) > 1:
            raise ExtensionError(
                "%d installed specs match %s; be more specific"
                % (len(records), spec)
            )
        return records[0].spec

    def _extension_pair(self, ext_spec):
        """(extendee_pkg, extension_pkg) for an installed extension spec."""
        ext = self._resolve_installed(ext_spec)
        ext_pkg = self.session.package_for(ext)
        if not ext_pkg.is_extension:
            raise ExtensionError("%s does not extend anything" % ext.name)
        extendee_name = next(iter(ext_pkg.extendees))
        try:
            extendee_node = ext[extendee_name]
        except KeyError:
            raise ExtensionError(
                "Extension %s has no %s in its DAG" % (ext.name, extendee_name)
            ) from None
        extendee = self._resolve_installed(extendee_node)
        extendee_pkg = self.session.package_for(extendee)
        if not extendee_pkg.extendable:
            raise ExtensionError("%s is not extendable" % extendee.name)
        return extendee_pkg, ext_pkg

    # -- operations -----------------------------------------------------------
    def activate(self, ext_spec):
        extendee_pkg, ext_pkg = self._extension_pair(ext_spec)
        active = activated_extensions(extendee_pkg.prefix)
        if ext_pkg.name in active:
            if active[ext_pkg.name]["hash"] == ext_pkg.spec.dag_hash():
                raise ExtensionError("%s is already activated" % ext_pkg.name)
            raise ExtensionError(
                "Another version of %s (%s) is already activated; "
                "deactivate it first" % (ext_pkg.name, active[ext_pkg.name]["version"])
            )
        extendee_pkg.activate(ext_pkg)
        record_activation(extendee_pkg.prefix, ext_pkg.spec, ext_pkg.prefix)
        return extendee_pkg.spec

    def deactivate(self, ext_spec):
        extendee_pkg, ext_pkg = self._extension_pair(ext_spec)
        active = activated_extensions(extendee_pkg.prefix)
        if ext_pkg.name not in active:
            raise ExtensionError("%s is not activated" % ext_pkg.name)
        extendee_pkg.deactivate(ext_pkg)
        record_deactivation(extendee_pkg.prefix, ext_pkg.name)
        return extendee_pkg.spec

    def extensions_of(self, extendee_spec):
        """(installed, activated) extension lists for an extendee."""
        extendee = self._resolve_installed(extendee_spec)
        prefix = self.session.store.layout.path_for_spec(extendee)
        active = activated_extensions(prefix)
        installed = []
        for record in self.session.db.all_records():
            cls = None
            if self.session.repo.exists(record.spec.name):
                cls = self.session.repo.get_class(record.spec.name)
            if cls is not None and extendee.name in getattr(cls, "extendees", {}):
                installed.append(record.spec)
        return installed, active
