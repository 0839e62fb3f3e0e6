"""Package- and module-name validation and conversion.

Package names follow the grammar's ``id`` rule (Figure 3 of the paper):
``[A-Za-z0-9_][A-Za-z0-9_.-]*``.  Package *files* use the name as-is (with
``-`` mapped to ``_`` for importability) and package *classes* use a
CamelCase form, e.g. ``py-numpy`` ↔ ``PyNumpy``.
"""

import re

from repro.errors import ReproError

#: The ``id`` rule from the spec grammar (Figure 3).
IDENTIFIER_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")


class InvalidPackageNameError(ReproError):
    """Raised for names that do not match the grammar's ``id`` rule."""

    def __init__(self, name):
        super().__init__("Invalid package name: %r" % (name,))
        self.name = name


def validate_name(name):
    """Return ``name`` if it is a legal package identifier, else raise."""
    if not isinstance(name, str) or not IDENTIFIER_RE.match(name):
        raise InvalidPackageNameError(name)
    return name


def valid_name(name):
    """True if ``name`` is a legal package identifier."""
    return isinstance(name, str) and bool(IDENTIFIER_RE.match(name))


def mod_to_class(mod_name):
    """Convert a package name to its class name (``py-numpy`` → ``PyNumpy``).

    Rules (mirroring the original tool): split on ``-``, ``_`` and ``.``;
    capitalize each part; a leading digit gets an underscore prefix since
    class names cannot start with digits (``3proxy`` → ``_3proxy``).
    """
    validate_name(mod_name)
    parts = re.split(r"[-_.]", mod_name)
    class_name = "".join(p[:1].upper() + p[1:] for p in parts if p)
    if class_name and class_name[0].isdigit():
        class_name = "_" + class_name
    return class_name


def pkg_name_to_module_name(pkg_name):
    """File-system module name for a package (``py-numpy`` → ``py_numpy``)."""
    validate_name(pkg_name)
    return pkg_name.replace("-", "_").replace(".", "_")
