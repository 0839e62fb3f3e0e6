"""Errors raised by spec parsing, constraint intersection, and validation.

The concretizer's contract (paper §3.4) is that any inconsistency —
between the user's constraints and the package files', or among package
files — stops the process with an actionable message.  Each constraint
kind has its own unsatisfiable-error subclass so messages can point at
the exact conflicting parameter.
"""

from repro.errors import ReproError


class SpecError(ReproError):
    """Base for all spec-related errors."""


class SpecParseError(SpecError):
    """The spec expression does not match the Figure 3 grammar."""

    def __init__(self, message, string=None, pos=None):
        long_message = None
        if string is not None and pos is not None:
            long_message = "%s\n%s^" % (string, " " * pos)
        super().__init__(message, long_message)
        self.string = string
        self.pos = pos


class UnsatisfiableSpecError(SpecError):
    """Two constraints on the same package cannot both hold."""

    def __init__(self, provided, required, constraint_type):
        super().__init__(
            "%s constraint '%s' conflicts with '%s'"
            % (constraint_type, provided, required)
        )
        self.provided = provided
        self.required = required
        self.constraint_type = constraint_type


class UnsatisfiableVersionSpecError(UnsatisfiableSpecError):
    def __init__(self, provided, required):
        super().__init__(provided, required, "version")


class UnsatisfiableCompilerSpecError(UnsatisfiableSpecError):
    def __init__(self, provided, required):
        super().__init__(provided, required, "compiler")


class UnsatisfiableVariantSpecError(UnsatisfiableSpecError):
    def __init__(self, provided, required):
        super().__init__(provided, required, "variant")


class UnsatisfiableArchitectureSpecError(UnsatisfiableSpecError):
    def __init__(self, provided, required):
        super().__init__(provided, required, "architecture")


class UnsatisfiableSpecNameError(UnsatisfiableSpecError):
    def __init__(self, provided, required):
        super().__init__(provided, required, "name")


class UnsatisfiableProviderSpecError(UnsatisfiableSpecError):
    """A virtual dependency has no provider meeting its constraints."""

    def __init__(self, provided, required):
        super().__init__(provided, required, "provider")


class DuplicateDependencyError(SpecError):
    """The same dependency name was specified twice on one spec."""


class DuplicateVariantError(SpecError):
    """The same variant appears twice in one spec expression."""


class DuplicateCompilerSpecError(SpecError):
    """More than one ``%compiler`` on a single spec node."""


class DuplicateArchitectureError(SpecError):
    """More than one ``=arch`` on a single spec node."""


class UnknownVariantError(SpecError):
    """A spec names a variant the package does not define."""

    def __init__(self, package_name, variant_name):
        super().__init__(
            "Package %s has no variant %r" % (package_name, variant_name)
        )
        self.package_name = package_name
        self.variant_name = variant_name


class InvalidDependencyError(SpecError):
    """A ^dependency constraint names a package the root cannot reach."""


class FrozenSpecError(SpecError):
    """A write to a frozen (published, shared) concrete spec node.

    Concretization results are frozen and handed out by reference; a
    caller that needs to change one works on ``spec.copy()``.
    """

    def __init__(self, spec_name, what):
        super().__init__(
            "Cannot change %s of frozen spec %s; copy() it first"
            % (what, spec_name)
        )
        self.spec_name = spec_name
        self.what = what
