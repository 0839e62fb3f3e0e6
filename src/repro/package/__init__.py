"""The ``Package`` base class: what package files subclass (paper §3.1)."""

from repro.package.package import Package, PackageError

__all__ = ["Package", "PackageError"]
