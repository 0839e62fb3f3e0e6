"""Filesystem helpers: directory creation, tree traversal, symlink trees.

The view and extension subsystems (paper §4.2, §4.3.1) are built on
symlinked directory trees; :func:`traverse_tree` and
:func:`LinkTree` implement the mechanics of merging one prefix into
another and cleanly removing it again.
"""

import contextlib
import errno
import os
import shutil
import tempfile

from repro.errors import ReproError


class FilesystemError(ReproError):
    """Raised for filesystem-level failures (conflicts, missing paths)."""


def mkdirp(*paths):
    """Create each directory (and parents) if it does not already exist."""
    for path in paths:
        os.makedirs(path, exist_ok=True)


def atomic_write(path, data):
    """Replace the file at ``path`` with the bytes ``data`` by one rename.

    A reader sees the old file or the new one, never a torn one.  The
    temporary file is ``mkstemp``'s, beside ``path``: unique per call,
    so two writers in one process (daemon worker threads share a pid)
    never truncate or ``os.replace`` away each other's half-written
    file.  It is made readable like any other store file (0644).  The
    directory must exist.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp",
        dir=os.path.dirname(path),
    )
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), 0o644)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def touch(path):
    """Create an empty file (or update its mtime)."""
    with open(path, "a"):
        os.utime(path, None)


def join_path(prefix, *parts):
    """`os.path.join` alias kept for readability in package recipes."""
    return os.path.join(prefix, *parts)


def ancestor(path, n=1):
    """Return the n-th ancestor directory of ``path``."""
    parent = os.path.abspath(path)
    for _ in range(n):
        parent = os.path.dirname(parent)
    return parent


@contextlib.contextmanager
def working_dir(dirname, create=False):
    """Context manager: chdir into ``dirname`` for the duration of the block.

    Package ``install()`` methods use this (e.g. building in a separate
    ``spack-build`` directory, Figure 4 of the paper).

    Inside an active build (the installer's executor pushed a
    :class:`~repro.build.context.BuildContext`), the change applies to
    that build's *virtual* working directory rather than the process
    cwd: the process-global ``chdir`` would race between DAG-parallel
    build workers, while each context's ``cwd`` is thread-private.
    Outside a build the classic process-wide behavior is preserved.
    """
    from repro.build.context import active_context_or_none

    ctx = active_context_or_none()
    if ctx is not None:
        resolved = os.path.join(ctx.cwd, dirname) if ctx.cwd else dirname
        if create:
            mkdirp(resolved)
        orig = ctx.cwd
        ctx.cwd = os.path.abspath(resolved)
        try:
            yield ctx.cwd
        finally:
            ctx.cwd = orig
        return

    if create:
        mkdirp(dirname)
    orig = os.getcwd()
    os.chdir(dirname)
    try:
        yield dirname
    finally:
        os.chdir(orig)


def traverse_tree(src_root, rel_path=""):
    """Yield ``(relative_path, is_dir)`` for every entry under ``src_root``.

    Directories are yielded before their contents (pre-order), which is the
    order needed to mirror a tree with symlinks.
    """
    abs_dir = os.path.join(src_root, rel_path) if rel_path else src_root
    for entry in sorted(os.listdir(abs_dir)):
        rel_entry = os.path.join(rel_path, entry) if rel_path else entry
        abs_entry = os.path.join(src_root, rel_entry)
        if os.path.isdir(abs_entry) and not os.path.islink(abs_entry):
            yield rel_entry, True
            yield from traverse_tree(src_root, rel_entry)
        else:
            yield rel_entry, False


class LinkTree:
    """Merge a source prefix into a destination via symlinks.

    This is the mechanism behind extension activation (§4.2): each regular
    file in the source becomes a symlink in the destination; directories
    are created as real directories so several sources can share them.

    ``find_conflict`` reports the first destination file that already
    exists and is *not* a link back into this source — activation must
    fail in that case unless a package-specific merge hook handles it.
    """

    def __init__(self, source_root):
        if not os.path.isdir(source_root):
            raise FilesystemError("LinkTree source is not a directory: %s" % source_root)
        self.source_root = os.path.abspath(source_root)

    def find_conflict(self, dest_root, ignore=None):
        """Return the relative path of the first conflicting file, or None."""
        ignore = ignore or (lambda rel: False)
        for rel, is_dir in traverse_tree(self.source_root):
            if ignore(rel):
                continue
            dest = os.path.join(dest_root, rel)
            if is_dir:
                if os.path.exists(dest) and not os.path.isdir(dest):
                    return rel
            elif os.path.lexists(dest):
                src = os.path.join(self.source_root, rel)
                if not (os.path.islink(dest) and os.readlink(dest) == src):
                    return rel
        return None

    def merge(self, dest_root, ignore=None):
        """Symlink every file from the source into ``dest_root``."""
        ignore = ignore or (lambda rel: False)
        conflict = self.find_conflict(dest_root, ignore=ignore)
        if conflict is not None:
            raise FilesystemError(
                "Cannot merge %s into %s: %s already exists"
                % (self.source_root, dest_root, conflict)
            )
        for rel, is_dir in traverse_tree(self.source_root):
            if ignore(rel):
                continue
            dest = os.path.join(dest_root, rel)
            if is_dir:
                mkdirp(dest)
            elif not os.path.lexists(dest):
                src = os.path.join(self.source_root, rel)
                os.symlink(src, dest)

    def unmerge(self, dest_root, ignore=None):
        """Remove the symlinks created by :meth:`merge`.

        Directories that become empty are pruned (deepest first), restoring
        the destination to its pristine state.
        """
        ignore = ignore or (lambda rel: False)
        dirs = []
        for rel, is_dir in traverse_tree(self.source_root):
            if ignore(rel):
                continue
            dest = os.path.join(dest_root, rel)
            if is_dir:
                dirs.append(dest)
            elif os.path.islink(dest):
                src = os.path.join(self.source_root, rel)
                if os.readlink(dest) == src:
                    os.unlink(dest)
        for d in sorted(dirs, key=len, reverse=True):
            with contextlib.suppress(OSError):
                os.rmdir(d)  # only removes empty dirs


def force_remove(path):
    """Remove a file, symlink, or directory tree; ignore missing paths."""
    try:
        if os.path.islink(path) or os.path.isfile(path):
            os.unlink(path)
        elif os.path.isdir(path):
            shutil.rmtree(path)
    except OSError as err:
        if err.errno != errno.ENOENT:
            raise


def install_tree(src, dest):
    """Copy a directory tree (used by fake ``make install``)."""
    mkdirp(dest)
    for rel, is_dir in traverse_tree(src):
        target = os.path.join(dest, rel)
        if is_dir:
            mkdirp(target)
        else:
            shutil.copy2(os.path.join(src, rel), target)
