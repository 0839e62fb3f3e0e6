"""The binary build cache: relocatable, hash-addressed prefix tarballs.

The paper's hash-addressed prefixes (§3.4.2) give every concrete spec a
portable identity: the *relative* install path depends only on the spec
(``<arch>/<compiler>/<name>-<version><variants>-<hash8>``), so a prefix
built under one session root can be replanted under another by
rewriting the embedded root — the relocation step binary Spack made
standard ("Bridging the Gap Between Binary and Source Based Package
Management in Spack", PAPERS.md).

A cache is a directory holding one entry per hash, and nothing else::

    <cache-root>/<hh>/<name>-<version>-<hash>.tar.gz   the prefix
    <cache-root>/<hash>.spec.json                      the entry (sidecar)
    <cache-root>/runtime/<runtime_hash>/<hash>         empty splice marker

where ``<hh>`` is the first two hash characters (fanout).  The sidecar
is the entry: it records the full concrete spec, the session root the
prefix was built under (the relocation source), the tarball's SHA-256
and the spec's runtime hash.  A push writes the tarball, then the
sidecar, each whole by one rename, then creates the marker.  It takes no
lock and writes no file that another entry shares, so concurrent
pushers cannot lose each other's entries, and a reader who sees a
sidecar can open its tarball.  An entry exists once its sidecar does: a
tarball without one is a miss, and a marker without one is skipped.
``has`` is one stat, ``lookup`` one read, and the splice-donor search
one listing of a marker directory, whatever the cache's size.  Tarballs
are **deterministic** — members sorted, mtimes/uids zeroed, gzip
timestamp pinned — so pushing the same prefix twice yields
byte-identical archives and digests.

An older cache's index file and its lock file are ignored.  Its
sidecars still serve exact-hash pulls; recording no runtime hash, such
an entry becomes a splice donor only once it is pushed again.

Integrity is digest-first: :meth:`BuildCache.fetch_tarball` re-hashes
the bytes it read and refuses a mismatch with the sidecar's digest (the
stand-in for signature checking), which is also where the
``buildcache.corrupt`` fault site lives — the injected corruption must
be caught by exactly the check that would catch a real bit-flip.

File digests recorded in install manifests use
:func:`normalized_digest`: the session root's bytes are replaced by a
fixed placeholder before hashing, so a file's digest is invariant under
relocation and cold/warm installs can be compared byte-for-byte.
"""

import gzip
import hashlib
import io
import json
import os
import tarfile

from repro.errors import ReproError
from repro.util.filesystem import atomic_write, mkdirp

#: stands in for the session root when hashing file content, so digests
#: survive relocation (the only bytes relocation may change)
ROOT_PLACEHOLDER = b"@@REPRO_PLACEHOLDER@@"

#: name of the marker written into an extracted prefix's metadata dir
BINARY_DISTRIBUTION = "binary_distribution.json"

#: file-name suffix of an entry (sidecar) under the cache root
SIDECAR_SUFFIX = ".spec.json"


class BuildCacheError(ReproError):
    """Cache layout, packing, or extraction problems."""


class DigestMismatchError(BuildCacheError):
    """A cache entry's bytes do not hash to its sidecar's digest."""

    def __init__(self, name, expected, actual):
        super().__init__(
            "Build cache digest mismatch for %s" % name,
            long_message="expected sha256 %s, got %s" % (expected, actual),
        )
        self.expected = expected
        self.actual = actual


def normalized_digest(data, root):
    """SHA-256 of ``data`` with ``root``'s bytes replaced by a placeholder.

    Relocation rewrites exactly one thing — the session root embedded in
    artifact payloads (RPATHs, recorded prefixes) — so hashing with the
    root normalized out makes a file's digest stable across push,
    relocation, and re-extraction under any other root.
    """
    if isinstance(root, str):
        root = root.encode()
    if root:
        data = data.replace(root, ROOT_PLACEHOLDER)
    return hashlib.sha256(data).hexdigest()


def relocate_paths(prefix, mapping):
    """Rewrite several path prefixes at once in every file under ``prefix``.

    ``mapping`` is ``{old_path: new_path}``.  One walk applies every
    replacement (longest keys first, so nested prefixes cannot clobber
    each other).  This is the *splice* half of relocation: a donor's
    binaries reference its dependencies' hash-addressed prefixes, and a
    splice re-targets those onto the requested DAG's prefixes — the
    by-name equivalent of patchelf'ing new RPATHs into an ELF.
    Returns the number of files rewritten.
    """
    pairs = [
        (old.encode(), new.encode())
        for old, new in sorted(
            mapping.items(), key=lambda kv: (-len(kv[0]), kv[0])
        )
        if old != new
    ]
    if not pairs:
        return 0
    rewritten = 0
    for dirpath, _dirnames, filenames in os.walk(prefix):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as f:
                data = f.read()
            new_data = data
            for old_bytes, new_bytes in pairs:
                new_data = new_data.replace(old_bytes, new_bytes)
            if new_data != data:
                with open(path, "wb") as f:
                    f.write(new_data)
                rewritten += 1
    return rewritten


class BuildCache:
    """A directory of relocatable prefix tarballs, one sidecar entry per
    hash."""

    def __init__(self, root, telemetry=None, faults=None):
        self.root = os.path.abspath(root)
        self.telemetry = telemetry
        self.faults = faults

    # -- paths -------------------------------------------------------------
    def tarball_path(self, node, dag_hash=None):
        dag_hash = dag_hash or node.dag_hash()
        return os.path.join(
            self.root,
            dag_hash[:2],
            "%s-%s-%s.tar.gz" % (node.name, node.version, dag_hash),
        )

    def sidecar_path(self, dag_hash):
        return os.path.join(self.root, dag_hash + SIDECAR_SUFFIX)

    def _marker_dir(self, runtime_hash):
        return os.path.join(self.root, "runtime", runtime_hash)

    # -- queries -----------------------------------------------------------
    def has(self, dag_hash):
        """True once the hash's sidecar exists: one stat."""
        return os.path.isfile(self.sidecar_path(dag_hash))

    def lookup(self, dag_hash):
        """The entry for a hash — its sidecar, ``{"spec": dict, "root":
        str, "digest": str, "runtime_hash": str}`` — or None when it is
        absent or unreadable."""
        try:
            with open(self.sidecar_path(dag_hash), "rb") as f:
                return json.loads(f.read())
        except (OSError, ValueError):
            return None

    def entries(self):
        """(dag_hash, entry) pairs, sorted: a scan of every sidecar under
        the root, for ``buildcache list`` and tests."""
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        pairs = []
        for name in names:
            if name.endswith(SIDECAR_SUFFIX):
                dag_hash = name[: -len(SIDECAR_SUFFIX)]
                entry = self.lookup(dag_hash)
                if entry is not None:
                    pairs.append((dag_hash, entry))
        return pairs

    def find_splice_donor(self, node):
        """A cached entry whose binaries are reusable for ``node``.

        A donor matches when its *runtime* sub-DAG (link/run closure,
        :meth:`Spec.runtime_hash`) is identical to the requested node's
        but its full ``dag_hash`` differs — i.e. the cached prefix was
        built against the same ABI surface with different build-only
        tooling.  The candidates are the markers under
        ``runtime/<runtime_hash>/``, one listing; a marker whose sidecar
        is missing is skipped.  Returns ``(donor_hash, entry)`` or
        ``None``; ties are broken by sorted hash so concurrent planners
        pick the same donor.
        """
        dag_hash = node.dag_hash()
        try:
            candidates = os.listdir(self._marker_dir(node.runtime_hash()))
        except OSError:
            return None
        candidates.sort()
        for donor_hash in candidates:
            if donor_hash == dag_hash:
                continue
            entry = self.lookup(donor_hash)
            if entry is not None:
                return donor_hash, entry
        return None

    # -- push --------------------------------------------------------------
    def push(self, node, prefix, root):
        """Pack ``prefix`` (built under session ``root``) into the cache.

        Returns the tarball's sha256.  The archive is deterministic; the
        tarball and then the sidecar are each written whole by one
        rename, and the runtime marker is created last, so a reader who
        sees a sidecar can open its tarball and one who sees a marker
        can read its sidecar.
        """
        dag_hash = node.dag_hash()
        runtime_hash = node.runtime_hash()
        data = self._pack(prefix)
        digest = hashlib.sha256(data).hexdigest()

        tar_path = self.tarball_path(node, dag_hash)
        mkdirp(os.path.dirname(tar_path))
        atomic_write(tar_path, data)
        sidecar = {
            "spec": node.to_dict(),
            "root": root,
            "digest": digest,
            "runtime_hash": runtime_hash,
        }
        atomic_write(
            self.sidecar_path(dag_hash),
            json.dumps(sidecar, sort_keys=True).encode(),
        )
        marker_dir = self._marker_dir(runtime_hash)
        mkdirp(marker_dir)
        with open(os.path.join(marker_dir, dag_hash), "ab"):
            pass
        if self.telemetry is not None:
            self.telemetry.count("buildcache.push")
            self.telemetry.event(
                "buildcache.pushed",
                package=node.name,
                hash=dag_hash[:8],
                digest=digest[:12],
                bytes=len(data),
            )
        return digest

    @staticmethod
    def _pack(prefix):
        """Deterministic tar.gz bytes of a prefix's contents.

        Members are sorted, mtimes/uids/gids zeroed, and the gzip header
        timestamp pinned, so identical trees give identical digests on
        every machine and every run.
        """
        members = []
        for dirpath, dirnames, filenames in os.walk(prefix):
            dirnames.sort()
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                members.append((os.path.relpath(full, prefix), full))
        members.sort()

        raw = io.BytesIO()
        with tarfile.open(fileobj=raw, mode="w", format=tarfile.PAX_FORMAT) as tar:
            for arcname, full in members:
                info = tarfile.TarInfo(arcname)
                with open(full, "rb") as f:
                    data = f.read()
                info.size = len(data)
                info.mtime = 0
                info.uid = info.gid = 0
                info.uname = info.gname = ""
                info.mode = 0o755 if os.access(full, os.X_OK) else 0o644
                tar.addfile(info, io.BytesIO(data))
        out = io.BytesIO()
        with gzip.GzipFile(fileobj=out, mode="wb", mtime=0) as gz:
            gz.write(raw.getvalue())
        return out.getvalue()

    # -- pull --------------------------------------------------------------
    def fetch_tarball(self, node, dag_hash=None, splice=False):
        """Verified tarball bytes for a cached node, and its entry.

        Returns ``(data, entry)``: the bytes, re-hashed and checked
        against the digest of the sidecar they are returned with.  A
        mismatch raises :class:`DigestMismatchError` — the single choke
        point both real corruption and the ``buildcache.corrupt`` /
        ``buildcache.splice_stale`` faults must pass through.  Pass
        ``splice=True`` when fetching a *donor* tarball for splicing so
        the splice-specific fault site can arm independently.
        """
        dag_hash = dag_hash or node.dag_hash()
        entry = self.lookup(dag_hash)
        if entry is None:
            raise BuildCacheError("Build cache has no entry for %s" % node.name)
        path = self.tarball_path(node, dag_hash)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as e:
            raise BuildCacheError(
                "Build cache tarball missing for %s: %s" % (node.name, path),
                long_message=str(e),
            ) from e

        if self.faults is not None:
            # fault site: bytes corrupted between sidecar read and digest
            # check, as an on-disk bit-flip or truncated upload would be
            if self.faults.hit("buildcache.corrupt", target=node.name):
                data = b"\x00CORRUPT\x00" + data[16:]
            # fault site: a runtime-hash hit whose payload went stale —
            # the donor was re-uploaded corrupt, or the mirror served a
            # half-written object.  Must be caught by the digest check
            # and answered by falling back to a source build.
            if splice and self.faults.hit(
                "buildcache.splice_stale", target=node.name
            ):
                data = b"\x00STALE-SPLICE\x00" + data[16:]

        actual = hashlib.sha256(data).hexdigest()
        if actual != entry.get("digest"):
            if self.telemetry is not None:
                self.telemetry.count("buildcache.digest_mismatch")
            raise DigestMismatchError(node.name, entry.get("digest"), actual)
        return data, entry

    @staticmethod
    def extract(data, prefix):
        """Safely unpack tarball bytes into ``prefix``.

        Members are re-validated (no absolute paths, no ``..`` escapes)
        and written manually — a cache tarball is still foreign input.
        Returns the number of files written.
        """
        mkdirp(prefix)
        written = 0
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:gz") as tar:
            for member in tar.getmembers():
                name = member.name
                if name.startswith(("/", "..")) or ".." in name.split("/"):
                    raise BuildCacheError(
                        "Refusing unsafe tar member %r" % name
                    )
                if not member.isfile():
                    continue
                dest = os.path.join(prefix, name)
                mkdirp(os.path.dirname(dest))
                src = tar.extractfile(member)
                with open(dest, "wb") as f:
                    f.write(src.read())
                os.chmod(dest, member.mode & 0o777)
                written += 1
        return written

    def __repr__(self):
        return "BuildCache(%r)" % self.root
