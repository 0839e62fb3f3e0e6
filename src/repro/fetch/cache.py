"""The on-disk fetch cache: verified downloads, shared safely.

DAG-parallel installs fetch a shared dependency's tarball from several
worker threads (or several sessions pointing at one root) at once.  The
cache makes that safe and cheap:

* **atomic publish** — content is written to a unique temp file and
  ``os.replace``d into place, so a reader never observes a partially
  written archive, whatever else is running;
* **per-URL locking** — one lock per cache key (a thread lock in
  process, an ``fcntl`` lock across processes via
  :class:`repro.util.lock.Lock`), so concurrent fetches of the same URL
  collapse into a single download: the first holder fetches and
  publishes, the rest wake up to a cache hit.

Only *verified* bytes are cached (the fetcher checks declared MD5s
before calling :meth:`FetchCache.put`), so a poisoned upstream can
never become a sticky local poisoning.
"""

import hashlib
import os
import threading

from repro.util.filesystem import atomic_write, mkdirp
from repro.util.lock import Lock


class FetchCache:
    """Content-addressed archive cache under a directory."""

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self._url_locks = {}
        self._registry_lock = threading.Lock()

    def _key(self, url, digest=None):
        """Cache key for ``url`` expected to hash to ``digest``.

        The declared checksum is part of the key: when a package's
        ``md5`` for a version changes (a release re-pointed at the same
        URL), the old entry simply stops matching instead of serving
        stale — previously verified, now wrong — bytes forever.
        Unverified fetches (no declared digest) key on the URL alone.
        """
        token = url if digest is None else "%s#md5=%s" % (url, digest)
        return hashlib.sha256(token.encode()).hexdigest()[:32]

    def path_for(self, url, digest=None):
        return os.path.join(self.root, self._key(url, digest))

    def get(self, url, digest=None):
        """Cached bytes for ``url`` (at ``digest``, if declared), or None."""
        path = self.path_for(url, digest)
        try:
            with open(path, "rb") as f:
                return f.read()
        except OSError:
            return None

    def put(self, url, content, digest=None):
        """Atomically publish ``content`` as the cached copy of ``url``.

        Write-to-temp plus ``os.replace`` keeps concurrent readers (and
        racing writers of identical content) safe without coordination.
        """
        mkdirp(self.root)
        path = self.path_for(url, digest)
        atomic_write(path, content)
        return path

    def url_lock(self, url, digest=None):
        """The per-URL lock serializing fetches of one archive.

        One :class:`~repro.util.lock.Lock` object per key per cache, so
        threads in this process serialize on its internal thread lock
        and separate processes on the ``flock`` of the lock file.
        """
        key = self._key(url, digest)
        with self._registry_lock:
            lock = self._url_locks.get(key)
            if lock is None:
                lock = self._url_locks[key] = Lock(
                    os.path.join(self.root, ".locks", key + ".lock")
                )
            return lock

    def __repr__(self):
        return "FetchCache(%r)" % self.root
