"""A minimal client for the service wire protocol.

One socket, JSON lines out, JSON lines back.  Each client instance is a
single-threaded conversation (ids are matched, responses arrive in
request order on one connection); open one client per thread to issue
concurrent requests — the daemon serves each connection on its own
thread, up to its ``workers`` bound.

    with ServiceClient("127.0.0.1", port) as client:
        concrete = client.call("spack_spec", spec="mpileaks ^mpich")
        client.shutdown()
"""

import itertools
import json

from repro.errors import ReproError
from repro.service.transport import connect


class ServiceClientError(ReproError):
    """The server answered ``ok: false`` (carries the remote error)."""

    def __init__(self, error):
        self.remote_type = (error or {}).get("type", "Error")
        self.remote_message = (error or {}).get("message", "")
        super().__init__(
            "service error [%s]: %s" % (self.remote_type, self.remote_message)
        )


class ServiceClient:
    """Blocking JSON-lines client for one daemon connection."""

    def __init__(self, host="127.0.0.1", port=0, timeout=60.0):
        self._sock = connect(host, port, timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8")
        self._ids = itertools.count(1)

    def call(self, endpoint, **params):
        """Issue one request; returns the result or raises
        :class:`ServiceClientError` with the server's error."""
        request_id = next(self._ids)
        self._writer.write(json.dumps(
            {"id": request_id, "endpoint": endpoint, "params": params}
        ) + "\n")
        self._writer.flush()
        line = self._reader.readline()
        if not line:
            raise ReproError("Service closed the connection mid-request")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceClientError(response.get("error"))
        return response.get("result")

    # -- conveniences mirroring the tool surface ---------------------------
    def spack_list(self, query=None):
        return self.call("spack_list", query=query)

    def spack_info(self, package):
        return self.call("spack_info", package=package)

    def spack_spec(self, spec, concretizer=None):
        return self.call("spack_spec", spec=spec, concretizer=concretizer)

    def spack_install(self, spec, **kwargs):
        return self.call("spack_install", spec=spec, **kwargs)

    def spack_find(self, query=None):
        return self.call("spack_find", query=query)

    def spack_env(self, roots, concretizer=None, jobs=None):
        return self.call("spack_env", roots=list(roots),
                         concretizer=concretizer, jobs=jobs)

    def status(self):
        return self.call("status")

    def shutdown(self):
        return self.call("shutdown")

    def close(self):
        for stream in (self._reader, self._writer):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
