"""Thin transports in front of the daemon: JSON lines over a socket or
stdio.

The wire protocol is deliberately minimal — one JSON object per line in
each direction, a shape any MCP-style tool host can speak:

request::

    {"id": 7, "endpoint": "spack_spec", "params": {"spec": "mpileaks"}}

response::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"type": "SpecError", "message": "..."}}

The transport never interprets requests: it parses, hands the endpoint
and params to :meth:`ServiceDaemon.call`, and serializes whatever comes
back.  The socket server gives each connection a thread, and ``call``
serves the request on that thread, with no hand-off; the daemon's
``workers`` bound limits how many requests work at once, and the rest
wait for a slot.  A ``shutdown`` request is answered first, then the
server unwinds.
"""

import json
import socket
import socketserver
import sys
import threading


def handle_line(daemon, line):
    """One request line in, one response line out (no trailing newline).

    All errors — parse failures, unknown endpoints, concretization
    errors — become ``ok: false`` responses; the connection survives.
    """
    request_id = None
    try:
        try:
            request = json.loads(line)
        except ValueError as e:
            raise ValueError("Request is not valid JSON: %s" % e) from e
        if not isinstance(request, dict):
            raise ValueError("Request must be a JSON object")
        request_id = request.get("id")
        endpoint = request.get("endpoint")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be a JSON object")
        result = daemon.call(endpoint, params)
        response = {"id": request_id, "ok": True, "result": result}
    except Exception as e:
        response = {
            "id": request_id,
            "ok": False,
            "error": {"type": type(e).__name__, "message": str(e)},
        }
    return json.dumps(response, sort_keys=True)


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        daemon = self.server.service_daemon
        for raw in self.rfile:
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            response = handle_line(daemon, line)
            try:
                self.wfile.write(response.encode() + b"\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            if daemon.shutdown_event.is_set():
                self.server.begin_shutdown()
                return


class SocketTransport(socketserver.ThreadingTCPServer):
    """``repro-spack serve --port N``: a threaded JSON-lines TCP server.

    Connection threads are daemonic and the listener reuses its address,
    so tests and the CLI can start/stop servers freely.  ``port=0``
    binds an ephemeral port; read it back from :attr:`address`.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, daemon, host="127.0.0.1", port=0):
        super().__init__((host, port), _RequestHandler)
        self.service_daemon = daemon
        self._shutdown_started = threading.Event()

    @property
    def address(self):
        """(host, port) actually bound."""
        return self.server_address[:2]

    def begin_shutdown(self):
        """Idempotent async shutdown (callable from handler threads —
        ``shutdown()`` itself would deadlock the serve loop's thread)."""
        if self._shutdown_started.is_set():
            return
        self._shutdown_started.set()
        threading.Thread(target=self.shutdown, daemon=True).start()

    def serve_until_shutdown(self, poll_interval=0.2):
        """Serve until a ``shutdown`` request lands, then drain."""
        try:
            self.serve_forever(poll_interval=poll_interval)
        finally:
            self.server_close()
            self.service_daemon.close()


class StdioTransport:
    """``repro-spack serve --stdio``: requests on stdin, responses on
    stdout — the transport an MCP tool host or a subprocess pipe wants.

    Requests are answered in arrival order, each on the reading thread;
    a repeat is served from the warm snapshot memo.
    """

    def __init__(self, daemon, stdin=None, stdout=None):
        self.daemon = daemon
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout

    def serve_until_shutdown(self):
        try:
            for raw in self.stdin:
                line = raw.strip()
                if not line:
                    continue
                self.stdout.write(handle_line(self.daemon, line) + "\n")
                self.stdout.flush()
                if self.daemon.shutdown_event.is_set():
                    break
        finally:
            self.daemon.close()


def connect(host, port, timeout=30.0):
    """A connected socket to a running service (client side)."""
    return socket.create_connection((host, port), timeout=timeout)
