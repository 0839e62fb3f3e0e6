"""Service mode: a resident concretize/install/query daemon.

See :mod:`repro.service.daemon` for the dispatcher,
:mod:`repro.service.snapshot` for the frozen State every concretization
reads, and :mod:`repro.service.transport` for the JSON-lines
socket/stdio wire.

The names below load their modules on first use: every ``Session``
imports :mod:`repro.service.snapshot`, and a session that never serves
should not pay for the daemon, client and socket modules at start-up.
"""

import importlib

#: exported name -> defining module
_EXPORTS = {
    "ENDPOINTS": "repro.service.daemon",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
    "ServiceDaemon": "repro.service.daemon",
    "ServiceError": "repro.service.daemon",
    "SnapshotManager": "repro.service.snapshot",
    "SocketTransport": "repro.service.transport",
    "StateSnapshot": "repro.service.snapshot",
    "StdioTransport": "repro.service.transport",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    return getattr(importlib.import_module(module), name)
