"""Start ``repro-spack serve`` with the layer wrappers installed.

    python3 perfbench/traced_serve.py --trace-out FILE -- --root DIR serve --port 0

Each request line the daemon handles is one operation (ids 1, 2, ...;
the benchmark's client sends one request at a time).  When the daemon
stops, the wrappers are removed and the trace is written to FILE.
"""

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    import layers
    from tracer import Tracer

    split = argv.index("--")
    trace_out = argv[argv.index("--trace-out") + 1]
    tracer = Tracer()
    layers.install(tracer)

    from repro.service import transport

    ops = itertools.count(1)
    traced_handle_line = transport.handle_line

    def numbered(daemon, line):
        tracer.op = next(ops)
        return traced_handle_line(daemon, line)

    tracer.patch(transport, "handle_line", numbered)
    intern_before = layers.intern_stats()

    from repro.cli.main import main as cli_main

    try:
        return cli_main(argv[split + 1:])
    finally:
        tracer.restore()
        tracer.write(trace_out, extra={"intern": {
            key: value - intern_before[key]
            for key, value in layers.intern_stats().items()
        }})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
