"""Start ``repro.service`` for the benchmark, optionally with layer spans.

Usage::

    python3 perfbench/launch_service.py [--trace-dir DIR] -- SERVICE-ARGS...

Without ``--trace-dir`` this is exactly ``python -m repro.service
SERVICE-ARGS``.  With it, the layer wrappers of ``layers.py`` are
installed before the server builds its job manager, and the server's
spans are written to DIR when it exits after a graceful drain.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.service import __main__ as service

    if trace_dir is None:
        return service.main(argv)
    import layers

    recorder = layers.Recorder(trace_dir)
    missing = layers.install(recorder)
    if missing:
        print(f"perfbench: not traced: {', '.join(missing)}", file=sys.stderr)
    try:
        return service.main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
