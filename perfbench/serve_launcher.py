"""Start ``repro serve`` in this process, optionally timing server calls.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out FILE] -- serve ARGS...

Without ``--trace-out`` this only calls the CLI's entry point.  With it,
``Scheduler.admit``, ``JobStore.get`` and ``FileLock.acquire`` are timed
in this (the server) process, and their call counts and summed seconds
are written to FILE as JSON when the server exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from harness import use_program
from spans import END, LAYER, START, SpanRecorder

SERVER_CALLS = {
    "admit": ("repro.serve.scheduler:Scheduler.admit",),
    "store_get": ("repro.serve.store:JobStore.get",),
    "lock_wait": ("repro.exec.cache:FileLock.acquire",),
}


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_program()
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    recorder = SpanRecorder()
    recorder.install(SERVER_CALLS)
    try:
        return cli_main(argv)
    finally:
        recorder.uninstall()
        totals = {name: [0, 0.0] for name in SERVER_CALLS}
        for span in list(recorder.spans):
            total = totals[span[LAYER]]
            total[0] += 1
            total[1] += span[END] - span[START]
        trace_out.write_text(json.dumps(totals))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
