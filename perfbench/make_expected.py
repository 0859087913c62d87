#!/usr/bin/env python3
"""Regenerate the committed expected outputs in ``perfbench/expected/``.

Usage (from the root of a checkout)::

    python3 perfbench/make_expected.py

Runs every kernel compile of the ``compile`` workload and every job the
``serve`` workload can draw, in this process, and writes their outcomes.
Only rerun it when the program's outputs are meant to change; the diff
of the two files then shows which outputs moved.
"""

from __future__ import annotations

import json
import sys

from harness import use_program


def compile_expected() -> dict:
    import compile_wl

    out = {}
    for name, source in compile_wl.kernel_sources().items():
        try:
            out[name] = compile_wl.outcome_of(compile_wl.compile_kernel(source))
        except Exception as exc:  # noqa: BLE001 — the error is the outcome
            out[name] = {"error": type(exc).__name__}
    return out


def serve_expected() -> dict:
    import serve_wl
    from repro.exec.cache import result_digest
    from repro.exec.pool import PointExecutor
    from repro.registry import WORKLOADS
    from repro.serve.jobs import run_job_spec, validate_spec

    specs = [serve_wl.CAMPAIGN_JOB, *serve_wl.workload_jobs(WORKLOADS.names())]
    return {
        serve_wl.spec_key(spec): result_digest(
            run_job_spec(validate_spec(spec), PointExecutor())
        )
        for spec in specs
    }


def main() -> int:
    use_program()
    from compile_wl import EXPECTED as COMPILE
    from serve_wl import EXPECTED as SERVE

    COMPILE.parent.mkdir(exist_ok=True)
    for path, data in ((COMPILE, compile_expected()), (SERVE, serve_expected())):
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(data)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
