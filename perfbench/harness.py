"""Shared plumbing for the workloads: operation records, statistics,
set-up timing, peak memory and the result line.

Times are reported at the reference speed (see ``reference.py``).

Nothing here imports the program under test; each workload module does
that itself, after :func:`use_program` has put ``src/`` on the path.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from reference import Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for the run (job stores, trace files); gitignored
WORK = ROOT / ".perfbench"

INF = math.inf

#: how many times set-up is repeated; ``setup_s`` is their median
SETUP_REPEATS = 11
#: reference slices timed after each set-up
SETUP_SLICES = 4
#: each timed window holds at least this many operations, so that at
#: least ten samples lie beyond p90
MIN_OPS = 100


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def use_program() -> None:
    """Make ``src/`` importable here and in every child process."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if str(SRC) not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *parts])


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass
class Window:
    """The operations of one timed window.

    An operation is *ok* when it finished with its expected output.  It
    *failed* when its outcome differs from the committed expectation: a
    mismatch, an unexpected exception or a timeout.  An operation whose
    committed expectation is a known error (conv2d's register spill) is
    neither ok nor failed.  Every operation that is not ok counts as
    +inf latency.
    """

    latencies: list[float] = field(default_factory=list)
    ok: int = 0
    failed: int = 0
    seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, latency: float, ok: bool, failed: bool = False) -> None:
        self.latencies.append(latency if ok else INF)
        self.ok += ok
        self.failed += failed

    def fail(self, note: str) -> None:
        self.record(INF, ok=False, failed=True)
        if len(self.notes) < 20:
            self.notes.append(note)


def percentile(values: list[float], q: float, band: float) -> float:
    """Smoothed percentile: the mean of the samples whose rank lies
    within ``q +- band`` (at least one sample).

    A workload made of a few distinct operations (14 kernels) puts its
    median between two of them, where a single order statistic jumps
    between their tails; the band average does not.  Infinite samples
    (failed operations) sort last and make the result infinite when
    they fall inside the band.
    """
    xs = sorted(values)
    n = len(xs)
    lo = min(n - 1, int((q - band) * n))
    hi = max(lo + 1, math.ceil((q + band) * n))
    band = xs[lo:hi]
    return sum(band) / len(band)


def end_to_end(window: Window, setup_s: float, peak_rss_mb: float,
               reference: Reference | None,
               setup_n: int = SETUP_REPEATS) -> dict:
    """The six end-to-end metrics: name -> (value, unit, samples).

    *setup_s* (the median of *setup_n* set-ups) is already at the
    reference speed; the window's rate and latencies are brought to it
    by the *reference* slices' slowdown, or stay raw without them.  p50
    averages the samples ranked 45-55 %; p90 those ranked 87.5-92.5 %,
    a band narrow enough to stay below the top 7 %.
    """
    n = window.attempted
    lat = window.latencies
    slowdown = reference.slowdown if reference else 1.0
    return {
        "setup_s": (setup_s, "s", setup_n),
        "ops_per_s": (window.ok / window.seconds * slowdown, "1/s", window.ok),
        "latency_p50_s": (percentile(lat, 0.5, band=0.05) / slowdown, "s", n),
        "latency_p90_s": (percentile(lat, 0.9, band=0.025) / slowdown, "s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "ok_frac": (window.ok / n, "fraction", n),
    }


# ----------------------------------------------------------------------
# Set-up and memory
# ----------------------------------------------------------------------
def probe_setup(workload: str) -> tuple[float, Reference]:
    """Seconds a fresh interpreter spends importing the program, doing
    its lazy set-up and one warm-up operation: the median of
    :data:`SETUP_REPEATS` probes at the reference speed, and the slices
    timed between the probes."""
    samples = []
    reference = Reference()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        reference.tick(SETUP_SLICES)
    return statistics.median(samples) / reference.slowdown, reference


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, 0 if it is gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def emit(metrics: dict, window: Window, correct: bool,
         speeds: dict[str, Reference]) -> None:
    """Print a readable table, then the one-line JSON result last.

    *speeds* names the reference slices of each phase of the run, shown
    so that a reader can recover the raw times.
    """
    width = max(len(name) for name in metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<9} n={samples}")
    for phase, reference in speeds.items():
        print(f"slowdown ({phase}) {reference.slowdown:.4f} "
              f"over n={len(reference.slices)} reference slices")
    for note in window.notes:
        print(f"note: {note}")
    result = {
        "correct": bool(correct),
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, unit, _samples) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)


def _finite(value: float) -> float:
    # JSON has no infinity; a percentile that lands on a failed
    # operation is reported as the largest double (and the run is
    # already marked incorrect by its failures).
    return value if math.isfinite(value) else sys.float_info.max
