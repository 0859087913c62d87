"""The simulation-point executor.

Campaign generators (one per paper figure) enumerate dozens of
independent (workload x paradigm x scale x tile) simulation points.
:class:`PointExecutor` runs a flat list of picklable point specs through
a module-level worker function across a :class:`ProcessPoolExecutor`,
with

* **deterministic ordering** — results come back in spec order, so the
  emitted tables are byte-identical to a serial run;
* **graceful serial fallback** — ``jobs <= 1``, a single point, or a
  non-picklable worker/spec all run inline in this process (the latter
  with a warning);
* **per-section wall-clock reporting** — every ``map`` records a
  :class:`SectionTiming` that :meth:`PointExecutor.report` formats into
  a table;
* **statistics propagation** — workers return their compilation-cache
  and JIT-stats counter deltas alongside each result, which the parent
  folds into its own process-global counters, so ``--jobs N`` reports
  the same aggregate hit rates a serial run would.

A pool initializer gives each worker process a fresh cache of its own,
or none when the parent's is disabled, whatever the multiprocessing
start method.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import ExecutionCancelled, PointExecutionError
from repro.exec import cache as cache_mod
from repro.trace import events as _trace
from repro.trace import metrics as metrics_mod
from repro.trace.events import Category as _Cat


@dataclass
class SectionTiming:
    """Wall-clock accounting for one mapped batch of points."""

    section: str
    points: int
    mode: str  # "serial" | "parallel xN"
    seconds: float


@dataclass
class PointExecutor:
    """Run independent simulation points, serially or across processes.

    **Interruption contract** (the serve layer's checkpoints depend on
    it): when a map is cut short — ``KeyboardInterrupt``, or
    :meth:`_cancelled` turning true between points — the executor
    records the spec-order prefix of completed results in
    ``partial_results`` *before* re-raising (``KeyboardInterrupt``
    propagates unchanged; cancellation raises
    :class:`~repro.errors.ExecutionCancelled`).  A parallel pool is shut
    down without waiting and its worker processes are terminated, so no
    half-finished point is ever reported as complete.
    """

    jobs: int = 1
    sections: list[SectionTiming] = field(default_factory=list)
    #: spec-order prefix of results completed before the most recent
    #: interruption (None when the last map finished normally).
    partial_results: list | None = field(default=None, repr=False)

    def _cancelled(self) -> bool:
        """Polled between points; a subclass that can be cancelled (the
        serve executor) overrides it."""
        return False

    def map(
        self,
        fn: Callable,
        specs: Iterable,
        section: str | None = None,
    ) -> list:
        """Apply *fn* to every spec; results are in spec order."""
        specs = list(specs)
        label = section or getattr(fn, "__name__", "points")
        self.partial_results = None
        start = time.perf_counter()
        mode = "serial"
        if self.jobs > 1 and len(specs) > 1:
            reason = _pickle_obstacle(fn, specs)
            if reason is None:
                results = self._map_parallel(fn, specs, label)
                mode = f"parallel x{min(self.jobs, len(specs))}"
            else:
                warnings.warn(
                    f"{label}: falling back to serial execution ({reason})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                results = self._map_serial(fn, specs, label)
        else:
            results = self._map_serial(fn, specs, label)
        seconds = time.perf_counter() - start
        self.sections.append(SectionTiming(label, len(specs), mode, seconds))
        tr = _trace.TRACER
        if tr is not None:
            tr.instant(
                f"campaign.{label}",
                _Cat.CAMPAIGN,
                track="campaign",
                points=len(specs),
                mode=mode,
                wall_seconds=seconds,
            )
        if metrics_mod.REGISTRY is not None:
            metrics_mod.REGISTRY.add(
                "campaign.points", float(len(specs)), section=label
            )
            metrics_mod.REGISTRY.observe(
                "campaign.wall_seconds", seconds, section=label
            )
        return results

    # ------------------------------------------------------------------
    def _map_serial(self, fn: Callable, specs: Sequence, label: str) -> list:
        """Run the points inline, with the same per-point metric scoping
        (and the same failure identity) a parallel run would have."""
        results = []
        for index, spec in enumerate(specs):
            if self._cancelled():
                self.partial_results = list(results)
                raise ExecutionCancelled(
                    "cancel requested", section=label, completed=len(results)
                )
            try:
                with metrics_mod.point_scope() as point_reg:
                    result = fn(spec)
                if point_reg is not None:
                    metrics_mod.REGISTRY.merge_snapshot(point_reg.snapshot())
            except KeyboardInterrupt:
                self.partial_results = list(results)
                raise
            except PointExecutionError:
                raise
            except Exception as exc:  # noqa: BLE001 — annotate and re-raise
                raise PointExecutionError(
                    f"{type(exc).__name__}: {exc}",
                    section=label,
                    index=index,
                    spec=describe_spec(spec),
                ) from exc
            results.append(result)
        return results

    def _map_parallel(self, fn: Callable, specs: Sequence, label: str) -> list:
        from repro.runtime import jit as jit_mod

        workers = min(self.jobs, len(specs))
        results = []
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                cache_mod.active_cache() is not None,
                metrics_mod.metrics_enabled(),
            ),
        )
        try:
            # Executor.map preserves input order; chunk to amortize IPC.
            chunksize = max(1, len(specs) // (workers * 4))
            for result, jit_delta, cache_delta, metrics_snap in pool.map(
                _call_point,
                [(fn, spec, label, i) for i, spec in enumerate(specs)],
                chunksize=chunksize,
            ):
                if self._cancelled():
                    raise ExecutionCancelled(
                        "cancel requested",
                        section=label,
                        completed=len(results),
                    )
                jit_mod.merge_global_stats(jit_delta)
                cache_mod.merge_stats(cache_delta)
                if metrics_snap is not None and metrics_mod.REGISTRY is not None:
                    # pool.map yields in input order, so snapshots merge
                    # in spec order — byte-identical to the serial path.
                    metrics_mod.REGISTRY.merge_snapshot(metrics_snap)
                results.append(result)
        except (KeyboardInterrupt, ExecutionCancelled):
            # Record the spec-order prefix that finished, then tear the
            # pool down hard: cancel queued work, terminate workers, and
            # re-raise so the caller can checkpoint `partial_results`.
            self.partial_results = list(results)
            _terminate_pool(pool)
            raise
        pool.shutdown()
        return results

    # ------------------------------------------------------------------
    def report(self) -> tuple[list[str], list[list]]:
        """(headers, rows) for :func:`repro.sim.campaign.format_table`."""
        headers = ["section", "points", "mode", "seconds"]
        rows = [
            [t.section, t.points, t.mode, t.seconds] for t in self.sections
        ]
        total = sum(t.seconds for t in self.sections)
        points = sum(t.points for t in self.sections)
        rows.append(["total", points, "", total])
        return headers, rows


def run_points(
    fn: Callable,
    specs: Iterable,
    executor: PointExecutor | None = None,
    section: str | None = None,
) -> list:
    """Map *fn* over *specs* through *executor*, or inline when None."""
    if executor is None:
        return [fn(spec) for spec in specs]
    return executor.map(fn, specs, section=section)


def describe_spec(spec) -> str:
    """A short human-readable identity for one point spec.

    Surfaces the fields a failing campaign point is recognized by —
    workload / system / paradigm / tile — without dumping whole configs.
    """
    if dataclasses.is_dataclass(spec) and not isinstance(spec, type):
        parts = []
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            parts.append(f"{f.name}={_brief(value)}")
        return f"{type(spec).__name__}({', '.join(parts)})"
    if isinstance(spec, dict):
        return "{" + ", ".join(
            f"{k}={_brief(v)}" for k, v in spec.items()
        ) + "}"
    if isinstance(spec, (tuple, list)):
        return "(" + ", ".join(_brief(v) for v in spec) + ")"
    return _brief(spec)


def _brief(value) -> str:
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


# ----------------------------------------------------------------------
# Worker-side plumbing (module-level: must be picklable by reference)
# ----------------------------------------------------------------------
_WORKER_METRICS = False


def _init_worker(cache_on: bool, metrics_on: bool = False) -> None:
    global _WORKER_METRICS
    cache_mod.configure_cache(enabled=cache_on)
    _WORKER_METRICS = metrics_on


def _call_point(payload):
    """Run one point and return its result plus stats-counter deltas."""
    from repro.runtime import jit as jit_mod

    fn, spec, section, index = payload
    jit_before = jit_mod.global_stats_snapshot()
    cache_before = cache_mod.stats_snapshot()
    try:
        if _WORKER_METRICS:
            # Same scoping as the serial path: the point accumulates
            # into a fresh registry from zero, so the parent's in-order
            # merge is byte-identical to a serial run.
            with metrics_mod.collecting() as point_reg:
                result = fn(spec)
            metrics_snap = point_reg.snapshot()
        else:
            result = fn(spec)
            metrics_snap = None
    except PointExecutionError:
        raise
    except Exception as exc:  # noqa: BLE001 — annotate and re-raise
        raise PointExecutionError(
            f"{type(exc).__name__}: {exc}",
            section=section,
            index=index,
            spec=describe_spec(spec),
        ) from exc
    jit_delta = jit_mod.global_stats_snapshot().delta(jit_before)
    cache_delta = cache_mod.stats_snapshot().delta(cache_before)
    return result, jit_delta, cache_delta, metrics_snap


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without draining it: cancel pending futures and
    terminate the worker processes (a point mid-flight is abandoned —
    it was never reported complete, so re-running it later is safe)."""
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # noqa: BLE001 — already-dead workers are fine
            pass


def _pickle_obstacle(fn: Callable, specs: Sequence) -> str | None:
    """Why (fn, specs) cannot cross a process boundary, or None if it can."""
    try:
        pickle.dumps(fn)
    except Exception as exc:  # noqa: BLE001 — any failure means fallback
        return f"worker function not picklable: {exc}"
    try:
        pickle.dumps(specs)
    except Exception as exc:  # noqa: BLE001
        return f"point specs not picklable: {exc}"
    return None
