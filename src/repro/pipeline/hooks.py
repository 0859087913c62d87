"""Instrumentation hooks: per-stage timing and artifact dumping.

Three :class:`~repro.pipeline.manager.PipelineHooks` implementations:

* :class:`TimingHooks` — collects wall-clock, artifact size and
  content-cache counters per stage and renders the ``--time-passes``
  table;
* :class:`DumpHooks` — serializes every intermediate artifact under
  ``--dump-dir`` (via the existing ``tdfg_to_json``/fingerprint
  machinery) so any stage can later be replayed from its dump
  (:mod:`repro.pipeline.dump`);
* :class:`TraceHooks` — forwards per-stage completion to the
  :mod:`repro.trace` observability layer (pipeline-stage spans in the
  Chrome trace, ``pipeline.stage.*`` counters in the metrics registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.cache import CacheStats, stats_snapshot
from repro.pipeline.artifacts import Artifact
from repro.pipeline.manager import PipelineHooks, Stage, StageRecord
from repro.trace import events as _trace
from repro.trace import metrics as _metrics
from repro.trace.events import Category as _Cat


@dataclass
class TimingRow:
    stage: str
    artifact: str
    wall_seconds: float
    artifact_bytes: int
    cache_hits: int
    cache_misses: int


class _CacheDeltaHooks(PipelineHooks):
    """Snapshot the content-cache counters around each stage."""

    def on_stage_start(self, stage: Stage, artifact: Artifact) -> None:
        self._cache_before = stats_snapshot()

    def _cache_delta(self) -> CacheStats:
        return stats_snapshot().delta(self._cache_before)


class TimingHooks(_CacheDeltaHooks):
    """Collect per-stage wall-clock/artifact-size/cache counters."""

    def __init__(self) -> None:
        self.rows: list[TimingRow] = []

    def on_stage_end(
        self, stage: Stage, artifact: Artifact, record: StageRecord
    ) -> None:
        cache = self._cache_delta()
        self.rows.append(
            TimingRow(
                stage=stage.name,
                artifact=type(artifact).__name__,
                wall_seconds=record.wall_seconds,
                artifact_bytes=artifact.size_bytes(),
                cache_hits=cache.hits,
                cache_misses=cache.misses,
            )
        )

    @property
    def total_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.rows)

    def format_table(self) -> str:
        """The ``--time-passes`` table: one row per executed stage."""
        header = (
            f"{'stage':<14s} {'wall[ms]':>9s} {'artifact':<18s} "
            f"{'bytes':>9s} {'cache':>7s}"
        )
        lines = ["-- pipeline timing --", header]
        for r in self.rows:
            cache = (
                f"{r.cache_hits}/{r.cache_hits + r.cache_misses}"
                if (r.cache_hits or r.cache_misses)
                else "-"
            )
            lines.append(
                f"{r.stage:<14s} {r.wall_seconds * 1e3:>9.2f} "
                f"{r.artifact:<18s} {r.artifact_bytes:>9d} {cache:>7s}"
            )
        lines.append(
            f"{'total':<14s} {self.total_seconds * 1e3:>9.2f}"
        )
        return "\n".join(lines)


class TraceHooks(_CacheDeltaHooks):
    """Forward stage completions to the active tracer/metrics registry.

    Timestamps use the tracer's sequence clock (wall-clock would break
    byte-comparable traces); the measured wall time rides along in the
    event args and in the ``pipeline.stage.wall_seconds`` distribution.
    """

    def on_stage_end(
        self, stage: Stage, artifact: Artifact, record: StageRecord
    ) -> None:
        cache = self._cache_delta()
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.add("pipeline.stage.runs", 1.0, stage=stage.name)
            reg.add("pipeline.stage.cache_hits", cache.hits, stage=stage.name)
            reg.add(
                "pipeline.stage.cache_misses", cache.misses, stage=stage.name
            )
            reg.observe(
                "pipeline.stage.wall_seconds",
                record.wall_seconds,
                stage=stage.name,
            )
            reg.observe(
                "pipeline.stage.artifact_bytes",
                float(artifact.size_bytes()),
                stage=stage.name,
            )
        tr = _trace.TRACER
        if tr is not None:
            tr.instant(
                f"pipeline.{stage.name}",
                _Cat.PIPELINE,
                track="pipeline",
                artifact=type(artifact).__name__,
                wall_seconds=record.wall_seconds,
                cache_hits=cache.hits,
                cache_misses=cache.misses,
            )


@dataclass
class DumpHooks(PipelineHooks):
    """Serialize each stage's output artifact under ``dump_dir``.

    Writes one file per stage plus a ``manifest.json`` that
    :func:`repro.pipeline.dump.load_stage_input` uses to replay any
    stage from its dumped input.
    """

    dump_dir: str | Path
    _entries: list[dict] = field(default_factory=list)

    def on_stage_end(
        self, stage: Stage, artifact: Artifact, record: StageRecord
    ) -> None:
        from repro.pipeline.dump import dump_artifact, write_manifest

        entry = dump_artifact(
            artifact, Path(self.dump_dir), len(self._entries), stage.name
        )
        entry["wall_seconds"] = record.wall_seconds
        self._entries.append(entry)
        write_manifest(Path(self.dump_dir), self._entries)
