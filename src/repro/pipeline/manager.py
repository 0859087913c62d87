"""The staged compilation pass manager.

A :class:`PassManager` runs an ordered list of named :class:`Stage`\\ s
(``parse`` → ``build-region`` → ``optimize`` → ``fatbinary`` →
``jit-lower`` → ``simulate``).  Each stage declares a typed input/output
artifact (:mod:`repro.pipeline.artifacts`); the manager enforces the
contracts, runs the stage's inter-stage verifier
(:mod:`repro.pipeline.verify`), and drives the instrumentation hook
protocol (``on_stage_start``/``on_stage_end``) with per-stage wall-clock;
hooks that report content-cache counters read the cache themselves.

Entry is artifact-driven: ``run(artifact)`` starts at the first stage
whose input type matches, so a pipeline can be resumed mid-way from a
dumped artifact (see :mod:`repro.pipeline.dump`) — e.g. replaying
``jit-lower`` from a dumped fat binary.  Content-cache keys are
*stage-scoped* (``fatbinary-…``, ``jit-lower-…``): a fat-binary hit
skips only the scheduling/regalloc work of that stage, never the stages
after it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import PipelineError
from repro.pipeline.artifacts import Artifact


@dataclass(frozen=True)
class Stage:
    """One named pipeline stage with its typed artifact contract.

    ``run`` maps the input artifact to the output artifact; ``verifier``
    (if any) checks the output and raises :class:`PipelineError` on a
    broken invariant.  ``input_type`` may be a tuple of accepted types.
    """

    name: str
    input_type: type | tuple[type, ...]
    output_type: type
    run: Callable[[Artifact], Artifact]
    verifier: Callable[[Artifact, str], None] | None = None


@dataclass
class StageRecord:
    """One stage's wall-clock time in one pipeline run."""

    stage: str
    wall_seconds: float = 0.0


@dataclass
class PipelineRun:
    """The result of one :meth:`PassManager.run`: artifacts + records."""

    artifacts: dict[str, Artifact] = field(default_factory=dict)
    records: list[StageRecord] = field(default_factory=list)

    @property
    def final(self) -> Artifact:
        if not self.records:
            raise PipelineError("pipeline ran no stages", stage="<entry>")
        return self.artifacts[self.records[-1].stage]

    def artifact(self, stage: str) -> Artifact:
        try:
            return self.artifacts[stage]
        except KeyError:
            raise PipelineError(
                f"no artifact recorded (ran: {sorted(self.artifacts)})",
                stage=stage,
            ) from None


class PipelineHooks:
    """Instrumentation hook protocol; subclass and override what you need."""

    def on_stage_start(self, stage: Stage, artifact: Artifact) -> None:
        """Called with the stage's *input* artifact, before it runs."""

    def on_stage_end(
        self, stage: Stage, artifact: Artifact, record: StageRecord
    ) -> None:
        """Called with the stage's *output* artifact and its record."""


class PassManager:
    """Run an ordered list of stages over typed artifacts.

    ``verify=False`` skips the inter-stage verifiers (used on the timing
    engine's per-region hot path); verification never changes artifacts,
    so figures are identical either way.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        hooks: Sequence[PipelineHooks] = (),
        verify: bool = True,
    ) -> None:
        if not stages:
            raise PipelineError("pipeline needs at least one stage", "<init>")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate stage names in {names}", "<init>")
        self.stages: tuple[Stage, ...] = tuple(stages)
        self.hooks: list[PipelineHooks] = list(hooks)
        self.verify = verify

    # ------------------------------------------------------------------
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def _entry_index(self, artifact: Artifact) -> int:
        for i, stage in enumerate(self.stages):
            if isinstance(artifact, stage.input_type):
                return i
        raise PipelineError(
            f"no stage accepts a {type(artifact).__name__} "
            f"(stages: {list(self.stage_names())})",
            stage="<entry>",
        )

    # ------------------------------------------------------------------
    def run(
        self,
        artifact: Artifact,
        until: str | None = None,
        hooks: Sequence[PipelineHooks] = (),
    ) -> PipelineRun:
        """Run stages starting at the first one accepting *artifact*.

        ``until`` stops (inclusively) after the named stage; extra
        *hooks* apply to this run only.
        """
        if until is not None and until not in self.stage_names():
            raise PipelineError(
                f"unknown stage {until!r} "
                f"(stages: {list(self.stage_names())})",
                stage="<entry>",
            )
        all_hooks = self.hooks + list(hooks)
        run = PipelineRun()
        current = artifact
        start = self._entry_index(artifact)
        if until is not None and until in {
            s.name for s in self.stages[:start]
        }:
            raise PipelineError(
                f"stage {until!r} precedes the entry stage "
                f"{self.stages[start].name!r} for a "
                f"{type(artifact).__name__}",
                stage="<entry>",
            )
        for stage in self.stages[start:]:
            if not isinstance(current, stage.input_type):
                raise PipelineError(
                    f"expected {_type_names(stage.input_type)} input, "
                    f"got {type(current).__name__}",
                    stage=stage.name,
                )
            for hook in all_hooks:
                hook.on_stage_start(stage, current)
            t0 = time.perf_counter()
            current = stage.run(current)
            wall = time.perf_counter() - t0
            if not isinstance(current, stage.output_type):
                raise PipelineError(
                    f"produced {type(current).__name__}, declared "
                    f"{stage.output_type.__name__}",
                    stage=stage.name,
                )
            if self.verify and stage.verifier is not None:
                stage.verifier(current, stage.name)
            record = StageRecord(stage=stage.name, wall_seconds=wall)
            run.artifacts[stage.name] = current
            run.records.append(record)
            for hook in all_hooks:
                hook.on_stage_end(stage, current, record)
            if until is not None and stage.name == until:
                break
        return run


def _type_names(tp: type | tuple[type, ...]) -> str:
    if isinstance(tp, tuple):
        return "/".join(t.__name__ for t in tp)
    return tp.__name__
