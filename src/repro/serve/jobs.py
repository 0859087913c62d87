"""Job model for the service layer: states, records, and spec execution.

A *job* is one unit of queued work — either a single-kernel simulation
(``{"kind": "kernel", ...}``) or a whole figure campaign (``{"kind":
"campaign", "figure": "fig14", "scale": 0.05}``).  Specs are plain JSON
dicts so they survive the store's write-ahead log and the HTTP API
unchanged.

The state machine (enforced by :func:`check_transition`)::

    queued ──> running ──> done
       │          │──────> failed      (after max_attempts)
       │          │──────> cancelled
       │          └──────> queued      (retry with backoff, or a
       │                                graceful-shutdown preemption)
       └────────> cancelled

``running -> queued`` is the resume edge: per-point checkpoints
accumulated during the interrupted attempt are kept, so the next
attempt only simulates the points that never finished.
"""

from __future__ import annotations

import base64
import enum
import pickle
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

from repro.egraph.saturate import OptimizerConfig
from repro.errors import (
    JobSpecError,
    JobStateError,
    OptimizationError,
    UnknownNameError,
)
from repro.registry import (
    FIGURES,
    INF_S,
    PARADIGMS,
    SYSTEMS,
    WORKLOADS,
)


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


VALID_TRANSITIONS: frozenset[tuple[JobState, JobState]] = frozenset(
    {
        (JobState.QUEUED, JobState.RUNNING),
        (JobState.QUEUED, JobState.CANCELLED),
        (JobState.RUNNING, JobState.DONE),
        (JobState.RUNNING, JobState.FAILED),
        (JobState.RUNNING, JobState.CANCELLED),
        (JobState.RUNNING, JobState.QUEUED),  # retry / preemption
    }
)


def check_transition(job_id: str, current: JobState, new: JobState) -> None:
    if (current, new) not in VALID_TRANSITIONS:
        raise JobStateError(job_id, current.value, new.value)


@dataclass
class Job:
    """One queued/running/finished unit of work (a store record)."""

    job_id: str
    spec: dict
    priority: int = 0
    state: JobState = JobState.QUEUED
    attempts: int = 0
    max_attempts: int = 3
    seq: int = 0  # submission order: the FIFO tiebreak within priority
    not_before: float = 0.0  # earliest schedulable time (retry backoff)
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = None
    #: "<section>:<index>" -> encoded point result (see encode_point)
    checkpoints: dict[str, str] = field(default_factory=dict)
    #: fair-share / quota accounting key ("default" when unspecified)
    tenant: str = "default"
    #: content fingerprint of the normalized spec (coalescing key)
    fingerprint: str = ""
    #: claiming worker id while running, else None
    worker: str | None = None
    #: lease expiry (store clock); 0.0 = unleased, which a claim
    #: treats as lapsed
    lease_until: float = 0.0
    #: durable cross-process cancellation flag (set via the store)
    cancel_requested: bool = False
    #: job_id of the leader whose execution produced our result, when
    #: this submission was coalesced instead of executed
    coalesced_with: str | None = None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = asdict(self)
        out["state"] = self.state.value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "Job":
        raw = dict(raw)
        raw["state"] = JobState(raw["state"])
        return cls(**raw)

    def summary(self) -> dict:
        """The status-listing view: everything but result payloads."""
        return {
            "job_id": self.job_id,
            "kind": self.spec.get("kind"),
            "name": describe_spec_dict(self.spec),
            "priority": self.priority,
            "state": self.state.value,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "checkpoints": len(self.checkpoints),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "tenant": self.tenant,
            "worker": self.worker,
            "coalesced_with": self.coalesced_with,
        }


# ----------------------------------------------------------------------
# Point-result checkpoints: picklable campaign results as JSON strings.
# ----------------------------------------------------------------------
def checkpoint_key(section: str, index: int) -> str:
    return f"{section}:{index}"


def encode_point(result) -> str:
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_point(payload: str):
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


# ----------------------------------------------------------------------
# Spec validation + execution
# ----------------------------------------------------------------------
def campaign_registry() -> dict[str, Callable]:
    """figure name -> ``fn(scale, executor) -> (headers, rows)``.

    A view over :data:`repro.registry.FIGURES` — campaign drivers
    register themselves in ``repro.sim.campaign`` (or via the
    ``repro.figures`` entry point) with that uniform call contract.
    """
    return {name: FIGURES.resolve(name) for name in FIGURES.names()}


def _validate_system(spec: dict) -> str | None:
    """The optional ``"system"`` key, checked against the registry."""
    system = spec.get("system")
    if system is None:
        return None
    try:
        SYSTEMS.get(str(system))
    except UnknownNameError as exc:
        raise JobSpecError(str(exc)) from exc
    return str(system)


def _validate_paradigm(spec: dict, default: str = INF_S) -> str:
    paradigm = spec.get("paradigm", default)
    try:
        PARADIGMS.get(str(paradigm))
    except UnknownNameError as exc:
        raise JobSpecError(str(exc)) from exc
    return str(paradigm)


def _spec_optimizer(spec: dict) -> OptimizerConfig | None:
    """The optimizer a kernel spec asks for (None = off).

    The spec carries the settings as flat keys named after the config's
    fields; a missing one takes the config's default.
    """
    if not spec.get("optimize"):
        return None
    knobs = {
        f.name: spec[f.name] for f in fields(OptimizerConfig) if f.name in spec
    }
    try:
        return OptimizerConfig(**knobs)
    except OptimizationError as exc:
        raise JobSpecError(str(exc)) from None


def validate_spec(spec) -> dict:
    """Check a submitted spec; returns it normalized or raises
    :class:`~repro.errors.JobSpecError` (a user error -> HTTP 400)."""
    if not isinstance(spec, dict):
        raise JobSpecError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "campaign":
        figure = spec.get("figure")
        if not isinstance(figure, str) or figure not in FIGURES:
            raise JobSpecError(
                f"unknown campaign figure {figure!r}; expected one of "
                f"{', '.join(FIGURES.names())}"
            )
        scale = spec.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise JobSpecError(f"campaign scale must be > 0, got {scale!r}")
        return {"kind": "campaign", "figure": figure, "scale": float(scale)}
    if kind == "workload":
        name = spec.get("workload")
        try:
            entry = WORKLOADS.get(str(name))
        except UnknownNameError as exc:
            raise JobSpecError(str(exc)) from exc
        scale = spec.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or scale <= 0:
            raise JobSpecError(f"workload scale must be > 0, got {scale!r}")
        out = {
            "kind": "workload",
            "workload": entry.name,  # canonical (aliases resolved)
            "paradigm": _validate_paradigm(spec),
            "scale": float(scale),
        }
        system = _validate_system(spec)
        if system is not None:
            out["system"] = system
        if "dataflow" in spec:
            out["dataflow"] = str(spec["dataflow"])
        return out
    if kind == "kernel":
        source = spec.get("source")
        if not isinstance(source, str) or not source.strip():
            raise JobSpecError("kernel job needs a non-empty 'source' string")
        arrays = spec.get("arrays")
        if not isinstance(arrays, dict) or not arrays:
            raise JobSpecError(
                "kernel job needs 'arrays' ({name: [dims...]})"
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise JobSpecError("'params' must be an object of NAME -> int")
        paradigm = _validate_paradigm(spec)
        out = {
            "kind": "kernel",
            "name": str(spec.get("name", "kernel")),
            "source": source,
            "arrays": {
                str(k): [d for d in v] for k, v in arrays.items()
            },
            "params": {str(k): int(v) for k, v in params.items()},
            "dataflow": spec.get("dataflow", "inner"),
            "paradigm": paradigm,
            "iterations": int(spec.get("iterations", 1)),
        }
        system = _validate_system(spec)
        if system is not None:
            out["system"] = system
        optimizer = _spec_optimizer(spec)
        if optimizer is not None:
            out["optimize"] = True
            out.update(asdict(optimizer))
        return out
    raise JobSpecError(
        f"job kind must be 'kernel', 'workload' or 'campaign', got {kind!r}"
    )


def run_job_spec(spec: dict, executor) -> dict:
    """Execute a validated spec; the JSON-serializable result payload.

    Campaign points go through *executor* (the serve worker passes a
    :class:`~repro.serve.worker.CheckpointingExecutor`, so completed
    points survive crashes and cancellations).
    """
    kind = spec["kind"]
    if kind == "campaign":
        from repro.sim.campaign import format_table

        fn = campaign_registry()[spec["figure"]]
        headers, rows = fn(spec["scale"], executor)
        return {
            "kind": "campaign",
            "figure": spec["figure"],
            "scale": spec["scale"],
            "headers": list(headers),
            "rows": [list(r) for r in rows],
            "table": format_table(list(headers), [list(r) for r in rows]),
        }
    if kind == "workload":
        return _run_workload_spec(spec)
    if kind == "kernel":
        return _run_kernel_spec(spec)
    raise JobSpecError(f"unrunnable job kind {kind!r}")


def _run_workload_spec(spec: dict) -> dict:
    """Run one registered workload under one registered paradigm."""
    kwargs = {}
    if "dataflow" in spec:
        kwargs["dataflow"] = spec["dataflow"]
    wl = WORKLOADS.create(spec["workload"], scale=spec["scale"], **kwargs)
    system = SYSTEMS.create(spec["system"]) if spec.get("system") else None
    runner = PARADIGMS.create(spec["paradigm"], system=system)
    result = runner.run(wl)
    return {
        "kind": "workload",
        "workload": spec["workload"],
        "name": wl.name,
        "scale": spec["scale"],
        "paradigm": result.paradigm,
        "total_cycles": result.total_cycles,
        "cycles": result.cycles.as_dict(),
        "traffic_byte_hops": result.traffic.total,
        "energy_nj": result.energy_nj,
        "in_memory_fraction": result.ops.in_memory_fraction,
    }


def _run_kernel_spec(spec: dict) -> dict:
    from repro.ir.dtypes import DType
    from repro.pipeline import SourceArtifact, simulate_pipeline

    source = SourceArtifact(
        name=spec["name"],
        source=spec["source"],
        arrays={
            name: tuple(
                int(d) if isinstance(d, int) or str(d).isdigit() else d
                for d in dims
            )
            for name, dims in spec["arrays"].items()
        },
        dtype=DType.FP32,
        params=dict(spec["params"]),
        dataflow=spec["dataflow"],
    )
    pipeline = simulate_pipeline(
        paradigm=spec["paradigm"],
        iterations=spec["iterations"],
        system=SYSTEMS.create(spec["system"]) if spec.get("system") else None,
        optimizer=_spec_optimizer(spec),
    )
    result = pipeline.run(source).final.result
    return {
        "kind": "kernel",
        "name": spec["name"],
        "paradigm": result.paradigm,
        "total_cycles": result.total_cycles,
        "cycles": result.cycles.as_dict(),
        "traffic_byte_hops": result.traffic.total,
        "energy_nj": result.energy_nj,
        "in_memory_fraction": result.ops.in_memory_fraction,
    }


def describe_spec_dict(spec: dict) -> str:
    """A short human label for listings: 'fig14@0.05' / 'saxpy/inf-s'."""
    if spec.get("kind") == "campaign":
        return f"{spec.get('figure')}@{spec.get('scale')}"
    if spec.get("kind") == "kernel":
        return f"{spec.get('name')}/{spec.get('paradigm')}"
    if spec.get("kind") == "workload":
        return f"{spec.get('workload')}/{spec.get('paradigm')}"
    return str(spec.get("kind"))
