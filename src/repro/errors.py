"""Exception hierarchy for the Infinity Stream reproduction.

Every package raises subclasses of :class:`ReproError` so that callers can
catch failures from this library without intercepting unrelated exceptions.
The hierarchy mirrors the pipeline stages: frontend (kernel DSL), IR
construction, e-graph optimization, backend scheduling, runtime lowering,
and the microarchitectural simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GeometryError(ReproError):
    """Invalid lattice-space geometry (malformed hyperrectangle, bad dim)."""


class FrontendError(ReproError):
    """Kernel DSL could not be compiled into an sDFG/tDFG."""


class IRError(ReproError):
    """Malformed tensor dataflow graph (broken SSA, bad operand types)."""


class OptimizationError(ReproError):
    """E-graph optimization failed (no extractable term, rule misuse)."""


class SchedulingError(ReproError):
    """Backend scheduling or register allocation failed."""


class RegisterSpillError(SchedulingError):
    """The tDFG needs more wordline registers than the SRAM array offers.

    Mirrors the paper's implementation limitation #3: register spilling is
    unsupported; all studied kernels fit in the available registers.
    """


class LoweringError(ReproError):
    """JIT lowering of the tDFG to bit-serial commands failed."""


class LayoutError(ReproError):
    """No valid transposed data layout exists (tiling constraints unmet)."""


class PipelineError(ReproError):
    """A compilation-pipeline contract was violated (repro.pipeline).

    Raised by the :class:`~repro.pipeline.PassManager` when a stage
    produces (or receives) an artifact of the wrong type, and by the
    inter-stage IR verifiers when an artifact is malformed.  ``stage``
    names the failing pipeline stage; ``node`` (when set) is the
    offending IR node or command.
    """

    def __init__(self, message: str, stage: str, node: object = None) -> None:
        super().__init__(f"[stage {stage}] {message}")
        self.stage = stage
        self.node = node


class RegistryError(ReproError):
    """A discovery-registry contract was violated (repro.registry)."""


class DuplicateRegistrationError(RegistryError):
    """Two factories claimed the same registered name (or alias)."""


class UnknownNameError(RegistryError, KeyError, ValueError):
    """A name was not found in a discovery registry.

    Subclasses :class:`KeyError` and :class:`ValueError` as well as
    :class:`RegistryError` so the registry can replace the per-table
    lookup errors the seed code raised (``WORKLOADS[name]`` KeyErrors,
    the engine's ``ValueError`` on a bad paradigm) without breaking any
    caller's ``except`` clause.  Every layer resolving names through the
    registry fails with this one type — the CLI maps it to exit code 1,
    the service layer to ``JobSpecError`` (HTTP 400).
    """

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0] if self.args else ""


class SimulationError(ReproError):
    """The microarchitecture model was driven into an inconsistent state."""


class PointExecutionError(SimulationError):
    """A campaign simulation point failed (repro.exec.pool).

    Wraps the worker-side exception with the failing point's identity —
    the campaign ``section``, the point's ``index`` in spec order, and a
    human-readable ``spec`` description (workload / system / tile) — so
    a crash under ``--jobs N`` names the point, not just a traceback
    from an anonymous worker process.  Picklable across the process
    boundary by construction.
    """

    def __init__(
        self, message: str, section: str, index: int, spec: str
    ) -> None:
        super().__init__(
            f"point {index} of section {section!r} ({spec}): {message}"
        )
        self.message = message
        self.section = section
        self.index = index
        self.spec = spec

    def __reduce__(self):
        return (
            PointExecutionError,
            (self.message, self.section, self.index, self.spec),
        )


class ExecutionCancelled(SimulationError):
    """A point map was cancelled between points (repro.exec.pool).

    Raised when the executor's ``_cancelled()`` turns true; ``completed``
    counts the spec-order prefix of points that finished (and whose
    results the executor recorded in ``partial_results``) before the
    cancellation took effect.
    """

    def __init__(self, message: str, section: str, completed: int) -> None:
        super().__init__(
            f"section {section!r} cancelled after {completed} point(s): "
            f"{message}"
        )
        self.section = section
        self.completed = completed


class CoherenceError(SimulationError):
    """Illegal access to transposed data (e.g. core access while trans=1)."""


class ConfigError(ReproError):
    """Inconsistent system configuration parameters."""


# ----------------------------------------------------------------------
# Service layer (repro.serve)
# ----------------------------------------------------------------------
class ServeError(ReproError):
    """Base class for job-queue service failures (repro.serve)."""


class JobSpecError(ServeError):
    """A submitted job specification is malformed (user error)."""


class JobStateError(ServeError):
    """An illegal job state-machine transition was requested.

    The job lifecycle is ``queued -> running -> done|failed|cancelled``
    with ``running -> queued`` allowed for retry/preemption; anything
    else is a bug in the caller and raises this.
    """

    def __init__(self, job_id: str, current: str, requested: str) -> None:
        super().__init__(
            f"job {job_id}: illegal transition {current} -> {requested}"
        )
        self.job_id = job_id
        self.current = current
        self.requested = requested


class UnknownJobError(ServeError):
    """No job with the given id exists in the store."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


class AdmissionError(ServeError):
    """The scheduler refused to enqueue a job (structured rejection).

    ``reason`` is a stable machine-readable slug (``queue-full``,
    ``running-full``); ``limit``/``current`` quantify the violated cap
    so clients can back off intelligently (HTTP maps this to 429).
    """

    def __init__(self, reason: str, limit: int, current: int) -> None:
        super().__init__(
            f"admission rejected ({reason}): {current} >= limit {limit}"
        )
        self.reason = reason
        self.limit = limit
        self.current = current


class LeaseLostError(ServeError):
    """A worker's claim on a job is no longer valid.

    Raised when a heartbeat or terminal transition discovers the job is
    owned by another worker (the lease expired and was re-claimed) or is
    no longer running.  The losing worker must abandon the job without
    touching its state — the new owner's checkpoints and transitions are
    now authoritative.
    """

    def __init__(
        self, job_id: str, worker: str, owner: str | None, state: str
    ) -> None:
        super().__init__(
            f"job {job_id}: worker {worker!r} lost its lease "
            f"(now {state}, owned by {owner!r})"
        )
        self.job_id = job_id
        self.worker = worker
        self.owner = owner
        self.state = state


class JobCancelled(ServeError):
    """A running job was cancelled by request; partial checkpoints kept."""


class JobTimeout(ServeError):
    """A running job exceeded its per-job wall-clock budget."""


# ----------------------------------------------------------------------
# Record/replay (repro.replay)
# ----------------------------------------------------------------------
class SessionError(ReproError):
    """Base class for recorded-session failures (repro.replay)."""


class SessionFormatError(SessionError):
    """A session file is malformed beyond the tolerated torn tail.

    Torn *tails* (a partial final line from a dying recorder) are
    repaired silently, matching the JobStore WAL contract; a missing
    header, an unparseable committed line, or an ``end`` marker whose
    count disagrees with the jobs actually read mean the file lost
    middle records and cannot be trusted.
    """


class SessionVersionError(SessionFormatError):
    """The session was written by an incompatible format version.

    Rejecting outright beats misreading: a future recorder may change
    field semantics (timestamps, digest domains) without changing
    names, so a best-effort parse could silently diff garbage.
    """

    def __init__(self, found: object, supported: int) -> None:
        super().__init__(
            f"session format version {found!r} is not supported "
            f"(this build reads version {supported})"
        )
        self.found = found
        self.supported = supported
