"""Fleet management: N worker subprocesses over one shared store.

:class:`ServeFleet` spawns ``python -m repro.serve.worker`` processes,
each of which opens the store root and claims jobs under a lease (see
:mod:`repro.serve.scheduler`).  The fleet owner (usually
:class:`~repro.serve.service.ReproService`) only manages process
lifecycle — all coordination happens through the store's WAL + file
lock, so a worker surviving its parent, or a parent restarting under
live workers, is safe by construction.

Each worker gets its own :class:`~repro.serve.doorbell.Doorbell`: the
fleet keeps the write end and :meth:`ServeFleet.ring` rings them all
after a submit, while the worker holds both ends (its SIGTERM handler
rings the pipe it waits on).  Workers also get the write end of
the service's outcomes doorbell, rung after every job outcome.

Shutdown is graceful by default: SIGTERM lets each worker finish its
in-flight point, checkpoint, and preempt its job back to ``queued``;
workers that ignore the signal past the timeout are killed, and their
leases expire for a sibling (or the next fleet) to reclaim.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.serve.doorbell import Doorbell
from repro.serve.scheduler import SchedulerConfig


class ServeFleet:
    """Spawn and stop the worker subprocesses for one store root."""

    def __init__(
        self,
        root: str | os.PathLike,
        workers: int,
        config: SchedulerConfig | None = None,
        jobs: int = 1,
        fsync: bool = True,
        outcome_fd: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.workers = max(1, int(workers))
        self.config = config or SchedulerConfig()
        self.jobs = jobs
        self.fsync = fsync
        self.outcome_fd = outcome_fd
        self.procs: list[subprocess.Popen] = []
        self.doorbells: list[Doorbell] = []

    # ------------------------------------------------------------------
    def _command(self, index: int, fds: tuple[int, int]) -> list[str]:
        # `-c` rather than `-m repro.serve.worker`: the package imports
        # the worker module at init, and runpy warns when asked to
        # execute an already-imported module.  The inherited fds go to
        # main() as arguments, not as command-line flags.
        cmd = [
            sys.executable,
            "-c",
            "import sys; from repro.serve.worker import main; "
            f"sys.exit(main(sys.argv[1:], doorbell_fds={fds}, "
            f"outcome_fd={self.outcome_fd}))",
            "--dir",
            str(self.root),
            "--worker-id",
            f"w{index}",
            "--jobs",
            str(self.jobs),
            "--config-json",
            self.config.to_json(),
        ]
        if not self.fsync:
            cmd.append("--no-fsync")
        return cmd

    def _env(self) -> dict[str, str]:
        # Make the running repro package importable in the child even
        # when the parent was launched via PYTHONPATH=src.
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        extra = env.get("PYTHONPATH", "")
        if src not in extra.split(os.pathsep):
            env["PYTHONPATH"] = (
                src + os.pathsep + extra if extra else src
            )
        return env

    # ------------------------------------------------------------------
    def start(self) -> None:
        env = self._env()
        for index in range(self.workers):
            fds = os.pipe()
            passed = fds if self.outcome_fd is None else (
                *fds, self.outcome_fd
            )
            self.procs.append(
                subprocess.Popen(
                    self._command(index, fds), env=env, pass_fds=passed
                )
            )
            # The worker alone reads: once it dies, rings hit a broken
            # pipe, which Doorbell.ring ignores.
            os.close(fds[0])
            self.doorbells.append(Doorbell(write_fd=fds[1]))

    def ring(self) -> None:
        """Wake every idle worker (after a submit)."""
        for bell in self.doorbells:
            bell.ring()

    def alive(self) -> int:
        """How many worker processes are currently running."""
        return sum(1 for p in self.procs if p.poll() is None)

    def kill_one(self, index: int = 0) -> int | None:
        """SIGKILL one worker (fault injection); its pid, or None."""
        if index >= len(self.procs):
            return None
        proc = self.procs[index]
        if proc.poll() is not None:
            return None
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        return proc.pid

    def stop(self, timeout: float = 30.0) -> list[int]:
        """Graceful SIGTERM fan-out; the workers' exit codes."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        codes: list[int] = []
        for proc in self.procs:
            try:
                codes.append(proc.wait(timeout=timeout))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait(timeout=timeout))
        for bell in self.doorbells:
            bell.close()
        return codes

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServeFleet":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
