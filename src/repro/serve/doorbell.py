"""Doorbells: wake a waiting thread or process instead of letting it poll.

A :class:`Doorbell` is a pipe.  :meth:`~Doorbell.ring` writes one byte
without blocking; :meth:`~Doorbell.wait` selects on the read end and
drains it.  The byte stays in the pipe until a waiter reads it, so a
ring that lands between a waiter's last look at the store and the start
of its wait still wakes it: no wake-up is lost.

The two ends may live in different processes (hand them over with
``subprocess.Popen(pass_fds=...)``).  Ringing never fails: a full pipe
already holds a pending wake-up, and a broken one has no waiter left,
so a dead worker never fails a submit.  ``ring()`` takes no lock, so a
signal handler may call it.

Every waiter also gives up after :data:`RECHECK_S` at the latest and
re-reads the store: the safety net for state written by anyone who does
not ring (a lease expiring, another server on the same store).
"""

from __future__ import annotations

import os
import select

#: the longest a doorbell waiter sleeps before re-reading the store
RECHECK_S = 0.05


class Doorbell:
    """One-byte wake-ups over a pipe; either end may be absent."""

    def __init__(
        self, read_fd: int | None = None, write_fd: int | None = None
    ) -> None:
        self.read_fd = self.write_fd = None  # for __del__ if pipe() fails
        if read_fd is None and write_fd is None:
            read_fd, write_fd = os.pipe()
        for fd in (read_fd, write_fd):
            if fd is not None:
                os.set_blocking(fd, False)
        self.read_fd, self.write_fd = read_fd, write_fd

    def ring(self) -> None:
        fd = self.write_fd
        if fd is None:
            return
        try:
            os.write(fd, b"\0")
        except OSError:
            pass  # full: a wake-up is pending; broken: nobody waits

    def wait(self, timeout: float | None) -> bool:
        """Block until rung or *timeout* seconds pass (None: forever);
        True when rung.  Drains every pending ring."""
        ready, _, _ = select.select([self.read_fd], [], [], timeout)
        if not ready:
            return False
        try:
            while os.read(self.read_fd, 4096):
                pass
        except BlockingIOError:
            pass
        return True

    def close(self) -> None:
        fds = (self.read_fd, self.write_fd)
        self.read_fd = self.write_fd = None
        for fd in fds:
            if fd is not None:
                os.close(fd)

    # Owners without a teardown of their own (a service, an in-process
    # worker) let the fds go with the last reference, when nobody can
    # ring or wait any more.
    __del__ = close
