"""A yardstick of machine speed: fixed work that never touches the program.

The shared 2-vCPU VM this benchmark was tuned on changes speed from one
second to the next, by up to a factor of two, in CPU time as much as in
wall time, so raw times from runs taken minutes apart disagree by more
than any useful bound.  The in-process workloads therefore time short
*slices* of fixed pure-Python and numpy work, shaped like the program's
own (hash-consed tuples, small objects, sorting, string building,
small-array arithmetic), between their operations, about every
:data:`TICK_EVERY_S` seconds, with the cyclic garbage collector off so
that the program's heap does not change a slice's cost.  Many short
slices spread through the run sample the speed the operations saw
better than a few long ones: over 200 s of campaign passes, the ratio of
pass time to slice time varied 1-4 % between windows of 3 to 8 passes,
where raw pass time varied 4-5 % and a long slice per pass gave 6-8 %.

Times are then reported at the reference speed, at which one slice
takes :data:`REF_SLICE_S`: a measured time is divided by the run's
*slowdown* (mean slice time / ``REF_SLICE_S``) and a rate multiplied by
it.  A change to the program moves its operations but not the slices.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: seconds one slice takes at the reference speed; roughly its time on
#: the 2-vCPU Xeon VM the benchmark was tuned on, in a quiet phase
REF_SLICE_S = 0.0125
#: units of Python and numpy work per slice
PY_UNITS = 25_000
NP_UNITS = 750
#: seconds between slices during a window
TICK_EVERY_S = 0.3


class _Node:
    __slots__ = ("ident", "key", "uses")

    def __init__(self, ident: int, key: tuple) -> None:
        self.ident = ident
        self.key = key
        self.uses = 0

    def weight(self) -> tuple:
        return (-self.uses, self.ident)


def _python_work(units: int) -> int:
    table: dict[tuple, _Node] = {}
    batch: list[_Node] = []
    acc = 0
    for i in range(units):
        key = ("op", i & 511, (i * 7) % 13)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(i, key)
        node.uses += 1
        batch.append(node)
        if len(batch) == 64:
            batch.sort(key=_Node.weight)
            acc += len(",".join(f"{n.key[0]}{n.ident}" for n in batch[:16]))
            batch.clear()
    return acc + len(table)


def _numpy_work(units: int) -> float:
    grid = np.arange(256, dtype=np.float64).reshape(16, 16)
    acc = 0.0
    for i in range(units):
        row = grid[i % 16] * 1.5 + grid[(i * 7) % 16]
        acc += float(np.maximum(row, 8.0).sum())
    return acc


def time_slice() -> float:
    """Seconds one slice of reference work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _python_work(PY_UNITS)
        _numpy_work(NP_UNITS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Reference:
    """The slices timed during one phase of a run (set-up or window)."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._last = time.perf_counter()

    def tick(self, slices: int = 1) -> None:
        """Time *slices* slices; call it between operations, never
        during one."""
        for _ in range(slices):
            self.slices.append(time_slice())
        self._last = time.perf_counter()

    def between_ops(self) -> None:
        """Tick if :data:`TICK_EVERY_S` has passed since the last one."""
        if time.perf_counter() - self._last >= TICK_EVERY_S:
            self.tick()

    @property
    def spent(self) -> float:
        """Seconds spent in slices so far, to leave out of a window."""
        return sum(self.slices)

    @property
    def slowdown(self) -> float:
        """Mean slice time over :data:`REF_SLICE_S`: above 1 when the
        machine runs slower than the reference speed."""
        if not self.slices:
            self.tick()
        return statistics.fmean(self.slices) / REF_SLICE_S
