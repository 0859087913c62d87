"""The infinity-stream fat binary (§3.4, Fig 3).

The static compiler schedules the optimized tDFG "for common SRAM sizes
(we use 256x256 and 512x512)", producing a fat binary with multiple tDFG
configurations — like CUDA fat binaries, but exposing nothing of the
microarchitecture beyond the SRAM array sizes.  The binary also embeds
the sDFG so the runtime can fall back to near-memory execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.exec.cache import active_cache, stable_digest
from repro.ir.sdfg import StreamDFG
from repro.ir.tdfg import TensorDFG

from repro.backend.regalloc import allocate_registers
from repro.backend.schedule import ScheduledTDFG, schedule_tdfg

COMMON_SRAM_SIZES: tuple[int, ...] = (256, 512)


@dataclass
class FatBinary:
    """One infinity-stream region, compiled for every common SRAM size."""

    name: str
    tdfg: TensorDFG
    configs: dict[int, ScheduledTDFG] = field(default_factory=dict)

    @property
    def sdfg(self) -> StreamDFG | None:
        return self.tdfg.sdfg

    def config_for(self, wordlines: int) -> ScheduledTDFG:
        """The matched tDFG configuration for the platform's SRAM size."""
        if wordlines in self.configs:
            return self.configs[wordlines]
        raise SchedulingError(
            f"fat binary {self.name!r} has no config for {wordlines}-row "
            f"SRAM arrays (available: {sorted(self.configs)})"
        )

    @property
    def sram_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self.configs))


def compile_fat_binary(
    tdfg: TensorDFG,
    sram_sizes: tuple[int, ...] = COMMON_SRAM_SIZES,
    spill_mode: str = "error",
    virtual_fuse: int = 1,
) -> FatBinary:
    """Schedule + register-allocate the tDFG for each SRAM size.

    ``spill_mode`` / ``virtual_fuse`` enable the §6/§3.4 relaxations
    (DRAM spill streams, fused virtual arrays).

    Compilation is pure in the tDFG and its options, so results are
    memoized in the process-global content-addressed cache.  Cached
    binaries are shared objects — consumers must treat them as
    immutable, which they do: scheduling and register allocation happen
    here, and the JIT/timing layers only read the scheduled configs.
    """
    cache = active_cache()
    key = None
    if cache is not None:
        # Stage-scoped key: a hit skips only the fatbinary stage's
        # scheduling/regalloc work, never the stages after it.
        key = "fatbinary-" + stable_digest(
            [tdfg.fingerprint(), list(sram_sizes), spill_mode, virtual_fuse]
        )
        hit = cache.get(key)
        if isinstance(hit, FatBinary):
            return hit
    binary = FatBinary(name=tdfg.name, tdfg=tdfg)
    for size in sram_sizes:
        sched = schedule_tdfg(tdfg, wordlines=size)
        allocate_registers(
            sched, spill_mode=spill_mode, virtual_fuse=virtual_fuse
        )
        binary.configs[size] = sched
    if cache is not None and key is not None:
        cache.put(key, binary)
    return binary
