"""The content-addressed compilation cache (repro.exec.cache)."""

import enum
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.backend import compile_fat_binary
from repro.config.system import default_system, small_test_system
from repro.errors import LayoutError
from repro.exec.cache import (
    CacheStats,
    CompilationCache,
    configure_cache,
    stable_digest,
)
from repro.frontend import parse_kernel
from repro.runtime.jit import JITCompiler
from repro.sim.campaign import fig11_speedup

REPO_ROOT = Path(__file__).resolve().parent.parent

STENCIL_SRC = "for i in [1, N-1):\n    B[i] = A[i-1] + A[i] + A[i+1]\n"


def _stencil_tdfg(n=4096):
    prog = parse_kernel(
        "s1d", STENCIL_SRC, arrays={"A": ("N",), "B": ("N",)}
    )
    return prog.instantiate({"N": n}).first_region().tdfg


def _scaled_tdfg(scale):
    prog = parse_kernel(
        "scaled",
        f"for i in [0, N):\n    v += {scale} * A[i]\n",
        arrays={"A": ("N",)},
    )
    return prog.instantiate({"N": 256}).first_region().tdfg


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test gets its own process-global cache and restores it after."""
    from repro.exec import cache as cache_mod

    saved = cache_mod._active
    yield
    cache_mod._active = saved


class TestCanonical:
    """The canonical byte encoding behind :func:`stable_digest`."""

    def test_primitives_and_floats(self):
        values = [None, 3, "3", "x", 3.0, True]
        assert len({stable_digest(v) for v in values}) == len(values)
        # floats are hex-encoded so 1.0 and 2.0 can never collide
        assert stable_digest(1.0) != stable_digest(2.0)
        assert stable_digest(1.0) == stable_digest(1.0)

    def test_dict_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )

    def test_enum_and_dataclass(self):
        class Color(enum.IntEnum):
            RED = 1
            BLUE = 2

        @dataclass(frozen=True)
        class P:
            x: int
            y: float

        assert stable_digest(Color.RED) != stable_digest(Color.BLUE)
        assert stable_digest(Color.RED) != stable_digest(1)
        assert stable_digest(P(1, 2.0)) != stable_digest(P(1, 3.0))

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            stable_digest(object())


class TestFingerprint:
    def test_deterministic_within_process(self):
        assert _stencil_tdfg().fingerprint() == _stencil_tdfg().fingerprint()

    def test_stable_across_processes(self):
        """The digest must not depend on the interpreter's hash seed."""
        code = (
            "from repro.frontend import parse_kernel\n"
            f"prog = parse_kernel('s1d', {STENCIL_SRC!r}, "
            "arrays={'A': ('N',), 'B': ('N',)})\n"
            "print(prog.instantiate({'N': 4096}).first_region()"
            ".tdfg.fingerprint())\n"
        )
        digests = set()
        for seed in ("0", "1", "12345"):
            env = dict(
                os.environ,
                PYTHONPATH=str(REPO_ROOT / "src"),
                PYTHONHASHSEED=seed,
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert digests == {_stencil_tdfg().fingerprint()}

    def test_sensitive_to_constant_values(self):
        """Same structure, different literal -> different fingerprint.

        This is the collision that would silently reuse a lowering
        compiled for ``1.0 * A[i]`` when replaying ``2.0 * A[i]``.
        """
        assert _scaled_tdfg(1.0).fingerprint() != _scaled_tdfg(2.0).fingerprint()

    def test_sensitive_to_size(self):
        assert (
            _stencil_tdfg(n=64).fingerprint()
            != _stencil_tdfg(n=128).fingerprint()
        )

    def test_system_config_fingerprint(self):
        assert default_system().fingerprint() == default_system().fingerprint()
        assert (
            default_system().fingerprint() != small_test_system().fingerprint()
        )


class TestLRU:
    def test_hit_miss_counting(self):
        cache = CompilationCache(max_entries=8)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        cache = CompilationCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least-recently-used
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            CompilationCache().put("k", None)

    def test_stats_delta_and_merge(self):
        a = CacheStats(hits=5, misses=3)
        before = a.copy()
        a.hits += 2
        delta = a.delta(before)
        assert delta.hits == 2 and delta.misses == 0
        merged = CacheStats().merge(delta)
        assert merged.hits == 2


class TestCompilationReuse:
    def test_fat_binary_cached(self):
        cache = configure_cache()
        b1 = compile_fat_binary(_stencil_tdfg())
        b2 = compile_fat_binary(_stencil_tdfg())
        assert b2 is b1  # same immutable object, not a recompile
        assert cache.stats.hits >= 1

    def test_jit_content_cache_same_modeled_cost(self):
        """A content-cache hit charges the FULL modeled jit cost."""
        configure_cache()
        binary = compile_fat_binary(_stencil_tdfg())
        fresh = JITCompiler(system=default_system()).compile_region(binary)
        warm = JITCompiler(system=default_system()).compile_region(binary)
        assert not warm.memo_hit  # content hit is NOT a modeled memo hit
        assert warm.jit_cycles == fresh.jit_cycles
        assert warm.lowered.num_commands == fresh.lowered.num_commands

    def test_cache_off_matches_cache_on(self):
        configure_cache()
        binary = compile_fat_binary(_stencil_tdfg())
        on = JITCompiler(system=default_system()).compile_region(binary)
        configure_cache(enabled=False)
        binary_off = compile_fat_binary(_stencil_tdfg())
        off = JITCompiler(system=default_system()).compile_region(binary_off)
        assert off.jit_cycles == on.jit_cycles
        assert off.lowered.num_commands == on.lowered.num_commands

    def test_layout_failure_negative_cached(self):
        cache = configure_cache()
        binary = compile_fat_binary(_stencil_tdfg())
        with pytest.raises(LayoutError):
            JITCompiler(system=default_system()).compile_region(
                binary, tile_override=(3,)
            )
        hits_before = cache.stats.hits
        with pytest.raises(LayoutError):
            JITCompiler(system=default_system()).compile_region(
                binary, tile_override=(3,)
            )
        assert cache.stats.hits == hits_before + 1  # verdict came from cache

    def test_figures_identical_with_and_without_cache(self):
        configure_cache()
        _h, rows_on, _res = fig11_speedup(0.05)
        configure_cache(enabled=False)
        _h, rows_off, _res = fig11_speedup(0.05)
        assert rows_on == rows_off


class TestFileLock:
    def test_mutual_exclusion_times_out(self, tmp_path):
        from repro.exec.cache import FileLock

        path = tmp_path / "index.lock"
        holder = FileLock(path)
        holder.acquire()
        contender = FileLock(path, timeout=0.05, stale_after=60.0)
        with pytest.raises(TimeoutError):
            contender.acquire()
        holder.release()
        assert not path.exists()

    def test_release_allows_reacquire(self, tmp_path):
        from repro.exec.cache import FileLock

        path = tmp_path / "index.lock"
        with FileLock(path):
            assert path.exists()
        with FileLock(path, timeout=0.2):
            pass  # reacquire after release: no timeout

    def test_stale_lock_from_killed_writer_is_broken(self, tmp_path):
        from repro.exec.cache import FileLock

        path = tmp_path / "index.lock"
        path.write_text("pid 12345\n")  # abandoned by a kill -9'd writer
        old = os.stat(path).st_mtime - 120.0
        os.utime(path, (old, old))
        lock = FileLock(path, timeout=0.5, stale_after=30.0)
        lock.acquire()  # must break the stale lock, not time out
        assert lock._held
        lock.release()

    def test_fresh_foreign_lock_is_respected(self, tmp_path):
        from repro.exec.cache import FileLock

        path = tmp_path / "index.lock"
        path.write_text("pid 12345\n")  # just created by a live writer
        lock = FileLock(path, timeout=0.05, stale_after=60.0)
        with pytest.raises(TimeoutError):
            lock.acquire()

    def test_waiter_acquires_within_a_few_ms_of_release(self, tmp_path):
        """A waiter backs off from sub-millisecond pauses, so a lock held
        for 2 ms changes hands about as soon as it is released, not a
        whole 10 ms poll interval later."""
        import statistics
        import threading
        import time

        from repro.exec.cache import FileLock

        path = tmp_path / "store.lock"
        gaps = []
        for _ in range(9):
            holder = FileLock(path)
            holder.acquire()
            acquired = []

            def wait_for_lock():
                waiter = FileLock(path)
                waiter.acquire()
                acquired.append(time.perf_counter())
                waiter.release()

            thread = threading.Thread(target=wait_for_lock)
            thread.start()
            time.sleep(0.002)
            released = time.perf_counter()
            holder.release()
            thread.join(timeout=10)
            gaps.append(acquired[0] - released)
        assert statistics.median(gaps) < 0.005, gaps


MUTEX_CHILD = """
import sys, time
from repro.exec.cache import FileLock

lock_path, counter_path, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
for _ in range(rounds):
    lock = FileLock(
        lock_path, timeout=120.0, stale_after=0.5, poll_interval=0.002
    )
    lock.acquire()
    try:
        with open(counter_path) as fh:
            value = int(fh.read())
        time.sleep(0.001)  # widen the read-modify-write race window
        with open(counter_path, "w") as fh:
            fh.write(str(value + 1))
    finally:
        lock.release()
"""

CONTENDER_CHILD = """
import os, sys
from repro.exec.cache import FileLock

lock_path, marker_path = sys.argv[1], sys.argv[2]
lock = FileLock(lock_path, timeout=60.0, stale_after=0.05, poll_interval=0.002)
lock.acquire()
released = os.path.exists(marker_path)
lock.release()
print("after-release" if released else "stolen-while-held")
"""

LOOPING_CHILD = """
import sys
from repro.exec.cache import FileLock

lock = FileLock(sys.argv[1])
print("ready", flush=True)
while True:
    lock.acquire()
    lock.release()
"""


class TestFileLockMultiProcess:
    """Cross-process stress: the lock's one real job.

    Every in-process test above could pass with a lock that only works
    within one interpreter.  These spawn real sibling processes — the
    configuration the serve fleet runs in.
    """

    def _env(self):
        return dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

    def test_counter_increments_are_never_lost(self, tmp_path):
        """N processes x K unprotected read-modify-writes, exact total.

        The critical section deliberately sleeps between read and
        write: any mutual-exclusion failure (including a stale-break
        wrongly firing on a live holder — stale_after is a tight 0.5 s
        while queue waits run much longer) loses an increment.
        """
        lock_path = tmp_path / "index.lock"
        counter = tmp_path / "counter"
        counter.write_text("0")
        procs_n, rounds = 4, 20
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    MUTEX_CHILD,
                    str(lock_path),
                    str(counter),
                    str(rounds),
                ],
                env=self._env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(procs_n)
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert int(counter.read_text()) == procs_n * rounds
        assert not lock_path.exists()  # last release cleaned up

    def test_live_holder_is_never_broken_by_impatient_contenders(
        self, tmp_path
    ):
        """A slow live holder outlasts stale_after without being stolen.

        Contenders run with stale_after far below the hold time, so
        every one of their acquire polls walks the stale-break path.
        The liveness probe (kill -0 on the claim pid) must veto the
        break: each contender may acquire only after we drop a marker
        file and release, and our claim token must still be ours just
        before that release.
        """
        import time

        from repro.exec.cache import FileLock

        lock_path = tmp_path / "index.lock"
        marker = tmp_path / "released.marker"
        holder = FileLock(lock_path, timeout=5.0, stale_after=60.0)
        holder.acquire()
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    CONTENDER_CHILD,
                    str(lock_path),
                    str(marker),
                ],
                env=self._env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(3)
        ]
        try:
            time.sleep(1.0)  # 20x the contenders' stale_after
            assert lock_path.read_text() == holder._token
        finally:
            marker.write_text("released\n")
            holder.release()
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert out.strip() == "after-release"

    def test_claim_from_dead_real_pid_is_broken_without_aging(
        self, tmp_path
    ):
        """A fresh lockfile naming a genuinely dead pid is reclaimed.

        The file is seconds old and stale_after is an hour, so only the
        liveness probe — not the mtime fallback — can justify the
        break.  This is the kill -9'd-fleet-worker recovery path.
        """
        from repro.exec.cache import FileLock

        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout.strip())
        lock_path = tmp_path / "index.lock"
        lock_path.write_text(f"{dead_pid}:{'00' * 8}")
        lock = FileLock(lock_path, timeout=5.0, stale_after=3600.0)
        lock.acquire()  # must break via liveness, not time out
        assert lock._held
        assert lock_path.read_text() == lock._token
        lock.release()

    def test_holder_killed_at_any_instant_never_blocks_the_lock(
        self, tmp_path
    ):
        """SIGKILL a process looping acquire/release at random instants.

        After each kill a fresh lock must acquire within 2 s.  Its
        stale_after is the default 30 s, so only a lockfile that names
        the dead pid can be broken in time: one created empty, with the
        claim still to be written, would block every user for 30 s.
        """
        import random
        import signal
        import time

        from repro.exec.cache import FileLock

        lock_path = tmp_path / "store.lock"
        rng = random.Random(16)
        for _ in range(10):
            proc = subprocess.Popen(
                [sys.executable, "-c", LOOPING_CHILD, str(lock_path)],
                env=self._env(),
                stdout=subprocess.PIPE,
                text=True,
            )
            try:
                assert proc.stdout.readline().strip() == "ready"
                time.sleep(rng.uniform(0.005, 0.03))
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                proc.stdout.close()
            lock = FileLock(lock_path, timeout=2.0)
            lock.acquire()
            lock.release()
