"""The simulation-point executor (repro.exec.pool)."""

import pytest

from repro.exec.cache import configure_cache
from repro.exec.pool import PointExecutor, run_points
from repro.runtime.jit import global_stats, reset_global_stats
from repro.sim.campaign import fig02_microbench, fig11_speedup

SCALE = 0.05


def _square(x):
    return x * x


@pytest.fixture(autouse=True)
def _fresh_cache():
    from repro.exec import cache as cache_mod

    saved = cache_mod._active
    configure_cache()
    yield
    cache_mod._active = saved


class TestMap:
    def test_run_points_inline_when_no_executor(self):
        assert run_points(_square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_preserves_order(self):
        ex = PointExecutor(jobs=1)
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]
        assert ex.sections[0].mode == "serial"

    def test_parallel_matches_serial(self):
        ex = PointExecutor(jobs=2)
        specs = list(range(23))  # odd count: uneven chunks still ordered
        assert ex.map(_square, specs) == [x * x for x in specs]
        assert ex.sections[0].mode.startswith("parallel")

    def test_single_point_stays_serial(self):
        ex = PointExecutor(jobs=4)
        assert ex.map(_square, [7]) == [49]
        assert ex.sections[0].mode == "serial"

    def test_non_picklable_falls_back_with_warning(self):
        ex = PointExecutor(jobs=2)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            results = ex.map(lambda x: x + 1, [1, 2, 3])
        assert results == [2, 3, 4]
        assert ex.sections[0].mode == "serial"

    def test_section_report(self):
        ex = PointExecutor(jobs=1)
        ex.map(_square, [1, 2], section="alpha")
        ex.map(_square, [3], section="beta")
        headers, rows = ex.report()
        assert headers == ["section", "points", "mode", "seconds"]
        assert [r[0] for r in rows] == ["alpha", "beta", "total"]
        assert rows[-1][1] == 3  # total points


class TestCampaignParity:
    """--jobs N must be byte-identical to serial (acceptance criterion)."""

    def test_fig02_parallel_equals_serial(self):
        serial = fig02_microbench(executor=PointExecutor(jobs=1))
        parallel = fig02_microbench(executor=PointExecutor(jobs=2))
        assert parallel == serial

    def test_fig11_parallel_equals_serial(self):
        h1, rows1, res1 = fig11_speedup(SCALE, executor=PointExecutor(jobs=1))
        h2, rows2, res2 = fig11_speedup(SCALE, executor=PointExecutor(jobs=2))
        assert (h2, rows2) == (h1, rows1)
        assert set(res2) == set(res1)

    def test_global_stats_propagate_from_workers(self):
        reset_global_stats()
        fig11_speedup(SCALE, executor=PointExecutor(jobs=2))
        stats = global_stats()
        assert stats.lowered > 0  # deltas shipped back from worker processes
        reset_global_stats()


def _set_event_then_square(arg):
    event, x = arg
    if x >= 2:
        event.set()
    return x * x


def _raise_interrupt_at(arg):
    x, boom_at = arg
    if x == boom_at:
        raise KeyboardInterrupt
    return x * x


class _CancellableExecutor(PointExecutor):
    """Cancelled through the ``_cancelled()`` seam the serve executor
    overrides: here, once *event* is set."""

    def __init__(self, jobs: int, event) -> None:
        super().__init__(jobs=jobs)
        self.event = event

    def _cancelled(self) -> bool:
        return self.event.is_set()


class TestInterruption:
    """The serve layer's checkpoint contract (ISSUE 4 pool satellite)."""

    def test_preset_cancel_event_stops_before_first_point(self):
        import threading

        from repro.errors import ExecutionCancelled

        event = threading.Event()
        event.set()
        ex = _CancellableExecutor(1, event)
        with pytest.raises(ExecutionCancelled) as exc:
            ex.map(_square, [1, 2, 3], section="s")
        assert exc.value.completed == 0
        assert ex.partial_results == []

    def test_cancel_mid_serial_records_completed_prefix(self):
        import threading

        from repro.errors import ExecutionCancelled

        event = threading.Event()
        ex = _CancellableExecutor(1, event)
        specs = [(event, x) for x in range(6)]
        with pytest.raises(ExecutionCancelled) as exc:
            ex.map(_set_event_then_square, specs, section="s")
        # Points 0..2 ran (the third one tripped the event); the check
        # fires before point 3.
        assert exc.value.completed == 3
        assert ex.partial_results == [0, 1, 4]

    def test_keyboard_interrupt_serial_records_prefix_and_reraises(self):
        ex = PointExecutor(jobs=1)
        with pytest.raises(KeyboardInterrupt):
            ex.map(_raise_interrupt_at, [(x, 2) for x in range(5)], section="s")
        assert ex.partial_results == [0, 1]

    def test_cancel_parallel_terminates_pool_promptly(self):
        import threading

        from repro.errors import ExecutionCancelled

        event = threading.Event()
        event.set()  # cancelled before any result is consumed
        ex = _CancellableExecutor(2, event)
        with pytest.raises(ExecutionCancelled):
            ex.map(_square, list(range(8)), section="s")
        assert ex.partial_results == []

    def test_partial_results_reset_on_next_successful_map(self):
        import threading

        from repro.errors import ExecutionCancelled

        event = threading.Event()
        event.set()
        ex = _CancellableExecutor(1, event)
        with pytest.raises(ExecutionCancelled):
            ex.map(_square, [1, 2], section="s")
        assert ex.partial_results == []
        event.clear()
        assert ex.map(_square, [1, 2], section="s") == [1, 4]
        assert ex.partial_results is None
