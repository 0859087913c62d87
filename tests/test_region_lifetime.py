"""Region lifetime and cross-point reuse.

Regions die by reference counting: a simulation point leaves nothing
for the cycle collector, so a campaign never pays for full collections
of every region it built.  Equal workloads share one instantiated kernel
through the active compilation cache, and the timing engine memoizes a
region's probe results, but neither memo crosses a pickle, a disabled
cache or an observed run.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.backend.fatbinary import compile_fat_binary
from repro.errors import FrontendError
from repro.exec.cache import configure_cache
from repro.frontend import affine
from repro.frontend.kast import BinOp, Num, Ref, Var
from repro.runtime.jit import JITCompiler
from repro.sim import campaign
from repro.sim.engine import InfinityStreamRunner
from repro.trace import metrics as trace_metrics
from repro.workloads.suite import paper_workloads, workload

SCALE = 0.05
TABLE3 = [wl.name for wl in paper_workloads(SCALE)]


@pytest.fixture(autouse=True)
def fresh_cache():
    configure_cache()
    yield
    configure_cache()


# ----------------------------------------------------------------------
# No cyclic garbage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(len(TABLE3)), ids=TABLE3)
def test_points_leave_no_cyclic_garbage(index):
    # The warm-up point pays the process's one-time costs (imports,
    # registry discovery), some of which are cyclic by nature.
    campaign._point_paradigms((paper_workloads(SCALE)[index], None))
    gc.collect()
    gc.disable()
    try:
        wl = paper_workloads(SCALE)[index]
        paradigms = campaign._point_paradigms((wl, None))
        infs = campaign._point_infs((wl, None))
        assert infs.total_cycles == paradigms["inf-s"].total_cycles
        configure_cache()
        del wl, paradigms, infs
        assert gc.collect() == 0
    finally:
        gc.enable()


def _indirect_subscript():
    """``idx[i] + 1``: a cached failure on the sum and on ``idx[i]``."""
    return BinOp("+", Ref("idx", (Var("i"),)), Num(1))


def _traceback_depth(err: BaseException) -> int:
    depth, tb = 0, err.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def test_extract_affine_raises_a_fresh_error_each_time():
    expr = _indirect_subscript()
    errors = []
    for _ in range(4):
        with pytest.raises(FrontendError, match="indirect subscript") as info:
            affine.extract_affine(expr)
        errors.append(info.value)
    assert len({id(err) for err in errors}) == len(errors)
    depths = [_traceback_depth(err) for err in errors]
    assert depths[1] == depths[2] == depths[3] <= depths[0]


def test_is_affine_reads_a_cached_failure_without_raising(monkeypatch):
    expr = _indirect_subscript()
    assert not affine.is_affine(expr)

    def extract(_expr):
        raise AssertionError("is_affine re-ran a cached extraction")

    monkeypatch.setattr(affine, "extract_affine", extract)
    assert affine.is_affine(expr) is False
    assert affine.is_affine(expr.left) is False


# ----------------------------------------------------------------------
# Memo boundaries
# ----------------------------------------------------------------------
def test_equal_workloads_share_a_kernel_only_with_a_cache():
    assert workload("stencil1d", SCALE).kernel is workload("stencil1d", SCALE).kernel
    assert workload("mm", SCALE).kernel is not workload("mm", SCALE * 2).kernel
    kernel = workload("stencil1d", SCALE).kernel
    configure_cache()  # a fresh cache drops the table
    assert workload("stencil1d", SCALE).kernel is not kernel
    configure_cache(enabled=False)
    assert workload("stencil1d", SCALE).kernel is not workload(
        "stencil1d", SCALE
    ).kernel


def test_a_run_keeps_one_kernel_entry_outside_the_lookup_counts():
    cache = configure_cache()
    wl = workload("stencil1d", SCALE)
    InfinityStreamRunner().run(wl)
    kernels = [key for key in cache._lru if key.startswith("kernel-")]
    assert len(kernels) == 1
    before = cache.stats.copy()
    assert workload("stencil1d", SCALE).kernel is wl.kernel
    assert cache.stats == before  # resident entries are not lookups


def test_pickled_lowered_region_carries_no_timing_memo():
    region = workload("stencil2d", SCALE).kernel.first_region()
    binary = compile_fat_binary(region.tdfg, (256,))
    jres = JITCompiler().compile_region(binary)
    layout = next(iter(jres.layouts.values()))
    runner = InfinityStreamRunner()
    probe = runner._probe_timing(jres.lowered, layout)
    assert runner._probe_timing(jres.lowered, layout) is probe
    clone = pickle.loads(pickle.dumps(jres.lowered))
    assert clone._timing_memo is None
    assert runner._probe_timing(clone, layout) == probe


def test_observed_runs_bypass_the_memos():
    # Modeled metrics, as TestParallelDeterminism defines them; the
    # cache and JIT bins legitimately differ between a cold and a warm run.
    modeled = ("engine.", "noc.", "tc.", "stream.")
    wl = workload("kmeans", SCALE, dataflow="outer")

    def observed_run():
        with trace_metrics.collecting() as registry:
            InfinityStreamRunner().run(wl)
        snap = registry.snapshot()
        return (
            {k: v for k, v in snap.counters.items() if k.startswith(modeled)},
            {k: v for k, v in snap.dists.items() if k.startswith(modeled)},
        )

    cold = observed_run()
    InfinityStreamRunner().run(wl)  # unobserved: fills both memos
    assert cold == observed_run()
    counters = cold[0]
    assert any(k.startswith("tc.") for k in counters)
    assert any(k.startswith("stream.") for k in counters)
