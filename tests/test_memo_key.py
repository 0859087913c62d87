"""The JIT memo key: a tDFG's fingerprint partitions regions exactly as
its printed form does.

The JIT memoizes lowerings by ``TensorDFG.fingerprint()`` (§4.2), and
the memo counts are modeled numbers (Fig 14's JIT share, the §8 table).
``format_tdfg`` prints the whole graph, region name included, so it is
the oracle here: over every region the registered workloads build, two
tDFGs must print the same text exactly when their fingerprints agree.
"""

from __future__ import annotations

import inspect

from repro.egraph import OptimizerConfig
from repro.ir.printer import format_tdfg
from repro.pipeline import TDFGArtifact
from repro.pipeline.stages import optimize_stage
from repro.registry import WORKLOADS
from repro.workloads.suite import array_sum, vec_add

SCALE = 0.05


def _variants():
    for name in WORKLOADS.names():
        factory = WORKLOADS.get(name).target
        if "dataflow" in inspect.signature(factory).parameters:
            for dataflow in ("inner", "outer"):
                yield factory(SCALE, dataflow=dataflow)
        else:
            yield factory(SCALE)
    yield vec_add(4096)
    yield array_sum(4096)


def _corpus():
    """Every region of two fresh instantiations of every variant, plus
    each first region optimized at the CLI's optimizer defaults.

    The second instantiation gives every graph an equal twin that is a
    different object, so a key that depends on object identity splits.
    """
    optimize = optimize_stage(OptimizerConfig()).run
    tdfgs = []
    for wl in _variants():
        for _ in range(2):
            regions = [region.tdfg for region in wl.instantiate().regions()]
            tdfgs.extend(regions)
        tdfgs.append(optimize(TDFGArtifact(tdfg=regions[0])).tdfg)
    return tdfgs


def test_fingerprint_and_printed_graph_partition_alike():
    texts_by_fp: dict[str, set[str]] = {}
    fps_by_text: dict[str, set[str]] = {}
    for tdfg in _corpus():
        fp, text = tdfg.fingerprint(), format_tdfg(tdfg)
        texts_by_fp.setdefault(fp, set()).add(text)
        fps_by_text.setdefault(text, set()).add(fp)
    merged = [texts for texts in texts_by_fp.values() if len(texts) > 1]
    split = [fps for fps in fps_by_text.values() if len(fps) > 1]
    assert not merged, f"one fingerprint, {len(merged[0])} printed graphs"
    assert not split, f"one printed graph, {len(split[0])} fingerprints"
    assert len(texts_by_fp) > 1000  # the corpus covers every workload
