"""Wall-clock spans around the program's public layer calls.

The traced run wraps each layer's public functions (listed in
:data:`LAYERS`) with a recorder; the untraced runs never install it.
Each span records its id, layer, start, end, parent span and operation
id.  Spans stay in memory and are written out when the run ends.

A layer's *self time* is the sum over its spans of the span's duration
minus the durations of its direct children.  Each timed operation is a
root span of the pseudo-layer ``op``; its self time is the part of the
operation spent outside every named layer (``trace.unattributed_frac``).
Because every span nests inside its parent, the layers' self times plus
the ``op`` self time add up to the operations' wall-clock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

#: layer -> public callables, as "module:attr" or "module:Class.method"
LAYERS: dict[str, tuple[str, ...]] = {
    "frontend": (
        "repro.frontend.kernel:KernelProgram.instantiate",
        "repro.frontend.kernel:InstantiatedKernel.region_at",
        "repro.frontend.kernel:parse_kernel",
    ),
    "egraph": ("repro.egraph.saturate:optimize_tdfg",),
    "backend": ("repro.backend.fatbinary:compile_fat_binary",),
    "jit": ("repro.runtime.jit:JITCompiler.compile_region",),
    "uarch": (
        "repro.uarch.tensor_ctrl:TensorControllers.execute",
        "repro.uarch.stream_engine:StreamEngineL3.execute_sdfg",
    ),
    "models": (
        "repro.baselines.core:BaseCoreModel.run",
        "repro.baselines.nsc:NearStreamModel.run",
        "repro.energy.model:EnergyModel.annotate",
    ),
    "engine": ("repro.sim.engine:InfinityStreamRunner.run",),
    "cache": (
        "repro.exec.cache:CompilationCache.get",
        "repro.exec.cache:CompilationCache.put",
    ),
}

OP = "op"
#: field positions in a span tuple
ID, LAYER, START, END, PARENT, OP_ID = range(6)


class SpanRecorder:
    """Collects spans and layer counters; installs and removes wrappers.

    Safe to share between threads: each thread keeps its own span stack
    and current operation, span ids come from one atomic counter and
    finished spans are appended whole.
    """

    def __init__(self) -> None:
        #: (id, layer, start, end, parent id or -1, op id or -1)
        self.spans: list[tuple] = []
        #: values the observers read from the layers' own results
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op_id = -1
        return local

    def operation(self, op_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of operation *op_id*."""
        local = self._state()
        local.op_id = op_id
        return self._run(local, OP, fn, args, {})

    def _run(self, local, layer: str, fn: Callable, args, kwargs):
        stack = local.stack
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, layer, t0, t1, parent, local.op_id))
            if not stack:
                local.op_id = -1

    def wrap(self, layer: str, fn: Callable, observe=None) -> Callable:
        """*fn* timed as a span of *layer*; ``observe(result)`` sees each
        successful result (to read the layer's own counters)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = recorder._run(recorder._state(), layer, fn, args, kwargs)
            if observe is not None:
                observe(result)
            return result

        return traced

    # ------------------------------------------------------------------
    def install(self, layers: dict[str, tuple[str, ...]], observers=None) -> None:
        """Wrap every listed callable where it is defined and wherever a
        loaded module holds a reference to it."""
        observers = observers or {}
        for layer, targets in layers.items():
            for target in targets:
                self._patch(layer, target, observers.get(target))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, layer: str, target: str, observe) -> None:
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, self.wrap(layer, original, observe))
            self._undo.append(lambda: setattr(owner, meth, original))
            return
        original = getattr(module, attr)
        traced = self.wrap(layer, original, observe)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", {})
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(mod, name, traced)
                    self._undo.append(
                        lambda m=mod, n=name: setattr(m, n, original)
                    )

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """layer -> summed self time over the spans inside operations."""
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[OP_ID] >= 0:
                totals[span[LAYER]] += (
                    span[END] - span[START] - child.get(span[ID], 0.0)
                )
        return totals

    def durations(self, layer: str) -> list[float]:
        """Durations of *layer*'s spans inside operations."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[LAYER] == layer and s[OP_ID] >= 0
        ]

    def op_wall(self) -> float:
        """Summed wall-clock of the traced operations."""
        return sum(self.durations(OP))

    def dump(self, path: Path) -> None:
        """Write the spans, one JSON array per line after a header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(["id", "layer", "start", "end", "parent", "op"])
                + "\n"
            )
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
