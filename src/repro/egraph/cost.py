"""Architecture-informed cost model for tDFG extraction.

The final tDFG selection combines the estimated latency of move vs.
compute nodes, the amount of moved/broadcast data, and the number of
computations (paper Appendix).  Costs are in estimated cycles on the
default system; what matters for extraction is the *relative* weight of
node kinds:

* compute nodes pay the bit-serial latency of their op, scaled by how
  many waves of bitlines the domain needs;
* moves pay roughly two bit-serial passes (read + shifted write) plus
  a fixed command overhead;
* broadcasts are cheaper than moves — they reuse the read data through
  the buffered H-tree (§4.1);
* shrink nodes are free (lowered to nops, like SSA phis);
* tensors in memory are free; constants pay one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.system import SystemConfig, default_system
from repro.ir.dtypes import DType
from repro.ir.ops import Op

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.lang import term_domain


@dataclass(frozen=True)
class CostParams:
    """Tunable weights of the extraction cost model."""

    dtype: DType = DType.FP32
    command_overhead: float = 16.0
    bc_factor: float = 0.5  # broadcast vs move relative cost
    stream_cost: float = 512.0
    reduce_round_cost: float | None = None  # default: add + move

    system: SystemConfig = field(default_factory=default_system)

    @property
    def bits(self) -> int:
        return self.dtype.bits

    @property
    def total_bitlines(self) -> int:
        return self.system.cache.total_bitlines


def node_cost(eg: EGraph, enode: ENode, params: CostParams) -> float:
    """Cost of one e-node, excluding its children."""
    kind = enode.label[0]
    dtype = params.dtype
    bits = params.bits
    if kind in ("tensor", "shrink"):
        return 0.0
    if kind == "const":
        return bits * 0.25  # one constant broadcast, amortized
    if kind == "stream":
        return params.stream_cost
    domain, _ = term_domain(eg, enode.label, enode.children)
    waves = 1.0
    if domain is not None:
        waves = max(1.0, domain.volume / params.total_bitlines)
    if kind == "cmp":
        op = Op(enode.label[1])
        return (op.bitserial_cycles(dtype) + params.command_overhead) * waves
    if kind == "mv":
        return (2.0 * bits + params.command_overhead) * waves
    if kind == "bc":
        return (2.0 * bits * params.bc_factor + params.command_overhead) * waves
    # reduce: term_domain rejects every other kind, and a reduce over a
    # tensor without a domain
    src = eg.domain(enode.children[0])
    assert src is not None
    rounds = max(1, src.shape[enode.label[2]] - 1).bit_length()
    per_round = params.reduce_round_cost
    if per_round is None:
        per_round = Op.ADD.bitserial_cycles(dtype) + 2.0 * bits
    return (per_round + params.command_overhead) * rounds * waves
