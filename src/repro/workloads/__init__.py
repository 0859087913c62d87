"""The evaluated workloads (Table 3, the zoo, microbenchmarks, PointNet++).

Workload factories self-register in :data:`repro.registry.WORKLOADS`;
``workload(name, scale)`` resolves any registered name — Table 3
(``repro.workloads.suite``), the LLM/sparse zoo
(``repro.workloads.zoo``), or an out-of-tree plugin declaring the
``repro.workloads`` entry point.
"""

from repro.workloads.base import NearMemPhase, Workload, WorkloadCosts
from repro.workloads.suite import microbenchmarks, paper_workloads, workload
from repro.workloads.zoo import attention, mlp, sddmm, spmv

__all__ = [
    "Workload",
    "WorkloadCosts",
    "NearMemPhase",
    "workload",
    "paper_workloads",
    "microbenchmarks",
    "attention",
    "mlp",
    "spmv",
    "sddmm",
]
