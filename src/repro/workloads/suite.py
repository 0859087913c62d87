"""Workload factories with the paper's parameters (Table 3).

Every factory takes ``scale`` (default 1.0 = the paper's sizes) so that
tests can run the same pipelines on laptop-sized inputs.  Scaled sizes
are kept line-aligned (multiples of 16 fp32 elements) so the tiling
constraints of §4.1 still hold.
"""

from __future__ import annotations

import math

from repro.frontend.kernel import parse_kernel
from repro.registry import WORKLOADS as WORKLOAD_REGISTRY
from repro.workloads import kernels as K
from repro.workloads.base import NearMemPhase, Workload

#: Tag on the ten Table 3 workloads (the seed suite / Fig 11 set).
TABLE3_TAG = "table3"

_register = WORKLOAD_REGISTRY.register


def _sz(value: int, scale: float, minimum: int = 32) -> int:
    """Scale a dimension, keeping cache-line alignment (16 fp32)."""
    scaled = max(minimum, int(value * scale))
    return max(16, (scaled // 16) * 16)


@_register(
    "stencil1d",
    tags=(TABLE3_TAG,),
    order=0,
    description="1-D 3-point stencil, 10 ping-pong sweeps (Table 3)",
)
def stencil1d(scale: float = 1.0) -> Workload:
    n = _sz(4 * 1024 * 1024, scale, minimum=256)
    prog = parse_kernel("stencil1d", K.STENCIL1D, arrays={"A": ("N",), "B": ("N",)})
    return Workload(
        name="stencil1d",
        program=prog,
        params={"N": n},
        iterations=10,
        swap=("A", "B"),
    )


@_register(
    "stencil2d",
    tags=(TABLE3_TAG,),
    order=1,
    description="2-D 5-point stencil, 10 ping-pong sweeps (Table 3)",
)
def stencil2d(scale: float = 1.0) -> Workload:
    m = _sz(2048, scale)
    prog = parse_kernel(
        "stencil2d", K.STENCIL2D, arrays={"A": ("M", "N"), "B": ("M", "N")}
    )
    return Workload(
        name="stencil2d",
        program=prog,
        params={"M": m, "N": m},
        iterations=10,
        swap=("A", "B"),
    )


@_register(
    "stencil3d",
    tags=(TABLE3_TAG,),
    order=2,
    description="3-D 7-point stencil, 10 ping-pong sweeps (Table 3)",
)
def stencil3d(scale: float = 1.0) -> Workload:
    m = _sz(512, scale)
    p = max(4, int(16 * math.sqrt(scale)) or 4)
    prog = parse_kernel(
        "stencil3d",
        K.STENCIL3D,
        arrays={"A": ("P", "M", "N"), "B": ("P", "M", "N")},
    )
    return Workload(
        name="stencil3d",
        program=prog,
        params={"P": p, "M": m, "N": m},
        iterations=10,
        swap=("A", "B"),
    )


@_register(
    "dwt2d",
    tags=(TABLE3_TAG,),
    order=3,
    description="2-D discrete wavelet transform, lifting scheme (Table 3)",
)
def dwt2d(scale: float = 1.0) -> Workload:
    m = _sz(2048, scale)
    nh = m // 2
    prog = parse_kernel(
        "dwt2d",
        K.DWT2D,
        arrays={
            "Ae": ("M", "Nh"),
            "Ao": ("M", "Nh"),
            "D": ("M", "Nh"),
            "S": ("M", "Nh"),
        },
    )
    return Workload(
        name="dwt2d", program=prog, params={"M": m, "Nh": nh}, iterations=1
    )


@_register(
    "gauss_elim",
    tags=(TABLE3_TAG,),
    order=4,
    description="Gaussian elimination with pivot-row streams (Table 3)",
)
def gauss_elim(scale: float = 1.0) -> Workload:
    n = _sz(2048, scale)
    prog = parse_kernel(
        "gauss_elim", K.GAUSS_ELIM, arrays={"A": ("N", "N"), "B": ("N",)}
    )
    return Workload(name="gauss_elim", program=prog, params={"N": n})


@_register(
    "conv2d",
    tags=(TABLE3_TAG,),
    order=5,
    description="2-D 3x3 convolution (Table 3)",
)
def conv2d(scale: float = 1.0) -> Workload:
    m = _sz(2048, scale)
    prog = parse_kernel(
        "conv2d", K.CONV2D, arrays={"A": ("M", "N"), "B": ("M", "N")}
    )
    return Workload(
        name="conv2d",
        program=prog,
        params={"M": m, "N": m, "C0": 1, "C1": 2, "C2": 4},
    )


@_register(
    "conv3d",
    tags=(TABLE3_TAG,),
    order=6,
    description="3-D convolution, 3x3 kernels over I/O channels (Table 3)",
)
def conv3d(scale: float = 1.0) -> Workload:
    hw = _sz(256, scale)
    io = max(4, _sz(64, scale, minimum=4))
    prog = parse_kernel(
        "conv3d",
        K.CONV3D,
        arrays={
            "In": ("H", "W", "I"),
            "Wt": (576, "O"),
            "Out": ("H", "W", "O"),
        },
    )
    return Workload(
        name="conv3d",
        program=prog,
        params={"H": hw, "W": hw, "I": io, "O": io},
    )


@_register(
    "mm",
    tags=(TABLE3_TAG,),
    order=7,
    aliases=("matmul",),
    description="dense matrix multiply, inner/outer dataflow (Table 3)",
)
def mm(scale: float = 1.0, dataflow: str = "outer") -> Workload:
    n = _sz(2048, scale)
    if dataflow == "inner":
        prog = parse_kernel(
            "mm",
            K.MM_INNER,
            arrays={"A": ("M", "K"), "Bt": ("N", "K"), "C": ("M", "N")},
        )
    else:
        prog = parse_kernel(
            "mm",
            K.MM_OUTER,
            arrays={"A": ("M", "K"), "B": ("K", "N"), "C": ("M", "N")},
        )
    return Workload(
        name=f"mm/{dataflow[:3]}",
        program=prog,
        params={"M": n, "N": n, "K": n},
        dataflow=dataflow,
    )


@_register(
    "kmeans",
    tags=(TABLE3_TAG,),
    order=8,
    description="k-means distances + indirect centroid update (Table 3)",
)
def kmeans(scale: float = 1.0, dataflow: str = "outer") -> Workload:
    points = _sz(32 * 1024, scale, minimum=512)
    dim = 128
    centers = 128
    if dataflow == "inner":
        src, arrays = K.KMEANS_INNER, {
            "Pt": ("P", "D"),
            "Ct": ("C", "D"),
            "Dist": ("P", "C"),
        }
    else:
        src, arrays = K.KMEANS_OUTER, {
            "Pt": ("P", "D"),
            "Ctt": ("D", "C"),
            "Dist": ("P", "C"),
        }
    prog = parse_kernel("kmeans", src, arrays=arrays)
    # The indirect centroid update runs near-memory (§3.3): re-read every
    # point, scatter-add into its centroid, plus the label stream.
    update = NearMemPhase(
        name="centroid_update",
        bytes_accessed=points * dim * 4 + points * 4 + centers * dim * 4,
        ops=points * dim,
        indirect=True,
    )
    return Workload(
        name=f"kmeans/{dataflow[:3]}",
        program=prog,
        params={"P": points, "D": dim, "C": centers},
        dataflow=dataflow,
        extra_phases=(update,),
    )


@_register(
    "gather_mlp",
    tags=(TABLE3_TAG,),
    order=9,
    description="gathered-row MLP layer with ReLU (Table 3)",
)
def gather_mlp(scale: float = 1.0, dataflow: str = "outer") -> Workload:
    m = _sz(32 * 1024, scale, minimum=512)
    nk = 128
    pool = 2 * m  # gathered rows come from a larger point pool
    if dataflow == "inner":
        src, arrays = K.GATHER_MLP_INNER, {
            "G": ("PP", "K"),
            "W": ("N", "K"),
            "Out": ("M", "N"),
            "Res": ("M", "N"),
            "idx": ("M",),
        }
    else:
        src, arrays = K.GATHER_MLP_OUTER, {
            "G": ("PP", "K"),
            "Wt": ("K", "N"),
            "Out": ("M", "N"),
            "Res": ("M", "N"),
            "idx": ("M",),
        }
    prog = parse_kernel("gather_mlp", src, arrays=arrays)
    return Workload(
        name=f"gather_mlp/{dataflow[:3]}",
        program=prog,
        params={"M": m, "N": nk, "K": nk, "PP": pool},
        dataflow=dataflow,
    )


def vec_add(n: int) -> Workload:
    prog = parse_kernel(
        "vec_add", K.VEC_ADD, arrays={"A": ("N",), "B": ("N",), "C": ("N",)}
    )
    return Workload(
        name=f"vec_add/{_human(n)}",
        program=prog,
        params={"N": n},
        data_in_l3=True,  # Fig 2: data cached in L3, already transposed
        steady_state=True,
    )


def array_sum(n: int) -> Workload:
    prog = parse_kernel("array_sum", K.ARRAY_SUM, arrays={"A": ("N",)})
    return Workload(
        name=f"array_sum/{_human(n)}",
        program=prog,
        params={"N": n},
        data_in_l3=True,
        steady_state=True,
    )


def _human(n: int) -> str:
    if n >= 1024 * 1024:
        return f"{n // (1024 * 1024)}M"
    return f"{n // 1024}k"


def workload(name: str, scale: float = 1.0, **kwargs) -> Workload:
    """Instantiate one registered workload (Table 3, zoo, or plugin)."""
    return WORKLOAD_REGISTRY.create(name, scale=scale, **kwargs)


def paper_workloads(scale: float = 1.0) -> list[Workload]:
    """The ten Fig 11 benchmarks with the per-paradigm best dataflow."""
    return [
        stencil1d(scale),
        stencil2d(scale),
        stencil3d(scale),
        dwt2d(scale),
        gauss_elim(scale),
        conv2d(scale),
        conv3d(scale),
        mm(scale, "outer"),
        kmeans(scale, "outer"),
        gather_mlp(scale, "outer"),
    ]


def microbenchmarks(sizes=(16_384, 65_536, 262_144, 1_048_576, 4_194_304)):
    """The Fig 2 microbenchmarks across input sizes."""
    out = []
    for n in sizes:
        out.append(vec_add(n))
        out.append(array_sum(n))
    return out
