"""The paper's shape claims, checked against ``EXPERIMENTS_DATA.txt``.

``benchmarks/run_all.py`` writes every figure at full scale to
``EXPERIMENTS_DATA.txt``, one ``## <title>`` section per table, and CI
regenerates that file and compares it byte for byte.  Each claim below
reads those tables and compares one measured value with a bound: the
paper's direction (who wins, an ordering, where a crossover falls) or,
for a few claims, a looser magnitude bound (Fig 12's Inf-S traffic
under 0.35 of Base).  Its failure message carries the paper's number.
EXPERIMENTS.md quotes the same cells by claim id, so a model change that
regenerates the file and flips a claim fails here.  Paper magnitudes
the model does not reach stay documented known deltas there.
"""

from __future__ import annotations

import operator
import re
from pathlib import Path
from statistics import geometric_mean as geomean

import pytest

DATA = Path(__file__).resolve().parents[1] / "EXPERIMENTS_DATA.txt"


def _value(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_tables(text: str) -> dict[str, list[dict]]:
    """``## <title>`` sections -> rows as {header: cell}.

    Cells are separated by runs of two or more spaces; those that parse
    as numbers become floats.
    """
    tables = {}
    for section in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
        title, _, body = section.partition("\n")
        header, *lines = [
            re.split(r" {2,}", line.strip())
            for line in body.strip().splitlines()
        ]
        tables[title.strip()] = [
            dict(zip(header, map(_value, line), strict=True)) for line in lines
        ]
    return tables


TABLES = parse_tables(DATA.read_text(encoding="utf-8"))

EQ1 = "Eq. 1: peak throughput"
FIG2 = "Fig 2: paradigm speedup over Base-Thread-1"
FIG11 = "Fig 11: overall speedup over Base"
FIG12 = "Fig 12: NoC traffic (normalized to Base)"
FIG13 = "Fig 13: Inf-S traffic breakdown"
FIG14 = "Fig 14: Inf-S cycle breakdown"
FIG15 = "Fig 15: dataflow choice"
FIG16_SWEEP = "Fig 16: cycles vs 2D tile size"
FIG16 = "Fig 16: heuristic vs oracle"
FIG17 = "Fig 17: speedup vs 3D tile size"
FIG18 = "Fig 18: energy efficiency over Base"
FIG19 = "Fig 19: PointNet++ speedups"
FIG19_TIMELINE = "Fig 19: PointNet++ timelines"
JIT = "JIT overheads (§8)"

SIZES = ("16k", "64k", "256k", "1M", "4M")
VEC_ADD = [f"vec_add/{n}" for n in SIZES]
ARRAY_SUM = [f"array_sum/{n}" for n in SIZES]
OUTER_PRODUCT = ("mm", "kmeans", "gather_mlp")


def rows(title: str, **where) -> list[dict]:
    """The rows of section *title* whose cells equal *where* (at least one)."""
    found = [
        r for r in TABLES[title] if all(r[k] == v for k, v in where.items())
    ]
    if not found:
        raise LookupError(f"no row of {title!r} has {where}")
    return found


def cell(title: str, column: str, **where):
    (row,) = rows(title, **where)
    return row[column]


def ratio(title: str, num: str, den: str, **where) -> float:
    return cell(title, num, **where) / cell(title, den, **where)


def geo(title: str, column: str) -> float:
    return cell(title, column, workload="geomean")


def fusion_gap(workload: str) -> float:
    return ratio(FIG11, "Inf-S", "In-L3", workload=workload)


def fastest_tile(workload: str) -> str:
    sweep = rows(FIG16_SWEEP, workload=workload)
    return min(sweep, key=lambda r: r["cycles"])["tile"]


def speedup(arch: str, config: str) -> float:
    return cell(FIG19, "speedup", arch=arch, config=config)


RELATIONS = {
    "<": operator.lt,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}

#: (claim id, the paper's number, measured value, relation, bound)
CLAIMS = [
    ("eq1.int32_peak", "131072 ops/cycle",
     lambda: cell(EQ1, "ops/cycle", op="int32 add"), "==", 131072),
    ("eq1.int32_over_simd", "128x the 64-core AVX-512 peak",
     lambda: cell(EQ1, "vs 64-core AVX-512", op="int32 add"), "==", 128),
    ("fig02.vec_add_4m_in_l3_over_near_l3", "21x",
     lambda: ratio(FIG2, "In-L3", "Near-L3", workload="vec_add/4M"), ">", 5),
    ("fig02.vec_add_in_l3_gain_grows",
     "larger inputs amortize bit-serial latency",
     lambda: ratio(FIG2, "In-L3", "Base-64", workload="vec_add/4M")
     / ratio(FIG2, "In-L3", "Base-64", workload="vec_add/16k"), ">", 1),
    ("fig02.vec_add_in_l3_over_base_64", "In-L3 wins vec_add at every size",
     lambda: min(ratio(FIG2, "In-L3", "Base-64", workload=w) for w in VEC_ADD),
     ">", 1),
    ("fig02.vec_add_in_l3_passes_near_l3_from_256k",
     "In-L3 ahead of Near-L3 at every size, 21x at 4M",
     lambda: [
         w for w in VEC_ADD if ratio(FIG2, "In-L3", "Near-L3", workload=w) > 1
     ], "==", VEC_ADD[2:]),
    ("fig02.array_sum_in_l3_below_near_l3",
     "array_sum is less in-memory-friendly than vec_add",
     lambda: max(
         ratio(FIG2, "In-L3", "Near-L3", workload=w) for w in ARRAY_SUM
     ), "<", 1),
    ("fig11.near_l3_over_base", "2.0x",
     lambda: geo(FIG11, "Near-L3"), ">", 1),
    ("fig11.inf_s_over_near_l3", "2.6x",
     lambda: geo(FIG11, "Inf-S") / geo(FIG11, "Near-L3"), ">", 1),
    ("fig11.inf_s_at_least_in_l3", "+24%",
     lambda: fusion_gap("geomean"), ">=", 1),
    ("fig11.nojit_at_least_inf_s", "+19%",
     lambda: geo(FIG11, "Inf-S-noJIT") / geo(FIG11, "Inf-S"), ">=", 1),
    ("fig11.in_l3_over_near_l3", "2.1x",
     lambda: geo(FIG11, "In-L3") / geo(FIG11, "Near-L3"), ">", 1),
    ("fig11.gauss_elim_largest_fusion_gap",
     "hybrid execution gains most on gauss_elim",
     lambda: max(
         (r["workload"] for r in TABLES[FIG11] if r["workload"] != "geomean"),
         key=fusion_gap,
     ), "==", "gauss_elim"),
    ("fig12.inf_s_geomean", "Inf-S cuts 90% of Base traffic",
     lambda: geomean(r["total"] for r in rows(FIG12, config="inf-s")),
     "<", 0.35),
    ("fig12.near_l3_geomean", "Near-L3 cuts 29% of Base traffic",
     lambda: geomean(r["total"] for r in rows(FIG12, config="near-l3")),
     "<", 1),
    ("fig12.inf_s_every_workload", "Inf-S cuts 90% of Base traffic",
     lambda: max(r["total"] for r in rows(FIG12, config="inf-s")), "<", 1),
    ("fig12.inf_s_below_near_l3", "Inf-S cuts 75% of Near-L3 traffic",
     lambda: geomean(r["total"] for r in rows(FIG12, config="inf-s"))
     / geomean(r["total"] for r in rows(FIG12, config="near-l3")), "<", 1),
    *[
        (f"fig12.{w}.near_l3_adds_traffic",
         "Near-L3 adds traffic on reuse-heavy kernels (kmeans +2.6x)",
         lambda w=w: cell(FIG12, "total", workload=w, config="near-l3"),
         ">", 1)
        for w in ("gauss_elim", "conv3d")
    ],
    *[
        (f"fig13.{w}.intra_tile",
         "a reasonable tile turns most movement into intra-tile shifts",
         lambda w=w: cell(FIG13, "intra-tile", workload=w), ">", 0.5)
        for w in ("stencil1d", "stencil2d", "stencil3d")
    ],
    ("fig14.inmem_ops_above_0.9_share", "99% of ops run in-memory",
     lambda: sum(r["inmem-ops"] > 0.9 for r in TABLES[FIG14])
     / len(TABLES[FIG14]), ">=", 0.6),
    ("fig14.inmem_ops_every_variant", "99% of ops run in-memory",
     lambda: min(r["inmem-ops"] for r in TABLES[FIG14]), ">=", 0.99),
    ("fig15.inf_s_outer_over_inner", "outer product is a clear win for Inf-S",
     lambda: geomean(r["InfS-Out"] for r in TABLES[FIG15])
     / geomean(r["InfS-In"] for r in TABLES[FIG15]), ">", 1),
    ("fig15.inf_s_outer_over_base", "4.4x",
     lambda: geomean(r["InfS-Out"] for r in TABLES[FIG15]), ">", 1),
    *[
        claim
        for w in OUTER_PRODUCT
        for claim in (
            (f"fig15.{w}.base_prefers_inner", "Base favors inner product",
             lambda w=w: cell(FIG15, "Base-Out", workload=w), "<", 1),
            (f"fig15.{w}.near_l3_prefers_outer",
             "Near-L3 favors outer product (broadcast recognition)",
             lambda w=w: ratio(FIG15, "NearL3-Out", "NearL3-In", workload=w),
             ">", 1),
            (f"fig15.{w}.inf_s_prefers_outer",
             "Inf-S outer product is a clear win, 4.4x over Base",
             lambda w=w: ratio(FIG15, "InfS-Out", "InfS-In", workload=w),
             ">", 1),
        )
    ],
    *[
        (f"fig16.{w}.heuristic_near_oracle", "heuristic within 2% of oracle",
         lambda w=w: cell(FIG16, "heuristic/oracle", workload=w), "<", 1.6)
        for w in ("stencil2d", "dwt2d", "conv2d")
    ],
    *[
        claim
        for w in ("stencil2d", "conv2d")
        for claim in (
            (f"fig16.{w}.oracle_tile_16x16",
             "balanced 16x16 tiles are near-optimal for shifts",
             lambda w=w: fastest_tile(w), "==", "16x16"),
            (f"fig16.{w}.heuristic_is_oracle", "heuristic within 2% of oracle",
             lambda w=w: cell(FIG16, "heuristic/oracle", workload=w),
             "==", 1),
        )
    ],
    *[
        (f"fig17.{w}.tile_spread", paper,
         lambda w=w: max(
             r["speedup-vs-worst"] for r in rows(FIG17, workload=w)
         ), ">", floor)
        for w, paper, floor in (
            ("stencil3d", "1.9x", 1.5),
            ("conv3d", "2.7x", 1.05),
        )
    ],
    ("fig18.inf_s_over_near_l3", "2.4x",
     lambda: geo(FIG18, "Inf-S") / geo(FIG18, "Near-L3"), ">", 1),
    ("fig18.in_l3_vs_near_l3", "1.5x",
     lambda: geo(FIG18, "In-L3") / geo(FIG18, "Near-L3"), ">", 0.8),
    ("fig18.in_l3_over_near_l3", "1.5x",
     lambda: geo(FIG18, "In-L3") / geo(FIG18, "Near-L3"), ">", 1),
    ("fig19.ssg_inf_s_over_near_l3", "1.69x vs 1.31x",
     lambda: speedup("ssg", "inf-s") / speedup("ssg", "near-l3"), ">", 1),
    ("fig19.msg_inf_s_over_in_l3", "1.93x vs 1.37x",
     lambda: speedup("msg", "inf-s") / speedup("msg", "in-l3"), ">", 1),
    ("fig19.in_l3_msg_over_ssg", "1.37x vs 1.10x",
     lambda: speedup("msg", "in-l3") / speedup("ssg", "in-l3"), ">", 1),
    ("fig19.ssg_near_l3_over_base", "1.31x",
     lambda: speedup("ssg", "near-l3") / speedup("ssg", "base"), ">", 1),
    ("fig19.inf_s_small_layers_off_bitlines",
     "small MLP/FC layers stay off the bitlines",
     lambda: sum(
         r["where"] == "inmem"
         for r in rows(FIG19_TIMELINE, config="inf-s")
         if r["sa"] in ("SA3", "FC")
     ), "==", 0),
    ("jit.stencil1d_memoizes", "iterative kernels memoize",
     lambda: cell(JIT, "memo-hit-rate", workload="stencil1d"), ">", 0.8),
    ("jit.gauss_elim_never_memoizes",
     "gauss_elim's shrinking regions never memoize",
     lambda: cell(JIT, "memo-hit-rate", workload="gauss_elim"), "==", 0),
    ("jit.gauss_elim_over_stencil1d",
     "51% of gauss_elim's runtime against ~11% on average",
     lambda: cell(JIT, "jit-fraction", workload="gauss_elim")
     / cell(JIT, "jit-fraction", workload="stencil1d"), ">", 1),
]


@pytest.mark.parametrize(
    "paper, measured, relation, bound",
    [claim[1:] for claim in CLAIMS],
    ids=[claim[0] for claim in CLAIMS],
)
def test_claim(paper, measured, relation, bound):
    try:
        value = measured()
    except (LookupError, ValueError) as err:
        pytest.fail(f"cells missing from {DATA.name}: {err} (paper: {paper})")
    shown = f"{value:.3g}" if isinstance(value, float) else repr(value)
    assert RELATIONS[relation](value, bound), (
        f"measured {shown}, claim needs {relation} {bound!r} (paper: {paper})"
    )
