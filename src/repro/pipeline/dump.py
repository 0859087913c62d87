"""Artifact serialization for ``--dump-dir`` and stage replay.

Every pipeline stage's output can be dumped to disk and later fed back
into a :class:`~repro.pipeline.manager.PassManager` to replay the
remaining stages — e.g. re-running ``jit-lower`` from a dumped fat
binary and asserting the lowered commands are byte-identical (the CI
round-trip job).

Formats (chosen per artifact type):

* source/program artifacts — JSON (name, source, array declarations);
* region/tDFG artifacts — the existing ``tdfg_to_json`` encoding plus
  the content fingerprint;
* fat-binary and lowered artifacts — pickles, with a human-readable
  ``.commands.txt`` sidecar for lowerings;
* run results — a JSON summary (terminal; not replayable).

A ``manifest.json`` records stage order, file names, artifact types and
fingerprints; :func:`load_stage_input` resolves "the dumped input of
stage X" through it.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

from repro.errors import PipelineError
from repro.pipeline.artifacts import (
    Artifact,
    FatBinaryArtifact,
    LoweredArtifact,
    ProgramArtifact,
    RegionArtifact,
    RunArtifact,
    SourceArtifact,
    TDFGArtifact,
)

MANIFEST = "manifest.json"


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------
def dump_artifact(
    artifact: Artifact, dump_dir: Path, index: int, stage: str
) -> dict:
    """Serialize one artifact; returns its manifest entry."""
    dump_dir.mkdir(parents=True, exist_ok=True)
    base = f"{index:02d}-{stage}"
    fingerprint: str | None = None

    if isinstance(artifact, SourceArtifact):
        path = dump_dir / f"{base}.json"
        _write_json(path, _source_payload(artifact))
    elif isinstance(artifact, ProgramArtifact):
        path = dump_dir / f"{base}.json"
        _write_json(path, _program_payload(artifact))
    elif isinstance(artifact, (RegionArtifact, TDFGArtifact)):
        from repro.ir.printer import tdfg_to_dict

        if isinstance(artifact, RegionArtifact):
            tdfg = artifact.region.tdfg
        else:
            tdfg = artifact.tdfg
        fingerprint = tdfg.fingerprint()
        path = dump_dir / f"{base}.json"
        _write_json(
            path,
            {
                "artifact": "TDFGArtifact",
                "tdfg": tdfg_to_dict(tdfg),
                "fingerprint": fingerprint,
            },
        )
    elif isinstance(artifact, FatBinaryArtifact):
        fingerprint = artifact.binary.tdfg.fingerprint()
        path = dump_dir / f"{base}.pkl"
        _write_pickle(path, artifact)
    elif isinstance(artifact, LoweredArtifact):
        if artifact.binary is not None:
            fingerprint = artifact.binary.tdfg.fingerprint()
        path = dump_dir / f"{base}.pkl"
        _write_pickle(path, artifact)
        lowered = artifact.result.lowered
        sidecar = dump_dir / f"{base}.commands.txt"
        sidecar.write_text(
            "\n".join(str(cmd) for cmd in lowered.commands) + "\n"
        )
    elif isinstance(artifact, RunArtifact):
        path = dump_dir / f"{base}.json"
        _write_json(path, _run_payload(artifact))
    else:
        raise PipelineError(
            f"cannot dump artifact type {type(artifact).__name__}",
            stage=stage,
        )
    return {
        "stage": stage,
        "artifact": type(artifact).__name__,
        "file": path.name,
        "bytes": path.stat().st_size,
        "fingerprint": fingerprint,
    }


def write_manifest(dump_dir: Path, entries: list[dict]) -> None:
    _write_json(dump_dir / MANIFEST, {"stages": entries})


# ----------------------------------------------------------------------
# Loading / replay
# ----------------------------------------------------------------------
def read_manifest(dump_dir: str | Path) -> list[dict]:
    path = Path(dump_dir) / MANIFEST
    if not path.is_file():
        raise PipelineError(
            f"no {MANIFEST} under {dump_dir!s} (was the pipeline run "
            "with --dump-dir?)",
            stage="<replay>",
        )
    return json.loads(path.read_text())["stages"]


def load_artifact(dump_dir: str | Path, stage: str) -> Artifact:
    """Reload the *output* artifact the named stage dumped."""
    for entry in read_manifest(dump_dir):
        if entry["stage"] == stage:
            return _load_entry(Path(dump_dir), entry)
    raise PipelineError(
        f"not present in {dump_dir!s}/{MANIFEST}", stage=stage
    )


def load_stage_input(dump_dir: str | Path, stage: str) -> Artifact:
    """Reload the artifact that *feeds* the named stage (its
    predecessor's dumped output), for replaying that stage onward."""
    entries = read_manifest(dump_dir)
    for i, entry in enumerate(entries):
        if entry["stage"] == stage:
            if i == 0:
                raise PipelineError(
                    "is the first dumped stage; nothing feeds it",
                    stage=stage,
                )
            return _load_entry(Path(dump_dir), entries[i - 1])
    raise PipelineError(
        f"not present in {dump_dir!s}/{MANIFEST}", stage=stage
    )


def _load_entry(dump_dir: Path, entry: dict) -> Artifact:
    path = dump_dir / entry["file"]
    kind = entry["artifact"]
    if kind in ("FatBinaryArtifact", "LoweredArtifact"):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    data = json.loads(path.read_text())
    if kind == "SourceArtifact":
        return _source_from(data)
    if kind == "ProgramArtifact":
        return _program_from(data)
    if kind in ("RegionArtifact", "TDFGArtifact"):
        # Regions reload as plain tDFG artifacts: the near-memory
        # stream statements are not round-trippable, the in-memory
        # compilation path (optimize/fatbinary/jit-lower) is.
        from repro.ir.printer import tdfg_from_dict

        return TDFGArtifact(tdfg=tdfg_from_dict(data["tdfg"]))
    raise PipelineError(
        f"artifact type {kind} is terminal; it cannot seed a replay",
        stage=entry["stage"],
    )


# ----------------------------------------------------------------------
# Payload encoders/decoders
# ----------------------------------------------------------------------
def _source_payload(artifact: SourceArtifact) -> dict:
    return {
        "artifact": "SourceArtifact",
        "name": artifact.name,
        "source": artifact.source,
        "arrays": [[n, list(d)] for n, d in dict(artifact.arrays).items()],
        "dtype": artifact.dtype.value,
        "params": dict(artifact.params),
        "dataflow": artifact.dataflow,
    }


def _source_from(data: dict) -> SourceArtifact:
    from repro.ir.dtypes import DType

    return SourceArtifact(
        name=data["name"],
        source=data["source"],
        arrays={n: tuple(d) for n, d in data["arrays"]},
        dtype=DType(data["dtype"]),
        params=dict(data["params"]),
        dataflow=data["dataflow"],
    )


def _program_payload(artifact: ProgramArtifact) -> dict:
    program = artifact.program
    return {
        "artifact": "ProgramArtifact",
        "name": program.name,
        "source": program.source,
        "arrays": [[n, list(d)] for n, d in program.array_shapes],
        "dtype": program.dtype.value,
        "params": dict(artifact.params),
        "dataflow": artifact.dataflow,
    }


def _program_from(data: dict) -> ProgramArtifact:
    from repro.frontend import parse_kernel
    from repro.ir.dtypes import DType

    program = parse_kernel(
        data["name"],
        data["source"],
        arrays={n: tuple(d) for n, d in data["arrays"]},
        dtype=DType(data["dtype"]),
    )
    return ProgramArtifact(
        program=program,
        params=dict(data["params"]),
        dataflow=data["dataflow"],
    )


def _run_payload(artifact: RunArtifact) -> dict:
    result = artifact.result
    return {
        "artifact": "RunArtifact",
        "workload": result.workload,
        "paradigm": result.paradigm,
        "total_cycles": result.total_cycles,
        "cycles": result.cycles.as_dict(),
        "traffic_total": result.traffic.total,
        "energy_nj": result.energy_nj,
        "regions": result.regions,
        "jit_memo_hits": result.jit_memo_hits,
        "meta": dict(result.meta),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_pickle(path: Path, obj: object) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
