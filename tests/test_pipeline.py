"""The staged compilation pipeline: PassManager, verifiers, dump/replay."""

from __future__ import annotations

import copy

import pytest

from repro.errors import PipelineError
from repro.exec import cache as cache_mod
from repro.exec.cache import configure_cache
from repro.geometry.hyperrect import Hyperrect
from repro.ir.dtypes import DType
from repro.ir.nodes import ComputeNode, TensorNode
from repro.ir.ops import Op
from repro.ir.tdfg import ArrayDecl, TensorDFG
from repro.pipeline import (
    DumpHooks,
    FatBinaryArtifact,
    LoweredArtifact,
    PassManager,
    ProgramArtifact,
    SourceArtifact,
    Stage,
    TDFGArtifact,
    TimingHooks,
    compile_pipeline,
    load_artifact,
    load_stage_input,
    optimize_stage,
    simulate_pipeline,
    verify_fatbinary,
    verify_lowered,
)

SAXPY = "for i in [0, N):\n    Y[i] = a * X[i] + Y[i]\n"


def saxpy_source(n=4096):
    return SourceArtifact(
        name="saxpy",
        source=SAXPY,
        arrays={"X": ("N",), "Y": ("N",)},
        params={"N": n, "a": 2},
    )


class TestPassManager:
    def test_full_compile_chain(self):
        run = compile_pipeline().run(saxpy_source())
        assert [r.stage for r in run.records] == [
            "parse", "build-region", "optimize", "fatbinary", "jit-lower",
        ]
        assert isinstance(run.artifact("fatbinary"), FatBinaryArtifact)
        lowered = run.final
        assert isinstance(lowered, LoweredArtifact)
        assert lowered.result.lowered.num_commands > 0

    def test_until_stops_inclusively(self):
        run = compile_pipeline().run(saxpy_source(), until="fatbinary")
        assert run.records[-1].stage == "fatbinary"
        assert "jit-lower" not in run.artifacts

    def test_entry_is_artifact_driven(self):
        """A mid-pipeline artifact enters at the matching stage."""
        pm = compile_pipeline()
        region = pm.run(saxpy_source(), until="build-region").final
        resumed = pm.run(
            TDFGArtifact(tdfg=region.region.tdfg), until="fatbinary"
        )
        assert [r.stage for r in resumed.records] == ["optimize", "fatbinary"]

    def test_unknown_until_raises(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            compile_pipeline().run(saxpy_source(), until="nope")

    def test_no_stage_accepts_artifact(self):
        pm = PassManager([optimize_stage(None)])
        with pytest.raises(PipelineError, match="no stage accepts"):
            pm.run(saxpy_source())

    def test_output_type_contract_enforced(self):
        bad = Stage(
            name="bad",
            input_type=SourceArtifact,
            output_type=ProgramArtifact,
            run=lambda art: art,  # returns its input: wrong type
        )
        with pytest.raises(PipelineError, match=r"\[stage bad\]"):
            PassManager([bad]).run(saxpy_source())

    def test_api_optimize_round_trip(self):
        """api.optimize returns (tdfg, report) from the pipeline."""
        from repro import api

        prog = api.compile_kernel(
            "saxpy", SAXPY, arrays={"X": ("N",), "Y": ("N",)}
        )
        tdfg, report = api.optimize(prog, {"N": 1024, "a": 2})
        assert report.cost_after <= report.cost_before
        assert tdfg.results


class TestVerifiers:
    def _region_tdfg(self):
        run = compile_pipeline().run(saxpy_source(), until="build-region")
        return run.final.region.tdfg

    def test_cycle_caught_and_names_stage(self):
        tdfg = self._region_tdfg()
        add = tdfg.results[0].node  # cmp(add)
        assert isinstance(add, ComputeNode)
        mul = next(n for n in add.inputs if isinstance(n, ComputeNode))
        # Deliberately corrupt: mul now consumes its own consumer.
        object.__setattr__(mul, "inputs", (mul.inputs[0], add))
        pm = PassManager([optimize_stage(None)])
        with pytest.raises(PipelineError, match="cycle") as exc:
            pm.run(TDFGArtifact(tdfg=tdfg))
        assert exc.value.stage == "optimize"
        assert exc.value.node is not None

    def test_unbound_array_ref_caught(self):
        tdfg = self._region_tdfg()
        del tdfg.arrays["X"]  # X's tensor nodes are now unbound
        pm = PassManager([optimize_stage(None)])
        with pytest.raises(PipelineError, match="undeclared") as exc:
            pm.run(TDFGArtifact(tdfg=tdfg))
        assert exc.value.stage == "optimize"

    def test_unbound_symbolic_const_caught(self):
        # Leaving 'a' unbound at instantiation keeps it a symbolic const
        # registered in tdfg.params (resolved at inf_cfg time).
        source = SourceArtifact(
            name="saxpy",
            source=SAXPY,
            arrays={"X": ("N",), "Y": ("N",)},
            params={"N": 64},
        )
        run = compile_pipeline().run(source, until="build-region")
        tdfg = run.final.region.tdfg
        tdfg.params.clear()  # corrupt: the symbolic const is now unbound
        pm = PassManager([optimize_stage(None)])
        with pytest.raises(PipelineError, match="missing from params"):
            pm.run(TDFGArtifact(tdfg=tdfg))

    def test_mixed_dtypes_caught(self):
        tdfg = TensorDFG(name="mixed")
        tdfg.declare(ArrayDecl("A", (16,), DType.FP32))
        tdfg.declare(ArrayDecl("B", (16,), DType.INT8))
        rect = Hyperrect.from_shape((16,))
        node = ComputeNode(
            Op.ADD,
            (
                TensorNode("A", rect, DType.FP32),
                TensorNode("B", rect, DType.INT8),
            ),
        )
        tdfg.bind("A", rect, node)
        pm = PassManager([optimize_stage(None)])
        with pytest.raises(PipelineError, match="mixes element types"):
            pm.run(TDFGArtifact(tdfg=tdfg))

    def test_register_pressure_invariant(self):
        # Deep-copy: the pipeline may hand back the content cache's
        # instance, which later compiles would otherwise see corrupted.
        binary = copy.deepcopy(
            compile_pipeline().run(saxpy_source(), until="fatbinary").final
        )
        sched = next(iter(binary.binary.configs.values()))
        sched.registers_used = sched.registers_available + 1
        with pytest.raises(PipelineError, match="register pressure") as exc:
            verify_fatbinary(binary, "fatbinary")
        assert exc.value.stage == "fatbinary"

    def test_lowered_operands_resident(self):
        lowered = copy.deepcopy(compile_pipeline().run(saxpy_source()).final)
        from repro.runtime.commands import ComputeCmd

        rogue = ComputeCmd(
            op=Op.ADD,
            domain=Hyperrect.from_shape((4,)),
            dst_reg=0,
            operands=(("reg", 97),),  # never written, never resident
        )
        lowered.result.lowered.commands.append(rogue)
        with pytest.raises(PipelineError, match="reads register 97") as exc:
            verify_lowered(lowered, "jit-lower")
        assert exc.value.stage == "jit-lower"
        assert exc.value.node is rogue

    def test_verifiers_pass_on_well_formed_pipeline(self):
        # verify=True is the default: a clean kernel sails through.
        run = compile_pipeline(optimize=True).run(saxpy_source())
        assert run.final.result.lowered.num_commands > 0


class TestInstrumentation:
    def test_timing_hooks_table(self):
        timing = TimingHooks()
        compile_pipeline(hooks=[timing]).run(saxpy_source())
        assert [r.stage for r in timing.rows] == [
            "parse", "build-region", "optimize", "fatbinary", "jit-lower",
        ]
        assert all(r.wall_seconds >= 0 for r in timing.rows)
        assert all(r.artifact_bytes > 0 for r in timing.rows)
        table = timing.format_table()
        assert "-- pipeline timing --" in table
        assert "jit-lower" in table and "wall[ms]" in table

    def test_stage_scoped_cache_counters(self):
        saved = cache_mod._active
        try:
            configure_cache(enabled=True)
            pm = compile_pipeline()
            cold, warm = TimingHooks(), TimingHooks()
            pm.run(saxpy_source(), hooks=[cold])
            pm.run(saxpy_source(), hooks=[warm])
            by_stage = {r.stage: r for r in warm.rows}
            assert by_stage["fatbinary"].cache_hits >= 1
            # The counts are per stage: the warm jit-lower is answered
            # by the shared compiler's memo and looks nothing up.
            assert by_stage["jit-lower"].cache_hits == 0
            cold_fb = [r for r in cold.rows if r.stage == "fatbinary"][0]
            assert cold_fb.cache_hits == 0
        finally:
            cache_mod._active = saved

    def test_dump_writes_manifest_and_artifacts(self, tmp_path):
        compile_pipeline(hooks=[DumpHooks(tmp_path)]).run(saxpy_source())
        names = {p.name for p in tmp_path.iterdir()}
        assert "manifest.json" in names
        assert any(n.endswith("-fatbinary.pkl") for n in names)
        assert any(n.endswith("-jit-lower.commands.txt") for n in names)
        # fingerprints recorded for IR-bearing stages
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        by_stage = {e["stage"]: e for e in manifest["stages"]}
        assert by_stage["fatbinary"]["fingerprint"]
        assert by_stage["build-region"]["fingerprint"]


class TestReplay:
    def test_jit_lower_replay_byte_identical(self, tmp_path):
        run = compile_pipeline(hooks=[DumpHooks(tmp_path)]).run(
            saxpy_source()
        )
        original = [str(c) for c in run.final.result.lowered.commands]

        seed = load_stage_input(tmp_path, "jit-lower")
        assert isinstance(seed, FatBinaryArtifact)
        replay = compile_pipeline().run(seed, until="jit-lower")
        replayed = [str(c) for c in replay.final.result.lowered.commands]
        assert replayed == original
        assert replay.final.result.lowered.tile == run.final.result.lowered.tile

    def test_replay_from_tdfg_json(self, tmp_path):
        run = compile_pipeline(hooks=[DumpHooks(tmp_path)]).run(
            saxpy_source()
        )
        original = [str(c) for c in run.final.result.lowered.commands]
        seed = load_stage_input(tmp_path, "optimize")  # build-region dump
        assert isinstance(seed, TDFGArtifact)
        replay = compile_pipeline().run(seed, until="jit-lower")
        assert [str(c) for c in replay.final.result.lowered.commands] == original

    def test_load_artifact_by_stage(self, tmp_path):
        compile_pipeline(hooks=[DumpHooks(tmp_path)]).run(saxpy_source())
        art = load_artifact(tmp_path, "parse")
        assert isinstance(art, ProgramArtifact)
        assert art.program.name == "saxpy"

    def test_replay_without_manifest_raises(self, tmp_path):
        with pytest.raises(PipelineError, match="manifest"):
            load_stage_input(tmp_path / "nowhere", "jit-lower")


class TestSimulatePipeline:
    def test_matches_direct_runner(self):
        from repro import api

        prog = api.compile_kernel(
            "saxpy", SAXPY, arrays={"X": ("N",), "Y": ("N",)}
        )
        via_api = api.simulate(prog, {"N": 65536, "a": 2}, paradigm="inf-s")
        run = simulate_pipeline(paradigm="inf-s").run(
            ProgramArtifact(program=prog, params={"N": 65536, "a": 2})
        )
        assert run.final.result.total_cycles == via_api.total_cycles
        assert run.final.result.energy_nj == via_api.energy_nj

    def test_baseline_paradigms_dispatch(self):
        from repro import api

        prog = api.compile_kernel(
            "saxpy", SAXPY, arrays={"X": ("N",), "Y": ("N",)}
        )
        run = simulate_pipeline(paradigm="base-1").run(
            ProgramArtifact(program=prog, params={"N": 16384, "a": 2})
        )
        assert run.final.result.paradigm == "base-t1"  # single-thread base
        assert run.final.result.total_cycles > 0
