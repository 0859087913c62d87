"""CLI coverage: compile/simulate/offload/replay + golden format_tdfg."""

from __future__ import annotations

import pytest

from repro import cli

STENCIL = "for i in [1, N-1):\n    Y[i] = X[i-1] + X[i] + X[i+1]\n"
SAXPY = "for i in [0, N):\n    Y[i] = a * X[i] + Y[i]\n"

# The exact printer output for stencil1d at N=16 — a golden test: any
# change to format_tdfg or to region construction must be deliberate.
GOLDEN_STENCIL_TDFG = """\
tdfg stencil1d#0 {
  array X[16] : fp32
  array Y[16] : fp32
  %0 = X[0,14)  ; [0,14)
  %1 = mv(dim=0,dist=1) %0  ; [1,15)
  %2 = X[1,15)  ; [1,15)
  %3 = cmp(add) %1, %2  ; [1,15)
  %4 = X[2,16)  ; [2,16)
  %5 = mv(dim=0,dist=-1) %4  ; [1,15)
  %6 = cmp(add) %3, %5  ; [1,15)
  store %6 -> Y[1,15)
}"""


@pytest.fixture
def stencil_file(tmp_path):
    path = tmp_path / "stencil.k"
    path.write_text(STENCIL)
    return str(path)


@pytest.fixture
def saxpy_file(tmp_path):
    path = tmp_path / "saxpy.k"
    path.write_text(SAXPY)
    return str(path)


def stencil_args(stencil_file, *extra):
    return [
        "compile", stencil_file,
        "--array", "X:N", "--array", "Y:N",
        "-p", "N=16", "--name", "stencil1d",
        *extra,
    ]


def saxpy_args(command, saxpy_file, *extra):
    return [
        command, saxpy_file,
        "--array", "X:N", "--array", "Y:N",
        "-p", "N=4096", "-p", "a=2", "--name", "saxpy",
        *extra,
    ]


class TestCompile:
    def test_golden_format_tdfg(self, stencil_file, capsys):
        assert cli.main(stencil_args(stencil_file)) == 0
        out = capsys.readouterr().out
        assert GOLDEN_STENCIL_TDFG in out
        assert "stencil1d:" in out  # kernel summary line

    def test_lower_prints_commands(self, saxpy_file, capsys):
        assert cli.main(saxpy_args("compile", saxpy_file, "--lower")) == 0
        out = capsys.readouterr().out
        assert "-- lowered commands (tile (256,)) --" in out
        assert "cmp mul [0,4096) r0->r2" in out
        assert "cmp add [0,4096) r2,r1->r1" in out

    def test_optimize_and_lower_share_one_run(self, saxpy_file, capsys):
        # The dedup satellite: --optimize --lower is a single pipeline
        # run, so the lowering comes from the optimized tDFG artifact.
        args = saxpy_args(
            "compile", saxpy_file, "--optimize", "--lower", "--time-passes"
        )
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "-- optimized (cost" in out
        assert "-- lowered commands" in out
        table = out[out.index("-- pipeline timing --"):]
        # One run: each stage appears exactly once in the timing table.
        for stage in ("parse", "build-region", "optimize", "fatbinary"):
            assert table.count(f"\n{stage} ") == 1

    def test_time_passes_table(self, stencil_file, capsys):
        assert cli.main(stencil_args(stencil_file, "--time-passes")) == 0
        out = capsys.readouterr().out
        assert "-- pipeline timing --" in out
        assert "wall[ms]" in out and "bytes" in out
        # until="build-region": later stages never ran, so no rows.
        table = out[out.index("-- pipeline timing --"):]
        assert "jit-lower" not in table
        assert "total" in table

    def test_param_rejects_non_integer(self, stencil_file, capsys):
        code = cli.main(stencil_args(stencil_file, "-p", "N=sixteen"))
        assert code == cli.EXIT_USER
        err = capsys.readouterr().err
        assert "expected an integer value" in err
        assert "'sixteen'" in err

    def test_param_requires_name_and_value(self, stencil_file, capsys):
        assert cli.main(stencil_args(stencil_file, "-p", "N")) == 1
        assert "NAME=VALUE" in capsys.readouterr().err

    def test_array_requires_dims(self, stencil_file, capsys):
        code = cli.main(
            ["compile", stencil_file, "--array", "X", "-p", "N=16"]
        )
        assert code == cli.EXIT_USER
        assert "NAME:D0" in capsys.readouterr().err

    def test_kernel_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(STENCIL))
        args = [
            "compile", "-",
            "--array", "X:N", "--array", "Y:N",
            "-p", "N=16", "--name", "stencil1d",
        ]
        assert cli.main(args) == 0
        assert GOLDEN_STENCIL_TDFG in capsys.readouterr().out

    def test_missing_kernel_file_reports_cleanly(self, tmp_path, capsys):
        args = [
            "compile", str(tmp_path / "nope.k"),
            "--array", "X:N", "-p", "N=16",
        ]
        assert cli.main(args) == cli.EXIT_USER
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_reports_cycles_and_energy(self, saxpy_file, capsys):
        args = saxpy_args("simulate", saxpy_file, "--paradigm", "inf-s")
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "paradigm     inf-s" in out
        assert "cycles" in out and "energy" in out
        assert "in-mem ops" in out

    def test_matches_api(self, saxpy_file, capsys):
        from repro import api

        assert cli.main(saxpy_args("simulate", saxpy_file)) == 0
        out = capsys.readouterr().out
        prog = api.compile_kernel(
            "saxpy", SAXPY, arrays={"X": ("N",), "Y": ("N",)}
        )
        result = api.simulate(prog, {"N": 4096, "a": 2}, paradigm="inf-s")
        assert f"cycles       {result.total_cycles:,.0f}" in out

    def test_time_passes(self, saxpy_file, capsys):
        args = saxpy_args("simulate", saxpy_file, "--time-passes")
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        table = out[out.index("-- pipeline timing --"):]
        assert "parse" in table and "simulate" in table


class TestList:
    def test_list_all_categories(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for heading in ("workloads", "paradigms", "systems", "figures"):
            assert heading in out

    def test_list_workloads_shows_suite_and_zoo(self, capsys):
        assert cli.main(["list", "workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("stencil1d", "mm", "gather_mlp",
                     "attention", "mlp", "spmv", "sddmm"):
            assert name in out
        assert "matmul" in out  # aliases are listed alongside the name

    def test_list_paradigms(self, capsys):
        assert cli.main(["list", "paradigms"]) == 0
        out = capsys.readouterr().out
        for name in ("base", "near-l3", "in-l3", "inf-s", "inf-s-nojit"):
            assert name in out

    def test_list_bad_category_is_usage_error(self, capsys):
        assert cli.main(["list", "gadgets"]) == 1


class TestUnknownNames:
    def test_unknown_paradigm_exits_one(self, saxpy_file, capsys):
        args = saxpy_args("simulate", saxpy_file, "--paradigm", "warp")
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "warp" in err and "known" in err
        assert "Traceback" not in err

    def test_unknown_system_exits_one(self, saxpy_file, capsys):
        args = saxpy_args("simulate", saxpy_file, "--system", "cray-1")
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "cray-1" in err and "Traceback" not in err

    def test_named_system_accepted(self, saxpy_file, capsys):
        args = saxpy_args("simulate", saxpy_file, "--system", "small-test")
        assert cli.main(args) == 0
        assert "cycles" in capsys.readouterr().out


class TestOffload:
    def test_prints_decision(self, saxpy_file, capsys):
        assert cli.main(saxpy_args("offload", saxpy_file)) == 0
        out = capsys.readouterr().out.strip()
        assert out in ("in-memory", "near-memory")


class TestReplay:
    def test_round_trip_byte_identical(self, saxpy_file, tmp_path, capsys):
        dump = str(tmp_path / "dump")
        args = saxpy_args(
            "compile", saxpy_file, "--lower", "--dump-dir", dump
        )
        assert cli.main(args) == 0
        compile_out = capsys.readouterr().out
        section = compile_out[compile_out.index("-- lowered commands"):]

        assert cli.main(["replay-artifact", dump, "--stage", "jit-lower"]) == 0
        replay_out = capsys.readouterr().out
        # The CI round-trip contract: replaying jit-lower from the
        # dumped fat binary reproduces the section byte-for-byte.
        assert replay_out == section.rstrip("\n") + "\n" or replay_out == section

    def test_replay_missing_dump_fails(self, tmp_path, capsys):
        # PipelineError is an internal/pipeline failure: exit code 2.
        code = cli.main(["replay-artifact", str(tmp_path / "empty")])
        assert code == cli.EXIT_INTERNAL
        assert "manifest" in capsys.readouterr().err

    def test_dump_dir_files(self, saxpy_file, tmp_path):
        dump = tmp_path / "dump"
        args = saxpy_args(
            "compile", saxpy_file, "--lower", "--dump-dir", str(dump)
        )
        assert cli.main(args) == 0
        names = sorted(p.name for p in dump.iterdir())
        assert "manifest.json" in names
        assert any(n.endswith("-parse.json") for n in names)
        assert any(n.endswith("-fatbinary.pkl") for n in names)
        assert any(n.endswith("-jit-lower.commands.txt") for n in names)

    def test_replay_artifact_is_canonical_name(
        self, saxpy_file, tmp_path, capsys
    ):
        dump = str(tmp_path / "dump")
        args = saxpy_args(
            "compile", saxpy_file, "--lower", "--dump-dir", dump
        )
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(["replay-artifact", dump, "--stage", "jit-lower"]) == 0
        err = capsys.readouterr().err
        assert "deprecated" not in err


class TestRecordReplaySession:
    """The record / replay-session verbs (repro.replay over the CLI)."""

    @pytest.fixture(scope="class")
    def session_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("session") / "session.jsonl"
        assert cli.main([
            "record", "--figure", "fig14", "--scale", "0.05",
            "--out", str(path), "--seed-mutation", "5",
        ]) == 0
        return str(path)

    def test_record_reports_session(self, session_file, capsys):
        # the fixture already ran record; re-run for the output text
        assert cli.main([
            "record", "--figure", "fig14", "--scale", "0.05",
            "--out", session_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "recorded session s-" in out
        assert "1 job(s)" in out

    def test_record_needs_a_source(self, capsys):
        assert cli.main(["record", "--out", "/tmp/x.jsonl"]) == cli.EXIT_USER
        assert "--figure" in capsys.readouterr().err

    def test_record_rejects_both_sources(self, tmp_path, capsys):
        code = cli.main([
            "record", "--figure", "fig14",
            "--from-store", str(tmp_path / "store"),
            "--out", str(tmp_path / "s.jsonl"),
        ])
        assert code == cli.EXIT_USER
        capsys.readouterr()

    def test_clean_replay_exits_zero(self, session_file, capsys):
        assert cli.main(["replay-session", session_file]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "0 divergence(s)" in out

    def test_json_report(self, session_file, capsys):
        import json

        assert cli.main(
            ["replay-session", session_file, "--json"]
        ) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["jobs_checked"] == 1

    def test_perturbed_session_exits_internal(
        self, session_file, tmp_path, capsys
    ):
        import json

        lines = open(session_file).read().splitlines()
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec.get("type") == "job":
                rec["result_digest"] = "0" * 16
                lines[i] = json.dumps(rec, sort_keys=True)
                break
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay-session", str(bad)]) == cli.EXIT_INTERNAL
        assert "first divergence" in capsys.readouterr().out

    def test_version_skew_is_user_error(
        self, session_file, tmp_path, capsys
    ):
        import json

        lines = open(session_file).read().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header, sort_keys=True)
        skewed = tmp_path / "skewed.jsonl"
        skewed.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay-session", str(skewed)]) == cli.EXIT_USER
        assert "version" in capsys.readouterr().err

    def test_missing_session_is_user_error(self, tmp_path, capsys):
        code = cli.main(["replay-session", str(tmp_path / "nope.jsonl")])
        assert code == cli.EXIT_USER
        capsys.readouterr()

    def test_traffic_needs_url(self, session_file, capsys):
        code = cli.main(["replay-session", session_file, "--traffic"])
        assert code == cli.EXIT_USER
        assert "--url" in capsys.readouterr().err

    def test_shared_epilog_on_both_help_texts(self, capsys):
        for verb in ("replay-artifact", "replay-session"):
            assert cli.main([verb, "--help"]) == cli.EXIT_OK
            out = capsys.readouterr().out
            assert "two replay verbs" in out


class TestExitCodes:
    """The uniform contract: 0 ok, 1 user/config, 2 internal/pipeline."""

    def test_ok_is_zero(self, stencil_file):
        assert cli.main(stencil_args(stencil_file)) == cli.EXIT_OK == 0

    def test_argparse_usage_error_is_user_error(self, capsys):
        # argparse would exit(2); the CLI folds usage errors into 1.
        assert cli.main(["no-such-command"]) == cli.EXIT_USER == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "repro" in capsys.readouterr().out

    def test_bad_kernel_source_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.k"
        bad.write_text("this is not a kernel\n")
        code = cli.main(
            ["compile", str(bad), "--array", "X:N", "-p", "N=16"]
        )
        assert code == cli.EXIT_USER
        assert "error:" in capsys.readouterr().err

    def test_unreachable_server_is_user_error(self, capsys):
        # Port 1 is never listening; the client error maps to exit 1.
        code = cli.main(["status", "--url", "http://127.0.0.1:1"])
        assert code == cli.EXIT_USER
        assert "cannot reach" in capsys.readouterr().err

    def test_internal_pipeline_error_is_two(self, tmp_path, capsys):
        code = cli.main(["replay-artifact", str(tmp_path / "missing")])
        assert code == cli.EXIT_INTERNAL == 2
        capsys.readouterr()


class TestTrace:
    """The `trace` subcommand and the --trace/--metrics flags."""

    def test_trace_command_writes_valid_perfetto_json(
        self, saxpy_file, tmp_path, capsys
    ):
        import json

        out_path = tmp_path / "trace.json"
        args = saxpy_args("trace", saxpy_file, "--out", str(out_path))
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out
        assert "-- cycle stack" in stdout
        assert "-- NoC traffic heatmap" in stdout
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "M" in phases and ("X" in phases or "i" in phases)
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M" and "args" in e
        }
        assert "repro simulated chip" in names

    def test_trace_command_metrics_flag(self, saxpy_file, tmp_path, capsys):
        args = saxpy_args(
            "trace", saxpy_file,
            "--out", str(tmp_path / "t.json"), "--metrics",
        )
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert "-- metrics --" in out
        assert "engine.cycles." in out

    def test_simulate_with_trace_and_metrics_flags(
        self, saxpy_file, tmp_path, capsys
    ):
        out_path = tmp_path / "sim-trace.json"
        args = saxpy_args(
            "simulate", saxpy_file, "--trace", str(out_path), "--metrics"
        )
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert f"wrote {out_path}" in out
        assert "-- metrics --" in out
        assert out_path.exists()

    def test_observability_off_by_default(self, saxpy_file, capsys):
        from repro.trace import events as trace_events
        from repro.trace import metrics as trace_metrics

        assert cli.main(saxpy_args("simulate", saxpy_file)) == 0
        assert trace_events.TRACER is None
        assert trace_metrics.REGISTRY is None
        assert "-- metrics --" not in capsys.readouterr().out
