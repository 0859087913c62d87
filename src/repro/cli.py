"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``   run the compilation pipeline on a kernel file and print its
              tDFG (optionally the e-graph-optimized tDFG and the lowered
              bit-serial commands — all from one pipeline run);
``simulate``  estimate cycles/traffic/energy under one configuration;
``offload``   evaluate the Eq. 2 in-/near-memory decision;
``replay-artifact``  re-run pipeline stages from a ``--dump-dir``
              artifact dump;
``figures``   regenerate the paper's evaluation tables (run_all);
``list``      list registered workloads/paradigms/systems/figures
              (decorated built-ins plus entry-point plugins);
``trace``     simulate one kernel with full observability: write a
              Perfetto/chrome://tracing ``trace.json`` and print the
              Fig 14-style cycle stack, the per-tile NoC heatmap and
              the metrics report.

``serve``     run the durable job-queue service (HTTP API + worker;
              ``--record FILE`` writes a replay session at shutdown);
``submit``    submit a kernel, workload, or campaign job to a server;
``status``    list jobs (or show one job, ``--result`` fetches output);
``cancel``    cancel a queued or running job;
``record``    record campaign figures (or a serve store directory) into
              a replayable JSONL session file;
``replay-session``  re-execute a recorded session: deterministic 1x
              diff replay (first-divergence report) or, with
              ``--traffic``, amplified synthetic load over HTTP.

``compile`` and ``simulate`` also accept ``--trace FILE`` (write the
event trace) and ``--metrics`` (print the metrics registry) without
switching commands.

Exit codes are uniform across commands: **0** success, **1** user or
configuration error (bad flags, malformed kernel, unreachable server,
rejected submission), **2** internal/pipeline error (a stage contract
violation, a simulation failure, a job that finished ``failed``).

Kernel files contain the plain loop-nest source; arrays and sizes are
given on the command line::

    python -m repro compile saxpy.k --array "X:N" --array "Y:N" -p N=1024

``compile --time-passes`` prints a per-stage wall-clock/artifact-size
table; ``--dump-dir DIR`` serializes every intermediate artifact so any
stage can later be replayed from its dump (``python -m repro
replay-artifact``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro import api
from repro.errors import ReproError
from repro.ir.dtypes import DType
from repro.ir.printer import format_tdfg
from repro.pipeline import (
    DumpHooks,
    SourceArtifact,
    TimingHooks,
    compile_pipeline,
    load_stage_input,
    simulate_pipeline,
)
from repro.registry import ENGINE_PARADIGMS, INF_S, REGISTRIES

# Uniform exit codes (see module docstring).
EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


class UsageError(Exception):
    """A malformed command-line value (exit code 1)."""


def _parse_arrays(items: list[str]) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    for item in items:
        name, _, dims = item.partition(":")
        if not dims:
            raise UsageError(f"--array needs NAME:D0,D1,... (got {item!r})")
        parsed = tuple(
            int(d) if d.isdigit() else d for d in dims.split(",")
        )
        out[name] = parsed
    return out


def _parse_params(items: list[str]) -> dict[str, int]:
    out = {}
    for item in items:
        key, _, value = item.partition("=")
        if not key or not value:
            raise UsageError(f"-p needs NAME=VALUE (got {item!r})")
        try:
            out[key] = int(value)
        except ValueError:
            raise UsageError(
                f"-p {key}: expected an integer value, got {value!r}"
            ) from None
    return out


def _read_source(args) -> str:
    if args.kernel == "-":
        return sys.stdin.read()
    with open(args.kernel) as fh:
        return fh.read()


def _source_artifact(args) -> SourceArtifact:
    """The pipeline input described by the common kernel arguments."""
    return SourceArtifact(
        name=args.name or "kernel",
        source=_read_source(args),
        arrays=_parse_arrays(args.array),
        dtype=DType.FP32,
        params=_parse_params(args.param),
        dataflow=args.dataflow,
    )


def _instrumentation(args) -> tuple[TimingHooks | None, list]:
    hooks: list = []
    timing = None
    if getattr(args, "time_passes", False):
        timing = TimingHooks()
        hooks.append(timing)
    if getattr(args, "dump_dir", None):
        hooks.append(DumpHooks(args.dump_dir))
    if getattr(args, "trace", None) or getattr(args, "metrics", False):
        from repro.pipeline.hooks import TraceHooks

        hooks.append(TraceHooks())
    return timing, hooks


@contextmanager
def _observing(args):
    """Enable repro.trace for the command when ``--trace``/``--metrics``
    ask for it; afterwards write the trace file / print the report."""
    if not getattr(args, "trace", None) and not getattr(args, "metrics", False):
        yield
        return
    from repro import trace as trace_mod

    with trace_mod.observe() as (tracer, registry):
        yield
    if getattr(args, "trace", None):
        path = trace_mod.write_chrome_trace(args.trace, tracer.events)
        print(f"\nwrote {path} ({len(tracer.events)} events)")
    if getattr(args, "metrics", False):
        print()
        print(trace_mod.metrics_report(registry))


def _print_lowered(jres) -> None:
    print(f"\n-- lowered commands (tile {jres.lowered.tile}) --")
    for cmd in jres.lowered.commands:
        print(f"  {cmd}")


def _optimizer_knobs(args) -> tuple[int, int, str, str]:
    """Validate the optimizer budgets/strategy flags (UsageError -> 1)."""
    from repro.egraph.saturate import validate_optimizer_knobs

    knobs = (
        args.max_iterations,
        args.node_budget,
        args.strategy,
        args.rule_scheduler,
    )
    problems = validate_optimizer_knobs(*knobs)
    if problems:
        raise UsageError("; ".join(problems))
    return knobs


def _print_egraph_stats(report) -> None:
    from repro.sim.campaign import format_table

    print(
        f"\n-- e-graph stats ({report.strategy}/{report.scheduler}, "
        f"{report.iterations} iterations "
        f"({report.deadline_iterations} deadline), "
        f"{'saturated' if report.saturated else 'budget-limited'}) --"
    )
    if report.budget_tripped_by is not None:
        print(f"node budget exhausted by rule {report.budget_tripped_by!r}")
    p = report.phases
    print(
        f"phases: match {p.match_seconds * 1e3:.1f}ms  "
        f"apply {p.apply_seconds * 1e3:.1f}ms  "
        f"rebuild {p.rebuild_seconds * 1e3:.1f}ms  "
        f"extract {p.extract_seconds * 1e3:.1f}ms"
    )
    rows = [
        [rs.name, rs.matches, rs.applied, rs.unions, rs.productive,
         rs.churn, f"{rs.benefit:.0f}", rs.bans, f"{rs.seconds * 1e3:.1f}"]
        for rs in report.rule_stats
        if rs.matches or rs.bans
    ]
    if rows:
        print(format_table(
            ["rule", "matches", "applied", "unions", "productive",
             "churn", "benefit", "bans", "ms"],
            rows,
        ))


def cmd_compile(args) -> int:
    if args.egraph_stats:
        args.optimize = True
    max_iterations, node_budget, strategy, scheduler = _optimizer_knobs(args)
    timing, hooks = _instrumentation(args)
    with _observing(args):
        pipeline = compile_pipeline(
            optimize=args.optimize,
            max_iterations=max_iterations,
            node_budget=node_budget,
            strategy=strategy,
            scheduler=scheduler,
            hooks=hooks,
        )
        if args.lower:
            until = "jit-lower"
        elif args.optimize:
            until = "optimize"
        else:
            until = "build-region"
        run = pipeline.run(_source_artifact(args), until=until)

        built = run.artifact("build-region")
        print(built.kernel.summary())
        print(format_tdfg(built.region.tdfg))
        if args.optimize:
            opt = run.artifact("optimize")
            print(f"\n-- optimized (cost {opt.report.cost_before:.0f} -> "
                  f"{opt.report.cost_after:.0f}) --")
            print(format_tdfg(opt.tdfg))
            if args.egraph_stats:
                _print_egraph_stats(opt.report)
        if args.lower:
            # Same pipeline run: with --optimize the lowering comes from
            # the optimized tDFG artifact, not a second parse/instantiate.
            _print_lowered(run.artifact("jit-lower").result)
        if timing is not None:
            print()
            print(timing.format_table())
    return 0


def _system_config(args):
    """The --system flag resolved through the registry (None = default)."""
    name = getattr(args, "system", None)
    if name is None:
        return None
    from repro.registry import SYSTEMS

    return SYSTEMS.create(name)


def cmd_simulate(args) -> int:
    max_iterations, node_budget, strategy, scheduler = _optimizer_knobs(args)
    timing, hooks = _instrumentation(args)
    with _observing(args):
        pipeline = simulate_pipeline(
            paradigm=args.paradigm,
            iterations=args.iterations,
            system=_system_config(args),
            optimize=args.optimize,
            opt_max_iterations=max_iterations,
            opt_node_budget=node_budget,
            opt_strategy=strategy,
            opt_scheduler=scheduler,
            hooks=hooks,
        )
        result = pipeline.run(_source_artifact(args)).final.result
        print(f"paradigm     {result.paradigm}")
        print(f"cycles       {result.total_cycles:,.0f}")
        for key, value in result.cycles.as_dict().items():
            if value:
                print(f"  {key:12s} {value:,.0f}")
        print(f"traffic      {result.traffic.total:,.0f} bytes*hops")
        print(f"energy       {result.energy_nj:,.0f} nJ")
        print(f"in-mem ops   {result.ops.in_memory_fraction:.1%}")
        if timing is not None:
            print()
            print(timing.format_table())
    return 0


def cmd_trace(args) -> int:
    from repro import trace as trace_mod
    from repro.pipeline.hooks import TraceHooks
    from repro.sim.campaign import format_table

    with trace_mod.observe() as (tracer, registry):
        pipeline = simulate_pipeline(
            paradigm=args.paradigm,
            iterations=args.iterations,
            hooks=[TraceHooks()],
        )
        result = pipeline.run(_source_artifact(args)).final.result
    path = trace_mod.write_chrome_trace(args.out, tracer.events)
    print(f"wrote {path} ({len(tracer.events)} events)")
    print(
        f"\n-- cycle stack ({result.workload} / {result.paradigm}, "
        f"{result.total_cycles:,.0f} cycles) --"
    )
    print(format_table(*trace_mod.cycle_stack_table(registry)))
    print("\n-- NoC traffic heatmap (bytes x hops per tile) --")
    print(format_table(*trace_mod.noc_heatmap_table(registry)))
    if args.metrics:
        print()
        print(trace_mod.metrics_report(registry))
    return 0


def cmd_offload(args) -> int:
    from repro.config.system import default_system
    from repro.runtime.decision import decide_tdfg

    pipeline = compile_pipeline()
    run = pipeline.run(_source_artifact(args), until="build-region")
    region = run.artifact("build-region").region
    choice = decide_tdfg(region.tdfg, default_system())
    print(choice.value)
    return 0


# One epilog shared by every replay-flavored parser, so `--help` on any
# of them explains which verb does what.
REPLAY_EPILOG = """\
two replay verbs exist:
  replay-artifact   re-runs compilation-pipeline stages from a --dump-dir
                    artifact dump (stage-level compiler debugging);
  replay-session    re-executes a recorded job session (made by
                    'repro record' or 'repro serve --record'): by default
                    a deterministic 1x diff replay that compares result
                    digests and reports the first divergent job; with
                    --traffic it time-compresses and amplifies the
                    recording into synthetic load against a live server.
"""


def cmd_replay_artifact(args) -> int:
    from repro.pipeline.artifacts import (
        FatBinaryArtifact,
        LoweredArtifact,
        RegionArtifact,
        TDFGArtifact,
    )

    timing, hooks = _instrumentation(args)
    artifact = load_stage_input(args.dump_dir, args.stage)
    pipeline = compile_pipeline(hooks=hooks)
    run = pipeline.run(artifact, until=args.stage)
    final = run.final
    if isinstance(final, LoweredArtifact):
        jres = final.result
        print(f"-- lowered commands (tile {jres.lowered.tile}) --")
        for cmd in jres.lowered.commands:
            print(f"  {cmd}")
    elif isinstance(final, FatBinaryArtifact):
        binary = final.binary
        print(f"fat binary {binary.name}: SRAM sizes {binary.sram_sizes}")
        for size, sched in sorted(binary.configs.items()):
            print(f"  {size}x{size}: {sched.num_ops} ops, "
                  f"{sched.registers_used}/{sched.registers_available} regs")
    elif isinstance(final, (TDFGArtifact, RegionArtifact)):
        tdfg = final.tdfg if isinstance(final, TDFGArtifact) else final.region.tdfg
        print(format_tdfg(tdfg))
    else:
        print(f"replayed through {args.stage}: {type(final).__name__}")
    if timing is not None:
        print()
        print(timing.format_table())
    return 0


def cmd_serve(args) -> int:
    import signal
    import threading

    from repro.serve import ReproService, SchedulerConfig
    from repro.serve.http import make_server

    # A fleet of N workers needs at least N dispatch slots to use them.
    max_running = max(args.max_running, args.workers or 0)
    service = ReproService(
        root=args.dir,
        config=SchedulerConfig(
            max_queued=args.max_queued,
            max_running=max_running,
            max_attempts=args.max_attempts,
            job_timeout=args.job_timeout,
            lease_duration=args.lease_duration,
            max_running_per_tenant=args.tenant_quota,
        ),
        jobs=args.jobs,
        fsync=not args.no_fsync,
        workers=args.workers,
        record_path=args.record,
    )
    httpd = make_server(
        service, host=args.host, port=args.port, quiet=not args.verbose
    )
    host, port = httpd.server_address[:2]
    service.start()

    def _graceful(_signum, _frame):
        # serve_forever() runs on this (main) thread; shutdown() must be
        # called from another one or it deadlocks on its own event.
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    print(f"serving on http://{host}:{port} (store: {args.dir})", flush=True)
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        httpd.server_close()
        # Graceful: the worker finishes its in-flight point, checkpoints
        # it, re-queues the interrupted job, and only then returns.
        service.shutdown(wait=True)
        if args.record:
            print(f"recorded session -> {args.record}", flush=True)
        print("shutdown complete: in-flight work checkpointed", flush=True)
    return EXIT_OK


def _client(args):
    from repro.serve.client import ServeClient

    return ServeClient(args.url)


def _submit_spec(args) -> dict:
    exclusive = [
        opt
        for opt, given in (
            ("--figure", args.figure is not None),
            ("--workload", args.workload is not None),
            ("a kernel file", args.kernel is not None),
        )
        if given
    ]
    if len(exclusive) > 1:
        raise UsageError(f"give only one of {', '.join(exclusive)}")
    if args.figure is not None:
        return {
            "kind": "campaign",
            "figure": args.figure,
            "scale": args.scale,
        }
    if args.workload is not None:
        spec = {
            "kind": "workload",
            "workload": args.workload,
            "paradigm": args.paradigm,
            "scale": args.scale,
        }
        if args.system is not None:
            spec["system"] = args.system
        return spec
    if args.kernel is None:
        raise UsageError(
            "submit needs --figure NAME, --workload NAME or a kernel file"
        )
    spec = {
        "kind": "kernel",
        "name": args.name or "kernel",
        "source": _read_source(args),
        "arrays": {
            name: list(dims)
            for name, dims in _parse_arrays(args.array).items()
        },
        "params": _parse_params(args.param),
        "dataflow": args.dataflow,
        "paradigm": args.paradigm,
        "iterations": args.iterations,
    }
    if args.system is not None:
        spec["system"] = args.system
    if args.optimize:
        spec["optimize"] = True
        spec["max_iterations"] = args.max_iterations
        spec["node_budget"] = args.node_budget
        spec["strategy"] = args.strategy
        spec["scheduler"] = args.rule_scheduler
    return spec


def _print_job_result(result: dict) -> None:
    if result.get("kind") == "campaign":
        print(result["table"])
        return
    print(f"paradigm     {result['paradigm']}")
    print(f"cycles       {result['total_cycles']:,.0f}")
    print(f"traffic      {result['traffic_byte_hops']:,.0f} bytes*hops")
    print(f"energy       {result['energy_nj']:,.0f} nJ")
    print(f"in-mem ops   {result['in_memory_fraction']:.1%}")


def cmd_submit(args) -> int:
    client = _client(args)
    job_id = client.submit(
        _submit_spec(args),
        priority=args.priority,
        max_attempts=args.max_attempts,
        tenant=args.tenant,
    )
    print(f"submitted {job_id}")
    if not args.wait:
        return EXIT_OK
    status = client.wait(job_id, timeout=args.timeout)
    print(f"state        {status['state']}")
    if status["state"] == "done":
        _print_job_result(client.result(job_id))
        return EXIT_OK
    if status.get("error"):
        print(f"error: {status['error']}", file=sys.stderr)
    return EXIT_INTERNAL if status["state"] == "failed" else EXIT_USER


def cmd_status(args) -> int:
    from repro.sim.campaign import format_table

    client = _client(args)
    if args.job_id is None:
        jobs = client.list_jobs()
        if not jobs:
            print("no jobs")
            return EXIT_OK
        headers = ["job", "name", "state", "prio", "attempts", "ckpts"]
        rows = [
            [
                j["job_id"],
                j["name"],
                j["state"],
                j["priority"],
                f"{j['attempts']}/{j['max_attempts']}",
                j["checkpoints"],
            ]
            for j in jobs
        ]
        print(format_table(headers, rows))
        return EXIT_OK
    status = client.status(args.job_id)
    for key in (
        "job_id", "name", "state", "priority", "tenant", "worker",
        "attempts", "max_attempts", "checkpoints", "coalesced_with",
        "error",
    ):
        print(f"{key:13s}{status.get(key)}")
    if args.result:
        if status["state"] != "done":
            print(f"error: job is {status['state']}, no result yet",
                  file=sys.stderr)
            return EXIT_USER
        _print_job_result(client.result(args.job_id))
    return EXIT_OK


def cmd_cancel(args) -> int:
    out = _client(args).cancel(args.job_id)
    print(f"{out['job_id']}: {out['state']}")
    return EXIT_OK


def cmd_record(args) -> int:
    seeds = {
        "mutation": args.seed_mutation,
        "think_time": args.seed_think,
        "backoff": args.seed_backoff,
    }
    if args.from_store is not None:
        if args.figure:
            raise UsageError("give either --figure or --from-store, not both")
        from repro.serve.store import JobStore

        store = JobStore(args.from_store, fsync=False)
        try:
            from repro.replay import record_store

            session = record_store(store, seeds=seeds)
        finally:
            store.close()
    elif args.figure:
        from repro.replay import record_figures

        session = record_figures(args.figure, scale=args.scale, seeds=seeds)
    else:
        raise UsageError(
            "record needs --figure NAME (repeatable) or --from-store DIR"
        )
    path = session.dump(args.out)
    print(
        f"recorded session {session.header.session_id}: "
        f"{len(session.jobs)} job(s), "
        f"{len(session.verifiable_jobs())} verifiable -> {path}"
    )
    return EXIT_OK


def cmd_replay_session(args) -> int:
    import json as json_mod

    from repro.replay import ReplayEngine, Session

    session = Session.load(args.session)
    if session.truncated:
        print(
            f"warning: session {args.session} is truncated "
            "(no end marker — the recorder died mid-write); "
            "replaying the committed prefix",
            file=sys.stderr,
        )
    engine = ReplayEngine(session)
    if args.traffic:
        if args.url is None:
            raise UsageError("--traffic needs --url (a live serve endpoint)")
        report = engine.drive(
            args.url,
            speed=args.speed,
            amplify=args.amplify,
            mutate_frac=args.mutate,
            stagger=args.stagger,
            timeout=args.timeout,
        )
        if args.json:
            print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"traffic: {report.submitted} submitted "
                f"({report.mutated} mutated) x{report.amplify} clients, "
                f"{report.done} done / {report.failed} failed in "
                f"{report.wall_s:.2f}s "
                f"({report.jobs_per_sec:.2f} jobs/s, "
                f"p50 {report.p50_latency_s * 1e3:.0f}ms, "
                f"p99 {report.p99_latency_s * 1e3:.0f}ms)"
            )
        return EXIT_OK if report.failed == 0 else EXIT_INTERNAL
    client = None
    if args.url is not None:
        from repro.serve.client import ServeClient

        client = ServeClient(args.url, timeout=args.timeout)
    report = engine.replay(client=client, timeout=args.timeout)
    if args.json:
        print(json_mod.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    # A divergence is a regression in the build under test, not a usage
    # problem: internal-error exit so CI gates trip on it.
    return EXIT_OK if report.ok else EXIT_INTERNAL


def cmd_list(args) -> int:
    from repro.sim.campaign import format_table

    categories = (
        [args.category] if args.category else list(REGISTRIES)
    )
    first = True
    for category in categories:
        registry = REGISTRIES[category]
        if not first:
            print()
        if len(categories) > 1:
            print(f"== {category} ==")
        rows = []
        for entry in registry.entries():
            rows.append(
                [
                    entry.name,
                    ",".join(entry.aliases) or "-",
                    ",".join(sorted(entry.tags)) or "-",
                    entry.source,
                    entry.description,
                ]
            )
        print(
            format_table(
                ["name", "aliases", "tags", "source", "description"], rows
            )
        )
        first = False
    return EXIT_OK


def cmd_figures(args) -> int:
    from benchmarks import run_all  # noqa: F401 (module check)

    sys.argv = ["run_all", "--scale", str(args.scale)]
    if args.out:
        sys.argv += ["--out", args.out]
    return run_all.main()


def _add_kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kernel", help="kernel source file ('-' for stdin)")
    _add_binding_args(p)


def _add_binding_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--array",
        action="append",
        default=[],
        help="array declaration NAME:D0,D1,... (C order)",
    )
    p.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        help="size/constant binding NAME=VALUE",
    )
    p.add_argument("--name", default=None)
    p.add_argument("--dataflow", choices=("inner", "outer"), default="inner")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--paradigm",
        default=INF_S,
        help="execution paradigm (see 'repro list paradigms')",
    )
    p.add_argument(
        "--system",
        default=None,
        help="registered system config (see 'repro list systems')",
    )
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument(
        "--optimize",
        action="store_true",
        help="run the e-graph optimizer on every region before lowering",
    )
    _add_optimizer_args(p)


def _add_url_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--url", default="http://127.0.0.1:8757")


def _add_optimizer_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-iterations",
        type=int,
        default=4,
        help="equality-saturation iteration budget",
    )
    p.add_argument(
        "--node-budget",
        type=int,
        default=20_000,
        help="e-graph node budget (saturation stops when exceeded)",
    )
    p.add_argument(
        "--strategy",
        default="indexed",
        help="e-matching strategy: indexed (incremental) or naive",
    )
    p.add_argument(
        "--rule-scheduler",
        default="greedy",
        help="indexed-strategy rule scheduler: greedy (cost-guided, "
        "budget-aware) or backoff (egg-style match-limit bans)",
    )


def _add_instrumentation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--time-passes",
        action="store_true",
        help="print a per-stage wall-clock/artifact-size table",
    )
    p.add_argument(
        "--dump-dir",
        default=None,
        help="serialize every intermediate artifact under this directory",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Perfetto/chrome://tracing trace.json of the run",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics-registry report after the run",
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro", description="Infinity Stream reproduction CLI"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="print the compiled tDFG")
    _add_kernel_args(p)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--lower", action="store_true")
    p.add_argument(
        "--egraph-stats",
        action="store_true",
        help="print per-rule counters and phase timings (implies --optimize)",
    )
    _add_optimizer_args(p)
    _add_instrumentation_args(p)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("simulate", help="estimate cycles/traffic/energy")
    _add_kernel_args(p)
    _add_run_args(p)
    _add_instrumentation_args(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("offload", help="Eq. 2 in-/near-memory decision")
    _add_kernel_args(p)
    p.set_defaults(fn=cmd_offload)

    p = sub.add_parser(
        "replay-artifact",
        help="re-run pipeline stages from a --dump-dir",
        epilog=REPLAY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("dump_dir", help="directory written by --dump-dir")
    p.add_argument(
        "--stage",
        default="jit-lower",
        help="stage to replay (resumes from its dumped input artifact)",
    )
    p.add_argument(
        "--time-passes",
        action="store_true",
        help="print a per-stage wall-clock/artifact-size table",
    )
    p.set_defaults(fn=cmd_replay_artifact)

    p = sub.add_parser("figures", help="regenerate the evaluation tables")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser(
        "list",
        help="list registered workloads/paradigms/systems/figures",
    )
    p.add_argument(
        "category",
        nargs="?",
        choices=tuple(REGISTRIES),
        default=None,
        help="registry to list (default: all)",
    )
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser(
        "trace",
        help="simulate with full observability and write trace.json",
    )
    _add_kernel_args(p)
    p.add_argument(
        "--paradigm",
        choices=ENGINE_PARADIGMS,
        default=INF_S,
    )
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument(
        "--out",
        default="trace.json",
        help="trace file to write (Perfetto/chrome://tracing JSON)",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help="also print the full metrics-registry report",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "serve", help="run the durable job-queue service (HTTP API)"
    )
    p.add_argument("--dir", default=".repro_serve",
                   help="job-store directory (WAL + snapshot)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8757,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes per campaign job")
    p.add_argument("--workers", type=int, default=0,
                   help="fleet mode: N worker subprocesses draining the "
                        "store (0 = one in-process worker thread); "
                        "every worker claims jobs under a lease")
    p.add_argument("--lease-duration", type=float, default=30.0,
                   help="claim validity without a heartbeat (s), for "
                        "the in-process worker too: after a crash, a "
                        "restarted server resumes the interrupted job "
                        "once its lease lapses")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="max concurrently running jobs per tenant")
    p.add_argument("--max-queued", type=int, default=64,
                   help="admission cap on the backlog")
    p.add_argument("--max-running", type=int, default=1,
                   help="concurrently running jobs")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="attempts before a transient failure is terminal")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-attempt wall-clock budget in seconds")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip fsync on WAL appends (faster, less durable)")
    p.add_argument("--record", default=None, metavar="FILE",
                   help="write a replay session of every finished job "
                        "to FILE at shutdown (see 'repro replay-session')")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a kernel or campaign job to a server"
    )
    p.add_argument("kernel", nargs="?", default=None,
                   help="kernel source file ('-' for stdin); omit with --figure")
    p.add_argument("--figure", default=None,
                   help="campaign job: figure name (see 'repro list figures')")
    p.add_argument("--workload", default=None,
                   help="workload job: registered workload name "
                        "(see 'repro list workloads')")
    p.add_argument("--scale", type=float, default=1.0,
                   help="campaign/workload input-size scale")
    _add_binding_args(p)
    _add_run_args(p)
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (FIFO within a level)")
    p.add_argument("--tenant", default=None,
                   help="fair-share/quota accounting key "
                        "(default: 'default')")
    p.add_argument("--max-attempts", type=int, default=None)
    _add_url_arg(p)
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes; print its result")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait polling budget in seconds")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="list jobs or show one job")
    p.add_argument("job_id", nargs="?", default=None)
    _add_url_arg(p)
    p.add_argument("--result", action="store_true",
                   help="also fetch and print the job's result")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("job_id")
    _add_url_arg(p)
    p.set_defaults(fn=cmd_cancel)

    p = sub.add_parser(
        "record",
        help="record campaigns or a serve store into a session file",
    )
    p.add_argument("--figure", action="append", default=[],
                   help="campaign figure to run and record (repeatable)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="input-size scale for --figure campaigns")
    p.add_argument("--from-store", default=None, metavar="DIR",
                   help="snapshot an existing serve job-store directory "
                        "instead of running figures")
    p.add_argument("--out", default="session.jsonl",
                   help="session file to write (JSONL)")
    p.add_argument("--seed-mutation", type=int, default=0,
                   help="RNG seed recorded for replay spec mutation")
    p.add_argument("--seed-think", type=int, default=0,
                   help="RNG seed recorded for client think-time stagger")
    p.add_argument("--seed-backoff", type=int, default=0,
                   help="scheduler backoff-jitter seed to record")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser(
        "replay-session",
        help="diff-replay or traffic-replay a recorded session",
        epilog=REPLAY_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("session", help="session file written by 'repro record'")
    p.add_argument("--url", default=None,
                   help="serve endpoint to replay against "
                        "(default: execute locally in this process)")
    p.add_argument("--traffic", action="store_true",
                   help="generate load instead of diffing: time-compress "
                        "and amplify the recording over HTTP")
    p.add_argument("--speed", type=float, default=1.0,
                   help="time compression for --traffic (2 = twice as "
                        "fast; 0 = no pacing)")
    p.add_argument("--amplify", type=int, default=1,
                   help="clone the recording across N clients (--traffic)")
    p.add_argument("--mutate", type=float, default=0.0,
                   help="per-request mutation probability for amplified "
                        "clients (seeded, deterministic)")
    p.add_argument("--stagger", type=float, default=0.0,
                   help="max seeded per-request think-time in seconds")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="per-job wait budget in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON (for CI gates)")
    p.set_defaults(fn=cmd_replay_session)

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; fold both
        # into the uniform contract (usage problems are user errors).
        return EXIT_OK if exc.code in (0, None) else EXIT_USER
    return _dispatch(args)


def _dispatch(args) -> int:
    """Run the selected command under the uniform exit-code contract."""
    from repro.errors import (
        AdmissionError,
        ConfigError,
        FrontendError,
        GeometryError,
        JobSpecError,
        LayoutError,
        RegistryError,
        SessionError,
        UnknownJobError,
    )
    from repro.serve.client import ServeClientError

    user_errors = (
        UsageError,
        FrontendError,
        ConfigError,
        GeometryError,
        LayoutError,
        RegistryError,
        JobSpecError,
        AdmissionError,
        UnknownJobError,
        # A malformed or version-skewed session file is the user's
        # input, not a bug in this build.
        SessionError,
        ServeClientError,
        OSError,
    )
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise
    except KeyboardInterrupt:
        return 130
    except user_errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except ReproError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
