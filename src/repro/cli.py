"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       one experiment, headline metrics to stdout.
``compare``   several schedulers on one config, ranked with CIs.
``sweep``     sweep one config field, table to stdout.
``workload``  generate + characterize a workload (Table 2 block),
              optionally saving it to JSON.
``reproduce`` regenerate the paper's tables and figures and check
              every claim EXPERIMENTS.md makes about them.
``serve``     run the live scheduler daemon (protocol v3 over TCP:
              JSON lines with negotiated binary framing),
              optionally with an HTTP metrics endpoint, a JSONL
              event log, and — with ``--state-dir`` — WAL +
              snapshot durability (one cluster shard).
``cluster``   run the sharded tier: N durable shards, the redirect
              router, and a supervisor restarting crashed shards.
``load``      replay a generated workload against a running daemon
              or cluster router (the handshake says which).
``top``       live terminal view of one daemon's /stats.json, or of
              several endpoints merged into a cluster view.

Examples
--------
::

    python -m repro run --scheduler combined.2 --tasks 600
    python -m repro compare --tasks 400 --schedulers rest.2 workqueue
    python -m repro sweep --field capacity_files --values 300 600 1500
    python -m repro workload --tasks 6000 --out coadd.json
    python -m repro reproduce --only fig4_capacity_makespan
    python -m repro serve --port 7077 --metric combined --n 2 \
        --metrics-port 9090 --event-log events.jsonl
    python -m repro load --port 7077 --tasks 500 --sites 4 --workers 2 \
        --batch 8 --aggregate-deltas
    python -m repro top --port 9090 --once
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional, Sequence

from .analysis.compare import format_ranking, rank_algorithms
from .analysis.plotting import chart_sweep
from .core.registry import PAPER_ALGORITHMS, available_schedulers
from .exp.config import SCALES, ExperimentConfig
from .exp.report import format_sweep_table
from .exp.runner import build_job, run_averaged, run_experiment
from .exp.sweep import run_sweep
from .workload.stats import characterize, reference_cdf_series
from .workload.traces import save_job


def _add_verbosity_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v INFO is default for "
                             "serve; -vv DEBUG)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (-q WARNING, -qq ERROR)")


def _configure_logging(args: argparse.Namespace,
                       default_level: int = logging.INFO) -> None:
    """Map -v/-q counts onto a level for the ``repro`` logger tree."""
    steps = args.quiet - args.verbose
    level = min(max(default_level + 10 * steps, logging.DEBUG),
                logging.ERROR)
    logging.basicConfig(
        level=level, stream=sys.stderr,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    logging.getLogger("repro").setLevel(level)


def _add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    """The scheduler flags of ``repro serve``.  ``repro cluster`` takes
    the same ones — declared here, once — and forwards them verbatim
    to every shard it spawns (:func:`_scheduler_argv`)."""
    add = parser.add_argument
    parser.set_defaults(scheduler_flags=[
        add("--metric", default="combined",
            choices=["overlap", "rest", "combined", "combined-literal"]),
        add("--n", type=int, default=2,
            help="ChooseTask(n) candidate-set size"),
        add("--seed", type=int, default=0),
        add("--lease-ttl", type=float, default=30.0,
            help="seconds before an unrenewed task lease expires and "
                 "the task is requeued to another worker"),
        add("--snapshot-interval", type=float, default=5.0,
            help="seconds between a durable shard's state snapshots "
                 "(with --state-dir)"),
        add("--steal-watermark", type=int, default=None,
            help="work stealing: a shard whose pending queue drops "
                 "below this many tasks while workers are parked "
                 "steals pending tasks from the most-loaded peer "
                 "shard (needs --cluster-file and --shard-count > 1, "
                 "which `repro cluster` supplies; default: stealing "
                 "off)"),
    ])


def _scheduler_argv(args: argparse.Namespace) -> List[str]:
    """The scheduler flags of ``args`` as a ``repro serve`` argv tail."""
    argv: List[str] = []
    for action in args.scheduler_flags:
        value = getattr(args, action.dest)
        if value is not None:
            argv += [action.option_strings[0], str(value)]
    return argv


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheduler", default="combined.2",
                        help="scheduler registry name")
    parser.add_argument("--tasks", type=int, default=600)
    parser.add_argument("--sites", type=int, default=10)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--capacity", type=int, default=600)
    parser.add_argument("--file-size-mb", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default="coadd",
                        choices=["coadd", "uniform", "zipf", "window"])
    parser.add_argument("--task-order", default="shuffled",
                        choices=["natural", "shuffled", "striped"])


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=args.scheduler,
        num_tasks=args.tasks,
        num_sites=args.sites,
        workers_per_site=args.workers,
        capacity_files=args.capacity,
        file_size_mb=args.file_size_mb,
        seed=args.seed,
        workload=args.workload,
        task_order=args.task_order,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from(args)
    result = run_experiment(config)
    if args.save:
        from .exp.store import ResultStore
        ResultStore(args.save).append(result)
    print(f"scheduler        : {config.scheduler}")
    print(f"makespan         : {result.makespan_minutes:.1f} min "
          f"({result.makespan:.0f} s)")
    print(f"file transfers   : {result.file_transfers} total, "
          f"{result.file_transfers / config.num_sites:.1f} per server")
    print(f"bytes transferred: {result.bytes_transferred / 2**30:.2f} GiB")
    print(f"evictions        : {result.evictions}")
    print(f"tasks cancelled  : {result.tasks_cancelled}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from(args)
    seeds = tuple(range(args.topologies))
    samples = {}
    for name in args.schedulers:
        averaged = run_averaged(config.with_changes(scheduler=name),
                                topology_seeds=seeds)
        samples[name] = [run.makespan_minutes for run in averaged.runs]
        print(f"  ran {name}: mean "
              f"{averaged.makespan_minutes:.1f} min", file=sys.stderr)
    print(format_ranking(rank_algorithms(samples), unit="min"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from(args)
    values: List[object] = []
    for raw in args.values:
        try:
            values.append(int(raw))
        except ValueError:
            try:
                values.append(float(raw))
            except ValueError:
                values.append(raw)
    sweep = run_sweep(config, args.field, values, args.schedulers,
                      topology_seeds=tuple(range(args.topologies)))
    print(format_sweep_table(
        sweep, metric=args.metric,
        title=f"{args.metric} vs {args.field}"))
    if args.plot:
        print()
        print(chart_sweep(sweep, metric=args.metric))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    config = _config_from(args)
    job = build_job(config)
    stats = characterize(job)
    print(stats.as_table())
    print("\nreference CDF (x = min #references, y = % of files):")
    for refs, percent in reference_cdf_series(stats):
        print(f"  >= {refs:2d}: {percent:5.1f}%")
    if args.out:
        save_job(job, args.out)
        print(f"\nworkload written to {args.out}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .exp.reproduce import ARTIFACTS, reproduce
    unknown = sorted(set(args.only) - set(ARTIFACTS))
    if unknown:
        print(f"repro reproduce: unknown artifact(s) {unknown}; choose "
              f"from {sorted(ARTIFACTS)}", file=sys.stderr)
        raise SystemExit(2)
    return reproduce(SCALES[args.scale], only=args.only, out=args.out,
                     progress=lambda msg: print(f"  {msg}",
                                                file=sys.stderr))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import json as json_module
    import os

    from .obs.events import EventLog
    from .obs.http import ObsHttpServer
    from .obs.top import render_top
    from .obs.trace import DecisionTracer
    from .serve import protocol
    from .serve.server import SchedulerServer, install_uvloop
    from .serve.service import SchedulerService

    _configure_logging(args)
    if args.uvloop and not install_uvloop():
        print("uvloop requested but not importable; staying on the "
              "stdlib event loop", file=sys.stderr)
    if args.state_dir and args.event_log:
        print("--event-log conflicts with --state-dir (the shard's "
              "WAL owns the event log; it lives in the state "
              "directory)", file=sys.stderr)
        return 2
    # Stealing needs peers: a lone shard has nobody to steal from,
    # and enabling the watermark would still change idle-pull
    # behaviour (parking).  Keep single-shard runs bit-identical to
    # stealing-off by dropping the flag.
    steal_watermark = args.steal_watermark \
        if args.shard_count > 1 else None

    async def main() -> None:
        # Every decision pays for its span, so there is a tracer only
        # when something can read it: /trace.json, or the ``assign``
        # records of an event log or WAL, which carry the span.
        tracer = DecisionTracer() if (
            args.metrics_port is not None or args.event_log
            or args.state_dir) else None
        events = None
        durability = None
        options = dict(
            metric=args.metric, n=args.n, seed=args.seed,
            lease_ttl=args.lease_ttl, tracer=tracer,
            admission_watermark=args.admission_watermark,
            admission_retry_after=args.admission_retry_after,
            replicate_tail=args.replicate_stragglers,
            max_replicas=args.max_replicas,
            steal_watermark=steal_watermark)
        if args.state_dir:
            from .cluster.shard import open_shard
            durability = open_shard(
                args.state_dir, shard_index=args.shard_index,
                shard_count=args.shard_count,
                snapshot_interval=args.snapshot_interval, **options)
            service = durability.service
            report = durability.report
            print(f"repro-serve shard {args.shard_index}/"
                  f"{args.shard_count} recovered from "
                  f"{args.state_dir}: snapshot_seq="
                  f"{report['snapshot_seq']}, replayed "
                  f"{report['replayed']} WAL record(s), WAL resumes "
                  f"at seq {report['next_seq']}", file=sys.stderr)
        else:
            events = EventLog(path=args.event_log) if args.event_log \
                else None
            service = SchedulerService(
                events=events, id_start=args.shard_index,
                id_stride=args.shard_count, **options)
        server = SchedulerServer(service, host=args.host,
                                 port=args.port,
                                 stats_interval=args.stats_interval,
                                 codecs=protocol.codec_offers(
                                     args.codec))
        await server.start()
        obs_server = None
        if args.metrics_port is not None:

            def stats_json():
                snapshot = service.stats_snapshot()
                snapshot["jobs"] = service.jobs_overview()
                if durability is not None:
                    snapshot["shard"] = durability.describe()
                return snapshot

            obs_server = ObsHttpServer(
                registry=service.stats.registry, host=args.host,
                port=args.metrics_port,
                json_routes={
                    "/stats.json": stats_json,
                    "/trace.json": lambda: {"spans": tracer.spans()},
                },
                health=lambda: {
                    "status": "draining" if service.draining else "ok",
                    "queue_depth": service.queue_depth,
                    "outstanding": service.outstanding})
            await obs_server.start()
        if args.port_file:
            # The supervisor (and colliding-port-free CI) handshake:
            # report the *bound* ports, atomically.
            ports = {"port": server.port,
                     "metrics_port": (obs_server.port
                                      if obs_server else None)}
            tmp_path = args.port_file + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json_module.dump(ports, handle)
            os.replace(tmp_path, args.port_file)
        print(f"repro-serve listening on {server.host}:{server.port} "
              f"(protocol v3, codecs={','.join(server.codecs)}, "
              f"metric={args.metric}, n={args.n}, "
              f"lease_ttl={args.lease_ttl:g}s)", file=sys.stderr)
        if obs_server is not None:
            print(f"metrics endpoint on {obs_server.url}/metrics",
                  file=sys.stderr)
        snapshotter = None
        if durability is not None:
            snapshotter = asyncio.get_running_loop().create_task(
                durability.snapshot_loop())
        stealer = None
        if service.steal_enabled and args.cluster_file:
            from .cluster.steal import StealManager
            stealer = StealManager(service, args.shard_index,
                                   cluster_file=args.cluster_file,
                                   codec=args.codec)
            await stealer.start()
            print(f"work stealing armed: watermark "
                  f"{service.steal_watermark}, topology from "
                  f"{args.cluster_file}", file=sys.stderr)
        try:
            await server.serve_until_drained()
        finally:
            if stealer is not None:
                await stealer.stop()
            if snapshotter is not None:
                snapshotter.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await snapshotter
            if obs_server is not None:
                await obs_server.stop()
            await server.stop()
            if durability is not None:
                durability.close()  # final snapshot + WAL fsync
            if events is not None:
                events.close()
        print("drained; final stats:", file=sys.stderr)
        print(render_top(service.stats_snapshot()))

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster.supervisor import ClusterSupervisor

    _configure_logging(args)

    async def main() -> int:
        supervisor = ClusterSupervisor(
            shards=args.shards, state_root=args.state_root,
            host=args.host, router_port=args.port,
            metrics_port=args.metrics_port, codec=args.codec,
            shard_args=_scheduler_argv(args))
        await supervisor.start()
        print(f"repro-cluster router on "
              f"{supervisor.host}:{supervisor.router_port} over "
              f"{args.shards} shard(s); topology in "
              f"{supervisor.cluster_file}", file=sys.stderr)
        if supervisor.metrics_port is not None:
            print(f"aggregated stats on http://{supervisor.host}:"
                  f"{supervisor.metrics_port}/stats.json",
                  file=sys.stderr)
        try:
            await supervisor.wait()
        finally:
            await supervisor.stop()
        print("cluster drained", file=sys.stderr)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
        return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import asyncio

    from .obs.top import render_top
    from .serve.loadgen import run_load
    from .serve.server import install_uvloop

    if args.uvloop and not install_uvloop():
        print("uvloop requested but not importable; staying on the "
              "stdlib event loop", file=sys.stderr)
    config = _config_from(args)
    tasks = list(build_job(config))
    workers = config.num_sites * config.workers_per_site
    num_jobs = max(1, min(args.jobs, len(tasks)))
    # Contiguous split: behind a router the jobs land round-robin on
    # the shards; at a plain server they are so many tenants.
    per_job = (len(tasks) + num_jobs - 1) // num_jobs
    jobs = [tasks[start:start + per_job]
            for start in range(0, len(tasks), per_job)]
    try:
        report = asyncio.run(run_load(
            args.host, args.port, jobs, workers=workers,
            sites=config.num_sites,
            capacity_files=config.capacity_files,
            flops_per_sec=args.flops_per_sec,
            seconds_per_file=args.seconds_per_file,
            drain=not args.no_drain,
            event_log=args.event_log,
            batch=args.batch,
            aggregate_deltas=args.aggregate_deltas,
            delta_flush_interval=args.delta_flush_interval,
            codec=args.codec))
    except ValueError as exc:
        print(f"repro load: {exc}", file=sys.stderr)
        return 2
    print(f"scheduler        : {report['shard_count']} shard(s), "
          f"{len(report['jobs'])} job(s)")
    for entry in report["jobs"]:
        print(f"job {entry['job_id']:>4}         : "
              f"{entry['status']['completed']}"
              f"/{entry['tasks_submitted']} "
              f"(done={entry['status']['done']})")
    print(f"tasks submitted  : {report['tasks_submitted']}")
    print(f"tasks completed  : {report['tasks_done']} "
          f"by {workers} workers over {config.num_sites} sites "
          f"(batch={args.batch})")
    print(f"files fetched    : {report['files_fetched']}")
    if report["reconnects"]:
        print(f"reconnects       : {report['reconnects']} (workers "
              f"resumed across shard restarts)")
    if args.aggregate_deltas:
        aggregation = report["delta_aggregation"]
        print(f"delta dedup      : "
              f"{aggregation['duplicates_suppressed']} duplicate "
              f"op(s) suppressed across "
              f"{len(aggregation['sites'])} site aggregator(s)")
    if args.event_log:
        print(f"event log        : {args.event_log}")
    print("server stats:")
    print(render_top(report["stats"]))
    audit = report["audit"]
    if not audit["clean"]:
        print(f"AUDIT FAILED: lost={audit['lost']} "
              f"double_counted={audit['double_counted']} "
              f"(submitted={audit['tasks_submitted']}, "
              f"completed={audit['completed']})", file=sys.stderr)
        return 1
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import asyncio

    from .scenario import SCENARIOS, get_scenario, run_scenario
    from .scenario.summary import (compare_summaries, format_summary,
                                   load_summary, validate_summary)

    if args.scenario_command == "list":
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:<{width}}  {SCENARIOS[name].description}")
        return 0

    if args.scenario_command == "compare":
        baseline = load_summary(args.baseline)
        candidate = load_summary(args.candidate)
        problems = [f"baseline: {p}" for p in
                    validate_summary(baseline)]
        problems += [f"candidate: {p}" for p in
                     validate_summary(candidate)]
        if problems:
            for problem in problems:
                print(f"schema violation — {problem}", file=sys.stderr)
            return 2
        print(compare_summaries(baseline, candidate))
        return 0

    # run
    _configure_logging(args, default_level=logging.WARNING)
    names = sorted(SCENARIOS) if args.all else args.names
    if not names:
        print("repro scenario run: name a scenario or pass --all "
              f"(built-ins: {', '.join(sorted(SCENARIOS))})",
              file=sys.stderr)
        return 2
    failures: List[str] = []
    for name in names:
        try:
            scenario = get_scenario(name)
        except KeyError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        summary = asyncio.run(run_scenario(scenario, args.out_dir,
                                           quick=args.quick))
        print(format_summary(summary))
        print(f"  summary: {summary.get('summary_path')}")
        problems = validate_summary(summary)
        for problem in problems:
            print(f"  schema violation — {problem}", file=sys.stderr)
        if problems or not summary.get("passed"):
            failures.append(name)
    if failures:
        print(f"FAILED scenario(s): {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.top import run_top

    endpoints = args.endpoints
    if not endpoints:
        if args.port is None:
            print("repro top: need --port or host:port endpoint(s)",
                  file=sys.stderr)
            return 2
        endpoints = [f"{args.host}:{args.port}"]
    return run_top([f"http://{endpoint}/stats.json"
                    for endpoint in endpoints],
                   interval=args.interval,
                   iterations=1 if args.once else None,
                   clear=not args.once)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Worker-centric grid scheduling reproduction "
                    "(Ko et al., Middleware 2007)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    _add_config_arguments(run_parser)
    run_parser.add_argument("--save", default=None,
                            help="append the result to this JSONL store")
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare",
                                    help="rank several schedulers")
    _add_config_arguments(compare_parser)
    compare_parser.add_argument("--schedulers", nargs="+",
                                default=list(PAPER_ALGORITHMS),
                                help=f"choose from "
                                     f"{available_schedulers()}")
    compare_parser.add_argument("--topologies", type=int, default=3)
    compare_parser.set_defaults(func=_cmd_compare)

    sweep_parser = sub.add_parser("sweep", help="sweep one config field")
    _add_config_arguments(sweep_parser)
    sweep_parser.add_argument("--field", required=True)
    sweep_parser.add_argument("--values", nargs="+", required=True)
    sweep_parser.add_argument("--schedulers", nargs="+",
                              default=["rest.2", "storage-affinity"])
    sweep_parser.add_argument("--topologies", type=int, default=1)
    sweep_parser.add_argument("--metric", default="makespan_minutes")
    sweep_parser.add_argument("--plot", action="store_true",
                              help="append an ASCII chart")
    sweep_parser.set_defaults(func=_cmd_sweep)

    workload_parser = sub.add_parser("workload",
                                     help="generate + characterize")
    _add_config_arguments(workload_parser)
    workload_parser.add_argument("--out", default=None,
                                 help="write the workload JSON here")
    workload_parser.set_defaults(func=_cmd_workload)

    reproduce_parser = sub.add_parser(
        "reproduce", help="regenerate and check the paper's artifacts")
    reproduce_parser.add_argument("--scale", default="small",
                                  choices=sorted(SCALES))
    reproduce_parser.add_argument(
        "--only", nargs="+", default=(), metavar="NAME",
        help="just these artifacts (benchmarks/results/<NAME>.txt)")
    reproduce_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write each artifact to DIR/<name>.txt")
    reproduce_parser.set_defaults(func=_cmd_reproduce)

    serve_parser = sub.add_parser(
        "serve", help="run the live scheduler daemon")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=7077)
    _add_scheduler_arguments(serve_parser)
    serve_parser.add_argument("--admission-watermark", type=int,
                              default=None,
                              help="reject JOB_SUBMITs that would push "
                                   "the pending queue past this many "
                                   "tasks (ACK accepted=false, "
                                   "reason=overloaded; default: no "
                                   "admission control)")
    serve_parser.add_argument("--admission-retry-after", type=float,
                              default=0.25,
                              help="retry hint (seconds) sent with "
                                   "admission rejections")
    serve_parser.add_argument("--replicate-stragglers",
                              action="store_true",
                              help="near a job's tail, grant idle "
                                   "workers replica leases on the "
                                   "longest-running tasks "
                                   "(first-completion-wins)")
    serve_parser.add_argument("--max-replicas", type=int, default=1,
                              help="replica leases allowed per task "
                                   "(with --replicate-stragglers)")
    serve_parser.add_argument("--metrics-port", type=int, default=None,
                              help="also serve HTTP /metrics, /healthz, "
                                   "/stats.json and /trace.json on this "
                                   "port (0 = ephemeral)")
    serve_parser.add_argument("--event-log", default=None,
                              help="append structured JSONL events "
                                   "(assign/complete/lease-expire/...) "
                                   "to this file")
    serve_parser.add_argument("--stats-interval", type=float,
                              default=None,
                              help="log the full stats snapshot as one "
                                   "JSON line at INFO every this many "
                                   "seconds (default: off)")
    serve_parser.add_argument("--state-dir", default=None,
                              help="durable-shard mode: keep the WAL "
                                   "and periodic snapshots in this "
                                   "directory and recover from them "
                                   "on startup (conflicts with "
                                   "--event-log)")
    serve_parser.add_argument("--shard-index", type=int, default=0,
                              help="this shard's index in a cluster "
                                   "(job/task ids ≡ index mod count)")
    serve_parser.add_argument("--shard-count", type=int, default=1,
                              help="total shards in the cluster")
    serve_parser.add_argument("--cluster-file", default=None,
                              help="cluster topology JSON published "
                                   "by the supervisor; polled for "
                                   "peer shard addresses (with "
                                   "--steal-watermark)")
    serve_parser.add_argument("--port-file", default=None,
                              help="write the bound ports as JSON "
                                   "{port, metrics_port} to this path "
                                   "once listening (for --port 0)")
    serve_parser.add_argument("--codec", default="auto",
                              choices=["auto", "json", "binary"],
                              help="wire codecs accepted in HELLO "
                                   "negotiation: auto = binary "
                                   "preferred with JSON fallback, "
                                   "json/binary = that codec only")
    serve_parser.add_argument("--uvloop", action="store_true",
                              help="use uvloop's event loop when the "
                                   "package is importable (optional "
                                   "accelerator; silently optional)")
    _add_verbosity_arguments(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    cluster_parser = sub.add_parser(
        "cluster", help="run a sharded scheduler tier: N durable "
                        "serve shards, a router, and a supervisor "
                        "that restarts crashed shards")
    cluster_parser.add_argument("--shards", type=int, default=2,
                                help="number of scheduler shards")
    cluster_parser.add_argument("--state-root", default="cluster-state",
                                help="directory for per-shard state "
                                     "dirs and cluster.json")
    cluster_parser.add_argument("--host", default="127.0.0.1")
    cluster_parser.add_argument("--port", type=int, default=0,
                                help="router port (0 = ephemeral, "
                                     "reported in cluster.json)")
    _add_scheduler_arguments(cluster_parser)
    cluster_parser.add_argument("--metrics-port", type=int,
                                default=None,
                                help="serve aggregated /stats.json, "
                                     "/cluster.json and /healthz on "
                                     "this port (0 = ephemeral)")
    cluster_parser.add_argument("--codec", default="json",
                                choices=["auto", "json", "binary"],
                                help="wire codec for the router's own "
                                     "shard connections (clients "
                                     "negotiate theirs at HELLO)")
    _add_verbosity_arguments(cluster_parser)
    cluster_parser.set_defaults(func=_cmd_cluster)

    load_parser = sub.add_parser(
        "load", help="replay a workload against a running daemon "
                     "(workers = --sites x --workers)")
    _add_config_arguments(load_parser)
    load_parser.add_argument("--host", default="127.0.0.1")
    load_parser.add_argument("--port", type=int, default=7077)
    load_parser.add_argument("--flops-per-sec", type=float, default=0.0,
                             help="simulated compute speed "
                                  "(0 = no compute delay)")
    load_parser.add_argument("--seconds-per-file", type=float,
                             default=0.0,
                             help="simulated fetch delay per missing "
                                  "file")
    load_parser.add_argument("--batch", type=int, default=1,
                             help="prefetch depth: each REQUEST_TASK "
                                  "asks for up to this many tasks "
                                  "(TASK_BATCH); completions are "
                                  "pipelined at any depth (default 1 "
                                  "= a batch of one, answered TASK)")
    load_parser.add_argument("--aggregate-deltas", action="store_true",
                             help="coalesce FILE_DELTAs from workers "
                                  "sharing a site through one "
                                  "site-local aggregator")
    load_parser.add_argument("--delta-flush-interval", type=float,
                             default=0.02,
                             help="aggregator flush interval in "
                                  "seconds (with --aggregate-deltas)")
    load_parser.add_argument("--no-drain", action="store_true",
                             help="leave the server running afterwards")
    load_parser.add_argument("--event-log", default=None,
                             help="write the client-side JSONL event "
                                  "stream (submit/assign/complete) here")
    load_parser.add_argument("--jobs", type=int, default=1,
                             help="split the workload into this many "
                                  "jobs (behind a cluster router they "
                                  "spread over the shards)")
    load_parser.add_argument("--codec", default="auto",
                             choices=["auto", "json", "binary"],
                             help="wire codec to offer at HELLO: auto "
                                  "= binary preferred with JSON "
                                  "fallback")
    load_parser.add_argument("--uvloop", action="store_true",
                             help="use uvloop's event loop when the "
                                  "package is importable")
    load_parser.set_defaults(func=_cmd_load)

    scenario_parser = sub.add_parser(
        "scenario", help="hostile-workload harness: run declarative "
                         "scenarios (flash crowds, churn, stragglers, "
                         "multi-tenant contention) against a live "
                         "in-process daemon")
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True)

    scenario_list = scenario_sub.add_parser(
        "list", help="print the built-in scenario catalog")
    scenario_list.set_defaults(func=_cmd_scenario)

    scenario_run = scenario_sub.add_parser(
        "run", help="run scenario(s); nonzero exit when any check "
                    "fails or a summary breaks the schema")
    scenario_run.add_argument("names", nargs="*", metavar="NAME",
                              help="scenario names (see `scenario "
                                   "list`)")
    scenario_run.add_argument("--all", action="store_true",
                              help="run every built-in scenario")
    scenario_run.add_argument("--quick", action="store_true",
                              help="shrink task counts for CI "
                                   "(same shape, same checks)")
    scenario_run.add_argument("--out-dir", default="scenario-out",
                              help="artifact root; each run writes "
                                   "<out-dir>/<name>/events.jsonl "
                                   "and summary.json")
    _add_verbosity_arguments(scenario_run)
    scenario_run.set_defaults(func=_cmd_scenario)

    scenario_compare = scenario_sub.add_parser(
        "compare", help="diff two summary.json files")
    scenario_compare.add_argument("baseline")
    scenario_compare.add_argument("candidate")
    scenario_compare.set_defaults(func=_cmd_scenario)

    top_parser = sub.add_parser(
        "top", help="live terminal view of one daemon's (or a whole "
                    "cluster's) /stats.json")
    top_parser.add_argument("endpoints", nargs="*", metavar="HOST:PORT",
                            help="stats endpoints to merge (several "
                                 "shard --metrics-ports, or one "
                                 "cluster --metrics-port serving the "
                                 "aggregate); omit to use "
                                 "--host/--port")
    top_parser.add_argument("--host", default="127.0.0.1")
    top_parser.add_argument("--port", type=int, default=None,
                            help="the daemon's --metrics-port")
    top_parser.add_argument("--interval", type=float, default=2.0)
    top_parser.add_argument("--once", action="store_true",
                            help="render a single snapshot and exit")
    top_parser.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
