"""Live-service bench: assignment throughput, batch and codec sweeps.

Not a paper artifact — it characterizes the ``repro.serve`` scheduler
daemon.  Three sweeps, the first two over real localhost TCP with zero
simulated work so the measurement isolates the scheduler path (wire
framing, policy decision, lease bookkeeping):

* **worker sweep** — a Coadd-style job across fleet sizes, reporting
  end-to-end assignments/sec and the server-side decision-latency
  histogram (the PR-1 table, refreshed);
* **codec x batch sweep** — one worker pulling a light synthetic job
  at prefetch depths k in {1, 2, 4, 8}, once per codec (``json`` =
  the v2-compatible JSON-lines framing, ``binary`` = the v3
  length-prefixed frame).  Each task references only a few files, so
  per-task time is dominated by protocol round trips — the thing
  ``TASK_BATCH`` pipelining and cheaper framing amortize;
* **wire sweep** — the codecs alone (encode + feed of one k=8 pull
  cycle's message mix, both directions, no sockets or event loop).
  The e2e sweep runs server and client in one process and one event
  loop, so its rate is bounded by total scheduler work (policy
  decisions, lease bookkeeping) that no codec can remove; the wire
  sweep is where the binary frame's speedup is gated undiluted.

Standalone CLI (no pytest) for CI regression gating::

    python benchmarks/bench_serve_throughput.py --quick --check
    python benchmarks/bench_serve_throughput.py --quick --write-baseline
    python benchmarks/bench_serve_throughput.py --batch 8 --codec binary

``--check`` compares against the checked-in baseline
(``results/serve_throughput_baseline.json``): any codec x batch cell
more than 30% below its baseline rate fails, k=8 must beat k=1 for
both codecs, binary must beat json end-to-end at k=8, and the
wire-level binary/json ratio must stay at or above 3x.  The baseline
also freezes the final protocol-v2 batch sweep (``v2_json_reference``)
so the pre-v3 numbers stay comparable in the artifact history.
"""

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.exp import ExperimentConfig
from repro.exp.runner import build_job
from repro.grid.job import Task
from repro.serve import codec as wire
from repro.serve import messages, protocol
from repro.serve.loadgen import run_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

WORKER_COUNTS = (1, 2, 4, 8, 16)
BATCH_SIZES = (1, 2, 4, 8)
CODECS = ("json", "binary")
REGRESSION_TOLERANCE = 0.30
WIRE_SPEEDUP_FLOOR = 3.0
RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "serve_throughput_baseline.json"

# Final protocol-v2 (JSON-lines only) quick-mode batch sweep, frozen
# when v3 landed so the artifact history keeps a pre-v3 anchor.
V2_JSON_REFERENCE = {"1": 1936.2, "2": 4165.5, "4": 5648.9, "8": 6970.8}


def light_tasks(num_tasks, files_per_task=3, num_files=300):
    """Tasks small enough that wire round trips dominate the cost."""
    return [
        Task(
            task_id=index,
            files=frozenset(
                {(index * files_per_task + offset) % num_files
                 for offset in range(files_per_task)}
            ),
            flops=0.0,
        )
        for index in range(num_tasks)
    ]


async def _timed_load(tasks, workers, sites, batch, codec):
    """Serve ``tasks`` in-process; time only the load, not the setup."""
    service = SchedulerService(metric="combined", n=2, seed=0)
    server = SchedulerServer(service)
    await server.start()
    serve_task = asyncio.ensure_future(server.serve_until_drained())
    try:
        start = time.perf_counter()
        report = await run_load(
            server.host,
            server.port,
            [tasks],
            workers=workers,
            sites=sites,
            capacity_files=600,
            batch=batch,
            codec=codec,
        )
        wall = time.perf_counter() - start
        await serve_task
    finally:
        if not serve_task.done():
            serve_task.cancel()
        await server.stop()
    done = report["tasks_done"]
    assert done == len(tasks), f"lost tasks: {done}/{len(tasks)}"
    return done / wall, report["stats"]


def run_fleet(tasks, workers, batch=1, codec="json"):
    return asyncio.run(
        asyncio.wait_for(
            _timed_load(tasks, workers, min(workers, 4), batch, codec),
            timeout=300,
        )
    )


def sweep_workers(num_tasks):
    """(workers, rate, p50, p99, max) per fleet size, Coadd job."""
    job = build_job(
        ExperimentConfig(num_tasks=num_tasks, capacity_files=600)
    )
    rows = []
    for workers in WORKER_COUNTS:
        rate, stats = run_fleet(list(job), workers)
        latency = stats["decision_latency"]
        rows.append(
            (
                workers,
                rate,
                latency["p50_us"],
                latency["p99_us"],
                latency["max_us"],
            )
        )
    return rows


def batch_rate(num_tasks, batch, codec="json", repeats=3):
    """Assignments/sec for one worker pulling at prefetch depth k.

    Best-of-``repeats``: localhost throughput runs are short and
    noisy, and the scheduler's true capability is the fastest pass —
    the slower ones measure interference, not the code.
    """
    best = 0.0
    for _ in range(repeats):
        rate, stats = run_fleet(
            light_tasks(num_tasks, files_per_task=1),
            1,
            batch=batch,
            codec=codec,
        )
        if batch > 1:
            assert stats["batches"]["tasks"] == num_tasks
        best = max(best, rate)
    return best


def sweep_codecs(num_tasks, batch_sizes=BATCH_SIZES, repeats=3):
    """Best-of-``repeats`` rate per codec x batch cell.

    Repeats are interleaved across codecs so slow drift (CPU steal,
    thermal) lands on both codecs evenly instead of biasing whichever
    sweep happened to run later — the binary-vs-json comparison at
    k=8 is a CI gate and must not ride on measurement ordering.
    """
    best = {codec: dict.fromkeys(batch_sizes, 0.0) for codec in CODECS}
    for k in batch_sizes:
        for _ in range(repeats):
            for codec in CODECS:
                rate, stats = run_fleet(
                    light_tasks(num_tasks, files_per_task=1),
                    1,
                    batch=k,
                    codec=codec,
                )
                if k > 1:
                    assert stats["batches"]["tasks"] == num_tasks
                best[codec][k] = max(best[codec][k], rate)
    return {codec: sorted(rates.items()) for codec, rates in best.items()}


def _wire_cycle():
    """One k=8 pull cycle's messages as both endpoints would send them."""
    request = messages.RequestTask(job_id=1, max_tasks=8)
    delta = messages.FileDelta(
        site=0, added=[1, 2, 3], removed=[4], referenced=list(range(8))
    )
    dones = [
        messages.TaskDone(task_id=index, lease_id=100 + index)
        for index in range(8)
    ]
    batch = messages.TaskBatch(
        tasks=[
            {
                "task_id": index,
                "files": [index % 300],
                "flops": 0.0,
                "lease_id": 100 + index,
                "job_id": 1,
            }
            for index in range(8)
        ],
        lease_ttl=30.0,
    )
    acks = [messages.Ack() for _ in range(9)]
    return [request, delta, *dones], [batch, *acks]


def _wire_pass(name, cycles):
    """Time one encode+feed pass of ``cycles`` k=8 pull cycles."""
    client_to_server, server_to_client = _wire_cycle()
    client_side = wire.make_codec(name, decodes="server")
    server_side = wire.make_codec(name, decodes="client")
    start = time.perf_counter()
    for _ in range(cycles):
        up = b"".join(map(client_side.encode, client_to_server))
        down = b"".join(map(server_side.encode, server_to_client))
        server_side.feed(up)
        client_side.feed(down)
    wall = time.perf_counter() - start
    return cycles * 8 / wall


def wire_rates(cycles=2000, repeats=5):
    """Best-of-``repeats`` assignments/sec through each codec alone:
    encode + feed of one k=8 pull cycle per iteration, both
    directions, no sockets or event loop.  Repeats are interleaved
    across codecs (same reasoning as :func:`sweep_codecs`): the
    binary/json ratio is a CI gate and the two rates must be sampled
    under the same machine conditions."""
    names = {
        "json": protocol.CODEC_JSON,
        "binary": protocol.CODEC_BINARY,
    }
    best = dict.fromkeys(CODECS, 0.0)
    for _ in range(repeats):
        for codec in CODECS:
            best[codec] = max(best[codec], _wire_pass(names[codec], cycles))
    return best


def wire_rate(codec, cycles=2000, repeats=3):
    """Single-codec wire rate (diagnostics; the sweep uses
    :func:`wire_rates` so the two codecs are sampled interleaved)."""
    names = {
        "json": protocol.CODEC_JSON,
        "binary": protocol.CODEC_BINARY,
    }
    return max(_wire_pass(names[codec], cycles) for _ in range(repeats))


def format_tables(num_tasks, worker_rows, codec_rows, wires, batch_tasks=None):
    lines = [
        f"serve throughput ({num_tasks}-task Coadd, combined.2, "
        f"localhost TCP, zero simulated work)",
        f"{'workers':>8} {'assign/s':>10} {'p50 us':>8} "
        f"{'p99 us':>8} {'max us':>8}",
    ]
    for workers, rate, p50, p99, peak in worker_rows:
        lines.append(
            f"{workers:>8} {rate:>10.0f} {p50:>8.0f} "
            f"{p99:>8.0f} {peak:>8.0f}"
        )
    lines.append("")
    lines.append(
        f"codec x batch sweep ({batch_tasks or num_tasks} light tasks, "
        f"1 worker, REQUEST_TASK max_tasks=k + pipelined completions)"
    )
    lines.append(f"{'codec':>8} {'batch k':>8} {'assign/s':>10} {'vs k=1':>8}")
    for codec, rows in codec_rows.items():
        base = dict(rows)[1]
        for k, rate in rows:
            lines.append(f"{codec:>8} {k:>8} {rate:>10.0f} {rate / base:>7.2f}x")
    ratio = wires["binary"] / wires["json"]
    lines.append("")
    lines.append(
        "wire-level codec throughput (k=8 message mix, both directions, "
        "no event loop)"
    )
    lines.append(
        f"    json {wires['json']:>10.0f}/s   binary "
        f"{wires['binary']:>10.0f}/s   ratio {ratio:.2f}x"
    )
    return "\n".join(lines)


def test_serve_throughput(benchmark, throughput_tasks, artifact):
    num_tasks = max(200, throughput_tasks // 3)

    def sweep():
        return (
            sweep_workers(num_tasks),
            sweep_codecs(num_tasks * 2),
            wire_rates(),
        )

    worker_rows, codec_rows, wires = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )
    artifact(
        "serve_throughput",
        format_tables(
            num_tasks,
            worker_rows,
            codec_rows,
            wires,
            batch_tasks=num_tasks * 2,
        ),
    )

    # Sanity floor, not a target: even one worker should clear
    # hundreds of assignments/sec on localhost.
    assert all(rate > 50 for _w, rate, *_ in worker_rows)
    # Batching must amortize round trips, not merely not hurt,
    # and the binary frame must beat JSON end-to-end at depth 8.
    for rows in codec_rows.values():
        rates = dict(rows)
        assert rates[8] > rates[1]
    assert dict(codec_rows["binary"])[8] > dict(codec_rows["json"])[8]
    assert wires["binary"] >= WIRE_SPEEDUP_FLOOR * wires["json"]


def write_baseline(mode, num_tasks, codec_rows, wires):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema": 2,
        "mode": mode,
        "config": {
            "num_tasks": num_tasks,
            "workers": 1,
            "files_per_task": 1,
            "metric": "combined",
            "n": 2,
            "protocol": protocol.PROTOCOL_VERSION,
        },
        "codec_batch_rates": {
            codec: {str(k): round(rate, 1) for k, rate in rows}
            for codec, rows in codec_rows.items()
        },
        "wire_rates": {codec: round(rate, 1) for codec, rate in wires.items()},
        "v2_json_reference": V2_JSON_REFERENCE,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_against_baseline(codec_rows, wires):
    """Exit-code style check: [] if healthy, else failure messages."""
    failures = []
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}; run --write-baseline"]
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("schema") != 2:
        return [
            f"baseline schema {baseline.get('schema')!r} predates the "
            f"codec sweep; rerun --write-baseline"
        ]
    floor = 1.0 - REGRESSION_TOLERANCE
    for codec, rows in codec_rows.items():
        references = baseline["codec_batch_rates"].get(codec, {})
        for k, rate in rows:
            reference = references.get(str(k))
            if reference is None:
                continue
            if rate < reference * floor:
                failures.append(
                    f"codec={codec} batch k={k}: {rate:.0f}/s is more "
                    f"than {REGRESSION_TOLERANCE:.0%} below the "
                    f"baseline {reference:.0f}/s"
                )
        rates = dict(rows)
        if 1 in rates and 8 in rates and rates[8] <= rates[1]:
            failures.append(
                f"codec={codec}: batch k=8 ({rates[8]:.0f}/s) does not "
                f"beat k=1 ({rates[1]:.0f}/s)"
            )
    json_k8 = dict(codec_rows["json"]).get(8)
    binary_k8 = dict(codec_rows["binary"]).get(8)
    if json_k8 and binary_k8 and binary_k8 <= json_k8:
        failures.append(
            f"binary codec at k=8 ({binary_k8:.0f}/s) does not beat "
            f"json ({json_k8:.0f}/s)"
        )
    ratio = wires["binary"] / wires["json"]
    if ratio < WIRE_SPEEDUP_FLOOR:
        failures.append(
            f"wire-level binary/json throughput ratio {ratio:.2f}x is "
            f"below the {WIRE_SPEEDUP_FLOOR:.1f}x floor"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="serve throughput bench (standalone mode)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized sweep (fewer tasks)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        help="measure one prefetch depth only and print its rate",
    )
    parser.add_argument(
        "--codec",
        choices=CODECS,
        default="json",
        help="codec for --batch mode (the sweep always runs both)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if the codec x batch sweep regressed vs the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"refresh {BASELINE_PATH.name} from this run",
    )
    args = parser.parse_args(argv)

    num_tasks = 600 if args.quick else 1200
    mode = "quick" if args.quick else "full"

    if args.batch is not None:
        rate = batch_rate(num_tasks, args.batch, codec=args.codec)
        print(
            f"codec={args.codec} batch={args.batch} "
            f"assignments_per_sec={rate:.1f}"
        )
        return 0

    codec_rows = sweep_codecs(num_tasks)
    wires = wire_rates()
    for codec, rows in codec_rows.items():
        base = dict(rows)[1]
        for k, rate in rows:
            print(
                f"codec={codec} batch={k} assignments_per_sec={rate:.1f} "
                f"speedup_vs_k1={rate / base:.2f}"
            )
    ratio = wires["binary"] / wires["json"]
    print(
        f"wire json={wires['json']:.0f}/s binary={wires['binary']:.0f}/s "
        f"ratio={ratio:.2f}x"
    )

    status = 0
    if args.check:
        failures = check_against_baseline(codec_rows, wires)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("bench-regression check passed")
    if args.write_baseline:
        write_baseline(mode, num_tasks, codec_rows, wires)
        print(f"baseline written to {BASELINE_PATH}")
    return status


if __name__ == "__main__":
    sys.exit(main())
