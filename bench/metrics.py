"""Metric names, units, directions — and the arithmetic behind each.

``BENCHMARK.json`` declares the same names; ``bench/tests`` asserts the
two agree.  End-to-end values come from an **untraced** pass.  The
per-layer values need a **traced** pass of the same inputs as well: the
span fold gives self time and counts per layer, the untraced pass gives
the reference the tracing overhead is measured against.

Contract note.  The benchmark driver requires every *gated* end-to-end
metric to be reported, non-zero, on every workload.  Four of the
issue's nine end-to-end metrics exist on all six workloads and are
gated (``GATED``).  ``submit_tasks_per_s``, ``pull_p50_ms``,
``pull_p99_ms`` and ``recovery_s`` do not exist for the simulator (and
``recovery_s`` only for the durable workload), so they are measured
untraced exactly as specified but *reported* with the per-layer set;
``failed_op_share`` must be 0, so it travels as the driver's
``failed``/``attempted`` pair.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Tuple

from .spans import Fold, unattributed_share
from .workloads import Pass, Workload

#: name, unit, better, regression bound (share of the parent's median).
GATED: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_task", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.12),
]

#: End-to-end by definition, reported-only by contract (see above).
LIVE_ONLY: List[Tuple[str, str, str]] = [
    ("submit_tasks_per_s", "1/s", "higher"),
    ("pull_p50_ms", "ms", "lower"),
    ("pull_p99_ms", "ms", "lower"),
    ("recovery_s", "s", "lower"),
]

LAYERS: List[Tuple[str, str, str]] = [
    ("serve.server.self_us_per_task", "us", "lower"),
    ("serve.server.spawn_to_listen_s", "s", "lower"),
    ("serve.codec.decode_us_per_task", "us", "lower"),
    ("serve.codec.encode_us_per_task", "us", "lower"),
    ("serve.codec.bytes_in_per_task", "B", "lower"),
    ("serve.codec.bytes_out_per_task", "B", "lower"),
    ("serve.codec.msgs_per_feed", "count", "higher"),
    ("serve.service.submit_us_per_task", "us", "lower"),
    ("serve.service.request_us_per_task", "us", "lower"),
    ("serve.service.done_us_per_task", "us", "lower"),
    ("serve.service.delta_us_per_task", "us", "lower"),
    ("serve.service.calls_per_task", "count", "lower"),
    ("serve.service.parked_pulls", "count", "lower"),
    ("core.policy_engine.choose_us_per_decision", "us", "lower"),
    ("core.policy_engine.decisions", "count", "lower"),
    ("core.policy_engine.index_us_per_task", "us", "lower"),
    ("core.policy_engine.index_ops_per_task", "count", "lower"),
    ("obs.events.emit_us_per_task", "us", "lower"),
    ("obs.events.flush_us_per_task", "us", "lower"),
    ("obs.events.records_per_task", "count", "lower"),
    ("obs.events.bytes_per_task", "B", "lower"),
    ("obs.events.flushes_per_task", "count", "lower"),
    ("cluster.shard.replay_s", "s", "lower"),
    ("cluster.shard.replay_records_per_s", "1/s", "higher"),
    ("cluster.snapshot.write_ms", "ms", "lower"),
    ("cluster.snapshot.load_ms", "ms", "lower"),
    ("cluster.snapshot.bytes", "B", "lower"),
    ("cluster.router.redirect_ms", "ms", "lower"),
    ("cluster.steal.tasks_stolen", "count", "higher"),
    ("cluster.steal.requests_granted", "count", "higher"),
    ("cluster.steal.requests_refused", "count", "lower"),
    ("cluster.steal.thief_share", "share", "higher"),
    ("cluster.steal.first_steal_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("net.flow.transfer_us_per_call", "us", "lower"),
    ("grid.storage.update_us_per_task", "us", "lower"),
    ("core.worker_centric.next_task_us_per_decision", "us", "lower"),
    ("bench.loadgen.cpu_us_per_task", "us", "lower"),
    ("bench.loadgen.cpu_share", "share", "lower"),
    ("trace_overhead_share", "share", "lower"),
    ("unattributed_share", "share", "lower"),
]

PER_LAYER = LIVE_ONLY + LAYERS
UNITS = {name: unit for name, unit, *_ in GATED + PER_LAYER}
UNITS["failed_op_share"] = "share"

#: Pulls needed before a 99th percentile is reported (ten beyond it).
P99_MIN_PULLS = 1000


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def segment_medians(result: Pass) -> Tuple[float, float]:
    """``(tasks/s, CPU us per task)`` as medians over the pass's
    equal-task segments.  Falls back to whole-run figures — tasks over
    pull-phase wall, whole-life rusage over tasks — where there are no
    segments (the simulator reports no progress) or no CPU clock."""
    rates, costs = [], []
    for (t0, done0, cpu0), (t1, done1, cpu1) in zip(result.marks,
                                                   result.marks[1:]):
        if done1 > done0 and t1 > t0:
            rates.append((done1 - done0) / (t1 - t0))
            costs.append((cpu1 - cpu0) / 1e3 / (done1 - done0))
    wall = result.pull_wall_s
    rate = median(rates) if rates else (
        result.completed / wall if wall > 0 else 0.0)
    cost = median(costs) if costs and median(costs) > 0 else (
        result.program_cpu_s / max(1, result.tasks) * 1e6)
    return rate, cost


def end_to_end(result: Pass, workload: Workload,
               ) -> Dict[str, Optional[float]]:
    """The issue's nine end-to-end metrics from one untraced pass
    (None where a metric does not exist on the workload)."""
    rate, cost = segment_medians(result)
    values: Dict[str, Optional[float]] = {
        "setup_s": median(result.setup_samples),
        "tasks_per_s": rate,
        "cpu_us_per_task": cost,
        "peak_rss_mb": result.peak_rss_kb / 1024.0,
        "submit_tasks_per_s": None, "pull_p50_ms": None,
        "pull_p99_ms": None, "recovery_s": result.recovery_s,
        "failed_op_share": result.failed / max(1, result.attempted),
    }
    if workload.kind != "sim":
        values["submit_tasks_per_s"] = (
            result.submitted / result.submit_s
            if result.submit_s > 0 else 0.0)
        pulls = result.pull_latencies
        if pulls:
            values["pull_p50_ms"] = median(pulls) * 1e3
            # Parked pulls make the cluster tail a steal-timing
            # artefact, so it is left out there.
            if len(pulls) >= P99_MIN_PULLS and workload.kind == "serve":
                values["pull_p99_ms"] = percentile(pulls, 0.99) * 1e3
    return values


def sample_counts(result: Pass) -> Dict[str, int]:
    return {"pulls": len(result.pull_latencies),
            "setup_samples": len(result.setup_samples),
            "tasks": result.tasks}


def per_layer(untraced: Pass, traced: Pass, workload: Workload,
              ) -> Dict[str, float]:
    """Every per-layer metric for one workload (0 where a layer does
    not run): live-only end-to-end values from the untraced pass,
    self times and counts from the traced pass's span fold, client-side
    layer timings from the traced pass."""
    values = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for name, value in end_to_end(untraced, workload).items():
        if name in values and value is not None:
            values[name] = value
    fold = traced.fold or Fold()
    tasks = max(1, traced.tasks)
    cpu_s = traced.program_cpu_s

    def per_task(*names: str) -> float:
        return fold.self_us(*names) / tasks

    def calls(*names: str) -> int:
        return sum(fold.calls.get(name, 0) for name in names)

    residual = unattributed_share(cpu_s, fold)
    values["unattributed_share"] = residual
    values["serve.server.self_us_per_task"] = residual * cpu_s / tasks * 1e6
    values["serve.server.spawn_to_listen_s"] = median(traced.spawn_samples)

    feed, encode = "serve.codec.feed", "serve.codec.encode"
    values["serve.codec.decode_us_per_task"] = per_task(feed)
    values["serve.codec.encode_us_per_task"] = per_task(encode)
    values["serve.codec.bytes_in_per_task"] = fold.a.get(feed, 0) / tasks
    values["serve.codec.bytes_out_per_task"] = fold.a.get(encode, 0) / tasks
    if fold.hits.get(feed):
        values["serve.codec.msgs_per_feed"] = \
            fold.b[feed] / fold.hits[feed]

    pulls = ("serve.service.request_task", "serve.service.request_tasks")
    values["serve.service.submit_us_per_task"] = \
        per_task("serve.service.submit_job")
    values["serve.service.request_us_per_task"] = per_task(*pulls)
    values["serve.service.done_us_per_task"] = \
        per_task("serve.service.task_done")
    values["serve.service.delta_us_per_task"] = \
        per_task("serve.service.file_delta")
    values["serve.service.calls_per_task"] = sum(
        count for name, count in fold.calls.items()
        if name.startswith("serve.service.")) / tasks
    values["serve.service.parked_pulls"] = float(
        sum(fold.b.get(name, 0) for name in pulls))

    choose, index = "core.policy_engine.choose", "core.policy_engine.index"
    values["core.policy_engine.decisions"] = float(calls(choose))
    if calls(choose):
        values["core.policy_engine.choose_us_per_decision"] = \
            fold.self_us(choose) / calls(choose)
    values["core.policy_engine.index_us_per_task"] = per_task(index)
    values["core.policy_engine.index_ops_per_task"] = calls(index) / tasks

    emit, write, flush = ("obs.events.emit", "obs.events.write",
                          "obs.events.flush")
    values["obs.events.emit_us_per_task"] = per_task(emit, write)
    values["obs.events.flush_us_per_task"] = per_task(flush)
    values["obs.events.records_per_task"] = calls(emit) / tasks
    values["obs.events.bytes_per_task"] = fold.a.get(write, 0) / tasks
    values["obs.events.flushes_per_task"] = calls(flush) / tasks

    events = fold.counts.get("sim.engine.step", 0)
    values["sim.engine.events"] = float(events)
    if workload.kind == "sim" and traced.pull_wall_s > 0:
        values["sim.engine.events_per_s"] = events / traced.pull_wall_s
    transfer, next_task = "net.flow.transfer", "core.worker_centric.next_task"
    if calls(transfer):
        values["net.flow.transfer_us_per_call"] = \
            fold.self_us(transfer) / calls(transfer)
    values["grid.storage.update_us_per_task"] = \
        per_task("grid.storage.update")
    if calls(next_task):
        # Inclusive of the choose it triggers: the scheduler's whole
        # answer to one simulated pull.
        values["core.worker_centric.next_task_us_per_decision"] = \
            fold.total_ns[next_task] / 1e3 / calls(next_task)

    values["bench.loadgen.cpu_us_per_task"] = \
        untraced.loadgen_cpu_s / max(1, untraced.tasks) * 1e6
    if untraced.pull_wall_s > 0 and workload.kind != "sim":
        values["bench.loadgen.cpu_share"] = \
            untraced.loadgen_cpu_s / untraced.pull_wall_s
    if untraced.program_cpu_s > 0:
        values["trace_overhead_share"] = (
            (traced.program_cpu_s - untraced.program_cpu_s)
            / untraced.program_cpu_s)
    values.update(traced.extras)
    return values


def count_mismatches(untraced: Pass, traced: Pass,
                     tolerance: float = 0.01) -> List[str]:
    """Per-task operation counts the two passes disagree on by more
    than ``tolerance`` (tracing must not change what the program does)."""
    problems = []
    for name, plain in untraced.counts.items():
        other = traced.counts.get(name, 0)
        if abs(other - plain) > tolerance * max(1, plain):
            problems.append(f"{name}: untraced {plain}, traced {other}")
    return problems
