"""End-to-end observability: HTTP scrape endpoint, ``repro top``,
event logs from a real load run — all over localhost sockets.

The scrape responses are validated with the strict parser from
:mod:`repro.obs.prometheus` (the same one the CI smoke job uses), not
by substring grepping.
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.analysis.eventlog import load_timelines
from repro.exp import ExperimentConfig
from repro.exp.runner import build_job
from repro.obs import CONTENT_TYPE, DecisionTracer, ObsHttpServer, parse
from repro.obs.top import render_top, run_top
from repro.serve.loadgen import run_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def coadd_job(num_tasks=60, seed=0):
    return build_job(ExperimentConfig(num_tasks=num_tasks,
                                      capacity_files=500, seed=seed))


def http_get(url, timeout=10.0):
    """Blocking GET returning (status, content_type, body_text)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return (response.status,
                    response.headers.get("Content-Type"),
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return (error.code, error.headers.get("Content-Type"),
                error.read().decode("utf-8"))


async def obs_stack(metric="combined", n=2, seed=42):
    """A scheduler server plus its observability endpoint."""
    tracer = DecisionTracer()
    service = SchedulerService(metric=metric, n=n, seed=seed,
                               tracer=tracer)
    server = SchedulerServer(service)
    await server.start()

    def stats_json():
        snapshot = service.stats_snapshot()
        snapshot["jobs"] = service.jobs_overview()
        snapshot["file_delta_latency"] = \
            service.stats.file_delta.snapshot()
        return snapshot

    obs = ObsHttpServer(
        registry=service.stats.registry,
        json_routes={"/stats.json": stats_json,
                     "/trace.json": lambda: {"spans": tracer.spans()}},
        health=lambda: {"status": "ok",
                        "queue_depth": service.queue_depth})
    await obs.start()
    return service, server, obs, tracer


def test_scrape_endpoint_under_live_load():
    """Scrapes issued *while* a worker fleet hammers the scheduler
    parse cleanly every time and converge with the STATS snapshot."""

    async def scenario():
        service, server, obs, tracer = await obs_stack()
        job = coadd_job(80)
        scrape_results = []
        done = asyncio.Event()

        async def scrape_loop():
            while not done.is_set():
                status, ctype, body = await asyncio.to_thread(
                    http_get, obs.url + "/metrics")
                scrape_results.append((status, ctype, parse(body)))
                await asyncio.sleep(0.01)

        scraper = asyncio.ensure_future(scrape_loop())
        try:
            report = await run_load(server.host, server.port, [job],
                                    workers=6, sites=3, drain=False)
        finally:
            done.set()
            await scraper
        # Every mid-flight scrape was well-formed.
        assert len(scrape_results) >= 1
        for status, ctype, families in scrape_results:
            assert status == 200
            assert ctype == CONTENT_TYPE
            assert "repro_assignments_total" in families
        # The final scrape agrees with the final STATS reply.
        _status, _ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/metrics")
        families = parse(body)
        assert families["repro_completions_total"].value() == \
            report["stats"]["completions"] == len(job)
        assert families["repro_queue_depth"].value() == 0.0
        assert families["repro_decision_latency_seconds"].value(
            suffix="_count") == report["stats"]["assignments"]
        # The decision kernel's per-metric latency histogram is
        # scraped too, labeled with the policy the daemon runs.
        assert "repro_scheduler_decision_seconds" in families
        assert families["repro_scheduler_decision_seconds"].value(
            labels={"metric": "combined"}, suffix="_count",
        ) == report["stats"]["assignments"]
        assert tracer.recorded == report["stats"]["assignments"]
        # The write path's histogram: one sample per FILE_DELTA (the
        # workers send one per task), never one per file — and the
        # STATS wire snapshot does not carry it.
        assert families["repro_file_delta_seconds"].value(
            suffix="_count") == service.stats.file_delta.count == len(job)
        assert (report["stats"]["file_deltas"]["referenced"]
                > 10 * len(job))
        assert "file_delta_latency" not in report["stats"]
        # Every decision is attributed to the kernel that ranked it,
        # in the scrape and on each /trace.json span.
        by_kernel = service.stats.decisions_by_kernel
        assert sum(by_kernel.values()) == report["stats"]["assignments"]
        for kernel, count in by_kernel.items():
            assert families[
                "repro_scheduler_decisions_by_kernel_total"].value(
                    labels={"kernel": kernel}) == count
        _status, _ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/trace.json")
        spans = json.loads(body)["spans"]
        assert spans and all(
            span["kernel"] in by_kernel and span["scored"] >= 1
            for span in spans)
        await obs.stop()
        await server.stop()

    run(scenario())


def test_healthz_stats_json_trace_json_and_errors():
    async def scenario():
        service, server, obs, _tracer = await obs_stack()
        service.submit_job([{"files": [1, 2]}, {"files": [3]}])

        status, ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/healthz")
        assert status == 200 and ctype == "application/json"
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["queue_depth"] == 2

        status, _ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/stats.json")
        snapshot = json.loads(body)
        assert status == 200
        assert snapshot["tasks_submitted"] == 2
        assert snapshot["jobs"][0]["tasks"] == 2

        status, _ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/trace.json")
        assert status == 200 and json.loads(body) == {"spans": []}

        status, _ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/nope")
        assert status == 404
        assert "/metrics" in body  # the 404 lists real routes

        await obs.stop()
        await server.stop()

    run(scenario())


def test_post_is_rejected_and_head_has_no_body():
    async def scenario():
        obs = ObsHttpServer(json_routes={"/x.json": lambda: {"a": 1}})
        await obs.start()

        reader, writer = await asyncio.open_connection(
            obs.host, obs.port)
        writer.write(b"POST /healthz HTTP/1.1\r\n\r\n")
        await writer.drain()
        status_line = await reader.readline()
        assert b"405" in status_line
        writer.close()
        await writer.wait_closed()

        reader, writer = await asyncio.open_connection(
            obs.host, obs.port)
        writer.write(b"HEAD /healthz HTTP/1.1\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        head, _sep, body = raw.partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n")[0]
        assert body == b""  # headers only
        writer.close()
        await writer.wait_closed()
        await obs.stop()

    run(scenario())


def test_handler_exception_returns_500_not_a_dead_connection():
    async def scenario():
        def boom():
            raise RuntimeError("kaput")

        obs = ObsHttpServer(json_routes={"/boom.json": boom})
        await obs.start()
        status, _ctype, body = await asyncio.to_thread(
            http_get, obs.url + "/boom.json")
        assert status == 500
        assert "RuntimeError" in body
        await obs.stop()

    run(scenario())


def test_repro_top_renders_against_a_live_server(capsys):
    async def scenario():
        service, server, obs, _tracer = await obs_stack()
        job = coadd_job(40)
        await run_load(server.host, server.port, [job], workers=4,
                       sites=2, drain=False)
        url = obs.url + "/stats.json"
        code = await asyncio.to_thread(
            run_top, [url], 0.0, 1, False)
        await obs.stop()
        await server.stop()
        return code

    assert run(scenario()) == 0
    shown = capsys.readouterr().out
    assert "repro top — serving" in shown
    assert "40 submitted, 40 done" in shown.replace("tasks     : ", "")
    assert "overlap hit rate" in shown
    assert "(40 file deltas)" in shown
    assert "job   progress" in shown
    assert "[####################] 40/40 done" in shown


def test_repro_top_exits_nonzero_when_server_is_gone():
    messages = []
    code = run_top(["http://127.0.0.1:9/stats.json"], iterations=3,
                   out=messages.append)
    assert code == 1
    assert len(messages) == 1 and "cannot fetch" in messages[0]


def test_render_top_handles_sparse_snapshots():
    text = render_top({"draining": True})
    assert "DRAINING" in text
    assert "site" not in text  # no site table without site data
    assert "delta" not in text  # nor a write-path row without deltas


def test_load_event_log_reconstructs_every_task_timeline(tmp_path):
    """Acceptance path: ``repro load --event-log`` JSONL feeds
    ``repro.analysis`` timeline reconstruction."""
    path = str(tmp_path / "load-events.jsonl")

    async def scenario():
        service = SchedulerService(metric="combined", n=2, seed=3)
        server = SchedulerServer(service)
        await server.start()
        job = coadd_job(50, seed=1)
        report = await run_load(server.host, server.port, [job],
                                workers=5, sites=5, drain=False,
                                event_log=path)
        await server.stop()
        return report

    report = run(scenario())
    assert report["event_log"] == path
    timelines = load_timelines(path)
    assert len(timelines) == report["tasks_submitted"] == 50
    for line in timelines.values():
        assert line.completed
        assert line.retries == 0
        assert line.submitted_at is not None
        assert line.turnaround >= 0.0
        assert line.attempts[0].worker.startswith("w")
    workers_seen = {line.attempts[0].worker
                    for line in timelines.values()}
    assert workers_seen <= {f"w{index}" for index in range(5)}


def test_server_event_log_and_client_log_agree(tmp_path):
    """Server-side and client-side event logs of one run tell the
    same completion story."""
    from repro.obs.events import EventLog

    server_log = str(tmp_path / "server.jsonl")
    client_log = str(tmp_path / "client.jsonl")

    async def scenario():
        events = EventLog(path=server_log)
        service = SchedulerService(metric="combined", n=2, seed=3,
                                   events=events)
        server = SchedulerServer(service)
        await server.start()
        job = coadd_job(30, seed=2)
        await run_load(server.host, server.port, [job], workers=3,
                       sites=3, drain=False, event_log=client_log)
        await server.stop()
        events.close()

    run(scenario())
    server_lines = load_timelines(server_log)
    client_lines = load_timelines(client_log)
    assert set(server_lines) == set(client_lines)
    for task_id, server_line in server_lines.items():
        assert server_line.completed
        assert client_lines[task_id].completed
        assert (server_line.attempts[-1].worker
                .startswith(client_lines[task_id].attempts[-1].worker))


def test_stats_interval_ticker_logs_one_json_line(caplog):
    import logging

    async def scenario():
        service = SchedulerService()
        server = SchedulerServer(service, stats_interval=0.05)
        await server.start()
        await asyncio.sleep(0.18)
        await server.stop()

    with caplog.at_level(logging.INFO, logger="repro.serve.stats"):
        run(scenario())
    lines = [record.getMessage() for record in caplog.records
             if record.name == "repro.serve.stats"]
    assert len(lines) >= 2  # at least two ticks in 0.18 s
    for line in lines:
        snapshot = json.loads(line)  # one valid JSON object per line
        assert "assignments" in snapshot and "uptime_s" in snapshot


def test_stats_interval_must_be_positive():
    service = SchedulerService()
    with pytest.raises(ValueError):
        SchedulerServer(service, stats_interval=0.0)


# -- repro top, cluster view -------------------------------------------------

def shard_snapshot(tasks=10, done=4, queue=3, p99=120.0, uptime=5.0):
    return {"tasks_submitted": tasks, "completions": done,
            "assignments": done, "queue_depth": queue,
            "outstanding": tasks - done - queue, "uptime_s": uptime,
            "decision_latency": {"count": done, "mean_us": 50.0,
                                 "p50_us": 40.0, "p90_us": 100.0,
                                 "p99_us": p99, "max_us": p99},
            "sites": {"0": {"assignments": done, "overlap_hits": 1,
                            "overlap_hit_rate": 1.0 / max(done, 1)}}}


def test_render_cluster_top_merges_per_shard_endpoints():
    from repro.obs.top import render_cluster_top

    text = render_cluster_top([
        ("127.0.0.1:9001", shard_snapshot(tasks=10, done=4)),
        ("127.0.0.1:9002", shard_snapshot(tasks=6, done=6, queue=0)),
        ("127.0.0.1:9003", None),
    ])
    assert "cluster: 2/3 shard(s) reporting" in text
    assert "127.0.0.1:9001" in text and "127.0.0.1:9003" in text
    assert "unreachable" in text
    # The aggregate body below the table sums the reporting shards.
    assert "16 submitted, 10 done" in text


def test_render_cluster_top_unpacks_a_router_aggregate():
    """One endpoint that already carries a ``shards`` breakdown (the
    supervisor's /stats.json) becomes per-shard rows, not one row."""
    from repro.cluster.stats import aggregate_stats
    from repro.obs.top import render_cluster_top

    first = dict(shard_snapshot(tasks=8, done=8, queue=0),
                 admission={"rejections": 2},
                 replication={"granted": 3, "replica_wins": 1},
                 tenants={"0": 6, "2": 2})
    second = dict(shard_snapshot(tasks=4, done=1),
                  admission={"rejections": 5},
                  replication={"granted": 1, "replica_wins": 1},
                  tenants={"1": 1, "2": 3})  # job 2: stolen tasks
    merged = aggregate_stats([(0, first), (1, second)])
    assert merged["admission"] == {"rejections": 7}
    assert merged["replication"] == {"granted": 4, "replica_wins": 2}
    assert merged["tenants"] == {"0": 6, "1": 1, "2": 5}
    text = render_cluster_top([("127.0.0.1:9100", merged)])
    assert "cluster: 2/2 shard(s) reporting" in text
    assert "shard 0" in text and "shard 1" in text
    assert "12 submitted, 9 done" in text
    assert "admission : 7 submit(s) rejected" in text


def test_aggregate_of_one_shard_is_that_shards_snapshot():
    """The router's STATS for a 1-shard cluster must read like the
    shard's own: every key the two share carries the same value."""
    from repro.cluster.stats import aggregate_stats
    from repro.serve.service import SchedulerService

    service = SchedulerService(metric="combined", n=2, seed=1,
                               admission_watermark=4)
    service.submit_job([{"files": [1, 2], "flops": 1.0},
                        {"files": [2, 3], "flops": 1.0}])
    box = []
    service.request_task("w0", 0, box.append)
    service.file_delta(0, [1, 2], [], [1, 2])
    service.task_done("w0", box[0].task.task_id, box[0].lease_id)
    snap = service.stats_snapshot()
    merged = aggregate_stats([(0, snap)])
    shared = set(snap) & set(merged)
    assert shared == set(snap)  # nothing a shard reports is dropped
    assert {key: merged[key] for key in shared} == snap


def test_run_cluster_top_polls_every_endpoint(capsys):
    payloads = {"http://a/stats.json": shard_snapshot(tasks=5, done=5,
                                                      queue=0),
                "http://b/stats.json": shard_snapshot(tasks=3, done=0)}
    code = run_top(list(payloads), iterations=1, clear=False,
                   fetch=payloads.__getitem__)
    assert code == 0
    shown = capsys.readouterr().out
    assert "cluster: 2/2 shard(s) reporting" in shown
    assert "8 submitted, 5 done" in shown


def test_run_cluster_top_fails_only_when_every_endpoint_is_gone():
    def fetch(url):
        raise ConnectionError("down")

    messages = []
    code = run_top(["http://a/stats.json", "http://b/stats.json"],
                   iterations=2, out=messages.append, fetch=fetch)
    assert code == 1
    assert sum("cannot fetch" in line for line in messages) == 2


def test_run_top_picks_the_view_from_what_the_endpoints_serve():
    """One loop, two views: a lone daemon renders plainly, a lone
    aggregate (the supervisor's endpoint) as the cluster it is."""
    from repro.cluster.stats import aggregate_stats

    payloads = {
        "http://one/stats.json": shard_snapshot(tasks=5, done=5, queue=0),
        "http://all/stats.json": aggregate_stats(
            [(0, shard_snapshot(tasks=5, done=5, queue=0)),
             (1, shard_snapshot(tasks=3, done=0))])}
    for url, is_cluster in (("http://one/stats.json", False),
                            ("http://all/stats.json", True)):
        shown = []
        code = run_top([url], iterations=1, clear=False,
                       out=shown.append, fetch=payloads.__getitem__)
        assert code == 0 and len(shown) == 1
        assert shown[0].startswith("repro top — ")
        assert ("cluster: 2/2 shard(s) reporting" in shown[0]) \
            == is_cluster
