"""Microbenchmarks: DES event throughput, flow-network updates and the
victim's steal selection.

Not a paper artifact — capacity planning for the harness itself (how
big a campaign fits in a coffee break).
"""

import random

import pytest

from repro.net import FlowNetwork, TiersParams, Topology, generate_tiers
from repro.obs.metrics import LatencyHistogram, reference_bucket_index
from repro.serve.service import SchedulerService
from repro.sim import Environment, Store


def test_timeout_throughput(benchmark):
    """Raw event scheduling + dispatch rate."""

    def run_events():
        env = Environment()
        count = [0]

        def bump(_event):
            count[0] += 1

        for i in range(5000):
            env.timeout(float(i % 97)).add_callback(bump)
        env.run()
        return count[0]

    assert benchmark(run_events) == 5000


def test_process_switch_throughput(benchmark):
    """Generator-process ping-pong via a Store."""

    def run_pingpong():
        env = Environment()
        store = Store(env)
        received = [0]

        def producer(env):
            for i in range(1000):
                store.put(i)
                yield env.timeout(0.001)

        def consumer(env):
            for _ in range(1000):
                yield store.get()
                received[0] += 1

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        return received[0]

    assert benchmark(run_pingpong) == 1000


def test_flow_network_churn(benchmark):
    """Sequential transfers over a shared 3-hop path (rate recompute)."""
    topo = Topology()
    names = ["a", "r1", "r2", "b"]
    for name in names:
        topo.add_node(name)
    for left, right in zip(names, names[1:]):
        topo.add_link(left, right, bandwidth=100.0, latency=0.001)

    def run_transfers():
        env = Environment()
        net = FlowNetwork(env, topo)

        def sender(env):
            for _ in range(300):
                yield net.transfer("a", "b", 50.0)

        env.process(sender(env))
        env.run()
        return net.completed_transfers

    assert benchmark(run_transfers) == 300


def test_concurrent_flow_recompute(benchmark):
    """Many concurrent flows forcing repeated max-min recomputation."""
    topo = Topology()
    topo.add_node("hub")
    leaves = []
    for i in range(10):
        leaf = topo.add_node(f"leaf{i}")
        topo.add_link("hub", leaf, bandwidth=10.0, latency=0.001)
        leaves.append(leaf)

    def run_star():
        env = Environment()
        net = FlowNetwork(env, topo)
        for round_index in range(5):
            for leaf in leaves:
                net.transfer("hub", leaf, 25.0 * (round_index + 1))
        env.run()
        return net.completed_transfers

    assert benchmark(run_star) == 50


def run_tiers_flow_churn(tasks_per_site=20, seed=3):
    """The Coadd run's flow mix over a 10-site Tiers network.

    Every site loops like a worker behind its data server: a 1 KB
    request to the scheduler and its 1 KB reply, ten 20-30 MB fetches
    from the file server one after another, then a 1 KB completion
    message.  So one multi-MB fetch per site is in flight while the
    control messages come and go.  Returns ``(completed transfers,
    final clock)``, which depend only on ``seed``.
    """
    grid = generate_tiers(TiersParams(num_sites=10), seed=seed)
    env = Environment()
    net = FlowNetwork(env, grid.topology)
    rng = random.Random(seed)
    sizes = [rng.uniform(20.0, 30.0) * 1024 * 1024
             for _ in range(10 * tasks_per_site * 10)]

    def site_loop(index, gateway):
        for task in range(tasks_per_site):
            yield net.transfer(gateway, grid.scheduler_node, 1024.0)
            yield net.transfer(grid.scheduler_node, gateway, 1024.0)
            base = (index * tasks_per_site + task) * 10
            for size in sizes[base:base + 10]:
                yield net.transfer(grid.file_server_node, gateway, size)
            yield net.transfer(gateway, grid.scheduler_node, 1024.0)

    for index, gateway in enumerate(grid.site_gateways):
        env.process(site_loop(index, gateway))
    env.run()
    return net.completed_transfers, env.now


def test_tiers_flow_churn(benchmark):
    """Max-min recomputes at the grid's shape: ~9 flows over ~14 links."""
    completed, _ = benchmark(run_tiers_flow_churn)
    assert completed == 10 * 20 * 13


def run_random_route_churn(transfers=400, seed=5):
    """Transfers between random endpoints of a 26-site Tiers network.

    Each one starts at a uniform random time in the first 1200 s,
    between two distinct endpoints (file server, scheduler, site
    gateways) drawn at random, with a 5-30 MB size: ~9 flows are in
    flight, as in the grid, but over hundreds of possible paths, so
    an active flow set hardly ever recurs.  Returns ``(completed
    transfers, recomputes, water-fills)``.
    """
    grid = generate_tiers(TiersParams(num_sites=26), seed=seed)
    endpoints = [grid.file_server_node, grid.scheduler_node,
                 *grid.site_gateways]
    rng = random.Random(seed)
    plan = sorted((rng.uniform(0.0, 1200.0), *rng.sample(endpoints, 2),
                   rng.uniform(5.0, 30.0) * 1024 * 1024)
                  for _ in range(transfers))
    env = Environment()
    net = FlowNetwork(env, grid.topology)

    def launcher():
        for at, src, dst, size in plan:
            if at > env.now:
                yield env.timeout(at - env.now)
            net.transfer(src, dst, size)

    env.process(launcher())
    env.run()
    return net.completed_transfers, net._recomputes, net._water_fills


def test_random_route_flow_churn(benchmark):
    """The rate table's miss path: nearly every recompute meets a new
    set of active paths, so it pays the key upkeep and a water-fill."""
    completed, recomputes, water_fills = benchmark(run_random_route_churn)
    assert completed == 400
    assert water_fills > 0.9 * recomputes


def test_histogram_record_throughput(benchmark):
    """O(1) bit_length bucket lookup on the hot stats path.

    Before timing, every sample is cross-checked against the old
    linear doubling loop (kept as ``reference_bucket_index``) so the
    fast path can never drift from the bucket edges it claims.
    """
    rng = random.Random(7)
    samples = [rng.random() ** 6 for _ in range(20000)]
    samples += [0.0, 5e-7, 1e-6, 2e-6, 4e-6 + 1e-18, 1e3, 1e9]

    oracle = LatencyHistogram()
    for value in samples:
        assert (oracle.bucket_index(value)
                == reference_bucket_index(oracle, value)), value

    def run_records():
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(value)
        return histogram.count

    assert benchmark(run_records) == len(samples)


def steal_victim(pending, seed=3):
    """A stealing shard holding ``pending`` tasks shaped like the
    cluster workload's: three files each from a pool as large as the
    queue, under ``combined``."""
    rng = random.Random(seed)
    service = SchedulerService(metric="combined", n=2, seed=0,
                               steal_watermark=4)
    service.submit_job([{"files": rng.sample(range(pending), 3),
                         "flops": 1.0} for _ in range(pending)])
    return service


def thief_summary(files, pool, seed=5):
    """One thief site holding ``files`` of the pool, 1-4 references
    each: the ``site_refsums`` of a ``STEAL_REQUEST``."""
    rng = random.Random(seed)
    resident = sorted(rng.sample(range(pool), files))
    return [{"site": 0, "files": resident,
             "refs": [rng.randint(1, 4) for _ in resident]}]


@pytest.mark.parametrize("summary_files", [50, 600])
@pytest.mark.parametrize("pending", [2000, 10000])
def test_steal_victim_selection(benchmark, pending, summary_files):
    """The victim's ranking of a 64-task export.  A 50-file summary
    shares a file with few pending tasks; at 2 000 pending a 600-file
    one makes two thirds of the queue candidates, the least saving."""
    service = steal_victim(pending)
    summary = thief_summary(summary_files, pending)
    chosen = benchmark(service._select_steal_tasks, 64, summary)
    assert len(chosen) == 64
