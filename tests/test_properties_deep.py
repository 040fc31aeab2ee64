"""Second property-test wave: deeper cross-layer invariants.

* link capacity is respected by every max-min rate assignment;
* Tiers topologies are well-formed for arbitrary parameters;
* metric orderings hold for arbitrary task views;
* data servers keep storage sane under random batch/cancel patterns;
* the ChooseTask(n) sampler picks only top-n tasks, at the right
  frequencies;
* reordering preserves multiset-of-inputs semantics.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (TaskView, combined_metric, overlap_metric,
                                rest_metric, rest_weight)
from repro.net import FlowNetwork, TiersParams, Topology, generate_tiers
from repro.sim import Environment


# -- flow rates never exceed link capacity ---------------------------------

@st.composite
def random_line_network(draw):
    """A chain network with random capacities and random flows."""
    hops = draw(st.integers(1, 4))
    bandwidths = [draw(st.floats(1.0, 100.0)) for _ in range(hops)]
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        # flows span a random contiguous segment of the chain
        a = draw(st.integers(0, hops - 1))
        b = draw(st.integers(a, hops - 1))
        size = draw(st.floats(1.0, 300.0))
        start = draw(st.floats(0.0, 10.0))
        flows.append((a, b + 1, size, start))
    return bandwidths, flows


@given(random_line_network())
@settings(max_examples=80, deadline=None)
def test_rates_respect_link_capacity(data):
    bandwidths, flows = data
    topo = Topology()
    nodes = [topo.add_node(f"n{i}") for i in range(len(bandwidths) + 1)]
    links = [topo.add_link(nodes[i], nodes[i + 1], bandwidths[i], 0.01)
             for i in range(len(bandwidths))]
    env = Environment()
    net = FlowNetwork(env, topo)

    violations = []
    original = net._recompute_rates

    def checked():
        original()
        usage = {}
        for flow in net._flows:
            for lid in flow.route.link_ids:
                usage[lid] = usage.get(lid, 0.0) + flow.rate
        for link in links:
            used = usage.get(link.link_id, 0.0)
            if used > link.bandwidth * (1 + 1e-6):
                violations.append((link.link_id, used, link.bandwidth))

    net._recompute_rates = checked

    def starter(env, src, dst, size, delay):
        if delay:
            yield env.timeout(delay)
        yield net.transfer(src, dst, size)

    for a, b, size, start in flows:
        env.process(starter(env, nodes[a], nodes[b], size, start))
    env.run()
    assert violations == []
    assert net.active_flow_count == 0


# -- tiers topology invariants ---------------------------------------------

@given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 2**20))
@settings(max_examples=60, deadline=None)
def test_tiers_always_wellformed(num_sites, wan_routers, seed):
    grid = generate_tiers(TiersParams(num_sites=num_sites,
                                      num_wan_routers=wan_routers),
                          seed=seed)
    topo = grid.topology
    assert topo.is_connected()
    assert len(grid.site_gateways) == num_sites
    for gateway in grid.site_gateways:
        route = topo.route(grid.file_server_node, gateway)
        assert route.links
        assert route.bottleneck_bandwidth > 0
    # no duplicated node names
    assert len(topo.nodes) == len(set(topo.nodes))


# -- metric orderings over arbitrary views -----------------------------------

view_strategy = st.builds(
    TaskView,
    task_id=st.integers(0, 1000),
    num_files=st.integers(1, 200),
    overlap=st.integers(0, 200),
    refsum=st.floats(0, 1e6),
    total_refsum=st.floats(0, 1e7),
    total_rest=st.floats(1e-6, 1e3),
).filter(lambda v: v.overlap <= v.num_files
         and v.refsum <= v.total_refsum + 1e-9)


@given(view_strategy)
@settings(max_examples=100, deadline=None)
def test_metric_values_finite_nonnegative(view):
    for metric in (overlap_metric, rest_metric, combined_metric):
        value = metric(view)
        assert value >= 0.0
        assert math.isfinite(value)


@given(view_strategy, st.integers(0, 199))
@settings(max_examples=100, deadline=None)
def test_rest_monotone_in_overlap(view, bump):
    """More overlap (fewer missing) never lowers the rest weight."""
    higher_overlap = min(view.num_files, view.overlap + bump)
    improved = TaskView(task_id=view.task_id, num_files=view.num_files,
                        overlap=higher_overlap, refsum=view.refsum,
                        total_refsum=view.total_refsum,
                        total_rest=view.total_rest)
    assert rest_metric(improved) >= rest_metric(view)


@given(st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_rest_weight_monotone(missing):
    assert rest_weight(missing) >= rest_weight(missing + 1)


# -- data server under random batch/cancel patterns --------------------------

@st.composite
def batch_plan(draw):
    num_files = draw(st.integers(2, 15))
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        files = draw(st.lists(st.integers(0, num_files - 1),
                              min_size=1, max_size=6, unique=True))
        cancel_after = draw(st.one_of(
            st.none(), st.floats(0.0, 10.0)))
        batches.append((files, cancel_after))
    capacity = draw(st.integers(6, 20))
    return num_files, batches, capacity


@given(batch_plan())
@settings(max_examples=60, deadline=None)
def test_data_server_storage_sane_under_churn(plan):
    from repro.analysis.trace import TraceBus
    from repro.grid.data_server import DataServer
    from repro.grid.file_server import FileServer
    from repro.grid.files import FileCatalog
    from repro.grid.storage import SiteStorage

    num_files, batches, capacity = plan
    topo = Topology()
    topo.add_node("fs")
    topo.add_node("site")
    topo.add_link("fs", "site", bandwidth=10.0, latency=0.5)
    env = Environment()
    net = FlowNetwork(env, topo)
    catalog = FileCatalog(num_files, default_size=5.0)
    server = DataServer(env, 0, "site", SiteStorage(capacity),
                        FileServer(env, net, "fs", catalog),
                        TraceBus(keep=False))

    pin_violations = []

    def check_pins(request):
        # at completion time every pinned file must be resident
        for fid in request.pinned:
            if fid not in server.storage:
                pin_violations.append((request.request_id, fid))

    requests = []
    for files, cancel_after in batches:
        request = server.submit(files, "w")
        requests.append(request)
        # a worker would compute then release; model instant release
        request.done.add_callback(
            lambda _e, req=request: (check_pins(req),
                                     server.release(req)))
        if cancel_after is not None:
            def canceller(env, req=request, delay=cancel_after):
                yield env.timeout(delay)
                server.cancel(req)
            env.process(canceller(env))
    env.run()

    storage = server.storage
    assert len(storage) <= capacity
    assert pin_violations == []
    assert not any(storage.is_pinned(fid)
                   for fid in storage.resident_files)


# -- ChooseTask(n) sampling ---------------------------------------------------

def test_choose_task_frequency_matches_weights():
    """Over many seeds, top-2 sampling tracks the 2:1 weight ratio."""
    from repro.core.worker_centric import WorkerCentricScheduler
    from conftest import make_grid, make_job
    from repro.analysis.trace import TaskAssigned, TraceBus

    # rest weights: task0 -> 1/2 (2 missing), task1 -> 1/4 (4 missing)
    job = make_job([{0, 1}, {2, 3, 4, 5}])
    picks = {0: 0, 1: 0}
    trials = 300
    for seed in range(trials):
        env = Environment()
        trace = TraceBus()
        grid = make_grid(env, job, trace=trace, num_sites=1)
        grid.attach_scheduler(WorkerCentricScheduler(
            job, metric="rest", n=2, rng=random.Random(seed)))
        grid.run()
        picks[trace.of_type(TaskAssigned)[0].task_id] += 1
    fraction = picks[0] / trials
    assert fraction == pytest.approx(2 / 3, abs=0.07)


# -- reorder preserves content -----------------------------------------------

@given(st.lists(st.sets(st.integers(0, 30), min_size=1, max_size=6),
                min_size=1, max_size=12),
       st.sampled_from(["shuffled", "striped"]),
       st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_reorder_preserves_multiset(task_files, order, seed):
    from repro.workload.ordering import reorder_job
    from conftest import make_job
    job = make_job(task_files)
    reordered = reorder_job(job, order, seed=seed)
    assert sorted(map(sorted, (t.files for t in job))) \
        == sorted(map(sorted, (t.files for t in reordered)))
    assert [t.task_id for t in reordered] == list(range(len(job)))
