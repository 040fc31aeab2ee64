"""The thief's loop: woken by demand, cheap on every tick.

* **wake** — with a retry interval of an hour, an unscoped pull that
  parks on an idle shard still gets stolen work at once, because the
  service calls the manager's wake-up slot when it parks it; a pull
  scoped to a job wakes nothing, and a stopped manager leaves no slot.
* **topology** — ``cluster.json`` is parsed again only when the
  supervisor has replaced it, and a restarted peer's new port is
  still picked up.
* **summary** — the ``STEAL_REQUEST`` site summary read straight from
  the mirror is byte-identical to the one built through
  ``SiteFileState.export()``.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Dict, List
from unittest import mock

from repro.cluster.steal import StealManager
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


def shard(index, **kwargs):
    return SchedulerService(metric="combined", n=2, seed=0,
                            id_start=index, id_stride=2,
                            steal_watermark=2, name=f"shard-{index}",
                            **kwargs)


# -- wake --------------------------------------------------------------------

def test_a_parked_unscoped_pull_wakes_the_thief_at_once():
    async def body():
        victim, thief = shard(0), shard(1)
        victim.submit_job([{"files": [fid, fid + 100], "flops": 1.0}
                           for fid in range(40)])
        own = thief.submit_job([{"files": [500], "flops": 1.0}])["job_id"]
        server = SchedulerServer(victim)
        await server.start()
        manager = StealManager(thief, 1,
                               peers={0: (server.host, server.port)},
                               interval=3600)
        ticks = []
        tick = manager.tick

        async def counted_tick():
            ticks.append(asyncio.get_running_loop().time())
            await tick()

        manager.tick = counted_tick
        await manager.start()
        try:
            await asyncio.sleep(0.05)
            assert len(ticks) == 1  # the first pass, with no demand
            # Lease the thief's own task, then park a pull scoped to
            # its job: no demand for foreign work, no tick, no steal.
            granted = []
            thief.request_task("t0", 0, granted.append, job_id=own)
            assert len(granted) == 1
            scoped = []
            thief.request_task("t1", 0, scoped.append, job_id=own)
            await asyncio.sleep(0.2)
            assert scoped == [] and len(ticks) == 1
            assert manager.steal_attempts == 0
            assert victim.stats_snapshot()["steal"]["requests"] == {}

            fed = []
            parked_at = asyncio.get_running_loop().time()
            thief.request_task("t2", 0, fed.append)
            while not fed:
                assert asyncio.get_running_loop().time() - parked_at < 1.0
                await asyncio.sleep(0.005)
            assert fed[0].job_id == 0  # the victim's job, stolen
            assert manager.steal_grants == 1
            assert victim.exported_outstanding >= 1
            assert scoped == []  # still parked: it runs only its job
        finally:
            await manager.stop()
            await server.stop()
        assert thief.on_steal_demand is None

    run(body())


def test_stop_clears_the_wake_up_slot():
    async def body():
        thief = shard(1)
        manager = StealManager(thief, 1, peers={}, interval=3600)
        assert thief.on_steal_demand is None
        await manager.start()
        assert thief.on_steal_demand is not None
        await manager.stop()
        assert thief.on_steal_demand is None
        # Parking with no manager started calls nothing.
        thief.request_task("t0", 0, lambda _answer: None)
        assert thief.parked_unscoped == 1

    run(body())


# -- topology ----------------------------------------------------------------

def publish(path, ports: Dict[int, int]):
    """Write ``cluster.json`` the way the supervisor does."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump({"shards": [
            {"shard": index, "host": "127.0.0.1", "port": port}
            for index, port in sorted(ports.items())]}, handle)
    os.replace(tmp_path, path)


def test_topology_is_parsed_only_when_replaced(tmp_path):
    path = str(tmp_path / "cluster.json")
    publish(path, {0: 41000, 1: 41001})
    manager = StealManager(shard(1), 1, cluster_file=path)

    async def body():
        with mock.patch("repro.cluster.steal.json.load",
                        side_effect=json.load) as load:
            for _ in range(5):
                await manager.tick()
            assert load.call_count == 1
            assert manager._links[0].address.port == 41000
            # Shard 0 restarts on a new port: the supervisor replaces
            # the file, and the next tick reads it.
            publish(path, {0: 41002, 1: 41001})
            await manager.tick()
            assert load.call_count == 2
            assert manager._links[0].address.port == 41002
            await manager.tick()
            assert load.call_count == 2
            assert sorted(manager._links) == [0]
        await manager.stop()

    run(body())


# -- summary -----------------------------------------------------------------

def summary_through_export(service: SchedulerService) -> List[Dict]:
    """The summary as built through ``SiteFileState.export()``."""
    engine = service.engine
    out: List[Dict] = []
    for site_id in sorted(engine.site_ids):
        payload = engine.site_state(site_id).export()
        references = dict(payload["references"])
        files = payload["resident"]
        out.append({"site": site_id, "files": list(files),
                    "refs": [int(references.get(fid, 0))
                             for fid in files]})
    return out


def test_site_summary_is_byte_identical_to_the_export():
    service = shard(1)
    service.ensure_site(4)
    service.file_delta(2, added=[30, 7, 12, 99], removed=[],
                       referenced=[7, 7, 12, 55])
    service.file_delta(2, added=[3], removed=[12], referenced=[3, 30])
    service.file_delta(0, added=[1], removed=[], referenced=[])
    manager = StealManager(service, 1, peers={})
    summary = manager._site_refsums()
    assert summary == summary_through_export(service)
    assert (json.dumps(summary).encode()
            == json.dumps(summary_through_export(service)).encode())
    assert summary[1] == {"site": 2, "files": [3, 7, 30, 99],
                          "refs": [1, 2, 1, 0]}
