"""The decision corpus: recorded daemon logs, re-decided.

Each ``tests/data/corpus/<shape>.wal.jsonl.gz`` is the event log of a
traced :class:`SchedulerService` driven by :func:`drive` below, with a
fixed seed and a clock that only moves when the driver lets a lease
lapse.  Beside it, ``<shape>.rng.json`` holds the engine's final
``rng.getstate()`` and ``<shape>.state.json.gz`` its final
``export_state()``, both as the service that wrote the log left them.

Re-deciding a file asks every recorded pull again with today's code
(:meth:`SchedulerService.redecide`).  So the corpus pins decisions
across commits: the same grants, the same final RNG state and the same
exported state, byte for byte — the snapshot's task table included.
A change that alters decisions on purpose regenerates the corpus in
the same diff and names the files that changed::

    PYTHONPATH=src python tests/test_decision_corpus.py --write
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

from repro.obs.events import EventLog
from repro.obs.trace import DecisionTracer
from repro.serve.service import SchedulerService

from test_cluster_state import FakeClock

CORPUS = Path(__file__).parent / "data" / "corpus"


def light_specs(count: int) -> List[Dict]:
    """One file of 300 per task (the ``rest`` workloads' shape)."""
    rng = random.Random(1)
    return [{"files": [rng.randrange(300)], "flops": 0.0}
            for _ in range(count)]


def hotset_specs(count: int) -> List[Dict]:
    """One of 20 hot files plus 4 from a cold pool of 20 000."""
    rng = random.Random(2)
    return [{"files": sorted({rng.randrange(20)}
                             | {20 + fid
                                for fid in rng.sample(range(20000), 4)}),
             "flops": 0.0}
            for _ in range(count)]


def coadd_specs(count: int) -> List[Dict]:
    """The paper's Coadd trace, ~78 files per task."""
    from repro.exp.config import ExperimentConfig
    from repro.exp.runner import build_job
    job = build_job(ExperimentConfig(num_tasks=count, seed=3))
    return [{"files": sorted(task.files), "flops": task.flops}
            for task in job]


class Shape:
    """One corpus file: the service it was written by, and its life."""

    def __init__(self, name: str, options: Dict,
                 specs: Callable[[], List[Dict]], *, jobs: int,
                 chunk: int, k: int, scoped: bool, capacity: int):
        self.name = name
        self.options = options
        self.specs = specs
        self.jobs = jobs
        self.chunk = chunk
        self.k = k
        self.scoped = scoped
        self.capacity = capacity

    def service(self, clock, events=None) -> SchedulerService:
        return SchedulerService(clock=clock, events=events,
                                tracer=DecisionTracer(), **self.options)


SHAPES = [
    Shape("rest_k8", dict(metric="rest", n=1, seed=1),
          lambda: light_specs(800), jobs=1, chunk=200, k=8,
          scoped=False, capacity=100),
    Shape("hotset_combined_scoped",
          dict(metric="combined", n=1, seed=2),
          lambda: hotset_specs(600), jobs=2, chunk=100, k=1,
          scoped=True, capacity=200),
    Shape("coadd_combined2_scoped",
          dict(metric="combined", n=2, seed=3),
          lambda: coadd_specs(300), jobs=2, chunk=50, k=1,
          scoped=True, capacity=2000),
]

WORKERS = [("w0", 0), ("w1", 1), ("w2", 0), ("w3", 1)]


def drive(shape: Shape) -> Tuple[SchedulerService, List[Dict]]:
    """Run one shape's life and return the service and its log.

    The jobs' chunks are submitted a round apart, so pulls meet a
    growing queue.  Workers pull in turn, each from its site's LRU
    cache, report the fetch as one delta and complete — except that
    every 23rd round a worker disconnects holding its grants (a
    requeue) and every 37th one abandons them until the lease lapses.
    """
    clock = FakeClock()  # moved only to let a lease lapse
    events = EventLog(clock=lambda: 0.0)
    service = shape.service(clock, events)
    specs = shape.specs()
    per_job = len(specs) // shape.jobs
    chunks = [(job, specs[start:start + shape.chunk])
              for job in range(shape.jobs)
              for start in range(job * per_job, (job + 1) * per_job,
                                 shape.chunk)]
    job_ids: List[int] = []
    caches = {site: OrderedDict() for _worker, site in WORKERS}
    for round_no in range(10 ** 6):
        if chunks and round_no % 3 == 0:
            job, chunk = chunks.pop(0)
            if job < len(job_ids):
                service.submit_job(chunk, job_id=job_ids[job])
            else:
                job_ids.append(service.submit_job(chunk)["job_id"])
        worker, site = WORKERS[round_no % len(WORKERS)]
        live = [job for job in job_ids
                if service.job_status(job)["pending"]]
        if not live:
            if chunks:
                continue
            break
        scope = (live[round_no // len(WORKERS) % len(live)]
                 if shape.scoped else None)
        granted: List = []
        if shape.k == 1:
            service.request_task(worker, site, granted.append,
                                 job_id=scope)
        else:
            service.request_tasks(worker, site, shape.k, granted.extend,
                                  job_id=scope)
        assert granted and not isinstance(granted[0], str), granted
        if round_no % 23 == 22:
            service.disconnect(worker)
            continue
        if round_no % 37 == 36:
            clock.advance(service.lease_ttl + 1.0)
            service.expire_leases()
            continue
        cache = caches[site]
        for grant in granted:
            files = sorted(grant.task.files)
            added = [fid for fid in files if fid not in cache]
            for fid in files:
                cache[fid] = None
                cache.move_to_end(fid)
            removed = []
            while len(cache) > shape.capacity:
                removed.append(cache.popitem(last=False)[0])
            service.file_delta(site, added, removed, files)
            result = service.task_done(worker, grant.task.task_id,
                                       grant.lease_id)
            assert result.accepted, result
    assert service.is_idle
    return service, events.tail()


def dump_records(records: List[Dict]) -> bytes:
    return "".join(json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
                   for record in records).encode()


def dump_state(service: SchedulerService) -> str:
    return json.dumps(service.export_state(), sort_keys=True,
                      separators=(",", ":"))


def rng_row(service: SchedulerService) -> List:
    version, internal, gauss = service.engine.rng.getstate()
    return [version, list(internal), gauss]


def write(shape: Shape) -> None:
    service, records = drive(shape)
    CORPUS.mkdir(parents=True, exist_ok=True)
    # mtime=0: the same log compresses to the same bytes.
    with open(CORPUS / f"{shape.name}.wal.jsonl.gz", "wb") as out:
        out.write(gzip.compress(dump_records(records), mtime=0))
    with open(CORPUS / f"{shape.name}.state.json.gz", "wb") as out:
        out.write(gzip.compress(dump_state(service).encode(), mtime=0))
    (CORPUS / f"{shape.name}.rng.json").write_text(
        json.dumps(rng_row(service)) + "\n")


def read_records(shape: Shape) -> List[Dict]:
    with gzip.open(CORPUS / f"{shape.name}.wal.jsonl.gz", "rt") as lines:
        return [json.loads(line) for line in lines]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.name)
def test_each_corpus_file_redecides_unchanged(shape):
    records = read_records(shape)
    assert any(record.get("scope") is not None
               for record in records) == shape.scoped
    service = shape.service(clock=lambda: 0.0)
    assert service.redecide(records) == []
    assert rng_row(service) == json.loads(
        (CORPUS / f"{shape.name}.rng.json").read_text())
    with gzip.open(CORPUS / f"{shape.name}.state.json.gz", "rt") as state:
        assert dump_state(service) == state.read()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: shape.name)
def test_the_live_service_still_writes_each_corpus_file(shape):
    """Re-deciding checks the pulls; this checks everything else the
    live service records (submits, deltas, requeues, expiries)."""
    service, records = drive(shape)
    with gzip.open(CORPUS / f"{shape.name}.wal.jsonl.gz", "rb") as wal:
        assert dump_records(records) == wal.read()
    assert rng_row(service) == json.loads(
        (CORPUS / f"{shape.name}.rng.json").read_text())


def test_the_corpus_stays_small():
    files = sorted(CORPUS.iterdir())
    assert len(files) == 3 * len(SHAPES)
    assert sum(path.stat().st_size for path in files) < 1 << 20


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_decision_corpus.py --write")
    for each in SHAPES:
        write(each)
        print(f"wrote {each.name}")
