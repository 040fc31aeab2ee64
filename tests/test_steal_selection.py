"""Differential test: the victim's steal selection against a full scan.

``full_scan_select`` below is ``SchedulerService._select_steal_tasks``
as it was written before the selection went through the engine's
file -> pending-tasks index: every pending task of the victim's own
jobs scored at every thief site, then the whole list sorted.  It lives
here, and only here, as the executable specification.

The live selection scores only the tasks that share a file with the
thief's summary and ranks the top ``budget`` with a heap; the two must
return the same ids in the same order — no tolerance — for every
metric, for summaries naming files the victim never saw and
zero-count references, with foreign (stolen) tasks in the queue and
ties broken by task id.  And a selection changes nothing: the RNG
state and ``export_state()`` are the same before and after it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import FAST_SCORERS
from repro.serve.service import SchedulerService

METRICS = sorted(FAST_SCORERS)


def full_scan_select(service: SchedulerService, budget: int,
                     site_refsums: List[Dict]) -> List[int]:
    """The full-scan selection, kept verbatim as the oracle."""
    sites: List[Tuple[Dict[int, float], float]] = []
    for entry in site_refsums:
        refs = {fid: float(count)
                for fid, count in zip(entry.get("files", ()),
                                      entry.get("refs", ()))}
        sites.append((refs, sum(refs.values())))
    scorer = FAST_SCORERS[service.engine.metric_name]
    scored: List[Tuple[float, int]] = []
    for task_id, task in service.engine.pending.items():
        if service._tasks[task_id].job.origin is not None:
            continue
        num_files = len(task.files)
        best = scorer(num_files, 0, 0.0, 0.0, 1.0)
        for refs, total_refsum in sites:
            overlap = 0
            refsum = 0.0
            for fid in task.files:
                count = refs.get(fid)
                if count is not None:
                    overlap += 1
                    refsum += count
            score = scorer(num_files, overlap, refsum,
                           total_refsum, 1.0)
            if score > best:
                best = score
        scored.append((best, task_id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [task_id for _score, task_id in scored[:budget]]


#: The victim's files are 0..39; a thief may name 0..59, so a third of
#: the ids it can ship are files the victim has never seen.
VICTIM_FILES = 40
THIEF_FILES = 60

task_files = st.lists(st.integers(0, VICTIM_FILES - 1), min_size=1,
                      max_size=6, unique=True)
thief_site = st.dictionaries(st.integers(0, THIEF_FILES - 1),
                             st.integers(0, 5), max_size=25)


def victim(metric, own_jobs, foreign, leased, deltas):
    """A stealing shard (even ids) holding ``own_jobs``, stolen tasks
    ``foreign`` (odd ids, from shard 1), ``leased`` tasks pulled
    away, and ``deltas`` reported at its own sites."""
    service = SchedulerService(metric=metric, n=2, seed=7, id_start=0,
                               id_stride=2, steal_watermark=1)
    for specs in own_jobs:
        service.submit_job([{"files": files, "flops": 1.0}
                            for files in specs])
    if foreign:
        service.steal_import_tentative(1, 1, [
            {"task_id": 2 * index + 1, "job_id": 1, "files": files,
             "flops": 1.0}
            for index, files in enumerate(foreign)])
        service.steal_commit_import(1, 1)
    for site, (added, referenced) in enumerate(deltas):
        service.file_delta(site, added=added, removed=[],
                           referenced=referenced)
    for index in range(leased):
        if not service.engine.has_pending:
            break
        service.request_task(f"w{index}", index % 2, lambda _answer: None)
    return service


@settings(max_examples=300, deadline=None)
@given(metric=st.sampled_from(METRICS),
       own_jobs=st.lists(st.lists(task_files, min_size=1, max_size=40),
                         min_size=1, max_size=3),
       foreign=st.lists(task_files, max_size=8),
       leased=st.integers(0, 6),
       deltas=st.lists(st.tuples(
           st.lists(st.integers(0, VICTIM_FILES - 1), max_size=10),
           st.lists(st.integers(0, VICTIM_FILES - 1), max_size=10)),
           max_size=2),
       thief=st.lists(thief_site, max_size=3),
       budget=st.integers(1, 64))
def test_selection_equals_the_full_scan(metric, own_jobs, foreign, leased,
                                        deltas, thief, budget):
    service = victim(metric, own_jobs, foreign, leased, deltas)
    site_refsums = [{"site": site, "files": sorted(refs),
                     "refs": [refs[fid] for fid in sorted(refs)]}
                    for site, refs in enumerate(thief)]
    rng_before = service.engine.rng.getstate()
    state_before = service.export_state()

    chosen = service._select_steal_tasks(budget, site_refsums)

    assert chosen == full_scan_select(service, budget, site_refsums)
    assert service.engine.rng.getstate() == rng_before
    assert service.export_state() == state_before
    assert all(task_id % 2 == 0 for task_id in chosen)  # never foreign


def test_ties_break_by_task_id():
    """Equal scores rank by the lower id: under ``overlap`` every task
    sharing one file with the thief scores 1.0, every other 0.0."""
    service = victim("overlap", [[[5], [6], [5, 9], [7], [6, 8], [5]]],
                     foreign=[[5], [5]], leased=0, deltas=[])
    site_refsums = [{"site": 0, "files": [5, 99], "refs": [0, 3]}]
    # Own ids 0..10 step 2; 0, 4, 10 hold file 5; foreign 1, 3 do too.
    assert service._select_steal_tasks(4, site_refsums) == [0, 4, 10, 2]
    assert (service._select_steal_tasks(4, site_refsums)
            == full_scan_select(service, 4, site_refsums))
