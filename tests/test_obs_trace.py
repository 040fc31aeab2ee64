"""Decision tracing: spans from ``PolicyEngine.choose``.

Pins the two contractual properties: the hook explains decisions
(candidate scores, chosen vs runner-up) and it never *changes* them —
a traced engine replays bit-identically against an untraced twin.
"""

import random

import pytest

from repro.core.policy_engine import PolicyEngine
from repro.grid.job import Task
from repro.obs.trace import DecisionTracer, explain_span
from repro.serve.service import SchedulerService


def make_engine(metric, n=1, seed=0):
    """Two pending tasks engineered to split the metrics:

    * task 0 has 5 files, 2 of them resident at site 0 —
      overlap weight 2, rest weight 1/(5-2) = 1/3;
    * task 1 has 2 files, 1 resident — overlap weight 1, rest
      weight 1/(2-1) = 1.

    The overlap metric prefers task 0, the rest metric task 1.
    """
    tasks = {0: Task(task_id=0, files=frozenset({1, 2, 3, 4, 5})),
             1: Task(task_id=1, files=frozenset({6, 7}))}
    engine = PolicyEngine(tasks, metric=metric, n=n,
                          rng=random.Random(seed))
    engine.attach_site(0)
    for task in tasks.values():
        engine.add_task(task)
    for fid in (1, 2, 6):
        engine.file_added(0, fid)
    return engine


# -- tracer mechanics --------------------------------------------------------

def test_tracer_stamps_and_ring_buffers():
    clock = iter(range(100))
    tracer = DecisionTracer(capacity=2, clock=lambda: next(clock))
    for index in range(3):
        tracer.record({"site": 0, "metric": "rest", "chosen": index,
                       "candidates": []})
    assert tracer.recorded == 3
    assert len(tracer) == 2
    assert [span["chosen"] for span in tracer.spans()] == [1, 2]
    assert tracer.last()["decision"] == 2
    assert tracer.spans(1)[0]["ts"] == 2.0
    with pytest.raises(ValueError):
        DecisionTracer(capacity=0)


def test_tracer_copies_the_span():
    tracer = DecisionTracer()
    original = {"site": 0, "metric": "rest", "chosen": 1,
                "candidates": []}
    stamped = tracer.record(original)
    assert "decision" in stamped and "decision" not in original


# -- span content ------------------------------------------------------------

def test_overlap_and_rest_metrics_disagree_and_spans_show_why():
    spans = {}
    for metric in ("overlap", "rest"):
        engine = make_engine(metric, n=1)
        engine.on_decision = lambda span, m=metric: spans.__setitem__(
            m, span)
        chosen = engine.choose(0)
        assert spans[metric]["chosen"] == chosen.task_id

    # The same site state, opposite decisions.
    assert spans["overlap"]["chosen"] == 0
    assert spans["rest"]["chosen"] == 1

    overlap_top = spans["overlap"]["candidates"][0]
    assert overlap_top == {"task_id": 0, "weight": 2.0, "overlap": 2,
                           "num_files": 5, "files_missing": 3}
    rest_top = spans["rest"]["candidates"][0]
    assert rest_top["task_id"] == 1
    assert rest_top["weight"] == pytest.approx(1.0)
    assert rest_top["files_missing"] == 1


def test_span_carries_runner_up_and_pending_count():
    seen = []
    engine = make_engine("rest", n=2)
    engine.on_decision = seen.append
    chosen = engine.choose(0)
    span = seen[0]
    assert span["metric"] == "rest" and span["n"] == 2
    assert span["site"] == 0
    assert span["pending"] == 2
    assert len(span["candidates"]) == 2
    assert span["chosen"] == chosen.task_id
    assert span["runner_up"] is not None
    assert span["runner_up"] != span["chosen"]
    # Candidates are ranked: weights descending.
    weights = [candidate["weight"] for candidate in span["candidates"]]
    assert weights == sorted(weights, reverse=True)


@pytest.mark.parametrize("metric, fast_path, kernel, scored", [
    ("rest", True, "bucketed", 2),
    ("combined", True, "scored", 2),      # 2 candidates: far too few
    ("combined", False, "reference", 2),  # to pay for a refsum order
])
def test_span_says_which_kernel_answered_and_what_it_weighed(
        metric, fast_path, kernel, scored):
    seen = []
    engine = make_engine(metric, n=2)
    engine.fast_path = fast_path
    engine.on_decision = seen.append
    engine.choose(0)
    assert seen[0]["kernel"] == engine.last_kernel == kernel
    assert seen[0]["scored"] == engine.tasks_scored == scored


def test_span_reports_the_ordered_kernel_on_a_large_candidate_map():
    """200 tasks share one resident file: the refsum order answers and
    weighs n candidates of its single group, not the 200 the scan
    would."""
    tasks = {tid: Task(tid, frozenset({0, 1 + tid}))
             for tid in range(200)}
    engine = PolicyEngine(tasks, metric="combined", n=2,
                          rng=random.Random(0))
    engine.attach_site(0)
    for task in tasks.values():
        engine.add_task(task)
    engine.file_added(0, 0)
    engine.file_referenced(0, 0)
    seen = []
    engine.on_decision = seen.append
    engine.choose(0)
    assert seen[0]["kernel"] == "ordered" and seen[0]["scored"] == 2


def test_explain_span_reads_like_a_sentence():
    seen = []
    engine = make_engine("rest", n=2)
    engine.on_decision = seen.append
    engine.choose(0)
    sentence = explain_span(seen[0])
    assert "site 0 metric=rest n=2" in sentence
    assert "chose task" in sentence and "over task" in sentence
    assert "to fetch" in sentence


# -- the hook must not perturb the decision sequence -------------------------

def test_traced_engine_replays_bit_identically_to_untraced():
    plain = make_engine("combined", n=2, seed=7)
    traced = make_engine("combined", n=2, seed=7)
    tracer = DecisionTracer()
    traced.on_decision = tracer.record

    for engine in (plain, traced):
        engine.add_task(Task(task_id=2, files=frozenset({1, 6, 8})))

    for _round in range(3):
        a = plain.choose(0)
        b = traced.choose(0)
        assert a.task_id == b.task_id
        plain.remove_task(a)
        traced.remove_task(b)

    assert plain.decisions == traced.decisions == 3
    assert plain.tasks_scored == traced.tasks_scored
    assert tracer.recorded == 3
    # And the RNG streams stayed in lockstep.
    assert plain._rng.random() == traced._rng.random()


# -- service wiring ----------------------------------------------------------

def test_service_records_spans_and_decision_events():
    from repro.obs.events import EventLog

    tracer = DecisionTracer()
    events = EventLog()
    service = SchedulerService(metric="combined", n=2, events=events,
                               tracer=tracer)
    service.submit_job([{"files": [1, 2, 3]}, {"files": [4, 5]}])
    delivered = []
    service.request_task("w0", 0, delivered.append)
    assignment = delivered[0]
    assert tracer.recorded == 1
    assert tracer.last()["chosen"] == assignment.task.task_id
    assert tracer.last()["kernel"] == "scored"
    assert service.stats.decisions_by_kernel == {"scored": 1}
    decision_events = [record for record in events.tail()
                       if record["event"] == "decision"]
    assert len(decision_events) == 1
    assert decision_events[0]["chosen"] == assignment.task.task_id
    assert decision_events[0]["candidates"]
