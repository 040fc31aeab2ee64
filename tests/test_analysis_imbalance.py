"""Site load imbalance: the paper's 'unbalanced task assignments'."""

from collections import Counter

from repro.analysis.trace import TaskAssigned, TaskCompleted
from repro.exp import ExperimentConfig, run_experiment


def tasks_per_site(records):
    """Tasks per site, by each task's first record (replicas ignored)."""
    first_site = {}
    for record in records:
        first_site.setdefault(record.task_id, record.site)
    return Counter(first_site.values())


def test_push_assignment_more_imbalanced_than_pull_execution():
    """Section 3.1: storage affinity's initial distribution piles tasks
    onto data-rich sites; worker-centric execution is demand-driven.
    Both runs count each of the same 120 tasks once, so the busiest
    site's share is the peak-to-mean ratio up to a constant."""
    base = dict(num_tasks=120, num_sites=4, capacity_files=600,
                keep_trace=True)
    pull = run_experiment(ExperimentConfig(scheduler="rest", **base))
    push = run_experiment(ExperimentConfig(scheduler="storage-affinity",
                                           **base))
    pull_counts = tasks_per_site(pull.trace.of_type(TaskCompleted))
    push_initial = tasks_per_site(push.trace.of_type(TaskAssigned))
    assert sum(pull_counts.values()) == sum(push_initial.values()) == 120
    assert max(push_initial.values()) >= max(pull_counts.values()), \
        "push initial assignment should be at least as imbalanced"
