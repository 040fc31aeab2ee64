"""Microbenchmark: scheduling-decision latency per policy.

Two layers:

* **pytest-benchmark** (the original suite) — the cost of one
  ``next_task`` decision on a mid-run *simulated* grid per metric,
  plus storage affinity's one-off distribution — the practical side of
  the paper's O(T*I) vs O(T*I*S) comparison (Section 4.4).
* **standalone CLI** (no pytest) — the decision-kernel ablation the
  CI regression gate runs: ``PolicyEngine.choose`` latency at 10k
  pending tasks, sublinear fast path vs the decision-identical
  reference scan, for each metric::

      python benchmarks/bench_scheduler_decision.py --quick --check
      python benchmarks/bench_scheduler_decision.py --write-baseline

  ``--check`` compares against the checked-in machine-readable
  baseline (``results/decision_latency_baseline.json``) and fails
  when the fast path regressed more than 30%, stopped beating the
  reference path, or dropped under the tentpole speedup floors
  (>= 5x for ``rest``/``overlap``, >= 50x for ``combined``, >= 5x for
  ``combined-churn`` — the same decision with one reference to a
  widely shared resident file before each call).  That file's ~500
  pending referers are all anchored on it in the refsum order, so the
  reference moves one count and re-keys none of them: ``--check``
  also fails when ``combined-churn`` costs more than
  ``CHURN_CEILING`` (3x) steady ``combined``.

  The same run also times the *write* side of the overlap index: the
  ``index-write`` rows are us per applied file delta — the one
  ``PolicyEngine.apply_delta`` call ``SchedulerService.file_delta``
  makes — for the Coadd shape (~78 ids, each file held by ~8 pending
  tasks, LRU evictions on) under ``combined`` and ``rest``, and for
  the hot-file shape (one file of 300 per task, so a reference reaches
  ~80 pending referers) under ``rest``, which reads no refsum and must
  not pay for one, and under ``combined`` with the site's refsum order
  built before timing, where the referers' shared +1 is one anchor
  count.  Gated by the same 30% tolerance.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.core.policy_engine import PolicyEngine
from repro.grid.job import Task
from repro.serve.client import SiteCacheMirror

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "decision_latency_baseline.json"

#: The decision-kernel workload: enough pending tasks that the
#: reference scan's linearity dominates, with most of them overlapping
#: the site (the worst case for the scan, the common case mid-run).
KERNEL_CONFIG = {
    "pending_tasks": 10_000,
    "files_per_task": 5,
    "file_pool": 4_000,
    "resident_files": 1_200,
    "references": 3_000,
    "n": 2,
    "seed": 0,
    # Churn rows only: every 20th task also holds one shared file,
    # resident at the site and referenced before each timed decision.
    "churn_hot_every": 20,
}
KERNEL_METRICS = ("overlap", "rest", "combined")
#: Row name -> (metric, churn).  A static queue flatters a lazily
#: maintained order (nothing to re-key between calls); the churn row
#: is the honest one for ``combined``.
KERNEL_ROWS = {
    "overlap": ("overlap", False),
    "rest": ("rest", False),
    "combined": ("combined", False),
    "combined-churn": ("combined", True),
}
#: The index-write workload: the paper's Coadd shape.  Task ``i``
#: holds ``files_per_task`` consecutive files starting at ``i *
#: file_stride``, so a file is held by ``files_per_task / file_stride``
#: (~8) pending tasks; one worker with an LRU cache of
#: ``cache_files`` pulls ``deltas`` tasks and reports each as one
#: delta: evictions, insertions, then all ~78 inputs referenced.
INDEX_WRITE_CONFIG = {
    "pending_tasks": 2_000,
    "files_per_task": 78,
    "file_stride": 10,
    "cache_files": 600,
    "deltas": 300,
}
#: The hot-file shape (the live ``wire_rest_k8`` traffic): every task
#: holds one file of ``file_pool``, so each file has ``pending_tasks /
#: file_pool`` pending referers, and the cache holds the whole pool —
#: after warm-up a delta is one reference to a resident file.
HOT_FILE_CONFIG = {
    "pending_tasks": 24_000,
    "file_pool": 300,
    "cache_files": 600,
    "deltas": 3_000,
}
REGRESSION_TOLERANCE = 0.30
SPEEDUP_FLOORS = {"overlap": 5.0, "rest": 5.0, "combined": 50.0,
                  "combined-churn": 5.0}
#: ``combined-churn`` may cost at most this many steady ``combined``
#: decisions: a reference to a hot file must not fan out to its
#: referers.
CHURN_CEILING = 3.0


# -- decision-kernel ablation (standalone) -----------------------------------

def build_kernel_engine(metric, fast_path, config=None, churn=False):
    """A warmed single-site engine over a synthetic pending set.

    With ``churn`` every ``churn_hot_every``-th task also holds the
    shared file ``file_pool`` (resident); see :func:`measure_decision_us`.
    """
    cfg = dict(KERNEL_CONFIG, **(config or {}))
    rng = random.Random(cfg["seed"])
    pool = range(cfg["file_pool"])
    hot = cfg["file_pool"]
    tasks = {}
    for task_id in range(cfg["pending_tasks"]):
        files = set(rng.sample(pool, cfg["files_per_task"]))
        if churn and task_id % cfg["churn_hot_every"] == 0:
            files.add(hot)
        tasks[task_id] = Task(task_id, frozenset(files))
    engine = PolicyEngine(tasks, metric=metric, n=cfg["n"],
                          rng=random.Random(1), fast_path=fast_path)
    engine.attach_site(0)
    for task in tasks.values():
        engine.add_task(task)
    for fid in rng.sample(pool, cfg["resident_files"]):
        engine.file_added(0, fid)
    for fid in rng.choices(pool, k=cfg["references"]):
        engine.file_referenced(0, fid)
    if churn:
        engine.file_added(0, hot)
    return engine


def measure_decision_us(engine, repeats, target_seconds,
                        max_calls=2000, churn_file=None):
    """Best-of-``repeats`` mean per-call latency of ``choose``, in us.

    ``choose`` does not retire the winner, so the measured state is
    identical across calls; only the RNG advances (n=2 consumes one
    draw per decision), which does not change the work done.

    With ``churn_file`` each timed call is one ``file_referenced`` on
    that file followed by the decision: the reference changes ``ref_t``
    of every task holding the file, so the figure includes the index
    write and whatever the kernel does to catch up with it.
    """
    clock = time.perf_counter

    def call():
        if churn_file is not None:
            engine.file_referenced(0, churn_file)
        return engine.choose(0)

    start = clock()
    call()
    once = clock() - start
    calls = max(2, min(max_calls, int(target_seconds / max(once, 1e-9))))
    best = float("inf")
    for _ in range(repeats):
        start = clock()
        for _ in range(calls):
            call()
        best = min(best, (clock() - start) / calls)
    return best * 1e6


def run_kernel_sweep(quick):
    """{row: {fast, reference, speedup}} per-decision latencies."""
    repeats = 2 if quick else 4
    target = 0.12 if quick else 0.5
    results = {}
    for row, (metric, churn) in KERNEL_ROWS.items():
        fast = build_kernel_engine(metric, fast_path=True, churn=churn)
        reference = build_kernel_engine(metric, fast_path=False,
                                        churn=churn)
        churn_file = KERNEL_CONFIG["file_pool"] if churn else None
        # Sanity: the two kernels are decision-identical on this state.
        assert fast.choose(0).task_id == reference.choose(0).task_id
        fast_us = measure_decision_us(fast, repeats, target,
                                      churn_file=churn_file)
        reference_us = measure_decision_us(reference, repeats, target,
                                           churn_file=churn_file)
        results[row] = {
            "fast_us": round(fast_us, 2),
            "reference_us": round(reference_us, 2),
            "speedup": round(reference_us / fast_us, 2),
        }
    return results


# -- index-write cost (standalone) -------------------------------------------

def coadd_shaped_tasks(cfg):
    return {
        task_id: Task(task_id, frozenset(
            range(task_id * cfg["file_stride"],
                  task_id * cfg["file_stride"] + cfg["files_per_task"])))
        for task_id in range(cfg["pending_tasks"])}


def hot_file_tasks(cfg):
    rng = random.Random(0)
    return {task_id: Task(task_id, frozenset(
                {rng.randrange(cfg["file_pool"])}))
            for task_id in range(cfg["pending_tasks"])}


#: Row name -> (metric, config, pending-set builder, warm).  A warm row
#: loads the whole file pool into the cache and decides once before
#: timing, so the site's candidate structures (for ``combined`` on the
#: hot-file shape, the refsum order) exist from the first timed delta.
INDEX_WRITE_ROWS = {
    "combined": ("combined", INDEX_WRITE_CONFIG, coadd_shaped_tasks,
                 False),
    "rest": ("rest", INDEX_WRITE_CONFIG, coadd_shaped_tasks, False),
    "rest-hot-file": ("rest", HOT_FILE_CONFIG, hot_file_tasks, False),
    "combined-hot-file": ("combined", HOT_FILE_CONFIG, hot_file_tasks,
                          True),
}


def measure_index_write_us(metric, cfg, tasks, repeats, warm=False):
    """Best-of-``repeats`` mean us per applied delta.

    Each pass builds a fresh engine (``warm``: with the file pool
    resident and one decision made), then pulls ``deltas`` tasks: the
    engine chooses and retires one (untimed — it is what makes the
    engine build whatever structures its metric reads, as a serving
    engine would have), the worker's :class:`SiteCacheMirror` turns
    the task's inputs into a delta, and only applying that delta — the
    one ``apply_delta`` call ``SchedulerService.file_delta`` makes — is
    timed.
    """
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        engine = PolicyEngine(tasks, metric=metric, n=1,
                              rng=random.Random(1))
        engine.attach_site(0)
        for task in tasks.values():
            engine.add_task(task)
        cache = SiteCacheMirror(cfg["cache_files"])
        if warm:
            pool = sorted({fid for task in tasks.values()
                           for fid in task.files})
            delta = cache.admit(pool)
            engine.apply_delta(0, delta["added"], delta["removed"], [])
            engine.choose(0)
        spent = 0.0
        for _ in range(cfg["deltas"]):
            task = engine.choose(0)
            engine.remove_task(task)
            referenced = sorted(task.files)
            delta = cache.admit(referenced)
            start = clock()
            engine.apply_delta(0, delta["added"], delta["removed"],
                               referenced)
            spent += clock() - start
        best = min(best, spent / cfg["deltas"])
    return best * 1e6


def run_index_write_sweep(quick):
    """{row: us per delta}."""
    repeats = 2 if quick else 5
    return {row: round(measure_index_write_us(metric, cfg, build(cfg),
                                              repeats, warm), 2)
            for row, (metric, cfg, build, warm)
            in INDEX_WRITE_ROWS.items()}


def format_index_write_table(results):
    cfg = INDEX_WRITE_CONFIG
    hot = HOT_FILE_CONFIG
    lines = [
        f"index write: one Coadd-shaped delta "
        f"({cfg['files_per_task']} files/task, "
        f"~{cfg['files_per_task'] / cfg['file_stride']:.0f} pending "
        f"referers per file, LRU of {cfg['cache_files']}); hot-file: "
        f"1 file of {hot['file_pool']} per task, "
        f"{hot['pending_tasks']} pending",
        f"{'row':>14} {'us/delta':>10}",
    ]
    for metric, delta_us in results.items():
        lines.append(f"{metric:>14} {delta_us:>10.1f}")
    return "\n".join(lines)


def format_kernel_table(results):
    lines = [
        f"decision kernel at {KERNEL_CONFIG['pending_tasks']} pending "
        f"tasks (n={KERNEL_CONFIG['n']}, single site, "
        f"{KERNEL_CONFIG['files_per_task']} files/task)",
        f"{'metric':>14} {'fast us':>10} {'reference us':>13} "
        f"{'speedup':>8}",
    ]
    for metric, row in results.items():
        lines.append(
            f"{metric:>14} {row['fast_us']:>10.1f} "
            f"{row['reference_us']:>13.1f} {row['speedup']:>7.1f}x")
    return "\n".join(lines)


def write_baseline(mode, results, index_write):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "schema": 1,
        "mode": mode,
        "config": {key: value for key, value in KERNEL_CONFIG.items()},
        "decision_us": results,
        "index_write_config": dict(INDEX_WRITE_CONFIG),
        "hot_file_config": dict(HOT_FILE_CONFIG),
        "index_write_us": index_write,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_against_baseline(results, index_write):
    """Exit-code style check: [] if healthy, else failure messages."""
    failures = []
    if not BASELINE_PATH.exists():
        return [f"no baseline at {BASELINE_PATH}; run --write-baseline"]
    baseline = json.loads(BASELINE_PATH.read_text())
    ceiling = 1.0 + REGRESSION_TOLERANCE
    for metric, row in results.items():
        fast_us = row["fast_us"]
        reference_us = row["reference_us"]
        if fast_us >= reference_us:
            failures.append(
                f"{metric}: fast path ({fast_us:.1f} us) does not beat "
                f"the reference scan ({reference_us:.1f} us)")
        floor = SPEEDUP_FLOORS.get(metric)
        if floor is not None and row["speedup"] < floor:
            failures.append(
                f"{metric}: speedup {row['speedup']:.1f}x is below the "
                f"{floor:.0f}x tentpole floor")
        if (metric == "combined-churn"
                and fast_us > CHURN_CEILING * results["combined"]["fast_us"]):
            failures.append(
                f"{metric}: fast path {fast_us:.1f} us is more than "
                f"{CHURN_CEILING:.0f}x steady combined "
                f"({results['combined']['fast_us']:.1f} us)")
        recorded = baseline["decision_us"].get(metric)
        if recorded is None:
            continue
        if fast_us > recorded["fast_us"] * ceiling:
            failures.append(
                f"{metric}: fast path {fast_us:.1f} us is more than "
                f"{REGRESSION_TOLERANCE:.0%} above the baseline "
                f"{recorded['fast_us']:.1f} us")
    for metric, delta_us in index_write.items():
        recorded = baseline.get("index_write_us", {}).get(metric)
        if recorded is not None and delta_us > recorded * ceiling:
            failures.append(
                f"index-write {metric}: {delta_us:.1f} us per delta is "
                f"more than {REGRESSION_TOLERANCE:.0%} above the "
                f"baseline {recorded:.1f} us")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="decision-kernel latency bench (standalone mode)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized measurement (fewer repeats; "
                             "the pending set stays at 10k tasks)")
    parser.add_argument("--check", action="store_true",
                        help="fail on regression vs the baseline or a "
                             "broken speedup floor")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE_PATH.name} from this "
                             f"run")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    results = run_kernel_sweep(quick=args.quick)
    print(format_kernel_table(results))
    index_write = run_index_write_sweep(quick=args.quick)
    print(format_index_write_table(index_write))

    status = 0
    if args.check:
        failures = check_against_baseline(results, index_write)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("decision-kernel regression check passed")
    if args.write_baseline:
        write_baseline(mode, results, index_write)
        print(f"baseline written to {BASELINE_PATH}")
    return status


# -- pytest-benchmark layer (simulated grid) ---------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover - standalone CLI use
    pytest = None

if pytest is not None:
    from repro.core.registry import create_scheduler
    from repro.exp import ExperimentConfig
    from repro.exp.runner import build_grid, build_job

    TASKS = 800

    @pytest.fixture(scope="module")
    def job():
        return build_job(ExperimentConfig(num_tasks=TASKS, num_sites=4))

    def warmed_grid(job, scheduler):
        config = ExperimentConfig(num_tasks=TASKS, num_sites=4,
                                  capacity_files=1500)
        grid = build_grid(config, job)
        grid.attach_scheduler(scheduler)
        # advance the simulation until ~1/4 of the tasks completed, so
        # the decision runs against a realistic warm state
        target = TASKS // 4
        while (scheduler.tasks_remaining > TASKS - target
               and len(grid.env)):
            grid.env.step()
        return grid

    @pytest.mark.parametrize("metric", ["overlap", "rest", "combined"])
    def test_decision_latency(benchmark, job, metric):
        scheduler = create_scheduler(metric, job, random.Random(0))
        grid = warmed_grid(job, scheduler)
        worker = grid.workers[0]

        def one_decision():
            task = scheduler._choose(worker)
            # undo nothing: _choose does not mutate pending
            return task

        task = benchmark(one_decision)
        assert task is not None

    @pytest.mark.parametrize("metric", ["rest", "combined"])
    def test_naive_decision_latency(benchmark, job, metric):
        """The verbatim Figure-2 O(T*I) rescan, for the headline."""
        scheduler = create_scheduler(f"naive-wc:{metric}:1", job,
                                     random.Random(0))
        grid = warmed_grid(job, scheduler)
        worker = grid.workers[0]
        task = benchmark(lambda: scheduler._choose(worker))
        assert task is not None

    @pytest.mark.parametrize("metric", KERNEL_METRICS)
    @pytest.mark.parametrize("kernel", ["fast", "reference"])
    def test_kernel_decision_latency(benchmark, metric, kernel):
        """Engine-level fast vs reference at 10k pending tasks (the
        CLI gate's workload, under pytest-benchmark statistics)."""
        engine = build_kernel_engine(metric, fast_path=kernel == "fast")
        task = benchmark(lambda: engine.choose(0))
        assert task is not None

    def test_storage_affinity_initial_distribution(benchmark, job):
        def distribute():
            scheduler = create_scheduler("storage-affinity", job,
                                         random.Random(0))
            config = ExperimentConfig(num_tasks=TASKS, num_sites=4,
                                      capacity_files=1500)
            grid = build_grid(config, job)
            grid.attach_scheduler(scheduler)  # triggers distribution
            return sum(scheduler.initial_site_load)

        assert benchmark(distribute) == TASKS


if __name__ == "__main__":
    sys.exit(main())
