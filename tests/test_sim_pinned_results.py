"""The simulator's output, pinned bit for bit.

``bench/expected.json`` holds the makespan, file transfers and evictions
of ``repro run --scheduler combined.2`` for eight seeds at two sizes
(``repro run`` sizes site storage at its ``--capacity`` default, 600
files, not at ``ExperimentConfig``'s 6000).
The 600-task block is cheap enough for every test run, so a float drift
anywhere in the network model, the kernel or the data server fails here
rather than only in the benchmark.  The comparison is ``==``: the flow
model's water-filling must produce the same floats in the same order.
"""

import json
from pathlib import Path

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment

EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
PINNED = json.loads(EXPECTED.read_text(encoding="utf-8"))["combined.2"]["600"]


@pytest.mark.parametrize("seed", sorted(PINNED, key=int))
def test_combined2_600_tasks_is_bit_identical(seed):
    result = run_experiment(ExperimentConfig(
        scheduler="combined.2", num_tasks=600, capacity_files=600,
        seed=int(seed)))
    pinned = PINNED[seed]
    assert result.makespan == pinned["makespan"]
    assert result.file_transfers == pinned["file_transfers"]
    assert result.evictions == pinned["evictions"]
    assert result.tasks_cancelled == 0
