"""Benchmark harness support.

The paper's tables and figures are not benchmarks: ``python -m repro
reproduce`` renders and checks them (``repro.exp.reproduce``).  What
is left here times the implementation.  The serve and cluster
throughput benches run once (pedantic rounds=1), print their tables
and archive them under ``benchmarks/results/``.  Both are sized from
one fixed task count.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: The task count the two throughput benches derive their runs from.
THROUGHPUT_TASKS = 600


@pytest.fixture(scope="session")
def throughput_tasks():
    return THROUGHPUT_TASKS


@pytest.fixture(scope="session")
def artifact():
    """artifact(name, text): print and archive a result table."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name, text):
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return write
