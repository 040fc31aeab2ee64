"""Benchmark harness support.

The paper's tables and figures are not benchmarks: ``python -m repro
reproduce`` renders and checks them (``repro.exp.reproduce``).  What
is left here times the implementation.  The serve and cluster
throughput benches run once (pedantic rounds=1), print their tables
and archive them under ``benchmarks/results/``.

``REPRO_BENCH_SCALE`` (``small``, ``bench`` — the default — or
``paper``) sizes those two benches only:
``bench_serve_throughput.py`` and ``bench_cluster_throughput.py``.
"""

import os
from pathlib import Path

import pytest

from repro.exp.config import SCALES

RESULTS_DIR = Path(__file__).parent / "results"


def current_scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "bench")
    try:
        return SCALES[name]
    except KeyError:
        raise RuntimeError(
            f"REPRO_BENCH_SCALE={name!r}; choose from {sorted(SCALES)}")


@pytest.fixture(scope="session")
def scale():
    return current_scale()


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
