"""Benchmark harness support.

Every figure/table benchmark runs its experiment once (pedantic
rounds=1 — a simulated campaign is not a microbenchmark), prints the
paper-shaped table, and archives it under ``benchmarks/results/`` so
EXPERIMENTS.md can cite the exact output.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``small``, ``bench``
(default) or ``paper``.  ``paper`` reruns the full 6,000-task protocol:
one run takes ~7 s and the Figure 4/5 sweep ~12 min on a 2-core
x86-64 VM; Figures 4-8 plus Table 3 take ~1 h 46 min serially
(EXPERIMENTS.md has the per-figure times).
"""

import os
from pathlib import Path

import pytest

from repro.exp.figures import SCALES

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


@pytest.fixture(scope="session")
def fig4_fig5_sweep(scale):
    """Shared capacity sweep feeding both Figure 4 and Figure 5."""
    from repro.exp.figures import fig4_fig5
    return fig4_fig5(scale)
