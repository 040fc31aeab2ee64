"""``pytest bench/tests [--smoke]``: the benchmark's own checks.

``--smoke`` runs the live workloads at a tenth of their nominal size
(the whole directory then finishes in well under 30 s); without it the
discrimination tests use the full ``run_seconds`` sizes.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def pytest_addoption(parser):
    parser.addoption("--smoke", action="store_true",
                     help="run the workloads at smoke scale")


@pytest.fixture(scope="session")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def seconds(request, manifest):
    return 1.0 if request.config.getoption("--smoke") \
        else float(manifest["run_seconds"])
