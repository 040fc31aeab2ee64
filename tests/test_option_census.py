"""Option census: every knob on the serve tier is counted.

Each independently settable value doubles the configurations tests and
benchmarks must cover, so adding one is a decision, not a side effect.
The numbers below are upper bounds on the constructor parameters of
the serve/cluster building blocks and on the flags of every ``repro``
subcommand (read from ``build_parser()``, ``-v``/``-q`` included,
``-h`` not).  A change that adds an option has to raise a number here,
in the same diff, where a reviewer sees it — and should say which
option it retires.  A change that removes one lowers it.
"""

import argparse
import inspect

import pytest

from repro.cli import build_parser
from repro.cluster.link import PeerLink
from repro.cluster.router import ClusterRouter
from repro.cluster.shard import open_shard
from repro.cluster.steal import StealManager
from repro.cluster.supervisor import ClusterSupervisor
from repro.serve.client import WorkerClient
from repro.serve.loadgen import run_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

PARAMETERS = [
    (SchedulerService, 15),
    (SchedulerServer, 6),
    (ClusterRouter, 7),
    (ClusterSupervisor, 11),
    (StealManager, 7),
    (PeerLink, 4),
    (WorkerClient, 15),
    (run_load, 16),
    (open_shard, 9),  # its **service_options are SchedulerService's
]

FLAGS = {
    "run": 10, "compare": 11, "sweep": 15, "workload": 10,
    "figures": 2, "reproduce": 3, "serve": 24, "cluster": 14,
    "load": 21, "scenario list": 0, "scenario run": 5,
    "scenario compare": 0, "top": 4,
}


@pytest.mark.parametrize("target, bound", PARAMETERS,
                         ids=lambda value: getattr(value, "__name__",
                                                   None))
def test_parameter_counts_do_not_grow(target, bound):
    names = [name for name in inspect.signature(target).parameters
             if name != "self"]
    assert len(names) <= bound, (
        f"{target.__name__} takes {len(names)} parameters, the census "
        f"says at most {bound}: {names}")


def subcommands(parser, prefix=""):
    """Leaf parsers of ``repro`` by their command path."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from subcommands(child, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_flag_counts_do_not_grow():
    counted = {}
    for name, parser in subcommands(build_parser()):
        counted[name] = [
            action.option_strings[-1] for action in parser._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)]
    assert set(counted) == set(FLAGS)  # a new subcommand is counted too
    over = {name: flags for name, flags in counted.items()
            if len(flags) > FLAGS[name]}
    assert not over, f"more flags than the census allows: {over}"
