"""Option census: every knob on the serve tier is counted.

Each independently settable value doubles the configurations tests and
benchmarks must cover, so adding one is a decision, not a side effect.
The numbers below are upper bounds on the constructor parameters of
the serve/cluster building blocks and on the flags of every ``repro``
subcommand (read from ``build_parser()``, ``-v``/``-q`` included,
``-h`` not).  A change that adds an option has to raise a number here,
in the same diff, where a reviewer sees it — and should say which
option it retires.  A change that removes one lowers it.  A value no
entry point sets to anything but its default is a module constant,
not a parameter; a test that needs another value patches the
constant.  The scheduler's state containers are counted the same way.

The same bookkeeping covers the wire stack (bottom of the file): how
many message bodies are packed by hand and how many message classes
carry a rule of their own beside the one field table.
"""

import argparse
import collections
import dataclasses
import inspect
import re

import pytest

from repro.cli import build_parser
from repro.cluster.link import PeerLink
from repro.cluster.router import ClusterRouter
from repro.cluster.shard import ShardDurability, open_shard
from repro.cluster.steal import StealManager
from repro.cluster.supervisor import ClusterSupervisor
from repro.obs.events import EventLog
from repro.serve import messages
from repro.serve.client import WorkerClient
from repro.serve.loadgen import run_load
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService
from repro.serve.stats import ServeStats

PARAMETERS = [
    (SchedulerService, 15),
    (SchedulerServer, 5),
    (ClusterRouter, 4),
    (ClusterSupervisor, 7),
    (StealManager, 6),
    (PeerLink, 3),
    (WorkerClient, 12),
    (run_load, 13),
    (open_shard, 8),  # its **service_options are SchedulerService's
    (ShardDurability, 7),
    (EventLog, 5),  # its owner commits: no flush-per-record knob
    (ServeStats, 1),  # ``clock``, which tests substitute
]

FLAGS = {
    "run": 10, "compare": 11, "sweep": 15, "workload": 10,
    "reproduce": 3, "serve": 24, "cluster": 14,
    "load": 19, "scenario list": 0, "scenario run": 5,
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


def test_scheduler_state_containers_do_not_grow():
    """Every container a fresh ``SchedulerService`` holds is one more
    thing each transition may have to keep consistent by hand.  14
    when a task's state was spread over five task-keyed maps and each
    job's id sets; 9 with one record per task and a stolen job's
    origin on the job."""
    service = SchedulerService()
    containers = sorted(
        name for name, value in vars(service).items()
        if isinstance(value, (dict, set, list, collections.deque)))
    assert len(containers) <= 9, containers


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


# -- the wire stack: one description per message ------------------------------
#
# Upper bounds that only go down.  A message is declared once in
# serve/messages.py; what is written out by hand *per message* beside
# that declaration is counted here.

def declared_messages():
    return (list(messages.ClientMessage.REGISTRY.values())
            + list(messages.ServerMessage.REGISTRY.values()))


def test_hand_written_packers_do_not_grow():
    """Hand-written body coders in serve/codec.py.  Message level,
    ``_pack_<message>`` / ``_unpack_<message>``: 25 before the bodies
    were derived, now the five per-task pairs.  With the value-level
    primitives (msgpack object / string, the id vector — named
    ``_put_*`` / ``_take_*`` after the field-coder signature they
    share): 32 before, 15 now."""
    from repro.serve import codec
    source = inspect.getsource(codec)
    names = re.findall(r"^def (_(?:un)?pack_\w+)\(", source, re.MULTILINE)
    assert len(names) <= 10, names
    primitives = re.findall(r"^def (_(?:put|take)_\w+)\(", source,
                            re.MULTILINE)
    assert len(names) + len(primitives) <= 15, names + primitives


def test_per_class_validation_is_cross_field_only():
    """No message class spells out its own field checks (23 did): a
    class may add ``_cross_check`` for a rule relating two fields."""
    hooks = [cls.__name__ for cls in declared_messages()
             if "_cross_check" in vars(cls)]
    assert len(hooks) <= 3, hooks
    for cls in declared_messages():
        assert not {"validate", "from_dict", "to_dict"} & set(vars(cls))


def test_every_message_has_one_table_entry():
    for registry in (messages.ClientMessage.REGISTRY,
                     messages.ServerMessage.REGISTRY):
        classes = list(registry.values())
        assert len({cls.TYPE_ID for cls in classes}) == len(classes)
        for cls in classes:
            assert [field.name for field in cls.FIELDS] \
                == [spec.name for spec in dataclasses.fields(cls)]
            assert all(isinstance(field.kind, messages.WireType)
                       for field in cls.FIELDS)
    # STATS and JOB_STATUS go both ways under one frame type id each.
    for name in (set(messages.ClientMessage.REGISTRY)
                 & set(messages.ServerMessage.REGISTRY)):
        assert messages.ClientMessage.REGISTRY[name].TYPE_ID \
            == messages.ServerMessage.REGISTRY[name].TYPE_ID
