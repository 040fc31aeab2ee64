"""Discrete-event simulation kernel (SimGrid substitute).

A compact, deterministic, generator-process DES engine:

* :class:`Environment` — clock, event queue, run loop.
* :class:`Event`, :class:`Timeout` — waitable occurrences.
* :class:`Process` — a generator stepped through the events it yields.
* :class:`Store` — a FIFO queue, the one contention primitive.
* :class:`RngRegistry` — named deterministic random streams.
"""

from .engine import Environment
from .errors import (
    EmptyScheduleError,
    EventAlreadyTriggeredError,
    Interrupt,
    SchedulingInPastError,
    SimulationError,
)
from .events import Event, Timeout
from .process import Process
from .resources import Store
from .rng import RngRegistry, derive_seed

__all__ = [
    "EmptyScheduleError",
    "Environment",
    "Event",
    "EventAlreadyTriggeredError",
    "Interrupt",
    "Process",
    "RngRegistry",
    "SchedulingInPastError",
    "SimulationError",
    "Store",
    "Timeout",
    "derive_seed",
]
