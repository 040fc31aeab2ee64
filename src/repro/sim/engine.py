"""The simulation environment: clock, event queue, and run loop.

:class:`Environment` is the kernel facade.  Model code creates one
environment per simulation, spawns processes with :meth:`Environment.process`
and advances time with :meth:`Environment.run`.

Determinism
-----------
Events are ordered by ``(time, priority, sequence)`` where ``sequence`` is a
monotonically increasing insertion counter, so two runs with the same seed
and the same model produce byte-identical event orders.  This property is
load-bearing: the reproduction's experiment harness averages over seeds and
its tests assert exact trace equality.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from .errors import EmptyScheduleError, SchedulingInPastError
from .events import Event, Timeout, NORMAL
from .process import Process, EventGenerator

#: Queue entry layout: (time, priority, sequence, event)
QueueEntry = Tuple[float, int, int, Event]


class Environment:
    """Execution environment for a single discrete-event simulation.

    Parameters
    ----------
    initial_time:
        Simulation clock value at creation (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[QueueEntry] = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    # -- inspection ------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    @property
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: EventGenerator,
                name: Optional[str] = None) -> Process:
        """Spawn ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Insert a triggered event into the queue ``delay`` from now."""
        if delay < 0:
            raise SchedulingInPastError(f"delay {delay} < 0")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority,
                                     self._seq, event))

    # -- execution -------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise EmptyScheduleError("no events scheduled")
        self._now, _priority, _seq, event = heapq.heappop(self._queue)
        callbacks = event.callbacks
        event.callbacks = None
        event._mark_processed()
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif not event.ok:
            # A failed event nobody was waiting on: surface it rather
            # than letting a dead process vanish silently.
            raise event.value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the next event lies beyond it.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        limit = float(until)
        if limit < self._now:
            raise SchedulingInPastError(
                f"until={limit} is before now={self._now}")
        while self._queue and self._queue[0][0] <= limit:
            self.step()
        self._now = limit

    def run_until_event(self, event: Event) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, and
        :class:`EmptyScheduleError` if the simulation drains first.
        """
        while not event.processed:
            if not self._queue:
                raise EmptyScheduleError(
                    f"simulation drained before {event!r} was processed")
            self.step()
        if not event.ok:
            raise event.value
        return event.value
