"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` moves through three states:

``PENDING``
    Created but not yet triggered; it sits outside the event queue.
``TRIGGERED``
    ``succeed``/``fail`` was called (or a delay elapsed); the event is in
    the queue and will be *processed* when the clock reaches its time.
``PROCESSED``
    Its callbacks have run.  Waiting on a processed event resumes the
    waiter immediately (at the current simulation time).
"""

from __future__ import annotations

import typing
from typing import Any, Callable, List, Optional

from .errors import EventAlreadyTriggeredError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Environment

#: State constants.  Kept as plain ints (not an Enum) because event state
#: checks sit on the kernel hot path.
PENDING = 0
TRIGGERED = 1
PROCESSED = 2

#: Queue priorities.  URGENT is used for interrupts so they run before
#: ordinary events at the same timestamp.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment that will process this event.
    """

    __slots__ = ("env", "callbacks", "_value", "_state", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._state = PENDING
        self._ok = True

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (the exception, for failed events)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` postpones processing into the simulated future; the
        default processes the event at the current time (after already
        queued events with the same timestamp).
        """
        if self._state != PENDING:
            raise EventAlreadyTriggeredError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.env.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._state != PENDING:
            raise EventAlreadyTriggeredError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.env.schedule(self, delay=delay)
        return self

    # -- kernel hooks --------------------------------------------------
    def _mark_processed(self) -> None:
        self._state = PROCESSED

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback fires via a
        zero-delay bridge event, preserving run-to-completion semantics.
        """
        if self._state == PROCESSED:
            bridge = Event(self.env)
            bridge.callbacks.append(lambda _e: callback(self))
            bridge.succeed()
        else:
            assert self.callbacks is not None
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        env.schedule(self, delay=delay)
