"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Yielding an event suspends the process until that event is
processed; the event's value becomes the value of the ``yield`` expression.
Failed events re-raise their exception inside the generator, so ordinary
``try``/``except`` handles distributed failures naturally::

    def worker(env, queue):
        while True:
            task = yield queue.get()
            yield env.timeout(task.duration)

A :class:`Process` is itself an event: it triggers when the generator
returns (value = the ``return`` value) or raises (failure).  That makes
``yield env.process(child())`` the natural fork/join idiom.
"""

from __future__ import annotations

import typing
from typing import Any, Generator, Optional

from .errors import Interrupt
from .events import Event, URGENT

if typing.TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

EventGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator and steps it through the events it yields."""

    __slots__ = ("generator", "name", "_target", "_is_alive")

    def __init__(self, env: "Environment", generator: EventGenerator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"expected a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        #: Human-readable name used in traces and reprs.
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None when not
        #: suspended, e.g. before its first step or after termination).
        self._target: Optional[Event] = None
        self._is_alive = True
        # Kick off the generator via an immediately-succeeding event so
        # that process creation is itself an event in causal order.
        start = Event(env)
        start.callbacks.append(self._resume)
        start.succeed()

    # -- public API ----------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True until the generator has returned or raised."""
        return self._is_alive

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process stops waiting on its current target and must decide
        itself how to proceed.  Interrupting a dead process is an error;
        interrupting a process that is about to be resumed is ignored in
        favor of the normal resumption (matching SimPy semantics closely
        enough for this codebase, which always guards with ``is_alive``).
        """
        if not self._is_alive:
            raise RuntimeError(f"cannot interrupt dead process {self.name}")
        interrupt_ev = Event(self.env)
        interrupt_ev.callbacks.append(self._resume_interrupt)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._state = 1  # TRIGGERED
        self.env.schedule(interrupt_ev, priority=URGENT)

    # -- stepping --------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self._is_alive:
            return  # terminated before the interrupt was delivered
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._step(event)

    def _resume(self, event: Event) -> None:
        self._step(event)

    def _step(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self._target = None
        self.env._active_process = self
        try:
            if event.ok:
                next_event = self.generator.send(event.value)
            else:
                next_event = self.generator.throw(event.value)
            while not isinstance(next_event, Event):
                # The generator may catch this and yield a real event,
                # return, or raise: each is handled like a send result.
                next_event = self.generator.throw(
                    TypeError(f"process {self.name!r} yielded non-event "
                              f"{next_event!r}"))
        except StopIteration as stop:
            self._is_alive = False
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._is_alive = False
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        finally:
            self.env._active_process = None

        self._target = next_event
        next_event.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self._is_alive else "dead"
        return f"<Process {self.name} ({status})>"
