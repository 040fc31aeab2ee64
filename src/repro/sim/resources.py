"""The kernel's one contention primitive: a FIFO item store.

:class:`Store` is an unbounded (or capacity-bounded) FIFO of items with
blocking ``get``; it models mailboxes and request queues between
processes (a data server's batch-request queue).  Its wait queues are
FIFO with deterministic ordering, in keeping with the kernel's
reproducibility guarantee.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, Tuple, TypeVar

from .engine import Environment
from .events import Event

T = TypeVar("T")


class StoreGet(Event):
    """Event carrying the retrieved item once a ``get`` is satisfied."""

    __slots__ = ()


class StorePut(Event):
    """Event that succeeds once a ``put`` is accepted (capacity stores)."""

    __slots__ = ()


class Store(Generic[T]):
    """FIFO item store with blocking ``get`` and optional capacity.

    ``put`` on an unbounded store succeeds immediately; on a bounded
    store it waits until space frees up.  Items are matched to getters
    in strict arrival order.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[Tuple[StorePut, T]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> Tuple[T, ...]:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: T) -> StorePut:
        """Insert ``item``; returns an event that succeeds on acceptance."""
        ev = StorePut(self.env)
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item."""
        ev = StoreGet(self.env)
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed()
        else:
            self._getters.append(ev)
        return ev
