"""Per-site storage: a capacity-bounded LRU file cache with pinning.

One :class:`SiteStorage` models the data server's local disk at a grid
site (system-model assumption 2: one combined storage per site).  It
tracks:

* **residency** — which files are currently local (LRU-ordered),
* **pins** — files that must not be evicted because a running task or an
  in-flight batch is using them,
* **past references** — ``r_i`` in the paper: how many times each file
  was referenced by tasks served at this site (input to the *combined*
  metric).  Reference counts survive eviction, matching the paper's
  definition of "past references ... from prior tasks".

Listeners can subscribe to insert/evict transitions and to references
(one call per batch of them); the scheduler's incremental overlap
index is driven entirely by these callbacks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .files import FileId


class StorageFullError(RuntimeError):
    """Capacity exhausted and every resident file is pinned.

    Indicates a configuration where a single task's working set exceeds
    the site storage capacity — the simulation cannot make progress.
    """


ChangeListener = Callable[[FileId], None]
TouchListener = Callable[[Sequence[FileId]], None]


class SiteStorage:
    """LRU file cache of at most ``capacity_files`` files.

    Parameters
    ----------
    capacity_files:
        Maximum number of resident files (the paper sizes storage in
        files; byte-based accounting lives one level up, in the catalog).
    """

    def __init__(self, capacity_files: int):
        if capacity_files < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_files}")
        self.capacity_files = capacity_files
        self._resident: "OrderedDict[FileId, None]" = OrderedDict()
        self._pins: Dict[FileId, int] = {}
        self._past_references: Dict[FileId, int] = {}
        self._insert_listeners: List[ChangeListener] = []
        self._evict_listeners: List[ChangeListener] = []
        self._touch_listeners: List[TouchListener] = []
        #: Cumulative eviction count (analysis).
        self.evictions = 0

    # -- subscriptions ---------------------------------------------------
    def on_insert(self, listener: ChangeListener) -> None:
        """Call ``listener(fid)`` whenever a file becomes resident."""
        self._insert_listeners.append(listener)

    def on_evict(self, listener: ChangeListener) -> None:
        """Call ``listener(fid)`` whenever a file is evicted."""
        self._evict_listeners.append(listener)

    def on_touch(self, listener: TouchListener) -> None:
        """Call ``listener(fids)`` with every batch of references
        recorded, once per batch."""
        self._touch_listeners.append(listener)

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, fid: FileId) -> bool:
        return fid in self._resident

    @property
    def resident_files(self) -> Tuple[FileId, ...]:
        """Resident file ids, least-recently-used first."""
        return tuple(self._resident)

    @property
    def free_slots(self) -> int:
        return self.capacity_files - len(self._resident)

    def is_pinned(self, fid: FileId) -> bool:
        return self._pins.get(fid, 0) > 0

    def reference_count(self, fid: FileId) -> int:
        """``r_i``: past references of ``fid`` at this site."""
        return self._past_references.get(fid, 0)

    def overlap(self, files: Iterable[FileId]) -> int:
        """|F_t|: how many of ``files`` are resident here."""
        return sum(1 for fid in files if fid in self._resident)

    def missing(self, files: Iterable[FileId]) -> List[FileId]:
        """The subset of ``files`` not resident, in iteration order."""
        return [fid for fid in files if fid not in self._resident]

    # -- mutation ----------------------------------------------------------
    def insert(self, fid: FileId) -> Optional[FileId]:
        """Make ``fid`` resident, evicting the LRU unpinned file if full.

        Returns the evicted file id, or None.  Inserting an
        already-resident file refreshes its LRU position.
        """
        if fid in self._resident:
            self._resident.move_to_end(fid)
            return None
        evicted: Optional[FileId] = None
        if len(self._resident) >= self.capacity_files:
            evicted = self._evict_one()
        self._resident[fid] = None
        for listener in self._insert_listeners:
            listener(fid)
        return evicted

    def _evict_one(self) -> FileId:
        for candidate in self._resident:
            if self._pins.get(candidate, 0) == 0:
                del self._resident[candidate]
                self.evictions += 1
                for listener in self._evict_listeners:
                    listener(candidate)
                return candidate
        raise StorageFullError(
            f"all {len(self._resident)} resident files are pinned; "
            f"a task working set exceeds capacity {self.capacity_files}")

    def touch(self, *fids: FileId) -> None:
        """Record a task's references: bump each file's LRU position
        and ``r_i`` in order, then hand the listeners the whole batch."""
        resident = self._resident
        references = self._past_references
        for fid in fids:
            if fid in resident:
                resident.move_to_end(fid)
            references[fid] = references.get(fid, 0) + 1
        for listener in self._touch_listeners:
            listener(fids)

    def pin(self, fid: FileId) -> None:
        """Protect a resident file from eviction (counted, re-entrant)."""
        if fid not in self._resident:
            raise KeyError(f"cannot pin non-resident file {fid}")
        self._pins[fid] = self._pins.get(fid, 0) + 1

    def unpin(self, fid: FileId) -> None:
        """Release one pin on ``fid``."""
        count = self._pins.get(fid, 0)
        if count <= 0:
            raise RuntimeError(f"unpin() without pin() for file {fid}")
        if count == 1:
            del self._pins[fid]
        else:
            self._pins[fid] = count - 1

    def unpin_all(self, fids: Iterable[FileId]) -> None:
        for fid in fids:
            self.unpin(fid)
