"""Integer-keyed candidate buckets for sublinear ChooseTask(n).

The ``overlap`` and ``rest`` metrics weigh a task by a *monotone*
function of one small integer — the overlap cardinality ``|F_t|`` or
the missing-file count ``|t| - |F_t|`` — so the top-n candidates at a
site are exactly the first n task ids found by walking the buckets of
that integer in weight order (best key first, ascending task id within
a key, since equal keys mean bit-equal weights and the engine breaks
ties by lowest id).

:class:`CandidateBuckets` maintains key -> ordered-task-id buckets
under the overlap index's O(1)-per-event update discipline, from the
moment a decision first asks for them (the index then builds them from
its candidate map in one pass; until then there is nothing to keep):

* ``add`` / ``move`` / ``remove`` cost O(log b) in the bucket size
  (one heap push plus set/dict updates) — effectively constant;
* ``top(n)`` walks the non-empty keys in sorted order and pops the n
  smallest *live* ids using per-bucket lazy-deletion heaps, touching
  O(n + stale entries + buckets visited) entries instead of every
  candidate.  Stale heap entries (ids that moved or left) are dropped
  permanently when encountered, so each costs O(log b) once, amortized
  against the mutation that created it.

The number of distinct keys is bounded by the largest per-task file
count (single digits for the paper's workloads), never by the pending
queue depth — which is what makes the decision kernel sublinear in T.

:class:`RefsumOrder` is the sibling for ``combined`` /
``combined-literal``: inside one missing-count group their weight is
non-decreasing in the reference sum ``ref_t`` whatever the normalizers
are, so a group ordered ``(ref_t desc, task_id asc)`` yields its top-n
from the front.  Unlike the integer buckets it is maintained *lazily*
(index events only mark ids, a decision re-keys the marked ones) —
one reference to a hot file changes ``ref_t`` of every pending referer.
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple


class CandidateBuckets:
    """Mutable key -> ordered set of task ids, with ranked retrieval."""

    __slots__ = ("_key_of", "_live", "_heaps", "key_by_id")

    def __init__(self, key_of: Optional[Mapping[int, int]] = None) -> None:
        """Empty, or tracking every ``task id -> key`` of ``key_of``
        (copied; one heapify per bucket instead of a push per id)."""
        self._key_of: Dict[int, int] = dict(key_of or ())
        self._live: Dict[int, Set[int]] = {}    # key -> live task ids
        self._heaps: Dict[int, List[int]] = {}  # key -> lazy min-heap
        #: Read-only live view of task id -> current key.
        self.key_by_id: Mapping[int, int] = MappingProxyType(self._key_of)
        for task_id, key in self._key_of.items():
            live = self._live.get(key)
            if live is None:
                live = self._live[key] = set()
            live.add(task_id)
        for key, live in self._live.items():
            heap = self._heaps[key] = list(live)
            heapq.heapify(heap)

    # -- mutation --------------------------------------------------------
    def add(self, task_id: int, key: int) -> None:
        """Track ``task_id`` under ``key``; it must not be tracked yet."""
        if task_id in self._key_of:
            raise ValueError(f"task {task_id} already bucketed "
                             f"(key {self._key_of[task_id]})")
        self._key_of[task_id] = key
        live = self._live.get(key)
        if live is None:
            live = self._live[key] = set()
            self._heaps[key] = []
        live.add(task_id)
        heapq.heappush(self._heaps[key], task_id)

    def remove(self, task_id: int) -> None:
        """Stop tracking ``task_id`` (its heap entry dies lazily)."""
        key = self._key_of.pop(task_id)  # KeyError if not tracked
        live = self._live[key]
        live.discard(task_id)
        if not live:
            # Dropping the whole bucket also discards any stale heap
            # entries in one go; a future add rebuilds it fresh.
            del self._live[key]
            del self._heaps[key]

    def move(self, task_id: int, key: int) -> None:
        """Re-bucket ``task_id`` under a new key (overlap changed)."""
        self.remove(task_id)
        self.add(task_id, key)

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._key_of)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._key_of

    def keys(self, reverse: bool = False) -> List[int]:
        """Non-empty bucket keys, sorted (count, not queue-sized)."""
        return sorted(self._live, reverse=reverse)

    def key_count(self) -> int:
        """How many distinct keys are in use (non-empty buckets)."""
        return len(self._live)

    def smallest(self, key: int, count: int) -> List[int]:
        """The ``count`` smallest live ids under ``key``, ascending.

        Pops the bucket's lazy heap: stale entries (removed or moved
        ids) and duplicates are dropped permanently, live ids that were
        merely inspected are pushed back, so repeated retrievals stay
        cheap and the heap never grows beyond total inserts.
        """
        live = self._live.get(key)
        if not live or count <= 0:
            return []
        heap = self._heaps[key]
        taken: List[int] = []
        seen: Set[int] = set()
        while heap and len(taken) < count:
            task_id = heapq.heappop(heap)
            if task_id in live and task_id not in seen:
                taken.append(task_id)
                seen.add(task_id)
            # else: stale (moved/removed) or a duplicate entry from a
            # remove-then-re-add cycle — drop it for good.
        for task_id in taken:
            heapq.heappush(heap, task_id)
        return taken

    def top(self, count: int, reverse: bool = False
            ) -> List[Tuple[int, int]]:
        """The best ``count`` candidates as ``(key, task_id)`` pairs.

        ``reverse=False`` ranks the *smallest* key best (missing-count
        buckets for ``rest``); ``reverse=True`` ranks the largest key
        best (overlap-count buckets for ``overlap``).  Within a key,
        ascending task id.  The result is sorted best-first.
        """
        out: List[Tuple[int, int]] = []
        for key in sorted(self._live, reverse=reverse):
            for task_id in self.smallest(key, count - len(out)):
                out.append((key, task_id))
            if len(out) >= count:
                break
        return out

    # -- verification ----------------------------------------------------
    def as_dict(self) -> Dict[int, int]:
        """``{task_id: key}`` snapshot (invariant checks in tests)."""
        return dict(self._key_of)

    def check(self) -> None:
        """Raise AssertionError if internal structures disagree."""
        rebuilt: Dict[int, Set[int]] = {}
        for task_id, key in self._key_of.items():
            rebuilt.setdefault(key, set()).add(task_id)
        assert rebuilt == self._live, (rebuilt, self._live)
        assert set(self._heaps) == set(self._live)
        for key, live in self._live.items():
            assert live <= set(self._heaps[key]), (
                f"live ids missing from heap for key {key}")


#: ``(-ref_t, task_id, missing)``: heap order inside a group is the
#: first two fields; the third lets a flush see the entry's group.
_OrderEntry = Tuple[float, int, int]


class RefsumOrder:
    """Missing-count groups, each ordered ``(ref_t desc, task_id asc)``.

    One lazy-deletion min-heap of ``(-ref_t, task_id, missing)`` entries
    per missing count.  ``_entry_of`` holds each tracked id's *current*
    entry object; a popped entry is live iff it ``is`` that object, so
    superseded and duplicate entries die by identity, without a key
    comparison.

    Maintenance is deferred: the overlap index adds ids to :attr:`dirty`
    on every event that may change a task's group or ``ref_t``, and
    :meth:`flush` re-keys the deduplicated set just before a decision
    walks the order.  Stale entries are dropped when a walk meets them
    and, since a rising ``ref_t`` buries its old entry *below* the live
    ones where no walk reaches, by rebuilding the heaps once they hold
    more than twice the live entries.
    """

    __slots__ = ("dirty", "_entry_of", "_heaps", "_entries")

    def __init__(self) -> None:
        #: Ids whose group or ``ref_t`` may differ from their entry.
        self.dirty: Set[int] = set()
        self._entry_of: Dict[int, _OrderEntry] = {}
        self._heaps: Dict[int, List[_OrderEntry]] = {}
        self._entries = 0  # heap entries, live and stale

    # -- mutation --------------------------------------------------------
    def forget(self, task_id: int) -> None:
        """Stop tracking ``task_id`` now (its heap entry dies lazily).

        Eager, unlike the marking of storage events, so :attr:`dirty`
        only ever holds pending ids and cannot outgrow the queue at a
        site nobody pulls from.
        """
        self._entry_of.pop(task_id, None)
        self.dirty.discard(task_id)

    def flush(self, missing_of: Mapping[int, int],
              refsums: Mapping[int, float]) -> None:
        """Re-key every dirty id from the index's current counters.

        ``missing_of`` maps each candidate id to its missing count —
        the site's missing-count buckets' ``key_by_id`` — and an id
        absent from it no longer overlaps the site and leaves the
        order; ``refsums`` maps id -> ``ref_t``.
        """
        entry_of = self._entry_of
        heaps = self._heaps
        moved = [task_id for task_id in self.dirty
                 if task_id in missing_of]
        if len(moved) < len(self.dirty):
            for task_id in self.dirty.difference(moved):
                entry_of.pop(task_id, None)
        # A marked id almost always did change, so it gets a fresh
        # entry unconditionally; an unchanged one merely leaves a
        # duplicate behind, dead by identity like any stale entry.
        entries = [(-refsums[task_id], task_id, missing_of[task_id])
                   for task_id in moved]
        entry_of.update(zip(moved, entries))
        for entry in entries:
            heap = heaps.get(entry[2])
            if heap is None:
                heap = heaps[entry[2]] = []
            heapq.heappush(heap, entry)
        self._entries += len(entries)
        self.dirty.clear()
        if self._entries > 2 * len(entry_of) + 64:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heaps from the live entries alone."""
        heaps: Dict[int, List[_OrderEntry]] = {}
        for entry in self._entry_of.values():
            heaps.setdefault(entry[2], []).append(entry)
        for heap in heaps.values():
            heapq.heapify(heap)
        self._heaps = heaps
        self._entries = len(self._entry_of)

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entry_of)

    def groups(self) -> List[int]:
        """Missing counts that may hold candidates (count, not
        queue-sized; a group of only stale entries empties on walk)."""
        return list(self._heaps)

    def walk(self, missing: int) -> Iterator[Tuple[float, int]]:
        """Yield the group's live ``(ref_t, task_id)`` best-first.

        A generator: take as many as needed, then ``close()`` it (or
        exhaust it).  Stale entries met on the way are dropped for
        good; live ones are pushed back when the generator finishes,
        so the order is unchanged by having been read.  Must run on a
        flushed order.
        """
        heap = self._heaps[missing]
        entry_of = self._entry_of
        kept: List[_OrderEntry] = []
        try:
            while heap:
                entry = heapq.heappop(heap)
                if entry_of.get(entry[1]) is entry:
                    kept.append(entry)
                    yield -entry[0], entry[1]
                else:
                    self._entries -= 1
        finally:
            for entry in kept:
                heapq.heappush(heap, entry)
            if not heap:
                del self._heaps[missing]

    # -- verification ----------------------------------------------------
    def as_dict(self) -> Dict[int, Tuple[int, float]]:
        """``{task_id: (missing, ref_t)}`` snapshot (tests)."""
        return {task_id: (entry[2], -entry[0])
                for task_id, entry in self._entry_of.items()}

    def check(self) -> None:
        """Raise AssertionError if internal structures disagree."""
        held = 0
        for missing, heap in self._heaps.items():
            held += len(heap)
            assert all(entry[2] == missing for entry in heap)
        assert held == self._entries, (held, self._entries)
        for entry in self._entry_of.values():
            assert any(entry is other for other in self._heaps[entry[2]])
