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
(index events only mark ids, a decision re-keys the marked ones), and
it keys each candidate relative to an *anchor* file: one reference to
a hot file raises ``ref_t`` of every pending referer by the same one,
which the order takes as a single count on the file all of them are
anchored on — O(1), where re-keying them was O(referers).
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import (Collection, Dict, Iterator, List, Mapping,
                    Optional, Set, Tuple)


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


#: The anchor of an entry keyed under none (file ids are >= 0).
_UNANCHORED = -1

#: ``(-key, task_id, missing, anchor)``: heap order inside a sub-heap
#: is the first two fields; the last two name the entry's sub-heap.
#: ``key`` is ``ref_t`` minus the anchor's :attr:`_Anchor.count`
#: (``ref_t`` itself under :data:`_UNANCHORED`).
_OrderEntry = Tuple[float, int, int, int]
#: ``(-ref_t, task_id, anchor)``: a sub-heap's head as the group sees it.
_Head = Tuple[float, int, int]


class _Anchor:
    """One resident anchor file of a site's order and the ids keyed
    under it."""

    __slots__ = ("members", "count", "settled")

    def __init__(self) -> None:
        #: Pending ids anchored on the file, keyed under it.
        self.members: Set[int] = set()
        #: References to the file at this site since it became an
        #: anchor here: the offset every member's key is relative to.
        self.count = 0
        #: How much of ``count`` the members' refsums already hold.
        self.settled = 0


class _Group:
    """One missing count's candidates: a lazy-deletion min-heap of
    entries per anchor, and a min-heap of those sub-heaps' heads.

    ``heads`` may hold stale and duplicate heads, but for every
    sub-heap at least one no worse than its live head's ``(-ref_t,
    task_id)``; so the smallest head, if it still is its sub-heap's
    live head, is the group's best candidate."""

    __slots__ = ("heaps", "heads")

    def __init__(self) -> None:
        self.heaps: Dict[int, List[_OrderEntry]] = {}
        self.heads: List[_Head] = []


class RefsumOrder:
    """Missing-count groups, each ordered ``(ref_t desc, task_id asc)``.

    A reference to a resident file raises ``ref_t`` by one for every
    pending referer, which leaves their order among themselves as it
    was.  So the order does not store that +1 once per referer: each
    candidate has an *anchor* — one of its files, chosen once by the
    overlap index — and while the anchor is resident here, from its
    first reference on, the id is keyed by ``ref_t`` minus the anchor's
    :attr:`_Anchor.count`, in a sub-heap of its own.  A further
    reference to the anchor bumps that count
    and offers the anchor's sub-heap heads to their groups anew, which
    moves all its members at once and re-keys none of them
    (:meth:`touched`); a :meth:`walk` pops the group's heads, each
    shifted back to ``ref_t`` by its anchor's count.

    Each sub-heap is a lazy-deletion min-heap of :data:`_OrderEntry`.
    ``_entry_of`` holds each tracked id's *current* entry object; a
    popped entry is live iff it ``is`` that object, so superseded and
    duplicate entries die by identity, without a key comparison.

    Maintenance is deferred: the overlap index adds ids to :attr:`dirty`
    on every event that may change a task's group or key, and
    :meth:`flush` re-keys the deduplicated set just before a decision
    walks the order.  Stale entries are dropped when a walk meets them
    and, since a rising key buries its old entry *below* the live ones
    where no walk reaches, by rebuilding the heaps once they hold more
    than twice the live entries (the heads likewise, past twice the
    sub-heaps).

    The references an anchor's count took are owed to its members'
    entries in the index's ``refsums`` map: a member's value there lags
    its ``ref_t`` by ``count - settled``.  :meth:`settle` pays the debt
    before anyone reads the map; :meth:`forget` and :meth:`release` pay
    it for the ids they let go.
    """

    __slots__ = ("dirty", "anchors", "_entry_of", "_groups", "_entries")

    def __init__(self) -> None:
        #: Ids whose group or key may differ from their entry.
        self.dirty: Set[int] = set()
        #: Anchor file -> its record, while the file is resident.
        self.anchors: Dict[int, _Anchor] = {}
        self._entry_of: Dict[int, _OrderEntry] = {}
        self._groups: Dict[int, _Group] = {}
        self._entries = 0  # sub-heap entries, live and stale

    def _offset(self, fid: int) -> int:
        return 0 if fid == _UNANCHORED else self.anchors[fid].count

    def _push_head(self, group: _Group, fid: int, offset: int) -> None:
        """Offer sub-heap ``fid``'s head to the group (a stale head is
        never worse than the live one behind it)."""
        entry = group.heaps[fid][0]
        heapq.heappush(group.heads, (entry[0] - offset, entry[1], fid))
        if len(group.heads) > 2 * len(group.heaps) + 64:
            self._rebuild_heads(group)

    def _rebuild_heads(self, group: _Group) -> None:
        heads = [(heap[0][0] - self._offset(fid), heap[0][1], fid)
                 for fid, heap in group.heaps.items()]
        heapq.heapify(heads)
        group.heads = heads

    # -- mutation --------------------------------------------------------
    def touched(self, fid: int, referers: Collection[int],
                anchor_of: Mapping[int, int]) -> Collection[int]:
        """One reference to the resident file ``fid``, whose pending
        referers are ``referers`` (the index's list or set of them,
        only read): returns — and marks dirty — those whose key it
        moves, every referer not anchored on ``fid``.  The members'
        shared +1 goes into the anchor's count.

        The first reference to a file since it became resident here
        makes it an anchor, if it is some referer's (``anchor_of``):
        those referers join it at the next flush and move as one from
        then on.  An order over files nobody references keeps every
        id in one sub-heap per group.
        """
        anchor = self.anchors.get(fid)
        if anchor is not None:
            anchor.count += 1
            for group in self._groups.values():
                if fid in group.heaps:
                    self._push_head(group, fid, anchor.count)
            members = anchor.members
            if len(members) == len(referers):
                return ()
            if referers.__class__ is list:
                referers = [task_id for task_id in referers
                            if task_id not in members]
            else:
                referers = referers - members
        elif any(anchor_of[task_id] == fid for task_id in referers):
            self.anchors[fid] = _Anchor()
        self.dirty.update(referers)
        return referers

    def settle(self, refsums: Dict[int, float]) -> None:
        """Bring every member's ``refsums`` entry up to its ``ref_t``."""
        for anchor in self.anchors.values():
            self._settle(anchor, refsums)

    @staticmethod
    def _settle(anchor: _Anchor, refsums: Dict[int, float]) -> None:
        lag = anchor.count - anchor.settled
        if lag:
            for task_id in anchor.members:
                refsums[task_id] += lag
            anchor.settled = anchor.count

    def release(self, fid: int, refsums: Dict[int, float]) -> None:
        """``fid`` is leaving the site: if it anchors ids, settle them,
        drop its sub-heaps and mark them for re-keying.  Call before
        the index folds the eviction into ``refsums``."""
        anchor = self.anchors.pop(fid, None)
        if anchor is None:
            return
        self._settle(anchor, refsums)
        for task_id in anchor.members:
            del self._entry_of[task_id]
        self.dirty.update(anchor.members)
        for missing, group in list(self._groups.items()):
            heap = group.heaps.pop(fid, None)
            if heap is not None:
                self._entries -= len(heap)
                if not group.heaps:
                    del self._groups[missing]

    def forget(self, task_id: int, refsums: Dict[int, float]) -> None:
        """Stop tracking ``task_id`` now (its heap entry dies lazily),
        settling its ``refsums`` entry if it was anchored.

        Eager, unlike the marking of storage events, so :attr:`dirty`
        only ever holds pending ids and cannot outgrow the queue at a
        site nobody pulls from.
        """
        entry = self._entry_of.pop(task_id, None)
        self.dirty.discard(task_id)
        if entry is not None and entry[3] != _UNANCHORED:
            anchor = self.anchors[entry[3]]
            anchor.members.remove(task_id)
            refsums[task_id] += anchor.count - anchor.settled

    def flush(self, missing_of: Mapping[int, int],
              refsums: Dict[int, float],
              anchor_of: Mapping[int, int]) -> None:
        """Re-key every dirty id from the index's current counters.

        ``missing_of`` maps each candidate id to its missing count —
        the site's missing-count buckets' ``key_by_id`` — and an id
        absent from it no longer overlaps the site and leaves the
        order; ``refsums`` is the index's id -> ``ref_t`` map (lagging
        for members, see the class docstring); ``anchor_of`` maps an
        id to its anchor file.
        """
        entry_of = self._entry_of
        anchors = self.anchors
        groups = self._groups
        for task_id in self.dirty:
            missing = missing_of.get(task_id)
            if missing is None:
                # An anchor is resident, so its members overlap the
                # site: an id that stopped overlapping is anchored on
                # nothing (its anchor's release already cut it loose).
                entry = entry_of.pop(task_id, None)
                assert entry is None or entry[3] == _UNANCHORED, task_id
                continue
            fid = anchor_of[task_id]
            anchor = anchors.get(fid)
            if anchor is not None:
                if task_id not in anchor.members:
                    anchor.members.add(task_id)
                    refsums[task_id] -= anchor.count - anchor.settled
                key = refsums[task_id] - anchor.settled
                offset = anchor.count
            else:
                fid = _UNANCHORED
                key = refsums[task_id]
                offset = 0
            # A marked id almost always did change, so it gets a fresh
            # entry unconditionally; an unchanged one merely leaves a
            # duplicate behind, dead by identity like any stale entry.
            entry = entry_of[task_id] = (-key, task_id, missing, fid)
            group = groups.get(missing)
            if group is None:
                group = groups[missing] = _Group()
            heap = group.heaps.get(fid)
            if heap is None:
                heap = group.heaps[fid] = []
            heapq.heappush(heap, entry)
            self._entries += 1
            if heap[0] is entry:
                self._push_head(group, fid, offset)
        self.dirty.clear()
        if self._entries > 2 * len(entry_of) + 64:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heaps from the live entries alone."""
        groups: Dict[int, _Group] = {}
        for entry in self._entry_of.values():
            group = groups.get(entry[2])
            if group is None:
                group = groups[entry[2]] = _Group()
            group.heaps.setdefault(entry[3], []).append(entry)
        for group in groups.values():
            for heap in group.heaps.values():
                heapq.heapify(heap)
            self._rebuild_heads(group)
        self._groups = groups
        self._entries = len(self._entry_of)

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entry_of)

    def groups(self) -> List[int]:
        """Missing counts that may hold candidates (count, not
        queue-sized; a group of only stale entries empties on walk)."""
        return list(self._groups)

    def walk(self, missing: int) -> Iterator[Tuple[float, int]]:
        """Yield the group's live ``(ref_t, task_id)`` best-first.

        A generator: take as many as needed, then ``close()`` it (or
        exhaust it).  Stale entries and heads met on the way are
        dropped for good; live ones are pushed back when the generator
        finishes, so the order is unchanged by having been read.  Must
        run on a flushed order.

        A group of one sub-heap — every group of an order whose files
        nobody references after it is built — skips the merge by heads:
        :meth:`_walk_merged` alone walks it correctly, but on the
        decision bench's static ``combined`` row (10k pending, every
        group one unanchored sub-heap) it costs ~40.8 us per decision
        against ~37.2 us here, slower in 12 of 12 alternating rounds
        on a 2-vCPU Xeon; the ``combined-churn`` row did not move.
        """
        group = self._groups[missing]
        if len(group.heaps) == 1:
            return self._walk_one(missing, group)
        return self._walk_merged(missing, group)

    def _walk_one(self, missing: int, group: _Group
                  ) -> Iterator[Tuple[float, int]]:
        """:meth:`walk` over a group of one sub-heap: nothing to merge."""
        (fid, heap), = group.heaps.items()
        offset = self._offset(fid)
        entry_of = self._entry_of
        kept: List[_OrderEntry] = []
        try:
            while heap:
                entry = heapq.heappop(heap)
                if entry_of.get(entry[1]) is entry:
                    kept.append(entry)
                    yield offset - entry[0], entry[1]
                else:
                    self._entries -= 1
        finally:
            for entry in kept:
                heapq.heappush(heap, entry)
            if not heap:
                del self._groups[missing]

    def _walk_merged(self, missing: int, group: _Group
                     ) -> Iterator[Tuple[float, int]]:
        """:meth:`walk` over several sub-heaps, by their heads."""
        heaps = group.heaps
        heads = group.heads
        entry_of = self._entry_of
        anchors = self.anchors
        # Heads of the sub-heaps this walk has taken from: local, so
        # that putting the taken entries back leaves ``heads`` as the
        # walk found it, less what it dropped.
        nexts: List[_Head] = []
        taken: List[Tuple[_OrderEntry, Optional[_Head]]] = []
        pop, push = heapq.heappop, heapq.heappush
        try:
            while True:
                if nexts and (not heads or nexts[0] < heads[0]):
                    source = nexts
                elif heads:
                    source = heads
                else:
                    return
                head = source[0]
                fid = head[2]
                heap = heaps.get(fid)
                while heap and entry_of.get(heap[0][1]) is not heap[0]:
                    pop(heap)
                    self._entries -= 1
                if not heap:  # released, or nothing live left
                    if heap is not None:
                        del heaps[fid]
                    pop(source)
                    continue
                entry = heap[0]
                offset = 0 if fid == _UNANCHORED else anchors[fid].count
                rank = entry[0] - offset
                if rank != head[0] or entry[1] != head[1]:
                    heapq.heapreplace(source, (rank, entry[1], fid))
                    continue
                pop(source)
                taken.append((pop(heap), head if source is heads else None))
                yield -rank, entry[1]
                if heap:
                    entry = heap[0]
                    push(nexts, (entry[0] - offset, entry[1], fid))
        finally:
            for entry, head in taken:
                heap = heaps.get(entry[3])
                if heap is None:
                    heaps[entry[3]] = [entry]
                else:
                    push(heap, entry)
                if head is not None:
                    push(heads, head)
            if not heaps:
                del self._groups[missing]
            elif len(heads) > 2 * len(heaps) + 64:
                self._rebuild_heads(group)

    # -- verification ----------------------------------------------------
    def as_dict(self) -> Dict[int, Tuple[int, float]]:
        """``{task_id: (missing, ref_t)}`` snapshot (tests)."""
        return {task_id: (entry[2], -entry[0] + self._offset(entry[3]))
                for task_id, entry in self._entry_of.items()}

    def check(self, refsums: Optional[Mapping[int, float]] = None
              ) -> None:
        """Raise AssertionError if internal structures disagree; with
        ``refsums`` (id -> ``ref_t``, e.g. a naive rescan) also if a
        live entry's key plus its anchor's count is not its ``ref_t``.
        """
        entry_of = self._entry_of
        held = set()  # identities: a live entry must be in its heap
        entries = 0
        for missing, group in self._groups.items():
            assert group.heaps, f"empty group {missing}"
            offered: Dict[int, Tuple[float, int]] = {}
            for rank, task_id, fid in group.heads:
                if (rank, task_id) < offered.get(fid, (float("inf"), 0)):
                    offered[fid] = (rank, task_id)
            for fid, heap in group.heaps.items():
                assert heap and all(entry[2] == missing
                                    and entry[3] == fid for entry in heap)
                held.update(map(id, heap))
                entries += len(heap)
                live = [entry for entry in heap
                        if entry_of.get(entry[1]) is entry]
                if live:
                    best = min(live)
                    assert offered[fid] <= (best[0] - self._offset(fid),
                                            best[1]), (missing, fid)
        assert entries == self._entries, (entries, self._entries)
        for task_id, entry in entry_of.items():
            assert id(entry) in held, task_id
            assert (entry[3] == _UNANCHORED
                    or task_id in self.anchors[entry[3]].members)
        for fid, anchor in self.anchors.items():
            assert 0 <= anchor.settled <= anchor.count
            for task_id in anchor.members:
                assert entry_of[task_id][3] == fid
        if refsums is not None:
            for task_id, (_missing, ref) in self.as_dict().items():
                assert ref == refsums[task_id], (task_id, ref,
                                                 refsums[task_id])
