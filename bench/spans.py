"""Span folding: from recorded spans to self time per layer.

A span is ``(name, start_ns, end_ns, parent, request, a, b)`` with
``parent`` the index of the enclosing span in the same list (-1 for a
root).  A span's **self time** is its duration minus the durations of
its direct children, so the self times of one call tree add up to the
duration of its root and nothing is counted twice.  Folding sums self
time, call count and the two boundary counts per span name; the
per-layer metrics are ratios of those sums.
"""

from __future__ import annotations

import glob
import json
import os
from array import array
from typing import Dict, Iterable, List, Sequence, Tuple

Span = Tuple[str, int, int, int, int, int, int]


class Fold:
    """Per span name: calls, self ns, total ns, and the a/b sums."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.a: Dict[str, int] = {}
        self.b: Dict[str, int] = {}
        #: Spans whose ``b`` count was non-zero (feeds that decoded at
        #: least one message, pulls that parked).
        self.hits: Dict[str, int] = {}
        #: Count-only boundaries (no timing), e.g. simulator events.
        self.counts: Dict[str, int] = {}
        self.requests = 0

    def add(self, other: "Fold") -> None:
        for mine, theirs in ((self.calls, other.calls),
                             (self.self_ns, other.self_ns),
                             (self.total_ns, other.total_ns),
                             (self.a, other.a), (self.b, other.b),
                             (self.hits, other.hits),
                             (self.counts, other.counts)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
        self.requests += other.requests

    def self_us(self, *names: str) -> float:
        """Summed self time of the named spans, in microseconds."""
        return sum(self.self_ns.get(name, 0) for name in names) / 1e3

    def named_self_s(self) -> float:
        """Self time of every span, in seconds — the part of the
        program's run that happened inside a wrapped public call."""
        return sum(self.self_ns.values()) / 1e9


def fold_columns(names: Sequence[str], name: Sequence[int],
                 start: Sequence[int], end: Sequence[int],
                 parent: Sequence[int], a: Sequence[int],
                 b: Sequence[int]) -> Fold:
    """Fold one span list given as parallel columns."""
    count = len(name)
    child_ns = [0] * count
    for index in range(count):
        up = parent[index]
        if up >= 0:
            child_ns[up] += end[index] - start[index]
    fold = Fold()
    for index in range(count):
        label = names[name[index]]
        duration = end[index] - start[index]
        fold.calls[label] = fold.calls.get(label, 0) + 1
        fold.total_ns[label] = fold.total_ns.get(label, 0) + duration
        fold.self_ns[label] = (fold.self_ns.get(label, 0)
                               + duration - child_ns[index])
        fold.a[label] = fold.a.get(label, 0) + a[index]
        fold.b[label] = fold.b.get(label, 0) + b[index]
        if b[index]:
            fold.hits[label] = fold.hits.get(label, 0) + 1
        if parent[index] < 0:
            fold.requests += 1
    return fold


def fold_spans(spans: Iterable[Span]) -> Fold:
    """Fold a list of span tuples (the hand-checkable entry point)."""
    spans = list(spans)
    names: List[str] = []
    ids: Dict[str, int] = {}
    for span in spans:
        if span[0] not in ids:
            ids[span[0]] = len(names)
            names.append(span[0])
    return fold_columns(
        names, [ids[s[0]] for s in spans], [s[1] for s in spans],
        [s[2] for s in spans], [s[3] for s in spans],
        [s[5] for s in spans], [s[6] for s in spans])


def load_dump(path: str) -> Fold:
    """Fold one dump file written by ``bench/trace/sitecustomize.py``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for column in header["columns"]:
            values = array("q")
            values.fromfile(handle, header["spans"])
            columns[column] = values
    fold = fold_columns(header["names"], columns["name"],
                        columns["start"], columns["end"],
                        columns["parent"], columns["a"], columns["b"])
    fold.counts = dict(header["counts"])
    return fold


def load_dir(directory: str) -> Fold:
    """Fold every process's dump under ``directory`` into one table."""
    total = Fold()
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.bin"))):
        total.add(load_dump(path))
    return total


def unattributed_share(program_cpu_s: float, fold: Fold) -> float:
    """Share of the program's CPU spent outside every wrapped public
    call — the event loop, sockets, interpreter start-up.  Named self
    times plus this residual account for all program CPU by
    construction."""
    if program_cpu_s <= 0:
        return 0.0
    return max(0.0, program_cpu_s - fold.named_self_s()) / program_cpu_s
