"""Tasks and Bag-of-Tasks jobs.

A :class:`Task` is an independent unit of work with a set of input files
and a compute cost in floating-point operations.  A :class:`Job` is a
bag of such tasks plus the :class:`~repro.grid.files.FileCatalog`
describing their inputs (system-model assumption 1: tasks never
communicate with each other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .files import FileCatalog, FileId

TaskId = int


@dataclass(frozen=True)
class Task:
    """One independent task of a Bag-of-Tasks job.

    Attributes
    ----------
    task_id:
        Dense integer id, unique within a job.
    files:
        Input files; the task can only start on a worker once every one
        of them is in the worker's site storage (assumption 5).
    flops:
        Compute cost in floating-point operations.
    """

    task_id: TaskId
    files: FrozenSet[FileId]
    flops: float = 0.0

    def __post_init__(self):
        if not self.files:
            raise ValueError(f"task {self.task_id} has no input files")
        if self.flops < 0:
            raise ValueError(f"task {self.task_id} has negative flops")

    @property
    def num_files(self) -> int:
        """|t| in the paper's notation."""
        return len(self.files)


class Job:
    """A bag of tasks over one file catalog."""

    def __init__(self, tasks: Sequence[Task], catalog: FileCatalog,
                 name: str = "job"):
        seen = set()
        for task in tasks:
            if task.task_id in seen:
                raise ValueError(f"duplicate task id {task.task_id}")
            seen.add(task.task_id)
            for fid in task.files:
                if fid not in catalog:
                    raise ValueError(
                        f"task {task.task_id} references unknown file {fid}")
        self._tasks: Tuple[Task, ...] = tuple(tasks)
        self._by_id: Dict[TaskId, Task] = {t.task_id: t for t in self._tasks}
        self.catalog = catalog
        self.name = name

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, task_id: TaskId) -> Task:
        return self._by_id[task_id]

    @property
    def tasks(self) -> Tuple[Task, ...]:
        return self._tasks

    @property
    def referenced_files(self) -> FrozenSet[FileId]:
        """Union of all tasks' input sets."""
        out = set()
        for task in self._tasks:
            out.update(task.files)
        return frozenset(out)

    def file_referers(self) -> Dict[FileId, List[TaskId]]:
        """Each referenced file's tasks, in job order.

        Lists, not sets: a file's few referers (about 9 per Coadd
        file) fit a list in a quarter of a set's memory, and a
        build-once map only ever iterates them."""
        referers: Dict[FileId, List[TaskId]] = {}
        for task in self._tasks:
            task_id = task.task_id
            for fid in task.files:
                tasks = referers.get(fid)
                if tasks is None:
                    referers[fid] = [task_id]
                else:
                    tasks.append(task_id)
        return referers

    def reference_counts(self) -> Dict[FileId, int]:
        """How many tasks reference each file (Figure 1/3 statistic)."""
        counts: Dict[FileId, int] = {}
        for task in self._tasks:
            for fid in task.files:
                counts[fid] = counts.get(fid, 0) + 1
        return counts
