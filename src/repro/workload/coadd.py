"""Synthetic Coadd: the paper's workload, rebuilt from its statistics.

Coadd (SDSS southern-hemisphere coaddition) is a spatial processing
application: the southern stripe is divided into output tiles (one task
per tile), and each task coadds every survey *field* (file) that
overlaps its sky window, across the many imaging runs that swept the
stripe.  Consecutive tiles therefore share most of their inputs — the
data-sharing structure all the paper's scheduling metrics exploit.

The real trace is not distributable, so this module generates a
calibrated synthetic equivalent:

* the stripe is a 1-D axis; task ``i`` is centred at ``i * stride``;
* each of ``num_runs`` imaging runs tiles the whole stripe with fields
  of a per-run length and phase;
* a task needs every field (of every run) overlapping its window, whose
  width is drawn per task from a triangular distribution;
* windows are clipped at the stripe ends, giving the small-input tail
  the real trace shows;
* a population of *auxiliary* files (masks, astrometric calibrations)
  is each shared by only a short span of consecutive tasks — they
  produce the low-reference tail of the Figure 1/3 CDF (the ~15% of
  files referenced fewer than 6 times).

The :data:`COADD_6000` preset is calibrated against Table 2 of the
paper (6,000 tasks, 53,390 files, 36/101/78.4 min/max/mean files per
task) and the Figure 3 reference CDF (~85% of files referenced >= 6
times).  :data:`COADD_FULL` approximates the full 44,000-task campaign
(588,900 files, mean 124 files/task, max 181).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..grid.files import FileCatalog, MB
from ..grid.job import Job, Task


@dataclass(frozen=True)
class CoaddParams:
    """Shape parameters of the synthetic Coadd generator.

    Attributes
    ----------
    num_tasks:
        Number of output tiles (= tasks).
    num_runs:
        Imaging runs layered over the stripe; every task needs at least
        one field from each run covering its window.
    field_lengths:
        Candidate per-run field lengths, in stripe units.
    stride:
        Distance between consecutive task centres, in stripe units.
        Larger stride => fewer shared files between neighbours.
    width_lo / width_mode / width_hi:
        Triangular distribution of task window widths (stripe units).
    aux_files_per_task:
        Auxiliary (short-span) files generated per task on average.
    aux_span_lo / aux_span_hi:
        Each auxiliary file is needed by a uniform random run of this
        many consecutive tasks.
    file_size:
        Bytes per field file (the paper's default is 5 MB; experiments
        sweep 5/25/50 MB).
    flops_per_file:
        Compute cost accrued per input file of a task.
    """

    num_tasks: int = 6000
    num_runs: int = 24
    field_lengths: Tuple[float, ...] = (3.0, 4.0, 5.0)
    stride: float = 1.21
    width_lo: float = 1.9
    width_mode: float = 11.0
    width_hi: float = 11.0
    aux_files_per_task: float = 1.33
    aux_span_lo: int = 1
    aux_span_hi: int = 5
    file_size: float = 5 * MB
    flops_per_file: float = 6.0e9

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if not (0 < self.width_lo <= self.width_mode <= self.width_hi):
            raise ValueError("need 0 < width_lo <= width_mode <= width_hi")
        if any(length <= 0 for length in self.field_lengths):
            raise ValueError("field lengths must be positive")
        if self.aux_files_per_task < 0:
            raise ValueError("aux_files_per_task must be >= 0")
        if not 1 <= self.aux_span_lo <= self.aux_span_hi:
            raise ValueError("need 1 <= aux_span_lo <= aux_span_hi")


#: Calibrated to Table 2 / Figure 3 (first 6,000 Coadd tasks).
COADD_6000 = CoaddParams()

#: Approximates the full 44,000-task campaign of Section 2.1 (588,900
#: files; 36..181 files/task, mean ~124).
COADD_FULL = CoaddParams(
    num_tasks=44000,
    num_runs=36,
    stride=1.21,
    width_lo=1.2,
    width_mode=12.2,
    width_hi=13.2,
    aux_files_per_task=2.0,
)


def generate(params: CoaddParams = COADD_6000, seed: int = 0,
             file_size: Optional[float] = None,
             jitter_seed: Optional[int] = None) -> Job:
    """Generate a synthetic Coadd job.

    Deterministic for a given (params, seed).  ``file_size`` overrides
    ``params.file_size`` (used by the Figure 8 sweep).

    ``jitter_seed`` re-rolls the per-task randomness (window widths,
    auxiliary files) while keeping the run geometry — and therefore the
    *field-file id space* — identical to the plain ``seed`` job.  Used
    by multi-job campaigns, where passes over the same stripe share
    field files but not exact input sets.
    """
    return _build(params, seed, file_size, jitter_seed)[0]


def generate_with_keys(params: CoaddParams = COADD_6000, seed: int = 0,
                       file_size: Optional[float] = None,
                       jitter_seed: Optional[int] = None):
    """:func:`generate`, also returning each file's stable identity key.

    Returns ``(job, keys)`` where ``keys[fid]`` is ``("field", run, k)``
    for survey fields (stable across jitter re-rolls of the same seed)
    or ``("aux", index)`` for per-job auxiliary files.  Campaign
    builders merge multiple passes' file spaces by these keys.
    """
    job, file_ids, num_aux = _build(params, seed, file_size, jitter_seed)
    num_field_files = len(file_ids)
    keys: List[Tuple] = [None] * (num_field_files + num_aux)
    for (run_index, k), fid in file_ids.items():
        keys[fid] = ("field", run_index, k)
    for aux_index in range(num_aux):
        keys[num_field_files + aux_index] = ("aux", aux_index)
    return job, keys


def _build(params: CoaddParams, seed: int, file_size: Optional[float],
           jitter_seed: Optional[int]):
    """Shared generator body; returns the job, the ``(run, k) -> fid``
    map of its field files and its number of auxiliary ids.

    Each task's field ids are collected as a list; its set is built,
    given its auxiliary ids and frozen one task at a time, by the same
    ``add`` sequence as a set grown in place, so each ``Task.files``
    iterates in that order (data servers fetch in it).  Holding every
    task's growing set until the auxiliary pass would keep thousands
    of over-sized hash tables alive at once."""
    rng = random.Random(seed)
    # Per-run geometry: lengths cycle round-robin through the candidate
    # set (keeping aggregate statistics stable across seeds); phases are
    # random per run.
    runs: List[Tuple[float, float]] = []
    for run_index in range(params.num_runs):
        length = params.field_lengths[run_index % len(params.field_lengths)]
        phase = rng.uniform(0.0, length)
        runs.append((length, phase))
    if jitter_seed is not None:
        # Keep the geometry draws above, replace everything after.
        rng = random.Random(jitter_seed)

    # Auxiliary short-span files: each is needed by a random run of
    # consecutive tasks, producing files with few references.
    num_aux = round(params.aux_files_per_task * params.num_tasks)
    aux_by_task: Dict[int, List[int]] = {}
    for aux_index in range(num_aux):
        start = rng.randrange(params.num_tasks)
        span = rng.randint(params.aux_span_lo, params.aux_span_hi)
        for task_index in range(start, min(start + span, params.num_tasks)):
            aux_by_task.setdefault(task_index, []).append(aux_index)

    stripe_end = (params.num_tasks - 1) * params.stride
    file_ids: Dict[Tuple[int, int], int] = {}
    task_fields: List[List[int]] = []
    for i in range(params.num_tasks):
        centre = i * params.stride
        width = rng.triangular(params.width_lo, params.width_hi,
                               params.width_mode)
        lo = max(0.0, centre - width / 2.0)
        hi = min(stripe_end, centre + width / 2.0)
        fields: List[int] = []
        for run_index, (length, phase) in enumerate(runs):
            k_lo = math.floor((lo - phase) / length)
            k_hi = math.floor((hi - phase) / length)
            for k in range(k_lo, k_hi + 1):
                key = (run_index, k)
                fid = file_ids.get(key)
                if fid is None:
                    fid = len(file_ids)
                    file_ids[key] = fid
                fields.append(fid)
        task_fields.append(fields)

    # Auxiliary file ids follow the field files in the dense id space.
    num_field_files = len(file_ids)
    tasks: List[Task] = []
    for i, fields in enumerate(task_fields):
        files = set(fields)
        files.update(num_field_files + aux_index
                     for aux_index in aux_by_task.get(i, ()))
        tasks.append(Task(task_id=i, files=frozenset(files),
                          flops=params.flops_per_file * len(files)))
        task_fields[i] = None  # freed as its task is made

    # Some auxiliary ids may be unused (span fell entirely off the end);
    # the catalog still carries them, which is harmless.
    catalog = FileCatalog(num_field_files + num_aux,
                          default_size=file_size or params.file_size)
    job = Job(tasks, catalog, name=f"coadd-{params.num_tasks}")
    return job, file_ids, num_aux
