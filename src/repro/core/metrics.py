"""CalculateWeight(): the paper's three scheduling metrics.

Terminology (Section 4.2):

* ``|t|`` — number of files task *t* needs,
* ``F_t`` — files of *t* currently resident at the requesting worker's
  site storage (``|F_t|`` is the *overlap cardinality*),
* ``r_i`` — past references of file *i* at that site,
* ``ref_t = Σ_{i ∈ F_t} r_i``,
* ``rest_t = 1 / (|t| - |F_t|)``,
* ``totalRef = Σ_{t ∈ T} ref_t`` and ``totalRest = Σ_{t ∈ T} rest_t``
  over the pending task set *T*.

Metrics:

* **overlap** — ``w(t) = |F_t|``; maximize reuse of resident data.
* **rest** — ``w(t) = rest_t``; minimize the files still to transfer.
* **combined** — the paper's printed formula is
  ``ref_t/totalRef + totalRest/rest_t``, whose second term *grows* with
  the number of missing files, contradicting the stated goal
  ("minimizes the number of files that need to be transferred as well
  as to prefer workers that accessed the same files in the past").  We
  implement the intent-consistent normalization
  ``w(t) = ref_t/totalRef + rest_t/totalRest`` as ``combined`` and keep
  the literal printed formula as ``combined-literal`` for comparison.

Tasks whose inputs are all resident have ``|t| - |F_t| = 0``; the paper
leaves ``rest_t`` undefined there.  We cap the denominator at 1/2, so a
fully-resident task scores twice as high as a one-missing task and is
always preferred, preserving the metric's ordering intent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Denominator floor for ``rest`` when a task has no missing files.
_REST_FLOOR = 0.5


def rest_weight(missing: int) -> float:
    """``rest_t`` for a task with ``missing`` non-resident files."""
    if missing < 0:
        raise ValueError(f"missing must be >= 0, got {missing}")
    return 1.0 / max(missing, _REST_FLOOR)


def rest_weight_exact(missing: int) -> Fraction:
    """``rest_t`` as an exact rational.

    Aggregates like ``totalRest`` are maintained incrementally by the
    scheduler; in floating point the accumulation order would leave
    last-bit drift, and mathematically *tied* tasks would then break
    ties differently than a direct recomputation (observed in
    equivalence testing).  Summing exactly and rounding once makes the
    aggregate — and therefore tie-breaking — well-defined everywhere;
    the final weight is still computed in floats from identical
    ingredients.

    This function is the *oracle*: the verbatim rescan in
    :mod:`repro.core.reference` and the tests sum these rationals.
    The incremental :class:`~repro.core.overlap_index.OverlapIndex`
    holds the same sum as an integer numerator over ``lcm(1..max |t|)``
    — no ``Fraction`` on its write path — and its one correctly rounded
    division yields the same float as ``float()`` of this sum.
    """
    if missing < 0:
        raise ValueError(f"missing must be >= 0, got {missing}")
    if missing == 0:
        return Fraction(2)  # 1 / REST_FLOOR
    return Fraction(1, missing)


@dataclass(frozen=True)
class TaskView:
    """Everything a metric may look at for one (task, site) pair.

    Produced by the scheduler from its incremental
    :class:`~repro.core.overlap_index.OverlapIndex`; all fields are O(1)
    reads.
    """

    task_id: int
    num_files: int     #: |t|
    overlap: int       #: |F_t|
    refsum: float      #: ref_t
    total_refsum: float    #: totalRef over pending tasks at this site
    total_rest: float      #: totalRest over pending tasks at this site

    @property
    def missing(self) -> int:
        return self.num_files - self.overlap

    @property
    def rest(self) -> float:
        return rest_weight(self.missing)


def overlap_metric(view: TaskView) -> float:
    """The *overlap* metric: ``w(t) = |F_t|``."""
    return float(view.overlap)


def rest_metric(view: TaskView) -> float:
    """The *rest* metric: ``w(t) = 1 / (|t| - |F_t|)``."""
    return view.rest


def combined_metric(view: TaskView) -> float:
    """The *combined* metric, intent-consistent normalization.

    ``w(t) = ref_t / totalRef + rest_t / totalRest``; the first term is
    0 when no file was ever referenced (totalRef == 0).
    """
    ref_term = (view.refsum / view.total_refsum
                if view.total_refsum > 0 else 0.0)
    rest_term = (view.rest / view.total_rest
                 if view.total_rest > 0 else 0.0)
    return ref_term + rest_term


def combined_literal_metric(view: TaskView) -> float:
    """The *combined* metric exactly as printed in the paper.

    ``w(t) = ref_t / totalRef + totalRest / rest_t``.  Kept for the
    ablation study; see the module docstring.
    """
    ref_term = (view.refsum / view.total_refsum
                if view.total_refsum > 0 else 0.0)
    return ref_term + view.total_rest / view.rest


#: Metric name -> weight function.
METRICS = {
    "overlap": overlap_metric,
    "rest": rest_metric,
    "combined": combined_metric,
    "combined-literal": combined_literal_metric,
}


# -- allocation-free fast-path scorers ---------------------------------------
#
# The TaskView dataclass is the right interface for correctness code,
# but building one frozen dataclass per task scored dominates the
# decision loop at large queue depths.  These scorers compute the same
# weights from the raw integers/floats the overlap index already holds
# — the arithmetic is expression-for-expression identical to the
# TaskView metrics above, so the resulting floats are bit-equal (the
# differential suite in tests/test_policy_fast_path.py pins this).

def fast_overlap(num_files: int, overlap: int, refsum: float,
                 total_refsum: float, total_rest: float) -> float:
    """``overlap_metric`` without the TaskView."""
    return float(overlap)


def fast_rest(num_files: int, overlap: int, refsum: float,
              total_refsum: float, total_rest: float) -> float:
    """``rest_metric`` without the TaskView."""
    missing = num_files - overlap
    return 1.0 / max(missing, _REST_FLOOR)


def fast_combined(num_files: int, overlap: int, refsum: float,
                  total_refsum: float, total_rest: float) -> float:
    """``combined_metric`` without the TaskView."""
    missing = num_files - overlap
    ref_term = refsum / total_refsum if total_refsum > 0 else 0.0
    rest = 1.0 / max(missing, _REST_FLOOR)
    rest_term = rest / total_rest if total_rest > 0 else 0.0
    return ref_term + rest_term


def fast_combined_literal(num_files: int, overlap: int, refsum: float,
                          total_refsum: float,
                          total_rest: float) -> float:
    """``combined_literal_metric`` without the TaskView."""
    missing = num_files - overlap
    ref_term = refsum / total_refsum if total_refsum > 0 else 0.0
    rest = 1.0 / max(missing, _REST_FLOOR)
    return ref_term + total_rest / rest


#: Metric name -> raw-argument scorer (fast path).  Signature:
#: ``scorer(num_files, overlap, refsum, total_refsum, total_rest)``.
FAST_SCORERS = {
    "overlap": fast_overlap,
    "rest": fast_rest,
    "combined": fast_combined,
    "combined-literal": fast_combined_literal,
}

#: Metrics whose weight is a monotone function of one small integer
#: (the bucket key), so unscoped top-n retrieval can walk the
#: candidate buckets instead of scoring every candidate:
#:   * ``overlap`` — w = |F_t|, increasing in the overlap count;
#:   * ``rest`` — w = 1/max(|t|-|F_t|, 1/2), strictly decreasing in
#:     the missing count.
BUCKETED_METRICS = frozenset({"overlap", "rest"})

#: Metrics that mix in the global normalizers totalRef/totalRest, so no
#: single integer key orders them — but among tasks with the *same*
#: missing count the weight is ``ref_t/totalRef`` plus a constant,
#: non-decreasing in ``ref_t`` whatever the (positive) normalizers are.
#: Their top-n therefore lies in the top-n-by-``ref_t`` of each
#: missing-count group (``core.candidates.RefsumOrder``), scoped or
#: not; only those candidates are scored.
ORDERED_METRICS = frozenset({"combined", "combined-literal"})

#: How zero-overlap tasks rank under each metric.  All zero-overlap
#: tasks share ``refsum = 0`` and ``overlap = 0``, so their relative
#: order depends only on |t| — for every kernel, which is why one
#: engine-wide heap in this order serves them all:
#:   * ``overlap`` — all weigh 0: order by task id (FIFO).
#:   * ``rest`` / ``combined`` — fewest files wins ("min_files").
#:   * ``combined-literal`` — most files wins ("max_files"), because the
#:     printed second term grows with the missing-file count.
ZERO_OVERLAP_ORDER = {
    "overlap": "fifo",
    "rest": "min_files",
    "combined": "min_files",
    "combined-literal": "max_files",
}
