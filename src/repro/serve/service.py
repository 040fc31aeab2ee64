"""Transport-agnostic scheduler service around a :class:`PolicyEngine`.

The asyncio server in :mod:`repro.serve.server` is a thin shell; every
scheduling rule lives here, synchronously, so the semantics are
testable without sockets:

* **pull dispatch** — ``request_task`` scores the pending set for the
  requesting worker's site via the engine and hands out the winner;
* **lease-based assignment** — every assignment is guarded by a lease
  (monotonic-clock expiry, renewed by ``heartbeat``).  The
  :meth:`expire_leases` sweeper requeues tasks whose worker went
  silent, and :meth:`task_done` must present the still-valid lease, so
  a zombie worker returning after expiry cannot double-complete a
  task another worker already finished;
* **multi-job tenancy** — every task belongs to the job that submitted
  it; completion is tracked per job, pulls can scope to one job, and
  the "no task" answer distinguishes *your job is done*
  (``job-done``) from *the whole server is idle* (``idle``) and
  *shutting down* (``draining``);
* **idle parking** — when nothing is pending but tasks are still
  outstanding (or no job has arrived yet) the request is parked and
  answered later, FIFO, when work appears;
* **requeue on disconnect** — a worker that vanishes with assigned
  tasks returns them to the pending set immediately (faster than
  waiting for the lease to lapse);
* **graceful drain** — stop handing out tasks, answer parked requests
  with ``draining``, and report idle once the last outstanding
  completion lands (or lease expires);
* **one fold** — every state change is one of the ``_apply_*``
  transitions at the bottom of the class, one per WAL record kind.  A
  live method validates and decides, applies the transition, then
  counts, emits and wakes parked pulls; ``replay_record`` applies the
  same transition to a recorded outcome and does nothing else, so
  crash recovery rebuilds the state with the code that built it;
  ``redecide`` folds a log the same way but asks each recorded pull
  again, so the log checks the decisions the fold takes on trust.

Everything is single-threaded: callers (the asyncio event loop, or a
test) serialize calls.  Replies to parked requests are delivered
through the ``deliver`` callback handed to ``request_task``: it
receives either an :class:`Assignment` or a ``NO_TASK`` reason string
from :data:`repro.serve.protocol.NO_TASK_REASONS`.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest
from typing import (Callable, Deque, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from ..core.metrics import FAST_SCORERS
from ..core.policy_engine import PolicyEngine, SiteFileState
from ..obs.events import EventLog
from ..obs.trace import DecisionTracer
from . import protocol
from .stats import ServeStats

#: Default lease time-to-live in seconds.  Workers are told to
#: heartbeat every ``ttl / HEARTBEATS_PER_TTL`` so a healthy worker
#: gets multiple renewal chances before its lease can lapse.
DEFAULT_LEASE_TTL = 30.0
HEARTBEATS_PER_TTL = 3.0


class ServiceError(RuntimeError):
    """A request the service rejects (reported as a protocol ERROR)."""


class AdmissionRejected(ServiceError):
    """A ``JOB_SUBMIT`` bounced off the admission watermark.

    Not a protocol error: the server answers with
    ``ACK {accepted: false, reason: "overloaded"}`` carrying
    :attr:`retry_after`, and the submitter retries the same chunk
    after backing off — backpressure, not failure.
    """

    def __init__(self, retry_after: float):
        super().__init__(
            "pending queue is over the admission watermark; "
            f"retry in {retry_after:g}s")
        self.retry_after = retry_after


@dataclass(frozen=True)
class Assignment:
    """A granted task: what ``TASK`` puts on the wire."""
    task: _TaskRecord
    lease_id: int
    job_id: int
    lease_ttl: float


@dataclass(frozen=True)
class CompletionResult:
    """Outcome of a ``task_done``; rejections carry the reason."""
    accepted: bool
    reason: Optional[str] = None


#: ``deliver`` receives an Assignment (single pull), a non-empty list
#: of Assignments (batched pull), or a NO_TASK reason string.
Deliver = Callable[[Union[Assignment, List[Assignment], str]], None]


class _Lease:
    """One outstanding assignment's liveness contract."""

    __slots__ = ("lease_id", "task_id", "worker", "site_id",
                 "expires_at", "granted_at")

    def __init__(self, lease_id: int, task_id: int, worker: str,
                 site_id: int, expires_at: float,
                 granted_at: float = 0.0):
        self.lease_id = lease_id
        self.task_id = task_id
        self.worker = worker
        self.site_id = site_id
        self.expires_at = expires_at
        #: When the lease was granted — the straggler heuristic ranks
        #: replication candidates by longest-running primary lease.
        self.granted_at = granted_at


class _JobState:
    """Per-job bookkeeping: task counts and the pending set."""

    __slots__ = ("job_id", "origin", "tasks", "pending", "completed",
                 "weight", "assigned")

    def __init__(self, job_id: int, origin: Optional[int] = None):
        self.job_id = job_id
        #: The shard a stolen job's tasks came from (completions are
        #: forwarded there); None for this shard's own jobs.
        self.origin = origin
        #: How many tasks the job has, and how many of them are done;
        #: which ones is in each task's :class:`_TaskRecord`.
        self.tasks = 0
        self.completed = 0
        #: The pending ones — what a scoped pull hands ``choose``.
        self.pending: Set[int] = set()
        #: Fair-share weight; None = the job never asked for one.
        self.weight: Optional[float] = None
        #: Assignments granted to this job (the stride scheduler's
        #: pass count numerator: next pick minimizes assigned/weight).
        self.assigned = 0

    @property
    def done(self) -> bool:
        return self.tasks > 0 and self.completed == self.tasks


class _TaskRecord:
    """One task: what it is, and where it is — the one place the
    transitions edit.

    ``task_id``, ``files`` and ``flops`` are fixed at admission.
    ``files`` is a sorted tuple of distinct ids, each the service's one
    shared ``int`` for that id (:meth:`SchedulerService._new_record`),
    so it leaves the process — TASK on the wire, the WAL's submit
    specs, snapshots, steal specs — as it is held.  ``task_id``,
    ``files`` and ``num_files`` are all :class:`PolicyEngine` reads of
    a task, so the service's record table is the engine's ``job``.

    A task is pending (in the engine and ``job.pending``), out under
    ``lease`` (plus any ``replicas``), exported to a thief under
    ``export``, or ``done``.  Only a recovery fold that re-applies a
    stale export holds one both leased and exported, until
    ``requeue_unacked_exports`` retires the export.
    """

    __slots__ = ("task_id", "files", "flops", "job", "lease", "replicas",
                 "export", "done")

    def __init__(self, task_id: int, files: Tuple[int, ...],
                 flops: float):
        self.task_id = task_id
        self.files = files
        self.flops = flops
        #: Set by whoever admits the task, once its job is known.
        self.job: Optional[_JobState] = None
        self.lease: Optional[_Lease] = None
        #: Replica leases, oldest first (the next primary if it goes).
        self.replicas: Tuple[_Lease, ...] = ()
        self.export: Optional[int] = None
        self.done = False

    @property
    def num_files(self) -> int:
        """|t| in the paper's notation."""
        return len(self.files)


def _refuse_bad_task(task_id: int, files: Sequence[int],
                     flops: float) -> None:
    """What every admission path refuses: a task with no input files
    (it could never be scored) or a negative cost."""
    if not files:
        raise ServiceError(f"task {task_id} has no input files")
    if flops < 0:
        raise ServiceError(f"task {task_id} has negative flops")


def _rng_row(rng: random.Random) -> List:
    """``rng``'s state as JSON-native data."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _resume_rng(rng: random.Random, row: List) -> None:
    version, internal, gauss = row
    rng.setstate((version, tuple(internal), gauss))


class _ParkedRequest(NamedTuple):
    """One pull: answered at once, or parked until it can be."""
    worker: str
    site_id: int
    job_id: Optional[int]
    deliver: Deliver
    #: Up to how many tasks one answer may grant.
    max_tasks: int
    #: Whether ``deliver`` expects a list (``TASK_BATCH`` shape)
    #: instead of a bare :class:`Assignment`.
    batched: bool


class SchedulerService:
    """Live counterpart of the simulator's global scheduler."""

    def __init__(self, metric: str = "rest", n: int = 1, seed: int = 0,
                 name: str = "repro-serve",
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 clock: Callable[[], float] = time.monotonic,
                 events: Optional[EventLog] = None,
                 tracer: Optional[DecisionTracer] = None,
                 id_start: int = 0, id_stride: int = 1,
                 admission_watermark: Optional[int] = None,
                 admission_retry_after: float = 0.25,
                 replicate_tail: bool = False,
                 max_replicas: int = 1,
                 steal_watermark: Optional[int] = None):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if id_stride < 1 or not (0 <= id_start < id_stride):
            raise ValueError(
                f"need 0 <= id_start < id_stride, got "
                f"{id_start}/{id_stride}")
        if admission_watermark is not None and admission_watermark < 1:
            raise ValueError(f"admission_watermark must be >= 1, "
                             f"got {admission_watermark}")
        if admission_retry_after <= 0:
            raise ValueError(f"admission_retry_after must be > 0, "
                             f"got {admission_retry_after}")
        if max_replicas < 1:
            raise ValueError(
                f"max_replicas must be >= 1, got {max_replicas}")
        if steal_watermark is not None and steal_watermark < 1:
            raise ValueError(f"steal_watermark must be >= 1, "
                             f"got {steal_watermark}")
        self.name = name
        self.lease_ttl = float(lease_ttl)
        self._clock = clock
        #: task_id -> the task and where it is; every transition edits
        #: this, and it is the engine's ``job[id]`` lookup.
        self._tasks: Dict[int, _TaskRecord] = {}
        #: file id -> the one ``int`` every record's ``files`` holds
        #: for it.
        self._file_ids: Dict[int, int] = {}
        self.engine = PolicyEngine(self._tasks, metric=metric, n=n,
                                   rng=random.Random(seed))
        self.stats = ServeStats()
        self.events = events
        self.tracer = tracer
        if tracer is not None:
            # The hook observes the already-made decision; it cannot
            # change it (no RNG use, fires after sampling).
            self.engine.on_decision = tracer.record
        self.stats.bind_live(self, metric=metric)
        #: Tasks out under a primary lease (``outstanding``).
        self._leased = 0
        # Indexes over the records' leases, primaries and replicas.
        self._leases: Dict[int, _Lease] = {}       # lease_id -> lease
        self._by_worker: Dict[str, Set[_Lease]] = {}  # its leases
        #: Admission control: a JOB_SUBMIT that would push the pending
        #: queue past the watermark is bounced with ``overloaded`` and
        #: the advertised retry-after, instead of queued.  None = no
        #: limit (the pre-watermark behavior).
        self._admission_watermark = admission_watermark
        self._admission_retry_after = float(admission_retry_after)
        #: Straggler-aware tail replication: when a pull would park
        #: (nothing pending, work outstanding) the service may instead
        #: grant a *replica* lease on the longest-running outstanding
        #: task.  First completion wins; the loser's TASK_DONE is
        #: rejected by the ordinary lease machinery.
        self._replicate_tail = replicate_tail
        self._max_replicas = max_replicas
        #: Shard-to-shard work stealing.  A non-None watermark enables
        #: both halves: as the *victim*, export pending unleased tasks
        #: down to the watermark when a thief asks; as the *thief*,
        #: park idle unscoped pulls (instead of answering ``idle``) so
        #: imported work has someone to run it.  None = stealing off,
        #: every path below is bit-identical to the pre-steal service.
        self._steal_watermark = steal_watermark
        #: Victim side: export_id -> {thief, acked, specs, remaining}.
        #: An export lives from the grant until its last task's
        #: forwarded completion (or its abort).
        self._steal_exports: Dict[int, Dict] = {}
        self._next_export_id = 1
        #: Thief side: (origin shard, export_id) -> task specs, held
        #: *tentatively* between the WAL import record and the
        #: victim's STEAL_ACK answer; activation requires the answer.
        self._steal_imports: Dict[Tuple[int, int], List[Dict]] = {}
        #: Completions of stolen tasks awaiting forwarding, per origin.
        self._steal_outbox: Dict[int, List[int]] = {}
        #: Weighted-fair mode is sticky: it turns on at the first
        #: weighted JOB_SUBMIT and stays on, so a server that never
        #: sees a weight keeps the bit-identical unscoped choose path.
        self._weighted = False
        self._jobs: Dict[int, _JobState] = {}
        self._parked: Deque[_ParkedRequest] = deque()
        #: Shard-aware id allocation: shard ``i`` of ``N`` constructs
        #: with ``id_start=i, id_stride=N`` so every job/task id it
        #: assigns satisfies ``id % N == i`` — the cluster router can
        #: route any id to its owning shard arithmetically, and a
        #: 1-shard cluster (start 0, stride 1) allocates exactly the
        #: ids a standalone server would.
        self._id_start = id_start
        self._id_stride = id_stride
        self._next_task_id = id_start
        self._next_job_id = id_start
        self._next_lease_id = 1
        self._draining = False
        #: Called (once) when a drain completes: draining and no
        #: outstanding work.  The server uses it to shut down.
        self.on_drained: Optional[Callable[[], None]] = None
        #: Called each time an unscoped pull parks, while a
        #: :class:`~repro.cluster.steal.StealManager` is started: the
        #: demand that wakes its steal loop at once.
        self.on_steal_demand: Optional[Callable[[], None]] = None

    # -- introspection ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self.engine.pending_count

    @property
    def outstanding(self) -> int:
        return self._leased

    @property
    def active_leases(self) -> int:
        return len(self._leases)

    @property
    def parked_workers(self) -> int:
        return len(self._parked)

    @property
    def parked_unscoped(self) -> int:
        """Parked pulls not scoped to a job: the only ones a stolen
        (foreign-job) task could ever be handed to."""
        return sum(1 for entry in self._parked if entry.job_id is None)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def jobs_active(self) -> int:
        return sum(1 for job in self._jobs.values() if not job.done)

    @property
    def is_idle(self) -> bool:
        return self.queue_depth == 0 and self.outstanding == 0

    @property
    def heartbeat_interval(self) -> float:
        """The renewal cadence advertised in ``WELCOME``."""
        return self.lease_ttl / HEARTBEATS_PER_TTL

    def ensure_site(self, site_id: int) -> None:
        if site_id not in self.engine.site_ids:
            self.engine.attach_site(site_id)

    # -- observability hooks ---------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    # -- job intake ------------------------------------------------------
    def submit_job(self, tasks_payload: List[dict],
                   job_id: Optional[int] = None,
                   weight: Optional[float] = None) -> Dict:
        """Append a batch of tasks; returns the job id and task ids.

        ``tasks_payload`` items need ``files`` (non-empty int list) and
        optional ``flops``.  Task ids are assigned by the service so
        independent submitters can never collide.  ``job_id`` of None
        opens a new job; otherwise the batch extends an existing job
        (how large submissions are chunked across messages) this
        shard owns, not one stolen from a peer.

        ``weight`` sets the job's fair-share weight: when any job has
        one, unscoped pulls pick the job with the lowest
        ``assigned / weight`` ratio (min-pass stride scheduling) and
        score only its tasks; weightless jobs count as weight 1.  With
        a watermark configured, a batch that would push the pending
        queue past it raises :class:`AdmissionRejected` before any
        task id is allocated.
        """
        if self._draining:
            raise ServiceError("server is draining; job rejected")
        if not isinstance(tasks_payload, list) or not tasks_payload:
            raise ServiceError("JOB_SUBMIT needs a non-empty task list")
        if job_id is not None and job_id not in self._jobs:
            raise ServiceError(f"unknown job id {job_id!r}")
        if job_id is not None and self._jobs[job_id].origin is not None:
            # Its owner allocates its ids: a completion of an id made
            # here would be refused at home.
            raise ServiceError(f"job {job_id} is stolen; submit to "
                               f"shard {self._jobs[job_id].origin}")
        if weight is not None and (
                isinstance(weight, bool)
                or not isinstance(weight, (int, float))
                or not 0 < weight < float("inf")):
            # NaN fails both comparisons: a NaN weight would make
            # every pass value compare false in _pick_weighted_job.
            raise ServiceError("'weight' must be a finite number > 0")
        if (self._admission_watermark is not None
                and self.queue_depth + len(tasks_payload)
                > self._admission_watermark):
            self.stats.metrics["admission_rejections"].inc()
            raise AdmissionRejected(self._admission_retry_after)
        for spec in tasks_payload:
            if not isinstance(spec, dict):
                raise ServiceError("each task must be an object")
            files = spec.get("files")
            if (not isinstance(files, list) or not files
                    or any(not protocol.is_int(fid) for fid in files)):
                raise ServiceError(
                    "each task needs a non-empty int 'files' list")
            flops = spec.get("flops", 0.0)
            if (isinstance(flops, bool)
                    or not isinstance(flops, (int, float)) or flops < 0):
                raise ServiceError("'flops' must be a number >= 0")
        if job_id is None:
            job_id = self._next_job_id
            self.stats.metrics["jobs_submitted"].inc()
        first, stride = self._next_task_id, self._id_stride
        task_ids = list(range(
            first, first + stride * len(tasks_payload), stride))
        extra = {}
        if weight is not None:
            extra["weight"] = weight = float(weight)
            if not self._weighted and self._jobs:
                # The submit that turns weighted-fair mode on: no
                # snapshot so far carries pass counts, so this record
                # does, for every job there is.
                extra["assigned"] = [
                    [jid, job.assigned]
                    for jid, job in sorted(self._jobs.items())]
        self._apply_submit(job_id, task_ids, tasks_payload, **extra)
        self.stats.metrics["tasks_submitted"].inc(len(task_ids))
        self.stats.record_queue_depth(self.queue_depth)
        if self.events is not None:
            # ``specs`` is what re-creates the tasks on replay.
            specs = [{"files": task.files, "flops": task.flops}
                     for task in map(self._tasks.__getitem__, task_ids)]
            self.events.emit("submit", job_id=job_id,
                             tasks=len(task_ids), task_ids=task_ids,
                             specs=specs, **extra)
        self._service_parked()
        return {"job_id": job_id, "task_ids": list(task_ids)}

    def job_status(self, job_id: int) -> Dict:
        """The ``JOB_STATUS`` snapshot for one job."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return {"job_id": job_id,
                "tasks": job.tasks,
                "completed": job.completed,
                "pending": len(job.pending),
                "outstanding": job.tasks - len(job.pending) - job.completed,
                "done": job.done}

    # -- the pull loop ---------------------------------------------------
    def request_task(self, worker: str, site_id: int, deliver: Deliver,
                     job_id: Optional[int] = None) -> None:
        """Answer a worker's pull, now or later, via ``deliver``.

        ``deliver(assignment)`` hands out a leased task;
        ``deliver(reason)`` with a ``NO_TASK`` reason string means "no
        task will ever come — disconnect".  ``job_id`` scopes the pull
        to one job's tasks (and its completion answers ``job-done``).
        """
        self._request(worker, site_id, deliver, job_id=job_id,
                      max_tasks=1, batched=False)

    def request_tasks(self, worker: str, site_id: int, max_tasks: int,
                      deliver: Deliver,
                      job_id: Optional[int] = None) -> None:
        """Batched pull: answer with up to ``max_tasks`` leased tasks.

        ``deliver`` receives a non-empty ``List[Assignment]`` (the
        ``TASK_BATCH`` shape — between 1 and ``max_tasks`` tasks, each
        under its own lease) or a ``NO_TASK`` reason string; a pull
        that cannot be answered yet parks exactly like a single-task
        one.  Tasks are drawn by iterated sampling without
        replacement (see :meth:`PolicyEngine.choose_many`), so
        ``max_tasks == 1`` is decision-for-decision identical to
        :meth:`request_task`.
        """
        if not protocol.is_int(max_tasks) or max_tasks < 1:
            raise ServiceError(
                f"max_tasks must be an int >= 1, got {max_tasks!r}")
        self._request(worker, site_id, deliver, job_id=job_id,
                      max_tasks=max_tasks, batched=True)

    def _request(self, worker: str, site_id: int, deliver: Deliver,
                 job_id: Optional[int], max_tasks: int,
                 batched: bool) -> None:
        self.ensure_site(site_id)
        if job_id is not None and job_id not in self._jobs:
            raise ServiceError(f"unknown job id {job_id!r}")
        entry = _ParkedRequest(worker, site_id, job_id, deliver,
                               max_tasks, batched)
        if not self._try_answer(entry):
            # Park until the situation changes (work arrives, a lease
            # expires, the job/server finishes, or a drain starts).
            self._parked.append(entry)
            if job_id is None and self.on_steal_demand is not None:
                self.on_steal_demand()

    def _try_answer(self, entry: _ParkedRequest) -> bool:
        """Answer a pull if its outcome is decided; False to park."""
        job = (self._jobs[entry.job_id] if entry.job_id is not None
               else None)
        if job is not None and job.done:
            entry.deliver(protocol.REASON_JOB_DONE)
        elif self._draining:
            entry.deliver(protocol.REASON_DRAINING)
        elif (job.pending if job is not None
              else self.engine.has_pending):
            self._deliver_assignments(entry, job)
        elif job is None and self._jobs and self.is_idle:
            if self._steal_watermark is not None:
                # Stealing may import work at any time: park the idle
                # pull instead of sending the worker away.  Drain
                # still releases parked workers (handled above).
                return False
            entry.deliver(protocol.REASON_IDLE)
        elif (self._replicate_tail and self._jobs
                and self._grant_replica(entry, job)):
            pass  # the tail: replicate a straggling task instead
        else:
            # No job yet, or everything in scope is outstanding: park.
            return False
        return True

    def _deliver_assignments(self, entry: _ParkedRequest,
                             job: Optional[_JobState]) -> None:
        """Grant up to ``entry.max_tasks`` tasks and deliver them.

        Each grant goes through :meth:`_assign` — one full decision
        (weights recomputed), one lease, one stats/event record — so
        the draw sequence is exactly ``PolicyEngine.choose_many``'s
        iterated sampling without replacement, with the service's
        bookkeeping interleaved per task.
        """
        assignments = [self._assign(entry, job, first=True)]
        while (len(assignments) < entry.max_tasks
               and (job.pending if job is not None
                    else self.engine.has_pending)):
            assignments.append(self._assign(entry, job, first=False))
        self._deliver(entry, assignments)

    def _deliver(self, entry: _ParkedRequest,
                 assignments: List[Assignment]) -> None:
        if entry.batched:
            self.stats.record_batch(len(assignments))
            entry.deliver(assignments)
        else:
            entry.deliver(assignments[0])

    def _pick_weighted_job(self) -> Optional[_JobState]:
        """Stride pick: the pending job with the lowest pass value.

        Only consulted once a weighted JOB_SUBMIT flipped the server
        into weighted-fair mode; weightless jobs ride along at weight
        1.  Ties break on the lower job id, so the pick order is
        deterministic.
        """
        return min((job for _job_id, job in sorted(self._jobs.items())
                    if job.pending),
                   key=lambda job: job.assigned / (job.weight or 1.0),
                   default=None)

    def _assign(self, entry: _ParkedRequest, job: Optional[_JobState],
                first: bool) -> Assignment:
        worker, site_id = entry.worker, entry.site_id
        start = self._clock()
        if job is None and self._weighted:
            # Weighted-fair pick-order: choose the tenant first, then
            # let the engine score only that tenant's tasks.  Servers
            # that never saw a weight skip this branch entirely, so
            # the unscoped path stays bit-identical to the reference.
            job = self._pick_weighted_job()
        eligible = job.pending if job is not None else None
        task = self.engine.choose(site_id, eligible=eligible)
        latency = self._clock() - start
        overlap = self.engine.overlap(site_id, task.task_id)
        owner_id = task.job.job_id
        lease_id = self._next_lease_id
        self._apply_assign(task.task_id, site_id, worker, lease_id)
        self.stats.record_assignment(site_id, latency, overlap > 0,
                                     kernel=self.engine.last_kernel)
        self.stats.record_tenant_assignment(owner_id)
        self.stats.metrics["leases_granted"].inc()
        if self.events is not None:
            # The decision rides on the assignment it explains: the
            # tracer's newest span is the one ``choose`` just recorded.
            span = self.tracer.last() if self.tracer is not None else None
            decision = {} if span is None else {
                "metric": span["metric"],
                "candidates": span["candidates"],
                "decision": span["decision"]}
            if decision and first:
                # What the pull asked for, so ``redecide`` can ask again.
                decision.update(scope=entry.job_id,
                                max_tasks=entry.max_tasks)
            self.events.emit("assign", task_id=task.task_id,
                             site=site_id, worker=worker,
                             job_id=owner_id, lease_id=lease_id,
                             overlap=overlap,
                             latency_us=round(latency * 1e6, 3),
                             **decision)
        return Assignment(task=task, lease_id=lease_id,
                          job_id=owner_id, lease_ttl=self.lease_ttl)

    def _grant_replica(self, entry: _ParkedRequest,
                       job: Optional[_JobState]) -> bool:
        """Lease the longest-running outstanding task to ``entry``.

        The straggler trick of the task-centric baselines, done
        worker-centrically: an idle pull at the tail (nothing pending,
        work outstanding) gets a *replica* lease on the outstanding
        task whose primary lease has been running longest — skipping
        tasks the same worker already holds and tasks already at
        ``max_replicas``.  Whichever lease completes first wins;
        :meth:`task_done` releases every other lease on the task, so
        the loser's report is rejected as ``already-complete`` and
        nothing is double-counted.  Returns False when no task
        qualifies (the pull parks as before).
        """
        def replicable(primary: _Lease) -> bool:
            record = self._tasks[primary.task_id]
            return (record.lease is primary
                    and (job is None or record.job is job)
                    and primary.worker != entry.worker
                    and len(record.replicas) < self._max_replicas
                    and all(r.worker != entry.worker
                            for r in record.replicas))

        best = min(filter(replicable, self._leases.values()),
                   key=lambda lease: (lease.granted_at, lease.task_id),
                   default=None)
        if best is None:
            return False
        lease_id = self._next_lease_id
        self._apply_assign(best.task_id, entry.site_id, entry.worker,
                           lease_id, replica=True)
        self.stats.metrics["task_replications"].inc()
        self.stats.metrics["leases_granted"].inc()
        task = self._tasks[best.task_id]
        owner_id = task.job.job_id
        self._emit("assign", task_id=best.task_id, site=entry.site_id,
                   worker=entry.worker, job_id=owner_id,
                   lease_id=lease_id, replica=True)
        self._deliver(entry, [Assignment(task=task,
                                         lease_id=lease_id,
                                         job_id=owner_id,
                                         lease_ttl=self.lease_ttl)])
        return True

    def _service_parked(self) -> None:
        """Re-answer every parked pull whose outcome is now decided."""
        if not self._parked:
            return
        remaining: Deque[_ParkedRequest] = deque()
        while self._parked:
            entry = self._parked.popleft()
            if not self._try_answer(entry):
                remaining.append(entry)
        self._parked = remaining

    # -- completions -----------------------------------------------------
    def task_done(self, worker: str, task_id: int,
                  lease_id: int) -> CompletionResult:
        """Record a completion if ``lease_id`` still guards the task.

        A stale lease (expired, superseded by a reassignment, or for a
        task already completed) is rejected without touching the
        completion counters — the zombie-worker double-complete guard.
        A still-valid *replica* lease completes the task exactly like
        the primary would; the first accepted completion releases
        every lease on the task, so whichever copy reports second is
        rejected as ``already-complete``.
        """
        record = (self._tasks.get(task_id) if protocol.is_int(task_id)
                  else None)
        if record is None:
            raise ServiceError(f"unknown task id {task_id!r}")
        lease = self._leases.get(lease_id)
        if lease is None or lease.task_id != task_id:
            if record.done:
                self.stats.metrics["duplicate_completions"].inc()
                return CompletionResult(False, "already-complete")
            self.stats.metrics["stale_completions"].inc()
            return CompletionResult(False, "stale-lease")
        if record.lease is not lease:
            self.stats.metrics["replica_wins"].inc()
        self._apply_complete(task_id)
        job = record.job
        if job.origin is None:
            self.stats.metrics["completions"].inc()
            self._emit("complete", task_id=task_id, worker=worker,
                       job_id=job.job_id, lease_id=lease_id)
            if job.done:
                self.stats.metrics["jobs_completed"].inc()
        else:
            # Stolen task: the owning shard keeps the canonical
            # ``complete`` record and the per-job counters; this is
            # the thief-side marker (the id now waits in the outbox).
            self._emit("steal-task-done", task_id=task_id,
                       worker=worker, job_id=job.job_id,
                       lease_id=lease_id)
        self._service_parked()
        self._maybe_drained()
        return CompletionResult(True)

    # -- leases ----------------------------------------------------------
    def heartbeat(self, worker: str,
                  lease_ids: Optional[List[int]] = None,
                  ) -> Tuple[List[int], List[int]]:
        """Renew leases; returns ``(renewed, gone)`` lease-id lists.

        ``lease_ids`` of None renews every lease the worker holds.  A
        lease that expired (and was requeued) before the heartbeat
        arrived lands in ``gone`` — the worker should abandon that
        task.
        """
        now = self._clock()
        if lease_ids is None:
            lease_ids = sorted(lease.lease_id for lease
                               in self._by_worker.get(worker, ()))
        renewed: List[int] = []
        gone: List[int] = []
        for lease_id in lease_ids:
            lease = self._leases.get(lease_id)
            if lease is None:
                gone.append(lease_id)
            else:
                lease.expires_at = now + self.lease_ttl
                renewed.append(lease_id)
        self.stats.metrics["lease_renewals"].inc(len(renewed))
        return renewed, gone

    def expire_leases(self, now: Optional[float] = None) -> int:
        """Requeue tasks whose lease lapsed; returns how many expired.

        The server calls this from a periodic sweeper; tests drive it
        directly with a fake clock.
        """
        now = self._clock() if now is None else now
        lapsed = [lease for lease in self._leases.values()
                  if lease.expires_at <= now]
        primaries = [lease for lease in lapsed
                     if self._tasks[lease.task_id].lease is lease]
        requeued = 0
        for lease in primaries:
            self._apply_lease_expire(lease.task_id, lease.lease_id)
            self.stats.metrics["lease_expiries"].inc()
            self._emit("lease-expire", task_id=lease.task_id,
                       lease_id=lease.lease_id, worker=lease.worker)
            if self._tasks[lease.task_id].lease is not None:
                continue  # a replica is still computing the task
            self._apply_requeue(lease.task_id)
            requeued += 1
            self._emit("requeue", task_id=lease.task_id,
                       reason="lease-expired")
        # Replica leases lapse quietly: the primary still covers the
        # task, so an expired replica is dropped without a requeue.
        # (One promoted just above is a primary now and waits for the
        # next sweep; the lapsed primaries are released.)
        replicas = [lease for lease in lapsed
                    if lease.lease_id in self._leases
                    and self._tasks[lease.task_id].lease is not lease]
        for replica in replicas:
            self._apply_lease_expire(replica.task_id, replica.lease_id)
            self.stats.metrics["lease_expiries"].inc()
            self._emit("lease-expire", task_id=replica.task_id,
                       lease_id=replica.lease_id,
                       worker=replica.worker)
        if primaries or replicas:
            self.stats.metrics["requeues"].inc(requeued)
            self.stats.record_queue_depth(self.queue_depth)
            self._service_parked()
            self._maybe_drained()
        return len(primaries) + len(replicas)

    # -- file-state deltas ----------------------------------------------
    def file_delta(self, site_id: int, added: List[int],
                   removed: List[int], referenced: List[int]) -> None:
        """Apply a worker's report of its site cache changes.

        Removals apply first (an LRU reports the eviction a new file
        caused), then insertions, then references — the same order the
        simulator's storage emits.  Redundant adds/removes (two workers
        sharing a site) are idempotent no-ops.
        """
        start = self._clock()
        duplicate_adds, duplicate_removes = self._apply_delta(
            site_id, added, removed, referenced)
        self.stats.record_delta(len(added), len(removed), len(referenced),
                                duplicate_adds=duplicate_adds,
                                duplicate_removes=duplicate_removes,
                                latency_s=self._clock() - start)
        if self.events is not None:
            # The id lists let replay re-apply the delta exactly.
            self.events.emit(
                "delta", site=site_id, added=len(added),
                removed=len(removed), referenced=len(referenced),
                duplicates=duplicate_adds + duplicate_removes,
                added_ids=list(added), removed_ids=list(removed),
                referenced_ids=list(referenced))

    # -- lifecycle -------------------------------------------------------
    def disconnect(self, worker: str) -> int:
        """A worker's connection closed; requeue its assigned tasks.

        Disconnect detection is instant requeue; the lease sweeper
        covers the harder case of a worker that stays connected (or
        whose TCP death goes unnoticed) but stops making progress.
        """
        self._parked = deque(entry for entry in self._parked
                             if entry.worker != worker)
        requeued = 0
        for lease in sorted(self._by_worker.pop(worker, ()),
                            key=lambda lease: lease.task_id):
            task_id = lease.task_id
            record = self._tasks[task_id]
            if record.lease is lease and not record.replicas:
                self._apply_requeue(task_id)
                requeued += 1
                self._emit("requeue", task_id=task_id,
                           reason="disconnect", worker=worker)
            else:
                # A replica is involved.  Either the worker only held
                # one (drop it, the primary still covers the task) or
                # it held the primary and a replica elsewhere is still
                # computing the task (that one takes over; a requeue
                # would start a third copy).
                self._apply_lease_expire(task_id, lease.lease_id)
                self._emit("lease-expire", task_id=task_id,
                           lease_id=lease.lease_id, worker=worker,
                           reason="disconnect")
        if requeued:
            self.stats.metrics["requeues"].inc(requeued)
            self.stats.record_queue_depth(self.queue_depth)
            self._service_parked()
        self._abort_exports_for(worker)
        self._maybe_drained()
        return requeued

    def drain(self) -> None:
        """Stop handing out tasks; finish outstanding work, then idle."""
        if self._apply_drain():
            self._emit("drain")
        self._service_parked()
        self._maybe_drained()

    def _maybe_drained(self) -> None:
        # A drain is complete only when nothing is out under a local
        # lease, no exported task is still computing on a thief, and
        # every stolen completion has been forwarded home.
        if (self._draining and self.outstanding == 0
                and not self.exported_outstanding and not self._steal_outbox):
            callback, self.on_drained = self.on_drained, None
            if callback is not None:
                callback()

    # -- work stealing (repro.cluster shard-to-shard) --------------------
    @property
    def steal_enabled(self) -> bool:
        return self._steal_watermark is not None

    @property
    def steal_watermark(self) -> Optional[int]:
        return self._steal_watermark

    @property
    def steal_outbox_depth(self) -> int:
        """Completions of stolen tasks not yet forwarded home."""
        return sum(len(ids) for ids in self._steal_outbox.values())

    @property
    def exported_outstanding(self) -> int:
        """Exported tasks still computing (or pending) on a thief."""
        return sum(self._tasks[task_id].export == export_id
                   for export_id, export in self._steal_exports.items()
                   for task_id in export["remaining"])

    def export_steal_batch(self, thief: str, max_tasks: int,
                           site_refsums: List[Dict]) -> Optional[Dict]:
        """Victim half of ``STEAL_REQUEST``: pick, detach, and grant.

        Chooses up to ``max_tasks`` pending *unleased* tasks of its own
        jobs — never dipping below the victim's own watermark, never
        re-exporting a stolen task — by lowest locality
        loss: each candidate is scored against the thief's shipped
        per-site file/refcount summaries with the allocation-free
        :data:`~repro.core.metrics.FAST_SCORERS`, and the
        highest-scoring tasks (ties broken by lower task id) move.
        The selection never touches the engine's RNG, so a victim
        that is never asked keeps a bit-identical decision stream.

        The export record is written to the WAL (and flushed) *before*
        this returns, i.e. before ``STEAL_GRANT`` hits the wire — a
        victim crash after the grant recovers the export and requeues
        it locally unless the thief's ack landed first.  Returns
        ``{"export_id", "tasks"}`` or None (nothing to grant).
        """
        if not self.steal_enabled or self._draining:
            self.stats.record_steal_request("rejected")
            return None
        budget = min(max_tasks,
                     self.queue_depth - self._steal_watermark)
        chosen = (self._select_steal_tasks(budget, site_refsums)
                  if budget > 0 else [])
        if not chosen:
            self.stats.record_steal_request("empty")
            return None
        export_id = self._next_export_id
        # Lists, as a replayed ``steal-export`` record holds them: the
        # export keeps its specs, and a snapshot writes them back out.
        specs = [{"task_id": task.task_id, "job_id": task.job.job_id,
                  "files": list(task.files), "flops": task.flops}
                 for task in map(self._tasks.__getitem__, chosen)]
        self._apply_steal_export(export_id, thief, specs)
        self.stats.metrics["tasks_exported"].inc(len(specs))
        self.stats.record_steal_request("granted")
        self._emit("steal-export", export_id=export_id, thief=thief,
                   specs=specs)
        return {"export_id": export_id, "tasks": specs}

    def _select_steal_tasks(self, budget: int,
                            site_refsums: List[Dict]) -> List[int]:
        """Rank pending tasks by their score *at the thief's sites*.

        ``site_refsums`` entries are ``{"site", "files", "refs"}``
        (parallel id/refcount lists).  A task's score is the best it
        would earn at any thief site under this service's metric; the
        per-site totals stand in for the thief's aggregate normalizers
        (only the relative order matters here).  Only this shard's own
        jobs are candidates: a stolen task stolen back would find its
        id known at the origin, be admitted nowhere, and be lost.

        A task sharing no file with any summary scores
        ``scorer(|t|, 0, 0.0, 0.0, 1.0)`` at every site (a zero
        refsum makes the ref term 0.0 whatever the site's total), so
        only the tasks the engine's file index finds sharing a file
        are scored file by file; every other task takes that
        zero-overlap score of its size.  The top ``budget`` keys
        ``(-score, task_id)`` are unique, so a heap yields exactly a
        full sort's prefix.  Read-only: no RNG, no engine change.
        """
        sites: List[Tuple[Dict[int, float], float]] = []
        for entry in site_refsums:
            refs = {fid: float(count)
                    for fid, count in zip(entry.get("files", ()),
                                          entry.get("refs", ()))}
            sites.append((refs, sum(refs.values())))
        sharing = self.engine.tasks_sharing(
            fid for refs, _total in sites for fid in refs)
        scorer = FAST_SCORERS[self.engine.metric_name]
        tasks = self._tasks
        zero: Dict[int, float] = {}
        ranked: List[Tuple[float, int]] = []
        for job in self._jobs.values():
            if job.origin is not None:
                continue
            for task_id in job.pending:
                files = tasks[task_id].files
                num_files = len(files)
                best = zero.get(num_files)
                if best is None:
                    best = zero[num_files] = scorer(num_files, 0, 0.0,
                                                    0.0, 1.0)
                if task_id in sharing:
                    for refs, total_refsum in sites:
                        overlap = 0
                        refsum = 0.0
                        for fid in files:
                            count = refs.get(fid)
                            if count is not None:
                                overlap += 1
                                refsum += count
                        score = scorer(num_files, overlap, refsum,
                                       total_refsum, 1.0)
                        if score > best:
                            best = score
                ranked.append((-best, task_id))
        return [task_id
                for _score, task_id in heapq.nsmallest(budget, ranked)]

    def steal_export_acked(self, export_id: int) -> bool:
        """Victim half of ``STEAL_ACK``: commit or refuse an export.

        True = the export is live (the thief may activate the tasks);
        the commit marker is WAL'd before the answer so a recovered
        victim never requeues an export a thief was told to keep.
        False = unknown or aborted export: the thief must drop its
        tentative import.  Idempotent — a re-ack after a thief crash
        gets the same answer.
        """
        if self._apply_steal_export_ack(export_id):
            self._emit("steal-export-ack", export_id=export_id)
        return export_id in self._steal_exports

    def steal_done(self, task_ids: List[int], worker: str) -> Dict:
        """Victim half of ``STEAL_DONE``: land forwarded completions.

        Each task completes exactly as a local ``task_done`` would —
        canonical ``complete`` WAL record, per-job counters, stats —
        and its export bookkeeping is retired.  Already-completed
        tasks (a re-forward after a thief crash) count as duplicates
        and change nothing: the receiver is idempotent, so the
        thief's at-least-once forwarding is exactly-once end to end.
        A batch naming an unknown id is refused whole: every id is
        looked up before any lands.
        """
        for task_id in task_ids:
            if task_id not in self._tasks:
                raise ServiceError(f"unknown task id {task_id!r}")
        completed = duplicates = 0
        for task_id in task_ids:
            record = self._tasks[task_id]
            if not self._apply_complete(task_id):
                self.stats.metrics["duplicate_completions"].inc()
                duplicates += 1
                continue
            self.stats.metrics["completions"].inc()
            self._emit("complete", task_id=task_id, worker=worker,
                       job_id=record.job.job_id)
            if record.job.done:
                self.stats.metrics["jobs_completed"].inc()
            completed += 1
        if completed:
            self._service_parked()
            self._maybe_drained()
        return {"completed": completed, "duplicates": duplicates}

    def _unacked_exports(self, thief: Optional[str] = None) -> List[int]:
        """Ids of exports no ack made durable (of one thief, or all)."""
        return sorted(
            export_id
            for export_id, record in self._steal_exports.items()
            if not record["acked"] and thief in (None, record["thief"]))

    def _abort_exports_for(self, worker: str) -> None:
        """Abort live un-acked exports granted to a vanished thief.

        Only un-acked exports abort: an acked export is the thief's to
        run even across its own reconnects, and the forwarded
        completion (or the operator) is the only way it resolves.
        """
        for export_id in self._unacked_exports(worker):
            depth = self.queue_depth
            self._apply_steal_export_abort(export_id)
            self._emit("steal-export-abort", export_id=export_id)
            if self.queue_depth > depth:
                self.stats.metrics["requeues"].inc(self.queue_depth - depth)
                self.stats.record_queue_depth(self.queue_depth)
                self._service_parked()

    def requeue_unacked_exports(self) -> int:
        """Crash recovery: reclaim exports whose ack never landed.

        Called by the shard recovery path after the WAL tail is
        folded.  An export with no durable ack may or may not have
        reached the thief — but the thief cannot have *activated* it
        (activation requires the victim's acked answer), so requeueing
        locally is safe and loses nothing.  A thief holding the
        matching tentative import will re-ack, find the export gone,
        and drop it.  Emits nothing: the fold is reproduced by the
        same call on the next recovery.
        """
        depth = self.queue_depth
        for export_id in self._unacked_exports():
            self._apply_steal_export_abort(export_id)
        return self.queue_depth - depth

    def steal_import_tentative(self, origin: int, export_id: int,
                               specs: List[Dict]) -> None:
        """Thief: durably hold a grant *without* activating it.

        The WAL import record makes the grant survive a thief crash;
        the tasks stay invisible to the scheduler until
        :meth:`steal_commit_import` — which requires the victim's
        acked answer — so a crash here can never double-run them.
        """
        if self._apply_steal_import(origin, export_id, specs):
            self._emit("steal-import", origin=origin, export_id=export_id,
                       specs=self._steal_imports[origin, export_id])

    def pending_steal_imports(self) -> List[Tuple[int, int]]:
        """Tentative imports awaiting the victim's answer (recovery)."""
        return sorted(self._steal_imports)

    def steal_commit_import(self, origin: int, export_id: int) -> int:
        """Thief: activate a tentative import the victim acked."""
        depth = self.queue_depth
        if not self._apply_steal_import_commit(origin, export_id):
            return 0
        self._emit("steal-import-commit", origin=origin,
                   export_id=export_id)
        count = self.queue_depth - depth
        self.stats.metrics["tasks_stolen"].inc(count)
        self.stats.record_queue_depth(self.queue_depth)
        self._service_parked()
        return count

    def steal_abort_import(self, origin: int, export_id: int) -> None:
        """Thief: drop a tentative import the victim refused."""
        if self._apply_steal_import_abort(origin, export_id):
            self._emit("steal-import-abort", origin=origin,
                       export_id=export_id)

    def take_steal_completions(self) -> Dict[int, List[int]]:
        """Snapshot (without clearing) the forwarding outbox.

        The sender is at-least-once: entries leave the outbox only via
        :meth:`steal_forwarded` after the origin's ack, and the origin
        dedups re-forwards.
        """
        return {origin: list(task_ids)
                for origin, task_ids in self._steal_outbox.items()
                if task_ids}

    def steal_forwarded(self, origin: int, task_ids: List[int]) -> None:
        """Thief: the origin acked these forwarded completions."""
        delivered = set(task_ids)
        forwarded = [tid for tid in self._steal_outbox.get(origin, ())
                     if tid in delivered]
        if self._apply_steal_forwarded(forwarded, origin):
            self._emit("steal-forwarded", task_ids=forwarded,
                       origin=origin)
            self._maybe_drained()

    # -- observability ---------------------------------------------------
    def stats_snapshot(self) -> Dict:
        return self.stats.snapshot()

    def jobs_overview(self) -> List[Dict]:
        """Per-job progress rows (what ``repro top`` renders as bars)."""
        return [self.job_status(job_id)
                for job_id in sorted(self._jobs)]

    # -- durability (repro.cluster snapshot + WAL replay) ----------------
    #: Bump when :meth:`export_state`'s shape changes incompatibly.
    STATE_VERSION = 1

    def export_state(self) -> Dict:
        """Everything a restarted shard needs, as JSON-native data.

        Captures the task table, per-job progress, outstanding leases,
        per-site file state and the engine's RNG stream.  Lease
        *deadlines* are deliberately not exported: a restore re-arms
        every outstanding lease with a fresh TTL (monotonic clocks do
        not survive a process), which can only delay a requeue, never
        lose or duplicate a completion.  Stats counters restart at
        zero — they describe a process, not the schedule.
        """
        def lease_row(lease: _Lease) -> List:
            return [lease.task_id, lease.lease_id, lease.worker,
                    lease.site_id]

        # Every per-task list is read off the record table in task-id
        # order, so each comes out sorted.
        records = sorted(self._tasks.items())
        jobs = {job: ([], []) for job in self._jobs.values()}
        for task_id, record in records:
            job_tasks, job_completed = jobs[record.job]
            job_tasks.append(task_id)
            if record.done:
                job_completed.append(task_id)
        replicas = [lease_row(lease) for _task_id, record in records
                    for lease in record.replicas]
        engine = self.engine
        state = {
            "version": self.STATE_VERSION,
            "metric": engine.metric_name,
            "n": engine.n,
            "id_start": self._id_start,
            "id_stride": self._id_stride,
            "next_task_id": self._next_task_id,
            "next_job_id": self._next_job_id,
            "next_lease_id": self._next_lease_id,
            "rng": _rng_row(engine.rng),
            "decisions": engine.decisions,
            "tasks_scored": engine.tasks_scored,
            "tasks": [[task_id, list(record.files), record.flops]
                      for task_id, record in records],
            "jobs": [[job_id, *jobs[job]]
                     for job_id, job in sorted(self._jobs.items())],
            "assigned": [lease_row(record.lease)
                         for _task_id, record in records
                         if record.lease is not None],
            "completed": [task_id for task_id, record in records
                          if record.done],
            "sites": [[site_id, engine.site_state(site_id).export()]
                      for site_id in sorted(engine.site_ids)],
            "draining": self._draining,
        }
        # Optional keys appear only once the feature they belong to
        # has left state behind, so a service that never saw a
        # replica, a weight or a steal exports exactly the keys above,
        # byte-identical to a service without the feature.
        if replicas:
            state["replicas"] = replicas
        if self._weighted:
            state["weights"] = [
                [job_id, job.weight, job.assigned]
                for job_id, job in sorted(self._jobs.items())]
        steal = self._export_steal_state()
        if steal:
            state["steal"] = steal
        return state

    def _export_steal_state(self) -> Dict:
        steal: Dict = {}
        if self._steal_exports:
            steal["exports"] = [
                [export_id, record["thief"], record["acked"],
                 [dict(spec) for spec in record["specs"]],
                 sorted(record["remaining"])]
                for export_id, record
                in sorted(self._steal_exports.items())]
        if self._next_export_id != 1:
            # Exported even with no live exports: export ids must
            # never be reused across restarts (a thief may still hold
            # a tentative import keyed by one).
            steal["next_export_id"] = self._next_export_id
        if self._steal_imports:
            steal["imports"] = [
                [origin, export_id, [dict(spec) for spec in specs]]
                for (origin, export_id), specs
                in sorted(self._steal_imports.items())]
        foreign = [[job_id, job.origin]
                   for job_id, job in sorted(self._jobs.items())
                   if job.origin is not None]
        if foreign:
            steal["foreign_jobs"] = foreign
        if self._steal_outbox:
            steal["outbox"] = [
                [origin, list(task_ids)] for origin, task_ids
                in sorted(self._steal_outbox.items())]
        return steal

    def import_state(self, state: Dict) -> None:
        """Rebuild from :meth:`export_state` output (fresh service only).

        Restore order matters for bit-identical future decisions:
        sites are attached *before* tasks are re-added (so every
        task's overlap folds against the restored residency, exactly
        as ``watch_site`` + ``add_task`` maintain it live; refsums
        are rebuilt from the restored reference counts by the first
        decision that reads them), leases and exports are restored
        first so that only the tasks neither holds enter the engine,
        pending tasks re-enter in ascending id order (the zero-overlap
        heap ends up with the same entry set, and pop order is fully
        determined by entry tuples), and the RNG stream resumes from
        the captured state.
        """
        if state.get("version") != self.STATE_VERSION:
            raise ServiceError(
                f"snapshot state version {state.get('version')!r} != "
                f"{self.STATE_VERSION}")
        engine = self.engine
        for key, mine in (("metric", engine.metric_name),
                          ("n", engine.n),
                          ("id_start", self._id_start),
                          ("id_stride", self._id_stride)):
            if state.get(key) != mine:
                raise ServiceError(
                    f"snapshot {key}={state.get(key)!r} does not match "
                    f"this service's {key}={mine!r}")
        if self._tasks or self._jobs:
            raise ServiceError(
                "import_state needs a freshly constructed service")
        for site_id, payload in state["sites"]:
            engine.attach_site(site_id, state=SiteFileState.restore(
                payload["resident"], payload["references"]))
        tasks = self._tasks
        for task_id, files, flops in state["tasks"]:
            tasks[task_id] = self._new_record(task_id, files, flops)
        for job_id, task_ids, _completed in state["jobs"]:
            job = self._jobs[job_id] = _JobState(job_id)
            job.tasks = len(task_ids)
            for task_id in task_ids:
                tasks[task_id].job = job
        for task_id in state["completed"]:
            record = self._tasks[task_id]
            record.done = True
            record.job.completed += 1
        # Leases and the steal ledger go back in through the
        # transitions that first made them.
        for key in ("assigned", "replicas"):
            for task_id, lease_id, worker, site_id in state.get(key, []):
                self._apply_assign(task_id, site_id, worker, lease_id,
                                   replica=key == "replicas")
        steal = state.get("steal", {})
        for export_id, thief, acked, specs, _remaining in steal.get(
                "exports", []):
            self._apply_steal_export(export_id, thief, specs)
            if acked:
                self._apply_steal_export_ack(export_id)
        # Every task neither done, leased nor exported is pending.
        for task_id in sorted(self._tasks):
            record = self._tasks[task_id]
            if (not record.done and record.lease is None
                    and record.export is None):
                record.job.pending.add(task_id)
                engine.add_task(record)
        for origin, export_id, specs in steal.get("imports", []):
            self._apply_steal_import(origin, export_id, specs)
        for job_id, origin in steal.get("foreign_jobs", []):
            self._jobs[job_id].origin = origin
        for origin, task_ids in steal.get("outbox", []):
            self._steal_outbox[origin] = list(task_ids)
        for job_id, weight, assigned in state.get("weights", []):
            self._jobs[job_id].weight = weight
            self._jobs[job_id].assigned = assigned
            self._weighted = True
        self._next_task_id = state["next_task_id"]
        self._next_job_id = state["next_job_id"]
        self._next_lease_id = state["next_lease_id"]
        self._next_export_id = steal.get("next_export_id", 1)
        _resume_rng(engine.rng, state["rng"])
        engine.decisions = state.get("decisions", 0)
        engine.tasks_scored = state.get("tasks_scored", 0)
        self._draining = bool(state.get("draining", False))

    def log_recovery(self, wal_seq: Optional[int]) -> None:
        """Begin a recovered incarnation's log with a ``recovered``
        record: the snapshot's ``wal_seq`` it resumed from and the RNG
        it resumed with.

        Recovery folds outcomes, so the engine goes on from the
        snapshot's RNG rather than the one the lost incarnation had
        reached, and it reclaims un-acked exports without a record.
        :meth:`redecide` does both again here; :meth:`replay_record`
        skips the record, which holds no state the fold lacks.
        """
        self._emit("recovered", wal_seq=wal_seq,
                   rng=_rng_row(self.engine.rng))

    # -- state transitions -----------------------------------------------
    # One per WAL record kind, taking that record's fields, tolerating a
    # duplicate, returning whether state changed.  With import_state the
    # only code that moves a task between pending / leased / exported /
    # completed; the live methods above and replay_record both call it.

    def _new_record(self, task_id: int, files: Sequence[int],
                    flops: float) -> _TaskRecord:
        """A task as the service holds it, admitted live, replayed,
        stolen or recovered (its job is the caller's to set).

        ``files`` becomes a sorted tuple of its distinct ids, each one
        taken from ``_file_ids``: ids decoded off the wire or a log
        are new ``int`` objects per reference, and a Coadd file is
        referenced by ~9 tasks.  78 ids take 664 B as a tuple; as a
        ``frozenset`` they took 4 312 B."""
        _refuse_bad_task(task_id, files, flops)
        shared = self._file_ids
        ids = sorted(set(files))
        return _TaskRecord(task_id, tuple(map(shared.setdefault, ids, ids)),
                           float(flops))

    def _admit(self, job_id: int, task_id: int, spec: Dict,
               origin: Optional[int] = None) -> bool:
        """Make one task known and pending (a known id is a no-op)."""
        if task_id in self._tasks:
            return False
        record = self._new_record(task_id, spec["files"],
                                  spec.get("flops", 0.0))
        job = self._jobs.get(job_id)
        if job is None:
            job = self._jobs[job_id] = _JobState(job_id, origin)
            if origin is None:
                self._next_job_id = max(self._next_job_id,
                                        job_id + self._id_stride)
        record.job = job
        self._tasks[task_id] = record
        self.engine.add_task(record)
        job.tasks += 1
        job.pending.add(task_id)
        return True

    def _task(self, task_id: int) -> _TaskRecord:
        """The record of a task a transition names.  A log is outside
        input: an id it never admitted is refused, not a ``KeyError``."""
        record = self._tasks.get(task_id)
        if record is None:
            raise ServiceError(f"record for unknown task {task_id!r}")
        return record

    def _dequeue(self, record: _TaskRecord, task_id: int) -> None:
        """Take a task out of the pending set (its job's and the
        engine's), if it is in it."""
        if task_id in record.job.pending:
            record.job.pending.remove(task_id)
            self.engine.remove_task(record)

    def _release_lease(self, lease: _Lease) -> None:
        record = self._tasks[lease.task_id]
        if record.lease is lease:
            record.lease = None
            self._leased -= 1
        else:
            record.replicas = tuple(replica for replica in record.replicas
                                    if replica is not lease)
        self._leases.pop(lease.lease_id, None)
        self._by_worker.get(lease.worker, set()).discard(lease)

    def _apply_submit(self, job_id: int, task_ids: List[int],
                      specs: List[Dict], weight: Optional[float] = None,
                      assigned: Optional[List[List[int]]] = None) -> bool:
        changed = False
        for task_id, spec in zip(task_ids, specs):
            changed |= self._admit(job_id, task_id, spec)
        self._next_task_id = max(self._next_task_id,
                                 task_ids[-1] + self._id_stride)
        if weight is not None:
            changed |= self._jobs[job_id].weight != weight
            self._jobs[job_id].weight = weight
            if not self._weighted:
                # Sticky from the first weight on.  No snapshot from
                # before it carried pass counts, so this submit records
                # them; the record (a new job: 0), not what this fold
                # counted, is what the live service went on with.
                self._weighted = True
                counts = dict(assigned or ())
                for job in self._jobs.values():
                    job.assigned = counts.get(job.job_id, 0)
        return changed

    def _apply_assign(self, task_id: int, site: int, worker: str,
                      lease_id: int, replica: bool = False) -> bool:
        record = self._task(task_id)
        # A replica lease rides on a live primary; a primary lease
        # needs the task to have none.
        if (record.done or lease_id in self._leases
                or (record.lease is not None) != bool(replica)):
            return False
        self.ensure_site(site)
        now = self._clock()
        lease = _Lease(lease_id, task_id, worker, site,
                       now + self.lease_ttl, granted_at=now)
        if replica:
            record.replicas += (lease,)
        else:
            self._dequeue(record, task_id)
            record.job.assigned += 1
            record.lease = lease
            self._leased += 1
        self._leases[lease_id] = lease
        self._by_worker.setdefault(worker, set()).add(lease)
        if lease_id >= self._next_lease_id:
            self._next_lease_id = lease_id + 1
        return True

    def _apply_complete(self, task_id: int) -> bool:
        """``complete`` and ``steal-task-done``: done, exactly once."""
        record = self._task(task_id)
        if record.done:
            return False
        job = record.job
        if record.lease is not None:
            # First completion wins: every lease on the task goes, so
            # whichever copy reports second finds no lease to present.
            for lease in (record.lease, *record.replicas):
                self._release_lease(lease)
        else:
            # A pending task: complete raced a requeue in the original
            # run order (or is the forwarded completion of a reclaimed
            # export); honor it, it is what the worker was told.
            self._dequeue(record, task_id)
        job.completed += 1
        record.done = True
        # A forwarded completion retires the export bookkeeping; an
        # export lives until its last task's completion (or its abort).
        export_id, record.export = record.export, None
        export = self._steal_exports.get(export_id)
        if export is not None:
            export["remaining"].discard(task_id)
            if not export["remaining"]:
                del self._steal_exports[export_id]
        # A stolen task's completion waits here to be forwarded home.
        if job.origin is not None:
            self._steal_outbox.setdefault(job.origin, []).append(task_id)
        return True

    def _apply_lease_expire(self, task_id: int, lease_id: int) -> bool:
        lease = self._leases.get(lease_id)
        if lease is None or lease.task_id != task_id:
            return False
        self._release_lease(lease)
        record = self._task(task_id)
        if record.replicas and record.lease is None:
            # The primary went while a replica is still computing the
            # task: the oldest live replica becomes the primary, so
            # the task is not requeued (that would start a third copy).
            record.lease, record.replicas = (record.replicas[0],
                                             record.replicas[1:])
            self._leased += 1
        return True

    def _apply_requeue(self, task_id: int) -> bool:
        record = self._task(task_id)
        lease = record.lease
        if lease is not None:
            # Disconnect requeues have no separate release record.
            self._release_lease(lease)
        if record.done or self.engine.is_pending(task_id):
            return lease is not None
        self.engine.add_task(record)
        record.job.pending.add(task_id)
        return True

    def _apply_delta(self, site: int, added_ids: List[int],
                     removed_ids: List[int],
                     referenced_ids: List[int]) -> Tuple[int, int]:
        """Returns the redundant ``(adds, removes)`` counts (live stats)."""
        self.ensure_site(site)
        return self.engine.apply_delta(site, added_ids, removed_ids,
                                       referenced_ids)

    def _apply_drain(self) -> bool:
        changed = not self._draining
        self._draining = True
        return changed

    def _apply_steal_export(self, export_id: int, thief: str,
                            specs: List[Dict]) -> bool:
        if export_id < self._next_export_id:
            return False  # ids only grow: this one was applied before
        # Every id is looked up before any task moves.
        records = [(spec["task_id"], self._task(spec["task_id"]))
                   for spec in specs]
        remaining: Set[int] = set()
        for task_id, record in records:
            if record.done:
                continue
            remaining.add(task_id)
            record.export = export_id
            self._dequeue(record, task_id)
        self._steal_exports[export_id] = {
            "thief": thief, "acked": False, "specs": specs,
            "remaining": remaining}
        self._next_export_id = export_id + 1
        return True

    def _apply_steal_export_ack(self, export_id: int) -> bool:
        export = self._steal_exports.get(export_id)
        if export is None or export["acked"]:
            return False
        export["acked"] = True
        return True

    def _apply_steal_export_abort(self, export_id: int) -> bool:
        """Hand what is left of an export back to the local queue."""
        export = self._steal_exports.pop(export_id, None)
        if export is None:
            return False
        for task_id in sorted(export["remaining"]):
            # requeue_unacked_exports writes no record, so an export it
            # reclaimed stays un-acked in the WAL and the next recovery
            # folds what happened since on top of it: by now the task
            # may belong to a later export, or be out under a lease.
            record = self._task(task_id)
            if record.export == export_id:
                record.export = None
                if record.lease is None:
                    self._apply_requeue(task_id)
        return True

    def _apply_steal_import(self, origin: int, export_id: int,
                            specs: List[Dict]) -> bool:
        if (origin, export_id) in self._steal_imports:
            return False
        # Refused whole, before it is held: a bad spec would otherwise
        # fail its commit halfway, at every recovery.
        for spec in specs:
            _refuse_bad_task(spec["task_id"], spec["files"],
                             spec.get("flops", 0.0))
        self._steal_imports[origin, export_id] = [
            dict(spec) for spec in specs]
        return True

    def _apply_steal_import_commit(self, origin: int,
                                   export_id: int) -> bool:
        """Activate stolen tasks under their original (foreign) ids.

        Shard id striding keeps foreign ids disjoint from anything
        this service allocates, so the id counters are deliberately
        *not* advanced.  The foreign job shell tracks only the stolen
        tasks; its completions forward home instead of counting here.
        """
        specs = self._steal_imports.pop((origin, export_id), None)
        if specs is None:
            return False
        for spec in specs:
            self._admit(spec["job_id"], spec["task_id"], spec,
                        origin=origin)
        return True

    def _apply_steal_import_abort(self, origin: int,
                                  export_id: int) -> bool:
        return self._steal_imports.pop((origin, export_id),
                                       None) is not None

    def _apply_steal_forwarded(self, task_ids: List[int],
                               origin: int) -> bool:
        queue = self._steal_outbox.get(origin, [])
        delivered = set(task_ids)
        kept = [tid for tid in queue if tid not in delivered]
        if len(kept) == len(queue):
            return False
        if kept:
            self._steal_outbox[origin] = kept
        else:
            del self._steal_outbox[origin]
        return True

    #: WAL record kind -> (transition, required fields, optional fields).
    #: The field names are the on-disk format (additive-only), written
    #: out here so that renaming a parameter cannot change what recovery
    #: reads.  The decision span an ``assign`` carries, the pull a
    #: traced burst's first ``assign`` names (``scope``, ``max_tasks``:
    #: read by ``redecide`` only), an incarnation's ``recovered``
    #: record, the ``decision`` records older logs hold and unknown
    #: kinds carry no state.
    _TRANSITIONS = {
        "submit": (_apply_submit, "job_id task_ids specs", "weight assigned"),
        "assign": (_apply_assign, "task_id site worker lease_id", "replica"),
        "complete": (_apply_complete, "task_id", ""),
        "lease-expire": (_apply_lease_expire, "task_id lease_id", ""),
        "requeue": (_apply_requeue, "task_id", ""),
        "delta": (_apply_delta,
                  "site added_ids removed_ids referenced_ids", ""),
        "drain": (_apply_drain, "", ""),
        "steal-export": (_apply_steal_export, "export_id thief specs", ""),
        "steal-export-ack": (_apply_steal_export_ack, "export_id", ""),
        "steal-export-abort": (_apply_steal_export_abort, "export_id", ""),
        "steal-import": (_apply_steal_import, "origin export_id specs", ""),
        "steal-import-commit": (_apply_steal_import_commit,
                                "origin export_id", ""),
        "steal-import-abort": (_apply_steal_import_abort,
                               "origin export_id", ""),
        "steal-task-done": (_apply_complete, "task_id", ""),
        "steal-forwarded": (_apply_steal_forwarded, "task_ids origin", ""),
    }

    def replay_record(self, record: Dict) -> bool:
        """Re-apply one record of an event log a service wrote.

        Returns True when the record mutated state (``decision``
        records and redundant/duplicate records do not).  Replay is a
        pure state fold: nothing is emitted, no parked request is
        answered, stats counters stay untouched — the caller attaches
        the live event log only after the tail is folded in.  Leases
        recreated for in-flight assignments get a fresh TTL; the
        worker either reconnects and completes under its original
        lease id, or the sweeper requeues the task — exactly-once
        either way.  A record that lacks a field, or names a task the
        log never admitted, raises :class:`ServiceError`.
        """
        entry = self._TRANSITIONS.get(record.get("event"))
        if entry is None:
            return False
        apply, required, optional = entry
        try:
            args = [record[name] for name in required.split()]
        except KeyError as missing:
            raise ServiceError(
                f"{record['event']} record lacks {missing}") from None
        try:
            return bool(apply(self, *args,
                              *map(record.get, optional.split())))
        except ServiceError as error:
            raise ServiceError(f"{record['event']} {error}") from None

    def redecide(self, records: Iterable[Dict],
                 ) -> List[Tuple[int, Optional[int], Optional[int]]]:
        """Make a log's pull decisions again; return where they differ.

        Call it on a fresh service with the log's settings and a fixed
        clock (after :meth:`import_state` of the state the log starts
        from, if any), so that leases lapse only through the log's
        ``lease-expire`` records.  Each burst of non-replica
        ``assign`` records, the grants of one pull, is answered by
        :meth:`request_tasks` with the worker and site of its first
        record and the ``scope`` and ``max_tasks`` it names; every
        other record folds through :meth:`replay_record`.  A log
        written without a tracer names neither, so its bursts are
        unscoped pulls of each run of assigns to one worker.  A
        ``recovered`` record (:meth:`log_recovery`) is a restart: the
        un-acked exports are reclaimed and the RNG resumes from it, as
        recovery did, so one call re-decides a log across restarts.

        Returns ``(seq, recorded task id, re-made task id)`` per grant
        that differs (the record's index when it has no ``seq``; a
        grant only one side made pairs with None): an empty list means
        every decision agreed.  After a mismatch the service goes on
        from its own choice, so later entries may follow from it.
        """
        mismatches: List[Tuple[int, Optional[int], Optional[int]]] = []
        burst: List[Tuple[int, Dict]] = []
        for index, record in enumerate(records):
            # An assign that lacks a field goes to replay_record, which
            # refuses it by name.
            pulled = (record.get("event") == "assign"
                      and not record.get("replica")
                      and {"task_id", "site", "worker"} <= record.keys())
            joins = (pulled and burst and "max_tasks" not in record
                     and record["worker"] == burst[0][1]["worker"])
            if burst and not joins:
                mismatches += self._repull(burst)
                burst = []
            if pulled:
                burst.append((record.get("seq", index), record))
            elif record.get("event") == "recovered":
                self.requeue_unacked_exports()
                _resume_rng(self.engine.rng, record["rng"])
            else:
                self.replay_record(record)
        if burst:
            mismatches += self._repull(burst)
        return mismatches

    def _repull(self, burst: List[Tuple[int, Dict]],
                ) -> List[Tuple[int, Optional[int], Optional[int]]]:
        """Ask one recorded pull again; the grants that differ."""
        first = burst[0][1]
        granted: List[Assignment] = []

        def deliver(answer: Union[str, List[Assignment]]) -> None:
            if not isinstance(answer, str):  # a str is a NO_TASK reason
                granted.extend(answer)

        parked = len(self._parked)
        self.request_tasks(first["worker"], first["site"],
                           first.get("max_tasks", len(burst)), deliver,
                           job_id=first.get("scope"))
        if len(self._parked) > parked:
            self._parked.pop()  # the log says this pull was answered
        mismatches = []
        for entry, grant in zip_longest(burst, granted):
            seq, record = entry or (burst[-1][0], {})
            remade = None if grant is None else grant.task.task_id
            if record.get("task_id") != remade:
                mismatches.append((seq, record.get("task_id"), remade))
        return mismatches
