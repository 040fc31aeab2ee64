"""Per-site data servers.

System-model assumptions 3-5: the data server of a site receives every
file request from the site's workers, batches one request per task, and
serves requests **one by one** (serial service is deliberate — it avoids
redundant concurrent transfers of the same file and respects the shared
uplink).  A worker's task may start only when its whole batch is local.

The server also keeps the per-request statistics the paper reports in
Table 3: queue waiting time, transfer time, and transfer count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..analysis.trace import BatchServed, FileTransferred, TraceBus
from ..sim.engine import Environment
from ..sim.events import Event
from ..sim.resources import Store
from .file_server import FileServer
from .files import FileId
from .storage import SiteStorage

#: Request lifecycle states.
QUEUED = "queued"
SERVING = "serving"
DONE = "done"
CANCELLED = "cancelled"


@dataclass
class BatchRequest:
    """One task's batch file request, owned by a :class:`DataServer`.

    ``done`` succeeds when either the batch is fully resident and pinned
    (value ``True``) or the request was cancelled (value ``False``).
    """

    request_id: int
    worker_name: str
    files: Tuple[FileId, ...]
    done: Event
    submitted_at: float
    state: str = QUEUED
    pinned: List[FileId] = field(default_factory=list)
    #: Files actually fetched over the network for this request.
    transfers: int = 0
    service_started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def waiting_time(self) -> float:
        """Time spent in the data server's queue before service."""
        if self.service_started_at is None:
            return 0.0
        return self.service_started_at - self.submitted_at

    @property
    def transfer_time(self) -> float:
        """Time from service start until the batch became fully local."""
        if self.service_started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.service_started_at


@dataclass
class DataServerStats:
    """Aggregates for one data server (Table 3 inputs)."""

    requests_served: int = 0
    requests_cancelled: int = 0
    total_waiting_time: float = 0.0
    total_transfer_time: float = 0.0
    total_transfers: int = 0

    @property
    def avg_waiting_time(self) -> float:
        served = self.requests_served
        return self.total_waiting_time / served if served else 0.0

    @property
    def avg_transfer_time(self) -> float:
        served = self.requests_served
        return self.total_transfer_time / served if served else 0.0

    @property
    def avg_transfers(self) -> float:
        served = self.requests_served
        return self.total_transfers / served if served else 0.0


class DataServer:
    """Batch-request server in front of one site's storage.

    The paper's model (assumption 3) serves requests strictly one by
    one — ``parallelism=1``, the default.  Higher parallelism serves
    several batches concurrently with in-flight transfer deduplication
    (two batches needing the same missing file share one transfer);
    the serial-vs-parallel ablation benchmark quantifies the paper's
    claim that serial service is the better use of the shared uplink.
    """

    def __init__(self, env: Environment, site_id: int, gateway_node: str,
                 storage: SiteStorage, file_server: FileServer,
                 trace: TraceBus, parallelism: int = 1):
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.env = env
        self.site_id = site_id
        self.gateway_node = gateway_node
        self.storage = storage
        self.file_server = file_server
        self.trace = trace
        self.parallelism = parallelism
        self.stats = DataServerStats()
        self._queue: Store[BatchRequest] = Store(env)
        self._next_id = 0
        #: In-flight fetches: file id -> completion event (dedup).
        self._inflight: dict = {}
        self._processes = [
            env.process(self._serve_loop(),
                        name=f"dataserver-{site_id}.{lane}")
            for lane in range(parallelism)
        ]

    # -- worker-facing API -----------------------------------------------
    def submit(self, files: Iterable[FileId],
               worker_name: str = "?") -> BatchRequest:
        """Enqueue a batch request for ``files``."""
        request = BatchRequest(
            request_id=self._next_id,
            worker_name=worker_name,
            files=tuple(files),
            done=Event(self.env),
            submitted_at=self.env.now,
        )
        self._next_id += 1
        self._queue.put(request)
        return request

    def cancel(self, request: BatchRequest) -> None:
        """Cancel a request; takes effect before its next file fetch.

        Pins already taken are released here (for finished service) or
        by the serve loop (mid-service).  Cancelling a DONE request
        releases its pins, making it equivalent to :meth:`release`.
        """
        if request.state == CANCELLED:
            return
        if request.state == DONE:
            self.release(request)
            request.state = CANCELLED
            return
        previous = request.state
        request.state = CANCELLED
        if previous == QUEUED:
            # The serve loop will skip it; resolve the waiter now.
            request.done.succeed(False)

    def release(self, request: BatchRequest) -> None:
        """Unpin a completed request's files (task finished computing)."""
        self.storage.unpin_all(request.pinned)
        request.pinned = []

    # -- service loop ------------------------------------------------------
    def _serve_loop(self):
        while True:
            request = yield self._queue.get()
            if request.state == CANCELLED:
                self.stats.requests_cancelled += 1
                continue
            request.state = SERVING
            request.service_started_at = self.env.now
            yield from self._serve(request)

    def _serve(self, request: BatchRequest):
        """Pin resident files, fetch the rest one at a time."""
        storage = self.storage
        for fid in request.files:
            if request.state == CANCELLED:
                break
            if fid in storage:
                # What _acquire does for a resident file, without a
                # generator: it would pin at once and never yield.
                storage.pin(fid)
                request.pinned.append(fid)
            else:
                yield from self._acquire(request, fid)
        self._finish(request)

    def _acquire(self, request: BatchRequest, fid: FileId):
        """Make ``fid`` resident and pinned for ``request``.

        Loops because under parallel service another batch's insert can
        evict the file between an in-flight wait and our pin.
        """
        while fid not in self.storage:
            if request.state == CANCELLED:
                return
            pending = self._inflight.get(fid)
            if pending is not None:
                yield pending
                continue
            gate = Event(self.env)
            self._inflight[fid] = gate
            start = self.env.now
            try:
                yield self.file_server.fetch(self.gateway_node, fid)
            finally:
                del self._inflight[fid]
                gate.succeed()
            request.transfers += 1
            self.storage.insert(fid)
            self.trace.emit(FileTransferred(
                time=self.env.now, file_id=fid, site=self.site_id,
                size=self.file_server.catalog.size(fid),
                duration=self.env.now - start))
        if request.state != CANCELLED:
            self.storage.pin(fid)
            request.pinned.append(fid)

    def _finish(self, request: BatchRequest) -> None:
        request.finished_at = self.env.now
        cancelled = request.state == CANCELLED
        if cancelled:
            # Roll back pins; the waiter was already resolved by cancel().
            self.storage.unpin_all(request.pinned)
            request.pinned = []
            self.stats.requests_cancelled += 1
        else:
            request.state = DONE
            # Record past references (r_i) for every file of the batch.
            self.storage.touch(*request.files)
            self.stats.requests_served += 1
            self.stats.total_waiting_time += request.waiting_time
            self.stats.total_transfer_time += request.transfer_time
            self.stats.total_transfers += request.transfers
            request.done.succeed(True)
        self.trace.emit(BatchServed(
            time=self.env.now, site=self.site_id,
            worker=request.worker_name, num_files=len(request.files),
            num_transfers=request.transfers,
            waiting_time=request.waiting_time,
            transfer_time=request.transfer_time, cancelled=cancelled))
