"""Reconstruct per-task timelines from an observability event log.

``repro serve --event-log`` (server view) and ``repro load
--event-log`` (client view) both write the JSON-lines stream defined
in :mod:`repro.obs.events`.  This module folds that stream back into
per-task histories: every attempt (assign → complete, or assign →
lease-expire/requeue) a task went through, with timestamps, so you can
ask "how long did task 17 wait, where did it run, how often was it
retried" offline.  A task can have several attempts open at once — a
straggler's primary lease and its replicas — so a record that names a
``lease_id`` closes the attempt holding that lease, not the latest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..obs.events import iter_events

__all__ = ["Attempt", "TaskTimeline", "task_timelines",
           "load_timelines"]


@dataclass
class Attempt:
    """One assignment of a task to a worker, and how it ended."""

    worker: str
    site: Optional[int]
    assigned_at: float
    lease_id: Optional[int] = None
    ended_at: Optional[float] = None
    #: "completed", "lease-expired", "disconnect", "superseded"
    #: (another copy of the task completed first), ... — None while
    #: the attempt is still open (log ended mid-flight).
    outcome: Optional[str] = None
    #: A second copy of a straggler, granted while the primary lease
    #: was still out (``assign {replica: true}``) — not a retry.
    replica: bool = False
    #: Why this worker got the task: ``{"metric", "candidates"}`` from
    #: the ``assign`` record of a traced server (the ranked top-*n*
    #: the sampler saw); None for replicas, client-side logs and
    #: untraced servers.
    decision: Optional[Dict] = None

    @property
    def duration(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.assigned_at


@dataclass
class TaskTimeline:
    """Everything the event log says about one task."""

    task_id: int
    job_id: Optional[int] = None
    submitted_at: Optional[float] = None
    attempts: List[Attempt] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return any(a.outcome == "completed" for a in self.attempts)

    @property
    def completed_at(self) -> Optional[float]:
        for attempt in self.attempts:
            if attempt.outcome == "completed":
                return attempt.ended_at
        return None

    @property
    def retries(self) -> int:
        """Assignments beyond the first (0 for the happy path); a
        replica runs beside an attempt, it does not follow one."""
        return max(sum(not attempt.replica
                       for attempt in self.attempts) - 1, 0)

    @property
    def queue_wait(self) -> Optional[float]:
        """Submit → first assignment, when both ends were logged."""
        if self.submitted_at is None or not self.attempts:
            return None
        return self.attempts[0].assigned_at - self.submitted_at

    @property
    def turnaround(self) -> Optional[float]:
        """Submit → completion, when both ends were logged."""
        done = self.completed_at
        if self.submitted_at is None or done is None:
            return None
        return done - self.submitted_at

    def _open_attempt(self, lease_id: Optional[int] = None,
                      ) -> Optional[Attempt]:
        """The open attempt a record is about: the one holding
        ``lease_id``, else — client-side logs and forwarded
        completions name no lease the log saw granted — the latest."""
        found = None
        for attempt in self.attempts:
            if attempt.outcome is None:
                if lease_id is not None and attempt.lease_id == lease_id:
                    return attempt
                found = attempt
        return found


def task_timelines(events: Iterable[Dict]) -> Dict[int, TaskTimeline]:
    """Fold an event stream into ``{task_id: TaskTimeline}``.

    Understands the ``submit``/``assign``/``complete``/
    ``lease-expire``/``requeue`` records of
    :data:`repro.obs.events.EVENT_SCHEMAS`; other event types pass
    through untouched.  Reassignment after a lease expiry or
    disconnect shows up as a second :class:`Attempt` on the same
    timeline, and so does a replica; the first completion closes every
    other open attempt of the task as ``superseded``.
    """
    timelines: Dict[int, TaskTimeline] = {}

    def timeline(task_id: int) -> TaskTimeline:
        found = timelines.get(task_id)
        if found is None:
            found = timelines[task_id] = TaskTimeline(task_id)
        return found

    for event in events:
        kind = event["event"]
        ts = event["ts"]
        if kind == "submit":
            for task_id in event.get("task_ids", []):
                line = timeline(task_id)
                line.submitted_at = ts
                line.job_id = event.get("job_id", line.job_id)
        elif kind == "assign":
            line = timeline(event["task_id"])
            line.job_id = event.get("job_id", line.job_id)
            line.attempts.append(Attempt(
                worker=event["worker"], site=event.get("site"),
                assigned_at=ts, lease_id=event.get("lease_id"),
                replica=bool(event.get("replica", False)),
                decision=({"metric": event["metric"],
                           "candidates": event["candidates"]}
                          if "candidates" in event else None)))
        elif kind == "complete":
            line = timeline(event["task_id"])
            attempt = line._open_attempt(event.get("lease_id"))
            if attempt is None:  # completion without a logged assign
                attempt = Attempt(worker=event["worker"], site=None,
                                  assigned_at=ts)
                line.attempts.append(attempt)
            # First completion wins: the service released every other
            # lease on the task with it, without a record of its own.
            for other in line.attempts:
                if other.outcome is None:
                    other.ended_at = ts
                    other.outcome = ("completed" if other is attempt
                                     else "superseded")
        elif kind in ("lease-expire", "requeue"):
            line = timeline(event["task_id"])
            attempt = line._open_attempt(event.get("lease_id"))
            if attempt is not None:
                attempt.ended_at = ts
                if kind == "lease-expire":
                    attempt.outcome = "lease-expired"
                else:
                    attempt.outcome = event.get("reason", "requeued")
    return timelines


def load_timelines(path: str) -> Dict[int, TaskTimeline]:
    """Read a JSONL event-log file and reconstruct its timelines."""
    return task_timelines(iter_events(path))
