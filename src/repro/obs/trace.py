"""Per-decision trace spans: why was *this* task picked?

:meth:`repro.core.policy_engine.PolicyEngine.choose` exposes an
``on_decision`` hook.  When set, every decision emits one span — a
plain dict carrying the top-*n* candidate scores the ChooseTask(n)
sampler saw (task id, weight under the active metric, overlap, file
count, files still missing), the chosen task, and the runner-up — so
"why did site 3 get task 17 instead of task 9" is answerable after
the fact, from the live ``/trace.json`` endpoint or from a persisted
event log, where the span rides on the ``assign`` record of the
assignment it explains.

The hook is pure observation: it fires after the choice is sampled,
consumes no randomness, and adds zero decisions — the replay
equivalence suite runs with and without it unchanged.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["DecisionTracer", "explain_span"]


class DecisionTracer:
    """Bounded ring of decision spans with sequence/time stamps."""

    def __init__(self, capacity: int = 256, clock=time.time):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._spans: Deque[Dict] = deque(maxlen=capacity)
        self._clock = clock
        self._seq = 0

    def record(self, span: Dict) -> Dict:
        """Stamp and buffer one span (the engine-hook entry point)."""
        span = dict(span)
        span["ts"] = round(float(self._clock()), 6)
        span["decision"] = self._seq
        self._seq += 1
        self._spans.append(span)
        return span

    @property
    def recorded(self) -> int:
        """Total spans recorded (ring may hold fewer)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, count: Optional[int] = None) -> List[Dict]:
        """The newest ``count`` spans (all buffered if None)."""
        if count is None or count >= len(self._spans):
            return list(self._spans)
        return list(self._spans)[-count:]

    def last(self) -> Optional[Dict]:
        return self._spans[-1] if self._spans else None


def _describe(candidate: Dict) -> str:
    return (f"task {candidate['task_id']} "
            f"(weight={candidate['weight']:.4g}, "
            f"overlap {candidate['overlap']}/{candidate['num_files']}, "
            f"{candidate['files_missing']} to fetch)")


def explain_span(span: Dict) -> str:
    """One human-readable sentence per decision, for logs and ``top``.

    ``span`` is a tracer span or an ``assign`` record that carries one
    (its ``task_id`` is the chosen task).  The runner-up is the best
    ranked candidate that was not chosen."""
    chosen_id = span["chosen"] if "chosen" in span else span["task_id"]
    by_id = {candidate["task_id"]: candidate
             for candidate in span["candidates"]}
    chosen = by_id.get(chosen_id)
    head = f"site {span['site']} metric={span['metric']}"
    if "n" in span:
        head += f" n={span['n']}"
    parts = [f"{head}: chose "
             + (_describe(chosen) if chosen else f"task {chosen_id}")]
    runner_up = next((candidate for candidate in span["candidates"]
                      if candidate["task_id"] != chosen_id), None)
    if runner_up is not None:
        parts.append(f"over {_describe(runner_up)}")
    return " ".join(parts)
