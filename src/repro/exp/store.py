"""Persisting experiment results.

Campaign runs are expensive; this module archives their outcomes as
JSON-lines so reports (EXPERIMENTS.md tables, charts) can be rebuilt
without re-simulating.  A stored record is a flat, schema-versioned
snapshot of (config fields, headline metrics); traces are deliberately
not stored.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Union

from .config import ExperimentConfig
from .runner import ExperimentResult

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ResultRecord:
    """A reloaded experiment outcome (config + headline metrics)."""

    config: ExperimentConfig
    makespan: float
    file_transfers: int
    bytes_transferred: float
    tasks_cancelled: int
    evictions: int
    data_replications: int
    worker_failures: int

    @property
    def makespan_minutes(self) -> float:
        return self.makespan / 60.0


def result_to_dict(result: Union[ExperimentResult, ResultRecord]) -> dict:
    """Serialize a result (live or reloaded) to a JSON-compatible dict."""
    config = dataclasses.asdict(result.config)
    tiers = config.get("tiers")
    if tiers is not None:
        config["tiers"] = dict(tiers)
    config.pop("keep_trace", None)
    return {
        "version": FORMAT_VERSION,
        "config": config,
        "metrics": {
            "makespan": result.makespan,
            "file_transfers": result.file_transfers,
            "bytes_transferred": result.bytes_transferred,
            "tasks_cancelled": result.tasks_cancelled,
            "evictions": result.evictions,
            "data_replications": result.data_replications,
            "worker_failures": result.worker_failures,
        },
    }


def result_from_dict(data: dict) -> ResultRecord:
    """Rebuild a :class:`ResultRecord` from :func:`result_to_dict`."""
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported result format version {version!r}")
    config_data = dict(data["config"])
    tiers = config_data.get("tiers")
    if tiers is not None:
        from ..net.tiers import TiersParams
        config_data["tiers"] = TiersParams(**{
            key: (tuple(value) if isinstance(value, list) else value)
            for key, value in tiers.items()})
    config = ExperimentConfig(**config_data)
    metrics = data["metrics"]
    return ResultRecord(
        config=config,
        makespan=metrics["makespan"],
        file_transfers=metrics["file_transfers"],
        bytes_transferred=metrics["bytes_transferred"],
        tasks_cancelled=metrics["tasks_cancelled"],
        evictions=metrics["evictions"],
        data_replications=metrics.get("data_replications", 0),
        worker_failures=metrics.get("worker_failures", 0),
    )


class ResultStore:
    """Append-only JSON-lines archive of experiment results."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, result: Union[ExperimentResult, ResultRecord]) -> None:
        """Append one result."""
        with self.path.open("a") as handle:
            handle.write(json.dumps(result_to_dict(result)) + "\n")

    def __iter__(self) -> Iterator[ResultRecord]:
        if not self.path.exists():
            return
        with self.path.open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield result_from_dict(json.loads(line))

    def load(self) -> List[ResultRecord]:
        """All stored records, in append order."""
        return list(self)

    def query(self, **config_fields) -> List[ResultRecord]:
        """Records whose config matches every given field exactly."""
        out = []
        for record in self:
            if all(getattr(record.config, field) == value
                   for field, value in config_fields.items()):
                out.append(record)
        return out
