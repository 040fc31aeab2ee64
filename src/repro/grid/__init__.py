"""Grid system model: sites, workers, data servers, global file server.

Implements the paper's system model (Section 2.2) on top of the DES
kernel and the flow network:

* :class:`FileCatalog`, :class:`Task`, :class:`Job` — the application.
* :class:`SiteStorage` — capacity-bounded LRU cache with pinning and
  past-reference counters.
* :class:`DataServer` — serial batch-request service per site.
* :class:`FileServer` — the external global file store.
* :class:`Worker` — pull-driven compute host with replica cancellation.
* :class:`Site`, :class:`Grid`, :class:`GridRunResult` — composition.
* :class:`GridScheduler` — the policy interface implemented in
  :mod:`repro.core`.
"""

from .. import _lazy_exports

_LAZY = {
    "ArrivalSchedule": ("repro.grid.arrivals", "ArrivalSchedule"),
    "JobArrivalProcess": ("repro.grid.arrivals", "JobArrivalProcess"),
    "batched_arrivals": ("repro.grid.arrivals", "batched_arrivals"),
    "jittered_arrivals": ("repro.grid.arrivals", "jittered_arrivals"),
    "Grid": ("repro.grid.cluster", "Grid"),
    "GridRunResult": ("repro.grid.cluster", "GridRunResult"),
    "BatchRequest": ("repro.grid.data_server", "BatchRequest"),
    "DataServer": ("repro.grid.data_server", "DataServer"),
    "DataServerStats": ("repro.grid.data_server", "DataServerStats"),
    "FileServer": ("repro.grid.file_server", "FileServer"),
    "FileCatalog": ("repro.grid.files", "FileCatalog"),
    "FileId": ("repro.grid.files", "FileId"),
    "MB": ("repro.grid.files", "MB"),
    "Job": ("repro.grid.job", "Job"),
    "Task": ("repro.grid.job", "Task"),
    "TaskId": ("repro.grid.job", "TaskId"),
    "GridScheduler": ("repro.grid.scheduler_api", "GridScheduler"),
    "Site": ("repro.grid.site", "Site"),
    "SiteStorage": ("repro.grid.storage", "SiteStorage"),
    "StorageFullError": ("repro.grid.storage", "StorageFullError"),
    "CONTROL_MESSAGE_BYTES": ("repro.grid.worker", "CONTROL_MESSAGE_BYTES"),
    "Worker": ("repro.grid.worker", "Worker"),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = _lazy_exports(globals())
