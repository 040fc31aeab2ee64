"""Live scheduler service: the paper's policies outside the simulator.

The simulator proves the worker-centric policies win; this package
*runs* them.  A :class:`~repro.serve.server.SchedulerServer` serves a
:class:`~repro.core.policy_engine.PolicyEngine` over a typed TCP
protocol — version 3: every connection opens in JSON lines, ``HELLO``
offers wire codecs, and the server's pick (announced in ``WELCOME``)
can switch the stream to length-prefixed binary frames
(:mod:`repro.serve.codec`).  Typed messages
(:mod:`repro.serve.messages`), version negotiation, lease-based
assignment with heartbeat renewal and a server-side expiry sweeper,
and multi-job tenancy with per-job completion tracking.  Real workers
— :class:`~repro.serve.client.WorkerClient` — pull leased tasks, renew
them while working, report file deltas from their local caches, and
push lease-validated completions; submitters drive jobs through
:class:`~repro.serve.client.SchedulerClient`, whose
:meth:`~repro.serve.client.SchedulerClient.submit` returns a
:class:`~repro.serve.client.JobHandle` with per-job status and
``wait_done()``.  The :mod:`repro.serve.loadgen` module replays
``workload``-generated jobs against a server at high concurrency, and
:meth:`~repro.serve.service.SchedulerService.redecide` re-makes the
pull decisions of any event log, a simulated run's included, to show
the service chooses as the simulator does.

CLI entry points: ``python -m repro serve`` and ``python -m repro load``.
"""

from .. import _lazy_exports

_LAZY = {
    "JobHandle": ("repro.serve.client", "JobHandle"),
    "SchedulerClient": ("repro.serve.client", "SchedulerClient"),
    "WorkerClient": ("repro.serve.client", "WorkerClient"),
    "BinaryCodec": ("repro.serve.codec", "BinaryCodec"),
    "Codec": ("repro.serve.codec", "Codec"),
    "JsonLinesCodec": ("repro.serve.codec", "JsonLinesCodec"),
    "make_codec": ("repro.serve.codec", "make_codec"),
    "run_load": ("repro.serve.loadgen", "run_load"),
    "serve_and_load": ("repro.serve.loadgen", "serve_and_load"),
    "CodecNegotiation": ("repro.serve.protocol", "CodecNegotiation"),
    "ProtocolError": ("repro.serve.protocol", "ProtocolError"),
    "codec_offers": ("repro.serve.protocol", "codec_offers"),
    "negotiate_codec": ("repro.serve.protocol", "negotiate_codec"),
    "SchedulerServer": ("repro.serve.server", "SchedulerServer"),
    "install_uvloop": ("repro.serve.server", "install_uvloop"),
    "Assignment": ("repro.serve.service", "Assignment"),
    "CompletionResult": ("repro.serve.service", "CompletionResult"),
    "SchedulerService": ("repro.serve.service", "SchedulerService"),
    "ServiceError": ("repro.serve.service", "ServiceError"),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = _lazy_exports(globals())
