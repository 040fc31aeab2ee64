"""Span recorder for the benchmark's child processes.

Python imports ``sitecustomize`` at start-up from the first
``sys.path`` entry that has one.  A traced benchmark pass puts this
directory first on the children's ``PYTHONPATH`` and names a dump
directory in ``BENCH_TRACE_DIR``; every ``python -m repro ...`` child —
including the shards a cluster supervisor spawns, which inherit the
environment — then wraps the *public* functions at each layer boundary
and records one span per call.  Without ``BENCH_TRACE_DIR`` this module
does nothing, and untraced passes never put it on the path at all.

A span is ``(name, start_ns, end_ns, parent, request, a, b)``: ``parent``
is the index of the enclosing span (-1 for a root), ``request`` the
index of the root span of the same call tree (spans of one request
share it), ``a``/``b`` two counts taken at the same boundary (bytes,
messages, parked flag).  Spans stay in memory as parallel lists and
are written once, at interpreter exit — or on ``SIGUSR1``, which the
benchmark sends to an idle server just before it ``SIGKILL``s it.

Only synchronous functions are wrapped, and the programs are
single-threaded, so one stack of open spans is enough.
"""

import os

_DUMP_DIR = os.environ.get("BENCH_TRACE_DIR")

#: (module, class, method, span name, kind).  Kinds pick the wrapper:
#: "plain" times the call; the others also take a count at the boundary.
TARGETS = [
    ("repro.serve.codec", "Codec", "feed", "serve.codec.feed", "feed"),
    ("repro.serve.codec", "JsonLinesCodec", "encode",
     "serve.codec.encode", "sized"),
    ("repro.serve.codec", "BinaryCodec", "encode",
     "serve.codec.encode", "sized"),
    ("repro.serve.service", "SchedulerService", "submit_job",
     "serve.service.submit_job", "plain"),
    ("repro.serve.service", "SchedulerService", "request_task",
     "serve.service.request_task", "pull"),
    ("repro.serve.service", "SchedulerService", "request_tasks",
     "serve.service.request_tasks", "pull"),
    ("repro.serve.service", "SchedulerService", "task_done",
     "serve.service.task_done", "plain"),
    ("repro.serve.service", "SchedulerService", "file_delta",
     "serve.service.file_delta", "plain"),
    ("repro.serve.service", "SchedulerService", "heartbeat",
     "serve.service.heartbeat", "plain"),
    ("repro.serve.service", "SchedulerService", "expire_leases",
     "serve.service.expire_leases", "plain"),
    ("repro.serve.service", "SchedulerService", "job_status",
     "serve.service.other", "plain"),
    ("repro.serve.service", "SchedulerService", "stats_snapshot",
     "serve.service.other", "plain"),
    ("repro.serve.service", "SchedulerService", "disconnect",
     "serve.service.other", "plain"),
    ("repro.serve.service", "SchedulerService", "drain",
     "serve.service.other", "plain"),
    ("repro.serve.service", "SchedulerService", "export_steal_batch",
     "serve.service.steal", "plain"),
    ("repro.serve.service", "SchedulerService", "steal_export_acked",
     "serve.service.steal", "plain"),
    ("repro.serve.service", "SchedulerService", "steal_done",
     "serve.service.steal", "plain"),
    ("repro.serve.service", "SchedulerService", "steal_import_tentative",
     "serve.service.steal", "plain"),
    ("repro.serve.service", "SchedulerService", "steal_commit_import",
     "serve.service.steal", "plain"),
    ("repro.serve.service", "SchedulerService", "steal_abort_import",
     "serve.service.steal", "plain"),
    ("repro.serve.service", "SchedulerService", "steal_forwarded",
     "serve.service.steal", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "choose",
     "core.policy_engine.choose", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "choose_many",
     "core.policy_engine.choose", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "add_task",
     "core.policy_engine.index", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "remove_task",
     "core.policy_engine.index", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "file_added",
     "core.policy_engine.index", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "file_removed",
     "core.policy_engine.index", "plain"),
    ("repro.core.policy_engine", "PolicyEngine", "file_referenced",
     "core.policy_engine.index", "plain"),
    ("repro.obs.events", "EventLog", "emit", "obs.events.emit", "plain"),
    ("repro.obs.events", "EventLog", "flush", "obs.events.flush",
     "plain"),
    ("repro.obs.events", "EventLog", "sync", "obs.events.flush", "plain"),
    ("repro.obs.events", "RotatingJsonlSink", "write",
     "obs.events.write", "arg_sized"),
    ("repro.obs.events", "RotatingJsonlSink", "flush",
     "obs.events.flush", "plain"),
    ("repro.sim.engine", "Environment", "step", "sim.engine.step",
     "count"),
    ("repro.net.flow", "FlowNetwork", "transfer", "net.flow.transfer",
     "plain"),
    ("repro.grid.storage", "SiteStorage", "insert",
     "grid.storage.update", "plain"),
    ("repro.grid.storage", "SiteStorage", "touch",
     "grid.storage.update", "plain"),
    ("repro.grid.data_server", "DataServer", "submit",
     "grid.data_server.submit", "plain"),
    ("repro.core.worker_centric", "WorkerCentricScheduler", "next_task",
     "core.worker_centric.next_task", "plain"),
]


class Recorder:
    """Parallel-list span store plus the wrappers that fill it."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []       # span-name table
        self.name_ids = {}
        self.name = []        # per span: index into ``names``
        self.start = []
        self.end = []
        self.parent = []
        self.request = []
        self.a = []
        self.b = []
        self.stack = []       # indices of the open spans
        self.counts = {}      # count-only boundaries: name -> calls
        self.dumps = 0

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, name_id):
        index = len(self.name)
        stack = self.stack
        if stack:
            parent = stack[-1]
            self.parent.append(parent)
            self.request.append(self.request[parent])
        else:
            self.parent.append(-1)
            self.request.append(index)
        self.name.append(name_id)
        self.end.append(0)
        self.a.append(0)
        self.b.append(0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index):
        self.end[index] = self.clock()
        self.stack.pop()

    def wrap(self, function, name, kind):
        name_id = self.name_id(name)
        open_span, close_span = self.open, self.close
        a, b = self.a, self.b

        if kind == "count":
            counts = self.counts
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return counted

        if kind == "plain":
            def timed(*args, **kwargs):
                index = open_span(name_id)
                try:
                    return function(*args, **kwargs)
                finally:
                    close_span(index)
            return timed

        if kind == "feed":
            # a = bytes fed, b = messages decoded.
            def feed(self, data):
                index = open_span(name_id)
                try:
                    decoded = function(self, data)
                    a[index] = len(data)
                    b[index] = len(decoded)
                    return decoded
                finally:
                    close_span(index)
            return feed

        if kind == "sized":
            # a = size of the result (encoded bytes).
            def sized(*args, **kwargs):
                index = open_span(name_id)
                try:
                    result = function(*args, **kwargs)
                    a[index] = len(result)
                    return result
                finally:
                    close_span(index)
            return sized

        if kind == "arg_sized":
            # a = size of the first argument (the line written).
            def arg_sized(self, payload):
                index = open_span(name_id)
                try:
                    a[index] = len(payload)
                    return function(self, payload)
                finally:
                    close_span(index)
            return arg_sized

        if kind == "pull":
            # b = 1 when the pull parked (``deliver`` was not called
            # before the service returned).
            code = function.__code__
            position = code.co_varnames[:code.co_argcount].index(
                "deliver")

            def pull(*args, **kwargs):
                index = open_span(name_id)
                answered = []
                if len(args) > position:
                    deliver = args[position]
                else:
                    deliver = kwargs["deliver"]

                def observed(outcome):
                    answered.append(True)
                    deliver(outcome)
                if len(args) > position:
                    args = (args[:position] + (observed,)
                            + args[position + 1:])
                else:
                    kwargs["deliver"] = observed
                try:
                    return function(*args, **kwargs)
                finally:
                    if not answered:
                        b[index] = 1
                    close_span(index)
            return pull

        raise ValueError(f"unknown wrapper kind {kind!r}")

    def dump(self, directory):
        """Write every closed span and forget it (open ones stay)."""
        import json
        import sys
        from array import array
        self.dumps += 1
        closed = [i for i, end in enumerate(self.end) if end]
        header = {"pid": os.getpid(), "argv": list(sys.argv),
                  "names": self.names, "spans": len(closed),
                  "counts": dict(self.counts),
                  "columns": ["name", "start", "end", "parent",
                              "request", "a", "b"]}
        # Parent/request indices are rewritten to positions in this
        # dump (-1 when the parent is not part of it).
        position = {index: pos for pos, index in enumerate(closed)}
        path = os.path.join(
            directory, f"spans-{os.getpid()}-{self.dumps}.bin")
        with open(path + ".tmp", "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name, self.start, self.end):
                array("q", [column[i] for i in closed]).tofile(handle)
            for column in (self.parent, self.request):
                array("q", [position.get(column[i], -1)
                            for i in closed]).tofile(handle)
            for column in (self.a, self.b):
                array("q", [column[i] for i in closed]).tofile(handle)
        os.replace(path + ".tmp", path)
        if not self.stack:
            for column in (self.name, self.start, self.end, self.parent,
                           self.request, self.a, self.b):
                del column[:]
            for name in self.counts:
                self.counts[name] = 0


def install(directory):
    import atexit
    import importlib
    import signal
    import time

    recorder = Recorder(time.perf_counter_ns)
    for module_name, class_name, attribute, span_name, kind in TARGETS:
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[attribute]
        setattr(owner, attribute,
                recorder.wrap(original, span_name, kind))
    atexit.register(recorder.dump, directory)
    signal.signal(signal.SIGUSR1,
                  lambda _signum, _frame: recorder.dump(directory))
    return recorder


if _DUMP_DIR:
    install(_DUMP_DIR)
