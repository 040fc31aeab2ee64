"""Typed message surface of the serve protocol (v3): one declaration
per wire message.

Every message is a frozen dataclass declared once, below, through
:func:`message`: its wire name, its ``binary-1`` type id, its
direction (the :class:`ClientMessage` / :class:`ServerMessage` base)
and its ordered fields, each annotated with a word of a small closed
vocabulary — ``u64`` / ``U64(minimum)``, ``f64``, ``boolean``,
``string``, ``Enum(...)``, ``ids``, ``opt[...]``,
``ListOf(Struct(...))`` and the opaque ``json_list`` /
``json_object``.  That table is the only
description of a message.  Derived from it:

* here — :meth:`Message.from_dict` (field validation),
  :meth:`Message.to_dict` and the per-direction registries
  (``STATS`` and ``JOB_STATUS`` are request *and* reply types, so
  the registries are per-direction);
* in :mod:`repro.serve.codec` — ``BINARY_TYPE_IDS`` and the binary
  body of every class (``layout="struct"``: one packing rule applied
  to the field list; ``layout="map"``: the msgpack-style map of
  :meth:`Message.to_dict`);
* in ``tests/test_serve_codec.py`` — the round-trip strategies; in
  ``docs/architecture.md`` — the message tables, checked by
  ``tests/test_docs_snippets.py``.

Adding a field to a message is one line in its class.  A class keeps
a ``_cross_check`` method only for a rule that relates two fields.

Decoding is **unknown-field tolerant**: fields a newer peer added
are ignored.  Missing required fields and wrong-typed values raise
:class:`~repro.serve.protocol.ProtocolError`.  Every value a
dataclass holds is JSON-native, so ``decode_*(m.encode())``
round-trips exactly.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import (Any, Callable, ClassVar, Dict, List, NamedTuple,
                    Optional, Tuple, Type)

from . import protocol as wire
from .protocol import ProtocolError

__all__ = [
    "Message", "ClientMessage", "ServerMessage", "message", "Field",
    # the field-type vocabulary
    "WireType", "U64", "F64", "Of", "Enum", "Ids", "ListOf", "Struct",
    "opt", "u64", "f64", "ids", "boolean", "string", "json_list",
    "json_object",
    # client -> server
    "Hello", "RequestTask", "TaskDone", "Heartbeat", "FileDelta",
    "JobSubmit", "JobStatusRequest", "StatsRequest", "Drain",
    "StealRequest", "StealAck", "StealDone",
    # server -> client
    "Welcome", "TaskAssign", "TaskBatch", "NoTask", "Ack", "HeartbeatAck",
    "JobAccepted", "JobStatusReply", "StatsReply", "Redirect", "Error",
    "StealGrant",
    # codec entry points
    "decode_client", "decode_server",
    "client_from_dict", "server_from_dict", "CLIENT_TYPES",
]


# -- the field-type vocabulary -----------------------------------------------

@dataclass(frozen=True)
class WireType:
    """One word of the vocabulary: what values a field may hold.

    A scalar kind gives ``noun`` (formatted with its own parameters)
    and :meth:`accepts`, the one call the decode path makes per field;
    a nested kind overrides :meth:`problem` instead, to name the entry
    at fault.
    """

    noun: ClassVar[str] = ""

    def accepts(self, value: Any) -> bool:
        return self.problem(value) is None

    def problem(self, value: Any) -> Optional[str]:
        """``None`` for an acceptable value, else the error text that
        follows the field's name (``" must be ..."``)."""
        if self.accepts(value):
            return None
        return (f" must be {self.noun.format(**vars(self))}, "
                f"got {value!r:.60}")


@dataclass(frozen=True)
class U64(WireType):
    """An int no less than ``minimum`` (and never a ``bool``, which
    Python would let pass for one).  The 64-bit ceiling is each
    codec's own *encode* error: JSON carries any int."""

    minimum: int = 0
    noun = "an int >= {minimum}"

    def accepts(self, value: Any) -> bool:
        return wire.is_int(value) and value >= self.minimum


@dataclass(frozen=True)
class F64(WireType):
    """A finite number a double can hold.  ``json.loads`` parses the
    bare tokens ``NaN`` and ``Infinity``; no field of the protocol has
    a use for them and every comparison downstream misbehaves on one."""

    noun = "a finite number"

    def accepts(self, value: Any) -> bool:
        if isinstance(value, float):
            return math.isfinite(value)
        return wire.is_int(value) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class Of(WireType):
    """Any value of one JSON-native Python type.  For the containers
    that means opaque: the message layer does not look into
    ``STATS.stats``, and the service validates ``JOB_SUBMIT.tasks``
    entry by entry."""

    pytype: type
    what: str
    noun = "{what}"

    def accepts(self, value: Any) -> bool:
        return isinstance(value, self.pytype)


@dataclass(frozen=True)
class Enum(WireType):
    """One of a closed, *ordered* set of strings: the position is the
    value's ``binary-1`` encoding, so new values go at the end."""

    values: Tuple[str, ...]
    noun = "one of {values}"

    def __init__(self, *values: str):
        object.__setattr__(self, "values", values)

    def accepts(self, value: Any) -> bool:
        return value in self.values


@dataclass(frozen=True)
class Ids(WireType):
    """A list of at least ``at_least`` ints: file, task or lease ids."""

    at_least: int = 0
    noun = "a list of >= {at_least} ints"

    def accepts(self, value: Any) -> bool:
        return (isinstance(value, list) and len(value) >= self.at_least
                and all(map(wire.is_int, value)))


@dataclass(frozen=True)
class Struct(WireType):
    """A JSON object with these required keys (extra keys ride along:
    entries stay plain dicts on the dataclass)."""

    fields: Tuple[Tuple[str, WireType], ...]

    def __init__(self, **fields: WireType):
        object.__setattr__(self, "fields", tuple(fields.items()))

    def problem(self, value: Any) -> Optional[str]:
        if not isinstance(value, dict):
            return f" must be an object, got {value!r:.60}"
        for key, kind in self.fields:
            if key not in value:
                return f" is missing {key!r}"
            if not kind.accepts(value[key]):
                return f".{key}{kind.problem(value[key])}"
        return None


@dataclass(frozen=True)
class ListOf(WireType):
    """A list of at least ``at_least`` entries, each an ``item``."""

    item: WireType
    at_least: int = 0

    def problem(self, value: Any) -> Optional[str]:
        if not isinstance(value, list) or len(value) < self.at_least:
            return f" must be a list of >= {self.at_least} entries"
        for entry in value:
            if not self.item.accepts(entry):
                return "[]" + self.item.problem(entry)
        return None


@dataclass(frozen=True)
class opt:
    """``opt[kind]``: ``None`` — absent, and off the wire — or a
    ``kind``.  A marker on the declaration, not a kind itself:
    :func:`message` unwraps it into ``Field.optional``."""

    kind: WireType

    def __class_getitem__(cls, kind: WireType) -> "opt":
        return cls(kind)


u64, f64, ids = U64(), F64(), Ids()
boolean, string = Of(bool, "a bool"), Of(str, "a string")
json_list, json_object = Of(list, "a list"), Of(dict, "an object")


def _empty() -> Any:
    """Default of a list field: a fresh ``[]`` per message."""
    return dataclasses.field(default_factory=list)


# -- the base ----------------------------------------------------------------

class Field(NamedTuple):
    """One row of a message's field table."""

    name: str
    kind: WireType   #: of a present value (``opt`` already unwrapped)
    optional: bool   #: declared ``opt[...]``: ``None`` means absent
    required: bool   #: no default: ``from_dict`` insists on it


class Message:
    """Shared encode/decode machinery, driven by ``cls.FIELDS``."""

    TYPE: ClassVar[str] = ""            #: wire name
    TYPE_ID: ClassVar[int] = 0          #: ``binary-1`` frame type id
    LAYOUT: ClassVar[str] = "map"       #: ``binary-1`` body layout
    FIELDS: ClassVar[Tuple[Field, ...]] = ()

    def to_dict(self) -> Dict[str, Any]:
        """The wire dict; ``None``-valued optional fields are omitted."""
        payload: Dict[str, Any] = {"type": self.TYPE}
        for name, _kind, _optional, _required in self.FIELDS:
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload

    def encode(self) -> bytes:
        """This message as one JSON line (the ``json-2`` format)."""
        return wire.encode_line(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Message":
        """Build from a wire dict, ignoring unknown fields; every
        field present is checked against its declared kind, then the
        class's cross-field rule if it has one."""
        kwargs = {}
        for name, kind, optional, required in cls.FIELDS:
            if name in payload:
                value = kwargs[name] = payload[name]
                if not (kind.accepts(value)
                        or (value is None and optional)):
                    raise ProtocolError(
                        f"{cls.TYPE}.{name}{kind.problem(value)}")
            elif required:
                raise ProtocolError(
                    f"{cls.TYPE} missing required field {name!r}")
        message = cls(**kwargs)
        message._cross_check()
        return message

    def validate(self) -> None:
        """Raise ProtocolError unless a peer would accept this
        message's wire form."""
        self.from_dict(self.to_dict())

    def _cross_check(self) -> None:
        """A rule relating two fields; most classes have none."""


class ClientMessage(Message):
    """A message a client sends; the server decodes these."""

    REGISTRY: ClassVar[Dict[str, Type["ClientMessage"]]] = {}


class ServerMessage(Message):
    """A message the server sends; clients decode these."""

    REGISTRY: ClassVar[Dict[str, Type["ServerMessage"]]] = {}


def message(name: str, type_id: int,
            layout: str = "map") -> Callable[[type], type]:
    """Declare a wire message: freeze the dataclass, compile its field
    table from the annotations and enter it in its direction's
    registry.  ``type_id`` is part of ``binary-1`` and is never
    reassigned; ``STATS`` and ``JOB_STATUS`` share theirs across the
    two directions."""
    def declare(cls: type) -> type:
        cls = dataclass(frozen=True)(cls)
        cls.TYPE, cls.TYPE_ID, cls.LAYOUT = name, type_id, layout
        cls.FIELDS = tuple(
            Field(spec.name,
                  spec.type.kind if isinstance(spec.type, opt)
                  else spec.type,
                  isinstance(spec.type, opt),
                  spec.default is dataclasses.MISSING
                  and spec.default_factory is dataclasses.MISSING)
            for spec in dataclasses.fields(cls))
        taken = {other.TYPE_ID for other in cls.REGISTRY.values()}
        if name in cls.REGISTRY or type_id in taken:
            raise TypeError(f"{name} / type id {type_id} declared twice")
        cls.REGISTRY[name] = cls
        return cls
    return declare


def _from_dict(registry: Dict[str, Type[Message]], direction: str,
               payload: Dict[str, Any]) -> Message:
    cls = registry.get(payload["type"])
    if cls is None:
        raise ProtocolError(
            f"unknown {direction} message type {payload['type']!r}")
    return cls.from_dict(payload)


def client_from_dict(payload: Dict[str, Any]) -> "ClientMessage":
    return _from_dict(ClientMessage.REGISTRY, "client", payload)


def server_from_dict(payload: Dict[str, Any]) -> "ServerMessage":
    return _from_dict(ServerMessage.REGISTRY, "server", payload)


def decode_client(line: bytes) -> "ClientMessage":
    """Server side: one received JSON line -> a typed client message."""
    return client_from_dict(wire.decode_line(line))


def decode_server(line: bytes) -> "ServerMessage":
    """Client side: one received JSON line -> a typed server message."""
    return server_from_dict(wire.decode_line(line))


# -- client -> server --------------------------------------------------------

@message(wire.HELLO, 1)
class Hello(ClientMessage):
    """Register a connection (worker or control); starts negotiation.

    ``accept_redirect`` marks a cluster-aware client: a router may
    answer with ``REDIRECT`` (the shard map) instead of ``WELCOME``.
    A plain shard or standalone server ignores it and answers
    ``WELCOME`` as always, and clients that never send it get a clean
    ``ERROR`` from a router rather than a message they cannot parse.

    ``codecs`` is the ordered wire-codec capability list, e.g.
    ``["binary-1", "json-2"]``.  Absent means JSON lines for the whole
    connection; the server answers with its pick in ``WELCOME.codec``
    / ``REDIRECT.codec`` and both sides switch right after that
    exchange.
    """
    worker: string
    site: u64
    protocol: U64(1) = 1  # v1 clients never sent the field
    accept_redirect: opt[boolean] = None
    codecs: opt[ListOf(string)] = None


@message(wire.REQUEST_TASK, 2, layout="struct")
class RequestTask(ClientMessage):
    """Pull the next task(s); ``job_id`` scopes the pull to one job.

    ``max_tasks`` asks for up to k leased tasks in one ``TASK_BATCH``
    reply; absent means 1 (and a plain ``TASK`` reply).
    """
    job_id: opt[u64] = None
    max_tasks: opt[U64(1)] = None


@message(wire.TASK_DONE, 3, layout="struct")
class TaskDone(ClientMessage):
    """Report a completion; must present the assignment's lease."""
    task_id: u64
    lease_id: u64


@message(wire.HEARTBEAT, 4, layout="struct")
class Heartbeat(ClientMessage):
    """Renew leases; ``lease_ids`` of None renews all held leases."""
    lease_ids: opt[ids] = None


@message(wire.FILE_DELTA, 5, layout="struct")
class FileDelta(ClientMessage):
    """A worker's report of its site cache changes."""
    added: ids = _empty()
    removed: ids = _empty()
    referenced: ids = _empty()
    site: opt[u64] = None


@message(wire.JOB_SUBMIT, 6)
class JobSubmit(ClientMessage):
    """Append a batch of tasks (to job ``job_id`` when given).

    ``weight`` is the job's fair-share weight for weighted-fair
    pick-order across tenants (see
    :meth:`~repro.serve.service.SchedulerService.submit_job`); absent
    means the job takes no part in weighting — a server where no job
    carries a weight schedules exactly as before the field existed.
    """
    tasks: json_list
    job_id: opt[u64] = None
    weight: opt[f64] = None

    def _cross_check(self) -> None:
        if self.weight is not None and self.weight <= 0:
            raise ProtocolError(
                f"{self.TYPE}.weight must be > 0, got {self.weight!r}")


@message(wire.JOB_STATUS, 7, layout="struct")
class JobStatusRequest(ClientMessage):
    job_id: u64


@message(wire.STATS, 8, layout="struct")
class StatsRequest(ClientMessage):
    pass


@message(wire.DRAIN, 9, layout="struct")
class Drain(ClientMessage):
    pass


@message(wire.STEAL_REQUEST, 10)
class StealRequest(ClientMessage):
    """A drained peer shard asks for pending, unleased tasks.

    ``site_refsums`` carries one ``{site, files, refs}`` entry per
    thief-side site (``files[i]`` has been referenced ``refs[i]``
    times there), so the victim can score candidate exports with the
    fast scorers and export the tasks whose inputs overlap the
    thief's caches the most — lowest locality loss.
    """
    max_tasks: U64(1)
    site_refsums: ListOf(Struct(site=u64, files=ids, refs=ids)) = _empty()

    def _cross_check(self) -> None:
        for entry in self.site_refsums:
            if len(entry["files"]) != len(entry["refs"]):
                raise ProtocolError(
                    f"{self.TYPE} site_refsums entry files/refs "
                    f"length mismatch")


@message(wire.STEAL_ACK, 11)
class StealAck(ClientMessage):
    """The thief durably recorded the grant; commit the export.

    The victim answers with ``ACK``: ``accepted`` True means the
    export is committed and the thief must activate the batch,
    False means the victim aborted it (e.g. crash recovery already
    requeued the tasks) and the thief must drop it.  Idempotent —
    re-acking an already-committed export answers True again.
    """
    export_id: u64


@message(wire.STEAL_DONE, 12)
class StealDone(ClientMessage):
    """Completions of stolen tasks, forwarded to the owning shard.

    At-least-once from the thief, idempotent at the victim: a task id
    already completed is counted as a duplicate and ignored.
    """
    task_ids: Ids(at_least=1)


# -- server -> client --------------------------------------------------------

@message(wire.WELCOME, 17)
class Welcome(ServerMessage):
    """HELLO ack, carrying the negotiated protocol and lease terms.

    ``codec`` is the server's pick from ``HELLO.codecs`` — the wire
    format of every message after this one.  It is only set when the
    client offered codecs.
    """
    server: string
    metric: string
    n: U64(1)
    protocol: U64(1) = wire.PROTOCOL_VERSION
    lease_ttl: f64 = 0.0
    heartbeat_interval: f64 = 0.0
    codec: opt[string] = None


@message(wire.TASK, 18, layout="struct")
class TaskAssign(ServerMessage):
    """An assignment: the task plus the lease that guards it."""
    task_id: u64
    files: ids
    flops: f64
    lease_id: u64
    lease_ttl: f64
    job_id: u64


@message(wire.TASK_BATCH, 19, layout="struct")
class TaskBatch(ServerMessage):
    """Up to ``max_tasks`` leased assignments in one reply.

    Entries stay JSON-native dicts on the dataclass (so
    ``decode(encode())`` round-trips exactly); :meth:`assignments`
    lifts them into per-task :class:`TaskAssign` values, which is what
    clients iterate — every task in a batch carries its own lease and
    job id, exactly as if it had arrived in its own ``TASK``
    (``lease_ttl`` is batch-level: every lease in a batch is granted
    with the same TTL).
    """
    tasks: ListOf(Struct(task_id=u64, files=ids, flops=f64, lease_id=u64,
                         job_id=u64), at_least=1)
    lease_ttl: f64

    def assignments(self) -> List["TaskAssign"]:
        """The batch as per-task ``TASK`` messages."""
        return [TaskAssign(task_id=entry["task_id"],
                           files=entry["files"],
                           flops=entry["flops"],
                           lease_id=entry["lease_id"],
                           lease_ttl=self.lease_ttl,
                           job_id=entry["job_id"])
                for entry in self.tasks]


@message(wire.NO_TASK, 20, layout="struct")
class NoTask(ServerMessage):
    """No task will ever come; ``reason`` is a closed enum."""
    reason: Enum(wire.REASON_JOB_DONE, wire.REASON_IDLE,
                 wire.REASON_DRAINING)


@message(wire.ACK, 21, layout="struct")
class Ack(ServerMessage):
    """Success/rejection ack (TASK_DONE / FILE_DELTA / DRAIN).

    ``accepted`` is False when a ``TASK_DONE`` presented an invalid
    lease (``reason`` then says why: ``stale-lease`` or
    ``already-complete``) or when admission control rejected a
    ``JOB_SUBMIT`` (``reason`` is ``overloaded`` and ``retry_after``
    tells the submitter how many seconds to back off before retrying
    the same chunk).
    """
    accepted: boolean = True
    reason: opt[string] = None
    draining: opt[boolean] = None
    retry_after: opt[f64] = None


@message(wire.HEARTBEAT_ACK, 22, layout="struct")
class HeartbeatAck(ServerMessage):
    """Renewal outcome: which leases renewed, which no longer exist."""
    renewed: ids = _empty()
    expired: ids = _empty()


@message(wire.JOB_ACCEPTED, 23, layout="struct")
class JobAccepted(ServerMessage):
    job_id: u64
    task_ids: ids


@message(wire.JOB_STATUS, 7, layout="struct")
class JobStatusReply(ServerMessage):
    """Per-job progress: ``tasks = completed + pending + outstanding``."""
    job_id: u64
    tasks: u64
    completed: u64
    pending: u64
    outstanding: u64
    done: boolean


@message(wire.STATS, 8)
class StatsReply(ServerMessage):
    stats: json_object


@message(wire.REDIRECT, 24)
class Redirect(ServerMessage):
    """A cluster router's shard map, answering a cluster-aware HELLO.

    ``partition`` names the routing rule; the only rule today is
    ``job-mod`` (the shard owning job ``j`` is ``shards[j %
    shard_count]``).  Workers connect to their job's shard for the
    data plane; the router connection stays usable for control
    traffic.
    """
    shards: ListOf(Struct(shard=u64, host=string, port=U64(1)),
                   at_least=1)
    shard_count: U64(1)
    partition: string = "job-mod"
    codec: opt[string] = None


@message(wire.ERROR, 25)
class Error(ServerMessage):
    error: string


@message(wire.STEAL_GRANT, 26)
class StealGrant(ServerMessage):
    """Reply to ``STEAL_REQUEST``: the exported batch.

    The tasks are already removed from the victim's pending queue and
    the export is WAL-durable before this message is sent.  Each entry
    is a bare task spec, not an assignment: no lease, the thief grants
    its own.  They keep their original (victim-space) task/job ids —
    shard id spaces are strided and therefore globally disjoint.  An
    empty ``tasks`` list (``export_id`` absent) is a refusal: nothing
    above the victim's own watermark, or stealing raced a drain.
    """
    tasks: ListOf(Struct(task_id=u64, job_id=u64, files=ids,
                         flops=f64)) = _empty()
    export_id: opt[u64] = None

    def _cross_check(self) -> None:
        if self.tasks and self.export_id is None:
            raise ProtocolError(
                f"{self.TYPE} with tasks must carry export_id")


#: The wire names a server accepts — a live view of the table.
CLIENT_TYPES = ClientMessage.REGISTRY.keys()
