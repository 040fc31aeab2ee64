"""Pluggable wire codecs (protocol v3): JSON lines and binary frames.

One :class:`Codec` instance per connection side, created after (or
while awaiting) ``HELLO`` negotiation:

* ``encode(message) -> bytes`` — one typed
  :class:`~repro.serve.messages.Message` to its wire bytes.
* ``feed(data) -> list[Message]`` — incremental, buffer-based
  decoding: hand it whatever chunk the socket produced and it returns
  every *complete* message, holding partial frames internally until
  the rest arrives.  Feeding byte-at-a-time, split mid-frame, or many
  concatenated frames at once all decode identically.

``feed`` raises :class:`~repro.serve.protocol.ProtocolError` on
malformed input — oversized frames, bad magic/version, unknown types,
truncated bodies.  Framing errors are unrecoverable by design: the
peer answers with a final ``ERROR`` and closes the connection (the
closed-ERROR behavior both codecs share).  If an error is hit after
complete messages were already parsed in the same call, those
messages are returned first and the error re-raises on the next
``feed`` — a pipelined burst never silently loses its leading
messages.

Two implementations:

* :class:`JsonLinesCodec` (``json-2``) — one ``\\n``-terminated UTF-8
  JSON object per message.  Every connection starts in it and a
  ``HELLO`` without ``codecs`` stays in it, so it is the negotiation
  fallback and the codec to debug with.
* :class:`BinaryCodec` (``binary-1``) — protocol v3's length-prefixed
  binary frame::

      0      2      3       4          8
      +------+------+-------+----------+------------------+
      | magic|ver   |type id|body len  | body (len bytes) |
      | 2 B  |1 B   |1 B    |uint32 BE |                  |
      +------+------+-------+----------+------------------+

  (``magic = 0xC0DE``, ``ver = 1``; all integers big-endian.)  The
  body is a compact msgpack-style encoding (stdlib only — ``struct``
  plus bytearrays, no third-party dependency): nil/bool/int/float64/
  str/array/map with the standard fixint/fixstr/fixarray/fixmap short
  forms.  That is the ``layout="map"`` body.  The message types
  declared ``layout="struct"`` instead get a keyless struct-packed
  body derived from their field list by one rule (``TASK_DONE`` is
  two ``!Q`` words; see :func:`_derive`), and the per-task
  messages a hand-written one (an accepted ``ACK`` is one byte, a
  ``TASK_BATCH`` entry is ``!QQQd`` plus its file-id vector), so the
  per-message Python cost is a couple of C calls instead of a tree
  walk; the frame's version byte pins the schema, and both layouts
  round-trip bit-identically to the dataclass form.

Codecs decode *one direction*: a server feeds with
``decodes="client"`` and gets :class:`ClientMessage` instances, a
client feeds with ``decodes="server"``.  (``STATS`` and
``JOB_STATUS`` are request *and* reply types, so direction cannot be
inferred from the wire.)
"""

from __future__ import annotations

import abc
import operator
import struct
from typing import (Any, Callable, ClassVar, Dict, List, Optional,
                    Tuple, Type)

from . import messages
from . import protocol as wire
from .protocol import (CODEC_BINARY, CODEC_JSON, MAX_MESSAGE_BYTES,
                       ProtocolError)

__all__ = [
    "Codec", "JsonLinesCodec", "BinaryCodec", "make_codec",
    "MAGIC", "BINARY_VERSION", "DEFAULT_MAX_FRAME_BYTES",
    "BINARY_TYPE_IDS",
]

#: First two bytes of every binary frame.
MAGIC = 0xC0DE
#: The binary framing/schema version carried in every frame header.
BINARY_VERSION = 1
#: Default cap on one binary frame body; ``BinaryCodec`` raises a
#: clean :class:`ProtocolError` instead of buffering without bound.
DEFAULT_MAX_FRAME_BYTES = 16 << 20

#: Wire type -> frame type id, read off the message declarations.
#: Stable: ids are part of ``binary-1`` and must never be reassigned
#: (add new ids instead).
BINARY_TYPE_IDS: Dict[str, int] = {
    cls.TYPE: cls.TYPE_ID
    for registry in (messages.ClientMessage.REGISTRY,
                     messages.ServerMessage.REGISTRY)
    for cls in registry.values()
}

_HEADER = struct.Struct("!HBBI")
_HEADER_SIZE = _HEADER.size


class Codec(abc.ABC):
    """One connection side's encoder/decoder (see module docstring)."""

    #: The negotiation name (``HELLO.codecs`` entry / ``WELCOME.codec``).
    name: ClassVar[str] = ""

    def __init__(self, decodes: str = "client"):
        lifts = {"client": messages.client_from_dict,
                 "server": messages.server_from_dict}
        if decodes not in lifts:
            raise ValueError(
                f"decodes must be 'client' or 'server', got {decodes!r}")
        self.decodes = decodes
        #: Raw wire dict -> typed message of this codec's direction.
        self._lift = lifts[decodes]
        self._buffer = bytearray()

    # -- the codec API ----------------------------------------------------
    @abc.abstractmethod
    def encode(self, message: messages.Message) -> bytes:
        """One typed message -> its wire bytes."""

    @abc.abstractmethod
    def _parse(self) -> List[messages.Message]:
        """Drain every complete message from the internal buffer."""

    def feed(self, data: bytes) -> List[messages.Message]:
        """Buffer ``data``; return every message now complete."""
        if data:
            self._buffer += data
        return self._parse()

    # -- buffer introspection (codec switch / diagnostics) ----------------
    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def residue(self) -> bytes:
        """Drain and return the undecoded tail (used when a connection
        switches codecs after negotiation)."""
        tail = bytes(self._buffer)
        self._buffer.clear()
        return tail


class JsonLinesCodec(Codec):
    """``json-2``: one JSON object per ``\\n``-ended line."""

    name = CODEC_JSON

    def __init__(self, decodes: str = "client",
                 max_message_bytes: int = MAX_MESSAGE_BYTES):
        super().__init__(decodes)
        self.max_message_bytes = max_message_bytes

    def encode(self, message: messages.Message) -> bytes:
        return wire.encode_line(message.to_dict())

    def _parse(self) -> List[messages.Message]:
        buffer = self._buffer
        out: List[messages.Message] = []
        start = 0
        try:
            while True:
                newline = buffer.find(b"\n", start)
                if newline < 0:
                    if len(buffer) - start > self.max_message_bytes:
                        raise ProtocolError(
                            f"line exceeds {self.max_message_bytes} "
                            f"bytes without a newline")
                    break
                line = bytes(buffer[start:newline])
                if line.strip():
                    out.append(self._lift(wire.decode_line(line)))
                start = newline + 1
        except ProtocolError:
            if not out:
                raise
            # Deliver what parsed cleanly; the bad line stays at the
            # buffer front so the next feed() re-raises.
        del buffer[:start]
        return out


# -- msgpack-style generic body ----------------------------------------------

_F64 = struct.Struct("!d")
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I64 = struct.Struct("!q")

_MAX_U64 = (1 << 64) - 1
_MIN_I64 = -(1 << 63)


def _put_obj(value: Any, out: bytearray) -> None:
    """Append ``value`` (JSON-native) in msgpack-style encoding."""
    if value is None:
        out.append(0xC0)
    elif value is True:
        out.append(0xC3)
    elif value is False:
        out.append(0xC2)
    elif isinstance(value, int):
        if 0 <= value < 0x80:
            out.append(value)
        elif -32 <= value < 0:
            out.append(value & 0xFF)
        elif 0 <= value <= _MAX_U64:
            if value <= 0xFF:
                out.append(0xCC)
                out.append(value)
            elif value <= 0xFFFF:
                out.append(0xCD)
                out += _U16.pack(value)
            elif value <= 0xFFFFFFFF:
                out.append(0xCE)
                out += _U32.pack(value)
            else:
                out.append(0xCF)
                out += _U64.pack(value)
        elif value >= _MIN_I64:
            out.append(0xD3)
            out += _I64.pack(value)
        else:
            raise ProtocolError(
                f"int {value} outside 64-bit range of the binary codec")
    elif isinstance(value, float):
        out.append(0xCB)
        out += _F64.pack(value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        size = len(data)
        if size < 32:
            out.append(0xA0 | size)
        elif size <= 0xFF:
            out.append(0xD9)
            out.append(size)
        elif size <= 0xFFFF:
            out.append(0xDA)
            out += _U16.pack(size)
        else:
            out.append(0xDB)
            out += _U32.pack(size)
        out += data
    elif isinstance(value, (list, tuple)):
        size = len(value)
        if size < 16:
            out.append(0x90 | size)
        elif size <= 0xFFFF:
            out.append(0xDC)
            out += _U16.pack(size)
        else:
            out.append(0xDD)
            out += _U32.pack(size)
        for item in value:
            _put_obj(item, out)
    elif isinstance(value, dict):
        size = len(value)
        if size < 16:
            out.append(0x80 | size)
        elif size <= 0xFFFF:
            out.append(0xDE)
            out += _U16.pack(size)
        else:
            out.append(0xDF)
            out += _U32.pack(size)
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"binary map keys must be strings, got {key!r}")
            _put_obj(key, out)
            _put_obj(item, out)
    else:
        raise ProtocolError(
            f"cannot binary-encode a {type(value).__name__}")


#: Tag -> the big-endian word that is the whole value.
_WORD_TAGS = {0xCB: _F64, 0xCC: _U8, 0xCD: _U16, 0xCE: _U32, 0xCF: _U64,
              0xD3: _I64}
#: Tag -> (size word, container) of the sized str / array / map forms.
_SIZED_TAGS = {0xD9: (_U8, str), 0xDA: (_U16, str), 0xDB: (_U32, str),
               0xDC: (_U16, list), 0xDD: (_U32, list),
               0xDE: (_U16, dict), 0xDF: (_U32, dict)}
_CONSTANT_TAGS = {0xC0: None, 0xC2: False, 0xC3: True}


def _take_obj(buf: bytes, pos: int) -> Tuple[Any, int]:
    """Decode one msgpack-style value at ``pos``; returns (value, end)."""
    tag = buf[pos]
    pos += 1
    if tag < 0x80:                      # positive fixint
        return tag, pos
    if tag >= 0xE0:                     # negative fixint
        return tag - 0x100, pos
    if tag < 0xC0:                      # fixmap / fixarray / fixstr
        container = dict if tag < 0x90 else list if tag < 0xA0 else str
        size = tag & (0x1F if container is str else 0x0F)
    elif tag in _WORD_TAGS:
        word = _WORD_TAGS[tag]
        return word.unpack_from(buf, pos)[0], pos + word.size
    elif tag in _SIZED_TAGS:
        word, container = _SIZED_TAGS[tag]
        (size,) = word.unpack_from(buf, pos)
        pos += word.size
    elif tag in _CONSTANT_TAGS:
        return _CONSTANT_TAGS[tag], pos
    else:
        raise ProtocolError(f"unsupported binary tag 0x{tag:02x}")
    if container is str:
        return _take_str(buf, pos, size)
    if container is list:
        items = []
        for _ in range(size):
            value, pos = _take_obj(buf, pos)
            items.append(value)
        return items, pos
    pairs = {}
    for _ in range(size):
        key, pos = _take_obj(buf, pos)
        if not isinstance(key, str):
            raise ProtocolError(
                f"binary map keys must be strings, got {key!r}")
        pairs[key], pos = _take_obj(buf, pos)
    return pairs, pos


def _take_str(buf: bytes, pos: int, size: int) -> Tuple[str, int]:
    end = pos + size
    if end > len(buf):
        raise ProtocolError("truncated string in binary body")
    try:
        return buf[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in binary body: {exc}") from exc


# -- struct-layout bodies ------------------------------------------------------
#
# A ``layout="struct"`` message carries no map keys: its body is its
# fields, packed by the one rule of :func:`_derive`.  Field kinds are
# guaranteed by the struct formats themselves (an ``!Q`` word *is* a
# non-negative int), so these decoders skip the dict round trip and
# the per-field validation the map layout pays.  Every body below is
# pinned by BINARY_VERSION and by ``tests/test_wire_golden.py``.

# Precompiled "!{n}Q" structs for the short vectors that dominate the
# hot path (a task's files, a heartbeat's leases); longer vectors fall
# back to building the format string per call.
_ID_STRUCTS = tuple(struct.Struct("!%dQ" % n) for n in range(1, 17))


def _put_ids(values: List[int], out: bytearray) -> None:
    count = len(values)
    out += _U32.pack(count)
    if not count:
        return
    if count <= 16:
        out += _ID_STRUCTS[count - 1].pack(*values)
    else:
        out += struct.pack("!%dQ" % count, *values)


def _take_ids(body: bytes, pos: int) -> Tuple[List[int], int]:
    (count,) = _U32.unpack_from(body, pos)
    pos += 4
    if not count:
        return [], pos
    end = pos + 8 * count
    if end > len(body):
        raise ProtocolError("truncated id vector in binary body")
    if count <= 16:
        return list(_ID_STRUCTS[count - 1].unpack_from(body, pos)), end
    return list(struct.unpack_from("!%dQ" % count, body, pos)), end


def _expect_end(body: bytes, pos: int, kind: str) -> None:
    if pos != len(body):
        raise ProtocolError(
            f"{kind} frame has {len(body) - pos} trailing byte(s)")


#: Kinds whose decoded word needs no second look — its format is the
#: whole of their validation — and that word's struct code.
_EXACT_WORDS = {messages.u64: "Q", messages.boolean: "?"}


def _field_coder(kind: messages.WireType) -> Tuple[Callable, Callable]:
    """One field kind's ``put(value, out)`` and ``take(body, pos) ->
    (value, end)`` in the struct layout."""
    if isinstance(kind, messages.Ids):
        return _put_ids, _take_ids
    if isinstance(kind, messages.Enum):
        values = kind.values
        codes = {value: code for code, value in enumerate(values)}

        def put_enum(value: str, out: bytearray) -> None:
            out.append(codes[value])

        def take_enum(body: bytes, pos: int) -> Tuple[str, int]:
            if body[pos] >= len(values):
                raise ProtocolError(
                    f"enum code {body[pos]} is not one of {values}")
            return values[body[pos]], pos + 1
        return put_enum, take_enum
    # KeyError here, at import: the kind has no struct-layout coding
    # (strings, objects and nested entries ride the map layout).
    word = struct.Struct("!" + (
        _EXACT_WORDS.get(kind)
        or {messages.U64: "Q", messages.F64: "d"}[type(kind)]))

    def put(value: Any, out: bytearray) -> None:
        out += word.pack(value)

    def take(body: bytes, pos: int) -> Tuple[Any, int]:
        return word.unpack_from(body, pos)[0], pos + word.size
    return put, take


def _derive(cls: Type[messages.Message]) -> Tuple[Callable, Callable]:
    """``(pack(message) -> body, unpack(body) -> message)`` of a
    struct-layout class, by the one rule: a presence byte when the
    class has ``opt`` fields (at most eight; bit *i* set: the *i*-th
    optional field follows), then the present fields in declaration
    order — ``u64`` as ``!Q``, ``f64`` as ``!d``, ``boolean`` as one
    byte, an ``Enum`` as its position byte, ``ids`` as an ``!I`` count
    and that many ``!Q`` words."""
    fields = cls.FIELDS
    if not fields:
        # Nothing to carry and, like an unknown JSON field, nothing to
        # refuse: whatever a newer peer put in the body is ignored.
        empty = cls()
        return (lambda message: b""), (lambda body: empty)
    if len(fields) > 1 and all(field.kind in _EXACT_WORDS
                               and not field.optional for field in fields):
        # All fixed-width and exact (TASK_DONE, JOB_STATUS): one word.
        whole = struct.Struct("!" + "".join(
            _EXACT_WORDS[field.kind] for field in fields))
        values_of = operator.attrgetter(*(field.name for field in fields))
        return ((lambda message: whole.pack(*values_of(message))),
                (lambda body: cls(*whole.unpack(body))))
    steps = []
    bit = 1
    for name, kind, optional, _required in fields:
        put, take = _field_coder(kind)
        exact = kind in _EXACT_WORDS or kind == messages.ids
        steps.append((name, bit if optional else 0, put, take,
                      None if exact else kind))
        if optional:
            bit <<= 1
    flagged = bit > 1
    # A body of at most one byte has at most 257 meanings: each is
    # decoded once and shared (messages are frozen and compare by
    # value, so identity is unobservable) — NO_TASK, a bare HEARTBEAT.
    shared: Dict[bytes, messages.Message] = {}

    def pack(message: messages.Message) -> bytes:
        out = bytearray(1 if flagged else 0)
        for name, bit, put, _take, _kind in steps:
            value = getattr(message, name)
            if bit:
                if value is None:
                    continue
                out[0] |= bit
            put(value, out)
        return bytes(out)

    def unpack(body: bytes) -> messages.Message:
        if len(body) < 2 and body in shared:
            return shared[body]
        pos = 1 if flagged else 0
        values = []
        for name, bit, _put, take, kind in steps:
            value = None
            if not bit or body[0] & bit:
                value, pos = take(body, pos)
                if kind is not None and not kind.accepts(value):
                    raise ProtocolError(
                        f"{cls.TYPE}.{name}{kind.problem(value)}")
            values.append(value)
        _expect_end(body, pos, cls.TYPE)
        message = cls(*values)
        if len(body) < 2:
            shared[body] = message
        return message
    return pack, unpack


# The per-task messages of the live benchmark workloads keep a
# hand-written body.  FILE_DELTA, TASK, TASK_BATCH and ACK pack in an
# order, or with flag bits, the rule above does not produce, and
# ``binary-1`` cannot change under deployed peers; REQUEST_TASK is the
# rule's output written out, kept because the wire microbench says
# the derived closure is measurably slower.

_Q = struct.Struct("!Q")
_TASK_FIXED = struct.Struct("!QQQdd")    # task, lease, job, flops, ttl
_ENTRY_FIXED = struct.Struct("!QQQd")    # task, lease, job, flops


def _pack_request_task(m: messages.RequestTask) -> bytes:
    flags = ((1 if m.job_id is not None else 0)
             | (2 if m.max_tasks is not None else 0))
    out = bytearray((flags,))
    if m.job_id is not None:
        out += _Q.pack(m.job_id)
    if m.max_tasks is not None:
        out += _Q.pack(m.max_tasks)
    return bytes(out)


def _unpack_request_task(body: bytes) -> messages.RequestTask:
    flags = body[0]
    pos = 1
    job_id = max_tasks = None
    if flags & 1:
        (job_id,) = _Q.unpack_from(body, pos)
        pos += 8
    if flags & 2:
        (max_tasks,) = _Q.unpack_from(body, pos)
        pos += 8
        if max_tasks < 1:
            raise ProtocolError("REQUEST_TASK.max_tasks must be >= 1")
    _expect_end(body, pos, wire.REQUEST_TASK)
    return messages.RequestTask(job_id=job_id, max_tasks=max_tasks)


def _pack_file_delta(m: messages.FileDelta) -> bytes:
    out = bytearray((1 if m.site is not None else 0,))
    if m.site is not None:
        out += _Q.pack(m.site)
    _put_ids(m.added, out)
    _put_ids(m.removed, out)
    _put_ids(m.referenced, out)
    return bytes(out)


def _unpack_file_delta(body: bytes) -> messages.FileDelta:
    pos = 1
    site = None
    if body[0] & 1:
        (site,) = _Q.unpack_from(body, pos)
        pos += 8
    added, pos = _take_ids(body, pos)
    removed, pos = _take_ids(body, pos)
    referenced, pos = _take_ids(body, pos)
    _expect_end(body, pos, wire.FILE_DELTA)
    return messages.FileDelta(added=added, removed=removed,
                              referenced=referenced, site=site)


def _pack_task_assign(m: messages.TaskAssign) -> bytes:
    out = bytearray(_TASK_FIXED.pack(m.task_id, m.lease_id, m.job_id,
                                     m.flops, m.lease_ttl))
    _put_ids(m.files, out)
    return bytes(out)


def _unpack_task_assign(body: bytes) -> messages.TaskAssign:
    task_id, lease_id, job_id, flops, lease_ttl = \
        _TASK_FIXED.unpack_from(body, 0)
    files, pos = _take_ids(body, _TASK_FIXED.size)
    _expect_end(body, pos, wire.TASK)
    return messages.TaskAssign(task_id=task_id, files=files,
                               flops=flops, lease_id=lease_id,
                               lease_ttl=lease_ttl, job_id=job_id)


def _pack_task_batch(m: messages.TaskBatch) -> bytes:
    out = bytearray(_F64.pack(m.lease_ttl))
    out += _U32.pack(len(m.tasks))
    pack_entry = _ENTRY_FIXED.pack
    for entry in m.tasks:
        out += pack_entry(entry["task_id"], entry["lease_id"],
                          entry["job_id"], entry["flops"])
        _put_ids(entry["files"], out)
    return bytes(out)


def _unpack_task_batch(body: bytes) -> messages.TaskBatch:
    (lease_ttl,) = _F64.unpack_from(body, 0)
    (count,) = _U32.unpack_from(body, 8)
    if count < 1:
        raise ProtocolError("TASK_BATCH.tasks must be a non-empty list")
    pos = 12
    entries = []
    for _ in range(count):
        task_id, lease_id, job_id, flops = \
            _ENTRY_FIXED.unpack_from(body, pos)
        files, pos = _take_ids(body, pos + _ENTRY_FIXED.size)
        entries.append({"task_id": task_id, "files": files,
                        "flops": flops, "lease_id": lease_id,
                        "job_id": job_id})
    _expect_end(body, pos, wire.TASK_BATCH)
    return messages.TaskBatch(tasks=entries, lease_ttl=lease_ttl)


_ACK_PLAIN = b"\x01"


def _pack_ack(m: messages.Ack) -> bytes:
    if (m.reason is None and m.draining is None
            and m.retry_after is None):
        return _ACK_PLAIN if m.accepted else b"\x00"
    flags = 1 if m.accepted else 0
    out = bytearray()
    if m.reason is not None:
        flags |= 2
    if m.draining is not None:
        flags |= 4
        if m.draining:
            flags |= 8
    if m.retry_after is not None:
        flags |= 16
    out.append(flags)
    if m.reason is not None:
        data = m.reason.encode("utf-8")
        out += _U16.pack(len(data))
        out += data
    if m.retry_after is not None:
        out += _F64.pack(m.retry_after)
    return bytes(out)


_ACK_ACCEPTED = messages.Ack()  # frozen; shared by every plain ack


def _unpack_ack(body: bytes) -> messages.Ack:
    if body == _ACK_PLAIN:
        return _ACK_ACCEPTED
    flags = body[0]
    pos = 1
    reason = None
    if flags & 2:
        (size,) = _U16.unpack_from(body, pos)
        reason, pos = _take_str(body, pos + 2, size)
    draining = bool(flags & 8) if flags & 4 else None
    retry_after = None
    if flags & 16:
        (retry_after,) = _F64.unpack_from(body, pos)
        pos += 8
    _expect_end(body, pos, wire.ACK)
    return messages.Ack(accepted=bool(flags & 1), reason=reason,
                        draining=draining, retry_after=retry_after)


_HAND_WRITTEN: Dict[type, Tuple[Callable, Callable]] = {
    # every live workload: one per pull.  The rule does produce these
    # bytes; its closure cost 5 % of bench_serve_throughput's binary rate
    messages.RequestTask: (_pack_request_task, _unpack_request_task),
    # coadd_combined_k1: one ~78-id delta per task; `site` rides first
    messages.FileDelta: (_pack_file_delta, _unpack_file_delta),
    # hotset_combined_k1 / coadd_combined_k1: the k=1 reply of every pull
    messages.TaskAssign: (_pack_task_assign, _unpack_task_assign),
    # wire_rest_k8 / durable_rest_k8: the k=8 reply, nested entries
    messages.TaskBatch: (_pack_task_batch, _unpack_task_batch),
    # every live workload: two per task (TASK_DONE, FILE_DELTA answers)
    messages.Ack: (_pack_ack, _unpack_ack),
}


#: Every struct-layout class's packer by class, and its unpacker by
#: decode direction and wire type (``STATS`` and ``JOB_STATUS`` name a
#: different class each way): hand-written above, else derived.
_SPECIAL_PACK: Dict[type, Callable] = {}
_SPECIAL_UNPACK: Dict[str, Dict[str, Callable]] = {"client": {},
                                                   "server": {}}
for _side, _base in (("client", messages.ClientMessage),
                     ("server", messages.ServerMessage)):
    for _cls in _base.REGISTRY.values():
        if _cls.LAYOUT == "struct":
            _SPECIAL_PACK[_cls], _SPECIAL_UNPACK[_side][_cls.TYPE] = \
                _HAND_WRITTEN.get(_cls) or _derive(_cls)


class BinaryCodec(Codec):
    """Protocol v3's length-prefixed binary frames (``binary-1``)."""

    name = CODEC_BINARY

    def __init__(self, decodes: str = "client",
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        super().__init__(decodes)
        if max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {max_frame_bytes}")
        self.max_frame_bytes = max_frame_bytes
        special = _SPECIAL_UNPACK[decodes]
        #: type id -> (wire kind, struct-layout unpacker or None); one
        #: dict hit covers both decode-side lookups.
        self._decoders = {
            type_id: (kind, special.get(kind))
            for kind, type_id in BINARY_TYPE_IDS.items()
        }

    def encode(self, message: messages.Message) -> bytes:
        pack = _SPECIAL_PACK.get(type(message))
        try:
            if pack is not None:
                body = pack(message)
            else:
                # The map layout: the wire dict minus ``type``, which
                # the frame header carries.
                payload = message.to_dict()
                del payload["type"]
                out = bytearray()
                _put_obj(payload, out)
                body = bytes(out)
        except (struct.error, KeyError, TypeError,
                AttributeError) as exc:
            raise ProtocolError(
                f"cannot binary-encode {message.TYPE}: {exc}") from exc
        if len(body) > self.max_frame_bytes:
            raise ProtocolError(
                f"{message.TYPE} body of {len(body)} bytes exceeds "
                f"{self.max_frame_bytes}")
        return _HEADER.pack(MAGIC, BINARY_VERSION, message.TYPE_ID,
                            len(body)) + body

    def _parse(self) -> List[messages.Message]:
        buffer = self._buffer
        out: List[messages.Message] = []
        append = out.append
        unpack_header = _HEADER.unpack_from
        max_frame = self.max_frame_bytes
        decode = self._decode_frame
        pos = 0
        available = len(buffer)
        try:
            while available - pos >= _HEADER_SIZE:
                magic, version, type_id, body_len = \
                    unpack_header(buffer, pos)
                if magic != MAGIC:
                    raise ProtocolError(
                        f"bad frame magic 0x{magic:04X} "
                        f"(expected 0x{MAGIC:04X})")
                if version != BINARY_VERSION:
                    raise ProtocolError(
                        f"unsupported binary frame version {version} "
                        f"(this side speaks {BINARY_VERSION})")
                if body_len > max_frame:
                    raise ProtocolError(
                        f"frame body of {body_len} bytes exceeds "
                        f"{max_frame}")
                end = pos + _HEADER_SIZE + body_len
                if end > available:
                    break
                body = bytes(buffer[pos + _HEADER_SIZE:end])
                append(decode(type_id, body))
                pos = end
        except ProtocolError:
            if not out:
                raise
            # Deliver the clean prefix; the bad frame stays at the
            # buffer front so the next feed() re-raises.
        del buffer[:pos]
        return out

    def _decode_frame(self, type_id: int,
                      body: bytes) -> messages.Message:
        entry = self._decoders.get(type_id)
        if entry is None:
            raise ProtocolError(f"unknown binary type id {type_id}")
        kind, special = entry
        try:
            if special is not None:
                return special(body)
            payload, pos = _take_obj(body, 0)
            _expect_end(body, pos, kind)
            if not isinstance(payload, dict):
                raise ProtocolError(
                    f"{kind} body must be a map, "
                    f"got {type(payload).__name__}")
            payload["type"] = kind
            return self._lift(payload)
        except (IndexError, struct.error) as exc:
            raise ProtocolError(
                f"truncated {kind} frame body") from exc


#: Negotiation name -> codec class.
CODECS: Dict[str, Type[Codec]] = {
    JsonLinesCodec.name: JsonLinesCodec,
    BinaryCodec.name: BinaryCodec,
}


def make_codec(name: str, decodes: str = "client",
               max_frame_bytes: Optional[int] = None) -> Codec:
    """Instantiate the codec negotiated for one connection side."""
    cls = CODECS.get(name)
    if cls is None:
        raise ProtocolError(f"unknown codec {name!r} "
                            f"(have {sorted(CODECS)})")
    if max_frame_bytes is None:
        return cls(decodes=decodes)
    if cls is BinaryCodec:
        return cls(decodes=decodes, max_frame_bytes=max_frame_bytes)
    return cls(decodes=decodes, max_message_bytes=max_frame_bytes)
