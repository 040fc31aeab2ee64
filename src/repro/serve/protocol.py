"""Wire protocol between scheduler daemon and workers (v3).

Messages are typed (one frozen dataclass per message type, declared
once each in :mod:`repro.serve.messages` — that module's field table
*is* the message catalogue, rendered in ``docs/architecture.md``);
*how* they travel is a per-connection :class:`~repro.serve.codec.Codec`
chosen at ``HELLO`` time.  Strict request/response: every client
message gets exactly one reply, in order, so clients never need to
correlate (a parked ``REQUEST_TASK`` simply delays its reply until a
task frees up or the job ends).

This module is the thin constants-and-negotiation layer: wire type
names, version/codec negotiation and the JSON line framing
primitives.  The codec implementations live in
:mod:`repro.serve.codec`.

What the protocol carries (see ``docs/architecture.md`` for the full
reference):

* **version negotiation** — ``HELLO`` carries ``protocol``; the
  server rejects any version but :data:`PROTOCOL_VERSION` with a clean
  ``ERROR``.
* **codec negotiation** — ``HELLO`` may carry ``codecs``, an ordered
  capability list (e.g. ``["binary-1", "json-2"]``); the server picks
  the first mutually-supported name, replies with it as
  ``WELCOME.codec`` (or ``REDIRECT.codec`` at a router), and both
  sides switch immediately after that exchange.  A ``HELLO`` without
  ``codecs`` keeps JSON lines end to end — the debugging codec: a
  whole session can be driven from ``nc``.
* **binary framing** — the ``binary-1`` codec: length-prefixed,
  struct-packed frames (see :mod:`repro.serve.codec`).
* Connections always *start* in JSON lines; ``HELLO`` itself is never
  binary.  Clients must await the ``HELLO`` reply before sending more
  (pipelining across negotiation is a protocol error).
* **leases** — every ``TASK`` reply carries a ``lease_id`` and a TTL;
  ``TASK_DONE`` must present the lease, and ``HEARTBEAT`` renews it.
  An expired lease requeues the task to another worker.
* **multi-job tenancy** — ``JOB_SUBMIT`` tracks completion per
  ``job_id``, ``REQUEST_TASK`` can scope to a job, ``JOB_STATUS``
  reports per-job progress, and ``NO_TASK.reason`` is a closed enum
  distinguishing "your job is done" from "server idle/draining".
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Sequence

#: The protocol version this codebase offers in its own ``HELLO``.
PROTOCOL_VERSION = 3

#: ``HELLO.protocol`` values an endpoint accepts: one generation.
SUPPORTED_PROTOCOLS = frozenset({PROTOCOL_VERSION})

#: ``"3"`` — for ERROR texts during version negotiation.
SUPPORTED_PROTOCOLS_TEXT = str(PROTOCOL_VERSION)

#: Hard cap on one encoded message; JOB_SUBMIT chunks below this.
MAX_MESSAGE_BYTES = 1 << 20

# client -> server
HELLO = "HELLO"
REQUEST_TASK = "REQUEST_TASK"
TASK_DONE = "TASK_DONE"
HEARTBEAT = "HEARTBEAT"
FILE_DELTA = "FILE_DELTA"
JOB_SUBMIT = "JOB_SUBMIT"
JOB_STATUS = "JOB_STATUS"
STATS = "STATS"
DRAIN = "DRAIN"
# Shard-to-shard work stealing (the thief is the TCP client).
STEAL_REQUEST = "STEAL_REQUEST"
STEAL_ACK = "STEAL_ACK"
STEAL_DONE = "STEAL_DONE"

# server -> client
WELCOME = "WELCOME"
TASK = "TASK"
TASK_BATCH = "TASK_BATCH"
NO_TASK = "NO_TASK"
ACK = "ACK"
HEARTBEAT_ACK = "HEARTBEAT_ACK"
JOB_ACCEPTED = "JOB_ACCEPTED"
REDIRECT = "REDIRECT"
ERROR = "ERROR"
STEAL_GRANT = "STEAL_GRANT"

#: ``NO_TASK.reason`` is a closed enum — clients may switch on it.
REASON_JOB_DONE = "job-done"    #: the job you scoped to is complete
REASON_IDLE = "idle"            #: all submitted work is complete
REASON_DRAINING = "draining"    #: the server is shutting down

NO_TASK_REASONS = frozenset({REASON_JOB_DONE, REASON_IDLE,
                             REASON_DRAINING})

#: ``ACK.reason`` when admission control rejects a ``JOB_SUBMIT``
#: because the pending queue is over its watermark; the ack carries
#: ``retry_after`` seconds the submitter should back off before
#: retrying the same chunk.
REASON_OVERLOADED = "overloaded"

# -- codec negotiation --------------------------------------------------------

#: Negotiation name of the JSON-lines wire format (the fallback
#: every endpoint must speak).
CODEC_JSON = "json-2"
#: Negotiation name of the v3 length-prefixed binary frame format.
CODEC_BINARY = "binary-1"

#: What this codebase offers/accepts, in preference order.
DEFAULT_CODECS = (CODEC_BINARY, CODEC_JSON)

#: The ``--codec`` CLI/kwarg vocabulary -> ``HELLO.codecs`` offers.
CODEC_OPTIONS = ("auto", "json", "binary")


@dataclasses.dataclass(frozen=True)
class CodecNegotiation:
    """What a connection's ``HELLO`` exchange settled on."""

    protocol: int
    codec: str


def negotiate_codec(offered: Iterable[str],
                    supported: Sequence[str] = DEFAULT_CODECS) -> str:
    """Server-side pick: first of the client's ``offered`` names this
    side supports; JSON lines when nothing matches (or the client
    offered nothing) — the fallback every endpoint speaks."""
    supported_set = frozenset(supported)
    for name in offered:
        if name in supported_set:
            return name
    return CODEC_JSON


def codec_offers(option: str) -> List[str]:
    """``--codec`` option (``auto``/``json``/``binary`` or an exact
    codec name) -> the ordered ``HELLO.codecs`` capability list."""
    if option == "auto":
        return list(DEFAULT_CODECS)
    if option == "json" or option == CODEC_JSON:
        return [CODEC_JSON]
    if option == "binary" or option == CODEC_BINARY:
        return [CODEC_BINARY]
    raise ValueError(
        f"codec must be one of {CODEC_OPTIONS} "
        f"or {DEFAULT_CODECS}, got {option!r}")


class ProtocolError(ValueError):
    """A message violated the wire format."""


#: Shared encoder: ``json.dumps`` with non-default separators builds a
#: fresh ``JSONEncoder`` per call, which shows up at wire rates.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)


def encode_line(message: Dict[str, Any]) -> bytes:
    """One message dict -> one ``\\n``-terminated JSON line (the
    ``json-2`` wire format)."""
    if "type" not in message:
        raise ProtocolError("message has no 'type'")
    line = _ENCODER.encode(message).encode("ascii")
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds {MAX_MESSAGE_BYTES}")
    return line + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """One received JSON line -> message dict (validated)."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds {MAX_MESSAGE_BYTES}")
    try:
        # Explicit decode: skips json's pure-python encoding sniffing
        # and turns undecodable bytes into a clean ProtocolError.
        message = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be an object, got {type(message).__name__}")
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("message 'type' missing or not a string")
    return message


def is_int(value: Any) -> bool:
    """True for real ints only — ``bool`` is a subclass of ``int`` in
    Python, so ``isinstance(True, int)`` holds and would let ``true``
    masquerade as a file or task id on the wire."""
    return isinstance(value, int) and not isinstance(value, bool)
