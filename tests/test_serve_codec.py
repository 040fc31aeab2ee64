"""The protocol-v3 codec layer: framing, negotiation, fallback.

Three groups:

* **round trips** — a hypothesis property over every registered
  message class, through both codecs (``json-2`` and ``binary-1``);
  the strategy is derived from the class's field table, so a new
  message class or field is covered the moment it is declared;
* **framing** — incremental feeds (byte-at-a-time, arbitrary splits,
  concatenated bursts), truncation, and the clean ``ProtocolError``
  contract for oversized frames, bad magic, bad version, unknown type
  ids, and the deliver-prefix-then-reraise rule;
* **negotiation e2e** — a mixed-codec fleet against one server, and a
  JSON-only client (no ``codecs`` offer) completing a full run over
  the debugging codec.
"""

import asyncio
import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import ExperimentConfig
from repro.exp.runner import build_job
from repro.serve import messages, protocol
from repro.serve.client import SchedulerClient, WorkerClient
from repro.serve.codec import (BinaryCodec, Codec, JsonLinesCodec,
                               make_codec)
from repro.serve.server import SchedulerServer
from repro.serve.service import SchedulerService

from test_wire_golden import GOLDEN, codecs_for

TIMEOUT = 60


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


# -- strategies, derived from the message declarations ------------------------

_ids = st.integers(min_value=0, max_value=2**63 - 1)
_numbers = st.floats(min_value=0.0, max_value=1e18, allow_nan=False,
                     allow_infinity=False)
_texts = st.text(max_size=24)
_plain = {
    bool: st.booleans(),
    str: _texts,
    dict: st.dictionaries(
        st.text(max_size=8),
        st.one_of(st.none(), st.booleans(), _ids, _numbers, _texts),
        max_size=4),
    list: st.lists(st.fixed_dictionaries(
        {"files": st.lists(_ids, max_size=4), "flops": _numbers}),
        max_size=3),
}


def kind_strategy(kind):
    """Values of one word of the field-type vocabulary."""
    if isinstance(kind, messages.U64):
        return st.integers(min_value=kind.minimum, max_value=2**63 - 1)
    if isinstance(kind, messages.F64):
        return _numbers
    if isinstance(kind, messages.Of):
        return _plain[kind.pytype]
    if isinstance(kind, messages.Enum):
        return st.sampled_from(kind.values)
    if isinstance(kind, messages.Ids):
        return st.lists(_ids, min_size=kind.at_least, max_size=4)
    if isinstance(kind, messages.Struct):
        return st.fixed_dictionaries(
            {key: kind_strategy(item) for key, item in kind.fields})
    return st.lists(kind_strategy(kind.item), min_size=kind.at_least,
                    max_size=3)


#: Fields whose cross-field rule independent draws would rarely meet:
#: ``files[i]`` was referenced ``refs[i]`` times, so draw the size once.
OVERRIDES = {
    (messages.StealRequest, "site_refsums"): st.lists(
        st.integers(min_value=0, max_value=4).flatmap(
            lambda size: st.fixed_dictionaries({
                "site": _ids,
                "files": st.lists(_ids, min_size=size, max_size=size),
                "refs": st.lists(_ids, min_size=size, max_size=size),
            })), max_size=3),
}


def _obeys_cross_field_rule(message):
    try:
        message._cross_check()
    except protocol.ProtocolError:
        return False
    return True


def strategy_for(cls):
    """Instances of ``cls``, field by field from its table; what the
    class's cross-field rule refuses is drawn again."""
    drawn = {}
    for name, kind, optional, _required in cls.FIELDS:
        values = OVERRIDES.get((cls, name))
        if values is None:
            values = kind_strategy(kind)
        drawn[name] = st.none() | values if optional else values
    return st.builds(cls, **drawn).filter(_obeys_cross_field_rule)


_any_message = st.one_of(*(
    strategy_for(cls)
    for registry in (messages.ClientMessage.REGISTRY,
                     messages.ServerMessage.REGISTRY)
    for cls in registry.values()))


def _decoder_for(message, codec_name):
    side = ("client" if isinstance(message, messages.ClientMessage)
            else "server")
    return make_codec(codec_name, decodes=side)


@pytest.mark.parametrize("codec_name",
                         [protocol.CODEC_JSON, protocol.CODEC_BINARY])
@given(message=_any_message)
@settings(max_examples=60, deadline=None)
def test_round_trip(codec_name, message):
    decoder = _decoder_for(message, codec_name)
    encoded = decoder.encode(message)
    decoded = decoder.feed(encoded)
    assert decoded == [message]
    assert decoder.buffered == 0


@given(batch=st.lists(_any_message, min_size=1, max_size=6),
       codec_name=st.sampled_from([protocol.CODEC_JSON,
                                   protocol.CODEC_BINARY]),
       chunk=st.integers(min_value=1, max_value=17))
@settings(max_examples=40, deadline=None)
def test_split_and_concatenated_feeds(batch, codec_name, chunk):
    """One pipelined burst, fed in arbitrary chunk sizes, decodes to
    the same messages in the same order."""
    # Same-direction burst only: a real connection decodes one side.
    side = ("client" if isinstance(batch[0], messages.ClientMessage)
            else "server")
    batch = [m for m in batch
             if isinstance(m, messages.ClientMessage) == (side == "client")]
    decoder = make_codec(codec_name, decodes=side)
    stream = b"".join(decoder.encode(m) for m in batch)
    out = []
    for start in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[start:start + chunk]))
    assert out == batch
    assert decoder.buffered == 0


def test_byte_at_a_time_feed():
    decoder = BinaryCodec(decodes="server")
    expected = [messages.Ack(),
                messages.NoTask(reason=protocol.REASON_IDLE),
                messages.TaskAssign(task_id=1, files=[2, 3], flops=1.0,
                                    lease_id=9, lease_ttl=30.0,
                                    job_id=0)]
    stream = b"".join(decoder.encode(m) for m in expected)
    out = []
    for index in range(len(stream)):
        out.extend(decoder.feed(stream[index:index + 1]))
    assert out == expected


# -- framing error contract --------------------------------------------------

def test_truncated_frame_waits_for_more_bytes():
    codec = BinaryCodec(decodes="client")
    frame = codec.encode(messages.TaskDone(task_id=1, lease_id=2))
    assert codec.feed(frame[:-3]) == []
    assert codec.buffered == len(frame) - 3
    assert codec.feed(frame[-3:]) == [
        messages.TaskDone(task_id=1, lease_id=2)]


def test_bad_magic_raises_protocol_error():
    codec = BinaryCodec(decodes="client")
    with pytest.raises(protocol.ProtocolError, match="magic"):
        codec.feed(b"\x00\x00" + b"\x01\x02" + b"\x00" * 4)


def test_bad_version_raises_protocol_error():
    codec = BinaryCodec(decodes="client")
    frame = bytearray(codec.encode(messages.Drain()))
    frame[2] ^= 0xFF  # corrupt the version byte
    with pytest.raises(protocol.ProtocolError, match="version"):
        codec.feed(bytes(frame))


def test_unknown_type_id_raises_protocol_error():
    codec = BinaryCodec(decodes="client")
    frame = bytearray(codec.encode(messages.Drain()))
    frame[3] = 0xEE  # no such type id
    with pytest.raises(protocol.ProtocolError, match="type id"):
        codec.feed(bytes(frame))


def test_oversized_frame_rejected_on_decode():
    small = BinaryCodec(decodes="client", max_frame_bytes=16)
    big = BinaryCodec(decodes="client")  # default cap, will encode
    frame = big.encode(messages.FileDelta(added=list(range(20))))
    with pytest.raises(protocol.ProtocolError, match="exceeds"):
        small.feed(frame)


def test_oversized_frame_rejected_on_encode():
    codec = BinaryCodec(decodes="client", max_frame_bytes=16)
    with pytest.raises(protocol.ProtocolError, match="exceeds"):
        codec.encode(messages.FileDelta(added=list(range(20))))


def test_oversized_json_line_rejected_while_buffering():
    codec = JsonLinesCodec(decodes="client", max_message_bytes=32)
    with pytest.raises(protocol.ProtocolError, match="exceeds"):
        codec.feed(b"x" * 64)  # no newline yet, already hopeless


def test_clean_prefix_delivered_then_error_reraised():
    """A pipelined burst whose tail is garbage still delivers the good
    prefix; the error surfaces on the next feed, not silently."""
    codec = BinaryCodec(decodes="client")
    good = codec.encode(messages.TaskDone(task_id=7, lease_id=8))
    garbage = b"\xff\xff\xff\xff\xff\xff\xff\xff"
    out = codec.feed(good + garbage)
    assert out == [messages.TaskDone(task_id=7, lease_id=8)]
    with pytest.raises(protocol.ProtocolError):
        codec.feed(b"")


@pytest.mark.parametrize(
    "message, frame_hex", [case[:2] for case in GOLDEN],
    ids=[f"{index}-{case[0].TYPE}" for index, case in enumerate(GOLDEN)])
def test_every_proper_body_prefix_is_a_protocol_error(message, frame_hex):
    """Containment, derived decoders included.  A golden frame cut
    short *inside its body*, the length header rewritten to match, is
    well-framed: only the body decoder stands between those bytes and
    the service, and it must answer ``ProtocolError`` — never an
    ``IndexError`` / ``struct.error``, never a decoded message, never
    a negative count in the text."""
    frame = bytes.fromhex(frame_hex)
    for cut in range(len(frame) - 8):
        binary, _json = codecs_for(message)
        with pytest.raises(protocol.ProtocolError) as caught:
            binary.feed(frame[:4] + struct.pack("!I", cut)
                        + frame[8:8 + cut])
        assert "-" not in str(caught.value), (cut, str(caught.value))


def test_the_struct_rule_checks_what_a_word_cannot():
    """CHANGES.md's one-line ``NO_TASK.retry_after: opt[f64]``, on a
    stand-in class: a presence byte appears, and decode applies the
    declared range (finite, ``>= 1``) the struct words alone accept."""
    from repro.serve.codec import _derive
    kinds = (messages.NoTask.FIELDS[0].kind, messages.U64(1), messages.f64)
    Probe = dataclasses.make_dataclass(
        "Probe", ["reason", "attempts", ("retry_after", float, None)],
        namespace={"TYPE": "PROBE", "FIELDS": tuple(
            messages.Field(name, kind, name == "retry_after", True)
            for name, kind in zip(("reason", "attempts", "retry_after"),
                                  kinds))})
    pack, unpack = _derive(Probe)
    assert pack(Probe("idle", 2)) == b"\x00\x01" + struct.pack("!Q", 2)
    full = Probe("draining", 1, 1.5)
    assert pack(full) == b"\x01\x02" + struct.pack("!Qd", 1, 1.5)
    assert unpack(pack(full)) == full
    for body in (b"\x01\x02" + struct.pack("!Qd", 1, float("nan")),
                 b"\x00\x02" + struct.pack("!Q", 0),
                 b"\x00\x09" + struct.pack("!Q", 1)):
        with pytest.raises(protocol.ProtocolError):
            unpack(body)


def test_make_codec_rejects_unknown_name():
    with pytest.raises(protocol.ProtocolError):
        make_codec("zstd-9", decodes="client")


def test_codec_is_the_public_interface():
    assert issubclass(JsonLinesCodec, Codec)
    assert issubclass(BinaryCodec, Codec)
    assert JsonLinesCodec.name == protocol.CODEC_JSON
    assert BinaryCodec.name == protocol.CODEC_BINARY


# -- negotiation, end to end -------------------------------------------------

def _job(num_tasks=24, seed=0):
    return build_job(ExperimentConfig(num_tasks=num_tasks,
                                      capacity_files=400, seed=seed))


def test_mixed_codec_fleet_completes_one_job():
    """Binary and JSON workers share one server and one job; each
    connection independently negotiates its own framing."""
    async def scenario():
        service = SchedulerService(metric="combined", n=2, seed=1)
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host, server.port,
                                       name="submit",
                                       codec="binary") as control:
                handle = await control.submit(_job(24))
                fleet = [
                    WorkerClient(server.host, server.port,
                                 worker=f"w{index}", site=index % 2,
                                 capacity_files=400,
                                 job_id=handle.job_id, batch=4,
                                 codec=codec)
                    for index, codec in enumerate(
                        ["binary", "json", "auto", "json"])
                ]
                summaries = await asyncio.gather(
                    *(worker.run() for worker in fleet))
                status = await handle.status()
        finally:
            await server.stop()
        assert status["done"]
        assert sum(s["tasks_done"] for s in summaries) == 24
        negotiated = [s["codec"] for s in summaries]
        assert negotiated[0] == protocol.CODEC_BINARY
        assert negotiated[1] == protocol.CODEC_JSON
        assert negotiated[2] == protocol.CODEC_BINARY  # auto prefers it
        assert negotiated[3] == protocol.CODEC_JSON

    run(scenario())


def test_v2_json_only_client_completes_against_v3_server():
    """The fallback claim, as it stands now that protocol 2 is no
    longer a generation: a v2-*shaped* client — one that never offers
    ``codecs`` — says ``protocol: 3`` and runs a whole job over plain
    JSON lines (``protocol: 2`` itself is refused like v1,
    ``tests/test_wire_containment.py``)."""
    async def scenario():
        service = SchedulerService(metric="rest", n=1, seed=5)
        server = SchedulerServer(service)
        await server.start()
        try:
            async with SchedulerClient(server.host, server.port,
                                       name="submit",
                                       codec="json") as control:
                handle = await control.submit(_job(10))
            reader, writer = await asyncio.open_connection(
                server.host, server.port)

            async def call(payload):
                writer.write(protocol.encode_line(payload))
                await writer.drain()
                return protocol.decode_line(await reader.readline())

            welcome = await call({"type": protocol.HELLO,
                                  "worker": "legacy", "site": 0,
                                  "protocol": 3})
            assert welcome["type"] == protocol.WELCOME
            assert welcome["protocol"] == 3
            assert "codec" not in welcome  # nothing was offered
            done = 0
            while True:
                reply = await call({"type": protocol.REQUEST_TASK,
                                    "job_id": handle.job_id})
                if reply["type"] == protocol.NO_TASK:
                    assert reply["reason"] == protocol.REASON_JOB_DONE
                    break
                assert reply["type"] == protocol.TASK
                ack = await call({"type": protocol.TASK_DONE,
                                  "task_id": reply["task_id"],
                                  "lease_id": reply["lease_id"]})
                assert ack["type"] == protocol.ACK and ack["accepted"]
                done += 1
            writer.close()
            await writer.wait_closed()
            assert done == 10
        finally:
            await server.stop()

    run(scenario())


def test_pipelining_across_negotiation_is_refused():
    """A client must await the HELLO reply before sending more: bytes
    pipelined past a codec switch are ambiguous, so the server refuses
    the connection rather than guess."""
    async def scenario():
        service = SchedulerService()
        server = SchedulerServer(service)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            hello = protocol.encode_line({
                "type": protocol.HELLO, "worker": "eager", "site": 0,
                "protocol": protocol.PROTOCOL_VERSION,
                "codecs": [protocol.CODEC_BINARY]})
            eager = protocol.encode_line({
                "type": protocol.REQUEST_TASK})
            writer.write(hello + eager)
            await writer.drain()
            replies = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                replies.append(protocol.decode_line(line))
            writer.close()
            await writer.wait_closed()
            assert replies[0]["type"] == protocol.WELCOME
            assert replies[-1]["type"] == protocol.ERROR
            assert "pipelined" in replies[-1]["error"]
        finally:
            await server.stop()

    run(scenario())
