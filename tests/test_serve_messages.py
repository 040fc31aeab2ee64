"""Typed message layer: round-trip, tolerance, validation, direction."""

import dataclasses

import pytest

from repro.serve import messages, protocol
from repro.serve.protocol import ProtocolError


CLIENT_SAMPLES = [
    messages.Hello(worker="w0", site=3,
                   protocol=protocol.PROTOCOL_VERSION),
    messages.RequestTask(),
    messages.RequestTask(job_id=4),
    messages.RequestTask(max_tasks=8),
    messages.RequestTask(job_id=4, max_tasks=2),
    messages.TaskDone(task_id=7, lease_id=12),
    messages.Heartbeat(),
    messages.Heartbeat(lease_ids=[1, 2, 3]),
    messages.FileDelta(added=[1, 2], removed=[3], referenced=[1],
                       site=0),
    messages.JobSubmit(tasks=[{"files": [1], "flops": 0.0}]),
    messages.JobSubmit(tasks=[{"files": [2]}], job_id=9),
    messages.JobStatusRequest(job_id=0),
    messages.StatsRequest(),
    messages.Drain(),
    messages.StealRequest(max_tasks=4, site_refsums=[
        {"site": 0, "files": [1, 2], "refs": [3, 1]}]),
    messages.StealAck(export_id=2),
    messages.StealDone(task_ids=[0, 2]),
]

SERVER_SAMPLES = [
    messages.Welcome(server="s", metric="rest", n=2, protocol=2,
                     lease_ttl=30.0, heartbeat_interval=10.0),
    messages.TaskAssign(task_id=5, files=[1, 9], flops=2.5,
                        lease_id=77, lease_ttl=30.0, job_id=1),
    messages.TaskBatch(tasks=[
        {"task_id": 5, "files": [1, 9], "flops": 2.5,
         "lease_id": 77, "job_id": 1},
        {"task_id": 6, "files": [2], "flops": 0.0,
         "lease_id": 78, "job_id": 1},
    ], lease_ttl=30.0),
    messages.NoTask(reason=protocol.REASON_JOB_DONE),
    messages.Ack(),
    messages.Ack(accepted=False, reason="stale-lease"),
    messages.HeartbeatAck(renewed=[77], expired=[3]),
    messages.JobAccepted(job_id=0, task_ids=[0, 1, 2]),
    messages.JobStatusReply(job_id=0, tasks=3, completed=1, pending=1,
                            outstanding=1, done=False),
    messages.StatsReply(stats={"completions": 4}),
    messages.Redirect(shards=[{"shard": 0, "host": "127.0.0.1",
                               "port": 7178}], shard_count=1),
    messages.Error(error="nope"),
    messages.StealGrant(),
    messages.StealGrant(tasks=[{"task_id": 0, "job_id": 0,
                                "files": [1], "flops": 1.0}],
                        export_id=1),
]


@pytest.mark.parametrize("message", CLIENT_SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_client_messages_roundtrip(message):
    assert messages.decode_client(message.encode()) == message


@pytest.mark.parametrize("message", SERVER_SAMPLES,
                         ids=lambda m: type(m).__name__)
def test_server_messages_roundtrip(message):
    assert messages.decode_server(message.encode()) == message


def test_every_wire_type_is_covered():
    """The declarations span the protocol's wire-name constants (the
    ``NAME = "NAME"`` ones), each under its own name."""
    constants = {value for name, value in vars(protocol).items()
                 if name.isupper() and value == name}
    declared = (set(messages.CLIENT_TYPES)
                | set(messages.ServerMessage.REGISTRY))
    assert declared == constants
    for registry in (messages.ClientMessage.REGISTRY,
                     messages.ServerMessage.REGISTRY):
        for name, cls in registry.items():
            assert cls.TYPE == name


def test_unknown_fields_are_tolerated():
    """Forward compat: fields a newer peer added are ignored."""
    line = protocol.encode_line({"type": protocol.TASK_DONE, "task_id": 1,
                            "lease_id": 2, "shiny_new_field": "yes"})
    message = messages.decode_client(line)
    assert message == messages.TaskDone(task_id=1, lease_id=2)


def test_missing_required_field_raises():
    line = protocol.encode_line({"type": protocol.TASK_DONE, "task_id": 1})
    with pytest.raises(ProtocolError, match="lease_id"):
        messages.decode_client(line)


def test_unknown_type_raises_per_direction():
    with pytest.raises(ProtocolError):
        messages.decode_client(protocol.encode_line({"type": "FROBNICATE"}))
    # A server-only type is unknown on the server's receiving side.
    with pytest.raises(ProtocolError):
        messages.decode_client(protocol.encode_line(
            {"type": protocol.WELCOME, "server": "s", "metric": "rest",
             "n": 1}))


def test_stats_type_decodes_by_direction():
    """STATS is request and reply; direction picks the class."""
    line = protocol.encode_line({"type": protocol.STATS})
    assert isinstance(messages.decode_client(line),
                      messages.StatsRequest)
    line = protocol.encode_line({"type": protocol.STATS, "stats": {}})
    assert isinstance(messages.decode_server(line),
                      messages.StatsReply)


def test_no_task_reason_is_a_closed_enum():
    for reason in protocol.NO_TASK_REASONS:
        messages.NoTask(reason=reason).validate()
    with pytest.raises(ProtocolError):
        messages.decode_server(protocol.encode_line(
            {"type": protocol.NO_TASK, "reason": "because"}))


@pytest.mark.parametrize("payload", [
    {"type": protocol.HELLO, "worker": 7, "site": 0},
    {"type": protocol.HELLO, "worker": "w", "site": "x"},
    {"type": protocol.HELLO, "worker": "w", "site": True},
    {"type": protocol.TASK_DONE, "task_id": -1, "lease_id": 0},
    {"type": protocol.TASK_DONE, "task_id": True, "lease_id": 0},
    {"type": protocol.HEARTBEAT, "lease_ids": [1, True]},
    {"type": protocol.FILE_DELTA, "added": [1, "x"]},
    {"type": protocol.FILE_DELTA, "added": [True]},
    {"type": protocol.FILE_DELTA, "added": 3},
    {"type": protocol.REQUEST_TASK, "job_id": "0"},
    {"type": protocol.REQUEST_TASK, "max_tasks": 0},
    {"type": protocol.JOB_SUBMIT, "tasks": "not-a-list"},
    {"type": protocol.JOB_SUBMIT, "tasks": [], "weight": 0},
    # json.loads parses the bare NaN / Infinity tokens; nan <= 0 is
    # false, so a range check alone lets NaN through.
    {"type": protocol.JOB_SUBMIT, "tasks": [], "weight": float("nan")},
    {"type": protocol.JOB_SUBMIT, "tasks": [], "weight": float("inf")},
    {"type": protocol.JOB_SUBMIT, "tasks": [], "weight": 10**400},
    {"type": protocol.STEAL_REQUEST, "max_tasks": 1, "site_refsums": [
        {"site": 0, "files": [1, 2], "refs": [1]}]},
    {"type": protocol.STEAL_REQUEST, "max_tasks": 1, "site_refsums": [
        {"site": 0, "files": [1]}]},
    {"type": protocol.STEAL_DONE, "task_ids": []},
])
def test_client_field_validation(payload):
    with pytest.raises(ProtocolError):
        messages.decode_client(protocol.encode_line(payload))


@pytest.mark.parametrize("payload", [
    # Unchecked before the field table: JSON round-tripped "yes" while
    # binary-1 coerced it to true.
    {"type": protocol.ACK, "draining": "yes"},
    {"type": protocol.ACK, "accepted": 1},
    {"type": protocol.ACK, "retry_after": "soon"},
    {"type": protocol.ACK, "retry_after": float("nan")},
    {"type": protocol.NO_TASK, "reason": ["idle"]},
    {"type": protocol.WELCOME, "server": "s", "metric": "rest", "n": 0},
    {"type": protocol.TASK, "task_id": 1, "files": [1], "flops": True,
     "lease_id": 1, "lease_ttl": 1.0, "job_id": 0},
    {"type": protocol.TASK_BATCH, "tasks": [], "lease_ttl": 1.0},
    {"type": protocol.TASK_BATCH, "lease_ttl": 1.0, "tasks": [
        {"task_id": 1, "files": [1], "flops": 0.0, "lease_id": 1}]},
    {"type": protocol.TASK_BATCH, "lease_ttl": 1.0, "tasks": [
        {"task_id": 1, "files": [True], "flops": 0.0, "lease_id": 1,
         "job_id": 0}]},
    {"type": protocol.STATS, "stats": []},
    {"type": protocol.REDIRECT, "shards": [], "shard_count": 1},
    {"type": protocol.REDIRECT, "shard_count": 1, "shards": [
        {"shard": 0, "host": "h", "port": 0}]},
    {"type": protocol.STEAL_GRANT, "tasks": [
        {"task_id": 0, "job_id": 0, "files": [], "flops": 0.0}]},
])
def test_server_field_validation(payload):
    with pytest.raises(ProtocolError):
        messages.decode_server(protocol.encode_line(payload))


def test_an_explicit_null_is_an_absent_optional():
    ack = messages.decode_server(protocol.encode_line(
        {"type": protocol.ACK, "draining": None, "reason": None}))
    assert ack == messages.Ack()
    with pytest.raises(ProtocolError):  # ...but not an absent required
        messages.decode_server(protocol.encode_line(
            {"type": protocol.ACK, "accepted": None}))


def test_validation_errors_name_the_field_at_fault():
    with pytest.raises(ProtocolError, match=r"TASK_BATCH\.tasks\[\]\."
                                            r"lease_id must be an int"):
        messages.decode_server(protocol.encode_line(
            {"type": protocol.TASK_BATCH, "lease_ttl": 1.0, "tasks": [
                {"task_id": 1, "files": [], "flops": 0.0,
                 "lease_id": "x", "job_id": 0}]}))
    with pytest.raises(ProtocolError, match=r"HELLO\.codecs\[\] must be "
                                            r"a string"):
        messages.decode_client(protocol.encode_line(
            {"type": protocol.HELLO, "worker": "w", "site": 0,
             "codecs": ["json-2", 7]}))


def test_all_message_dataclasses_are_frozen():
    for cls in list(messages.ClientMessage.REGISTRY.values()) \
            + list(messages.ServerMessage.REGISTRY.values()):
        assert dataclasses.is_dataclass(cls)
        params = getattr(cls, "__dataclass_params__")
        assert params.frozen, f"{cls.__name__} must be frozen"


def test_none_valued_optionals_stay_off_the_wire():
    """v1-shaped compactness: absent is the encoding of None."""
    payload = messages.RequestTask().to_dict()
    assert payload == {"type": protocol.REQUEST_TASK}
    payload = messages.Ack().to_dict()
    assert "reason" not in payload and "draining" not in payload
