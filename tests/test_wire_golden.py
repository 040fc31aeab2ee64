"""Golden frames: the exact bytes of ``binary-1`` and ``json-2``.

Every other codec test encodes and decodes with the same code, so a
change that re-orders a field or re-numbers a flag bit on both ends at
once passes them all.  These literals were written by the codecs of
the commit *before* the wire stack was derived from one field table,
and are never regenerated: a shard restarted mid-campaign next to an
older peer must speak exactly these bytes.  One instance per message
class with every optional unset and one with every optional set, plus
id vectors that cross the codec's 16-entry precompiled-struct table.
"""

import pytest

from repro.serve import messages, protocol
from repro.serve.codec import make_codec

FILES17 = list(range(100, 117))

#: ``(message, binary-1 frame as hex, json-2 line)``
GOLDEN = [
    # client -> server
    (messages.Hello(worker="w0", site=3, protocol=3),
     "c0de01010000001b83a6776f726b6572a27730a47369746503a870726f746f63"
     "6f6c03",
     b'{"type":"HELLO","worker":"w0","site":3,"protocol":3}\n'),
    (messages.Hello(worker="w0", site=3, protocol=3, accept_redirect=True,
                    codecs=["binary-1", "json-2"]),
     "c0de01010000004485a6776f726b6572a27730a47369746503a870726f746f63"
     "6f6c03af6163636570745f7265646972656374c3a6636f6465637392a862696e"
     "6172792d31a66a736f6e2d32",
     b'{"type":"HELLO","worker":"w0","site":3,"protocol":3,"accept_redi'
     b'rect":true,"codecs":["binary-1","json-2"]}\n'),
    (messages.RequestTask(),
     "c0de01020000000100",
     b'{"type":"REQUEST_TASK"}\n'),
    (messages.RequestTask(job_id=4),
     "c0de010200000009010000000000000004",
     b'{"type":"REQUEST_TASK","job_id":4}\n'),
    (messages.RequestTask(max_tasks=8),
     "c0de010200000009020000000000000008",
     b'{"type":"REQUEST_TASK","max_tasks":8}\n'),
    (messages.RequestTask(job_id=4, max_tasks=2),
     "c0de0102000000110300000000000000040000000000000002",
     b'{"type":"REQUEST_TASK","job_id":4,"max_tasks":2}\n'),
    (messages.TaskDone(task_id=7, lease_id=12),
     "c0de0103000000100000000000000007000000000000000c",
     b'{"type":"TASK_DONE","task_id":7,"lease_id":12}\n'),
    (messages.TaskDone(task_id=2**64 - 1, lease_id=2**63),
     "c0de010300000010ffffffffffffffff8000000000000000",
     b'{"type":"TASK_DONE","task_id":18446744073709551615,"lease_id":92'
     b'23372036854775808}\n'),
    (messages.Heartbeat(),
     "c0de01040000000100",
     b'{"type":"HEARTBEAT"}\n'),
    (messages.Heartbeat(lease_ids=[]),
     "c0de0104000000050100000000",
     b'{"type":"HEARTBEAT","lease_ids":[]}\n'),
    (messages.Heartbeat(lease_ids=[1, 2, 3]),
     "c0de01040000001d010000000300000000000000010000000000000002000000"
     "0000000003",
     b'{"type":"HEARTBEAT","lease_ids":[1,2,3]}\n'),
    (messages.FileDelta(),
     "c0de01050000000d00000000000000000000000000",
     b'{"type":"FILE_DELTA","added":[],"removed":[],"referenced":[]}\n'),
    (messages.FileDelta(added=[1, 2], removed=[3], referenced=[1], site=0),
     "c0de010500000035010000000000000000000000020000000000000001000000"
     "0000000002000000010000000000000003000000010000000000000001",
     b'{"type":"FILE_DELTA","added":[1,2],"removed":[3],"referenced":[1'
     b'],"site":0}\n'),
    (messages.FileDelta(added=FILES17, site=5),
     "c0de01050000009d010000000000000005000000110000000000000064000000"
     "0000000065000000000000006600000000000000670000000000000068000000"
     "0000000069000000000000006a000000000000006b000000000000006c000000"
     "000000006d000000000000006e000000000000006f0000000000000070000000"
     "0000000071000000000000007200000000000000730000000000000074000000"
     "0000000000",
     b'{"type":"FILE_DELTA","added":[100,101,102,103,104,105,106,107,10'
     b'8,109,110,111,112,113,114,115,116],"removed":[],"referenced":[],'
     b'"site":5}\n'),
    (messages.JobSubmit(tasks=[{"files": [1], "flops": 0.0}]),
     "c0de01060000002081a57461736b739182a566696c65739101a5666c6f7073cb"
     "0000000000000000",
     b'{"type":"JOB_SUBMIT","tasks":[{"files":[1],"flops":0.0}]}\n'),
    (messages.JobSubmit(tasks=[{"files": [2]}], job_id=9, weight=2.5),
     "c0de01060000002983a57461736b739181a566696c65739102a66a6f625f6964"
     "09a6776569676874cb4004000000000000",
     b'{"type":"JOB_SUBMIT","tasks":[{"files":[2]}],"job_id":9,"weight"'
     b':2.5}\n'),
    (messages.JobStatusRequest(job_id=0),
     "c0de0107000000080000000000000000",
     b'{"type":"JOB_STATUS","job_id":0}\n'),
    (messages.StatsRequest(),
     "c0de010800000000",
     b'{"type":"STATS"}\n'),
    (messages.Drain(),
     "c0de010900000000",
     b'{"type":"DRAIN"}\n'),
    (messages.StealRequest(max_tasks=4),
     "c0de010a0000001a82a96d61785f7461736b7304ac736974655f72656673756d"
     "7390",
     b'{"type":"STEAL_REQUEST","max_tasks":4,"site_refsums":[]}\n'),
    (messages.StealRequest(max_tasks=4, site_refsums=[
         {"site": 0, "files": [1, 2], "refs": [3, 1]}]),
     "c0de010a0000003282a96d61785f7461736b7304ac736974655f72656673756d"
     "739183a47369746500a566696c6573920102a472656673920301",
     b'{"type":"STEAL_REQUEST","max_tasks":4,"site_refsums":[{"site":0,'
     b'"files":[1,2],"refs":[3,1]}]}\n'),
    (messages.StealAck(export_id=2),
     "c0de010b0000000c81a96578706f72745f696402",
     b'{"type":"STEAL_ACK","export_id":2}\n'),
    (messages.StealDone(task_ids=[0, 2]),
     "c0de010c0000000d81a87461736b5f696473920002",
     b'{"type":"STEAL_DONE","task_ids":[0,2]}\n'),
    # server -> client
    (messages.Welcome(server="s", metric="rest", n=2),
     "c0de01110000005286a6736572766572a173a66d6574726963a472657374a16e"
     "02a870726f746f636f6c03a96c656173655f74746ccb0000000000000000b268"
     "65617274626561745f696e74657276616ccb0000000000000000",
     b'{"type":"WELCOME","server":"s","metric":"rest","n":2,"protocol":'
     b'3,"lease_ttl":0.0,"heartbeat_interval":0.0}\n'),
    (messages.Welcome(server="s", metric="rest", n=2, protocol=3,
                      lease_ttl=30.0, heartbeat_interval=10.0,
                      codec="binary-1"),
     "c0de01110000006187a6736572766572a173a66d6574726963a472657374a16e"
     "02a870726f746f636f6c03a96c656173655f74746ccb403e000000000000b268"
     "65617274626561745f696e74657276616ccb4024000000000000a5636f646563"
     "a862696e6172792d31",
     b'{"type":"WELCOME","server":"s","metric":"rest","n":2,"protocol":'
     b'3,"lease_ttl":30.0,"heartbeat_interval":10.0,"codec":"binary-1"}'
     b'\n'),
    (messages.TaskAssign(task_id=5, files=[1, 9], flops=2.5, lease_id=77,
                         lease_ttl=30.0, job_id=1),
     "c0de01120000003c0000000000000005000000000000004d0000000000000001"
     "4004000000000000403e00000000000000000002000000000000000100000000"
     "00000009",
     b'{"type":"TASK","task_id":5,"files":[1,9],"flops":2.5,"lease_id":'
     b'77,"lease_ttl":30.0,"job_id":1}\n'),
    (messages.TaskAssign(task_id=6, files=FILES17, flops=0.0, lease_id=78,
                         lease_ttl=0.5, job_id=2),
     "c0de0112000000b40000000000000006000000000000004e0000000000000002"
     "00000000000000003fe000000000000000000011000000000000006400000000"
     "0000006500000000000000660000000000000067000000000000006800000000"
     "00000069000000000000006a000000000000006b000000000000006c00000000"
     "0000006d000000000000006e000000000000006f000000000000007000000000"
     "00000071000000000000007200000000000000730000000000000074",
     b'{"type":"TASK","task_id":6,"files":[100,101,102,103,104,105,106,'
     b'107,108,109,110,111,112,113,114,115,116],"flops":0.0,"lease_id":'
     b'78,"lease_ttl":0.5,"job_id":2}\n'),
    (messages.TaskBatch(tasks=[
         {"task_id": 5, "files": [1, 9], "flops": 2.5, "lease_id": 77,
          "job_id": 1},
         {"task_id": 6, "files": [2], "flops": 0.0, "lease_id": 78,
          "job_id": 1}], lease_ttl=30.0),
     "c0de01130000006c403e00000000000000000002000000000000000500000000"
     "0000004d00000000000000014004000000000000000000020000000000000001"
     "00000000000000090000000000000006000000000000004e0000000000000001"
     "0000000000000000000000010000000000000002",
     b'{"type":"TASK_BATCH","tasks":[{"task_id":5,"files":[1,9],"flops"'
     b':2.5,"lease_id":77,"job_id":1},{"task_id":6,"files":[2],"flops":'
     b'0.0,"lease_id":78,"job_id":1}],"lease_ttl":30.0}\n'),
    (messages.TaskBatch(tasks=[
         {"task_id": 7, "files": FILES17, "flops": 1.0, "lease_id": 79,
          "job_id": 3}], lease_ttl=2.0),
     "c0de0113000000b8400000000000000000000001000000000000000700000000"
     "0000004f00000000000000033ff0000000000000000000110000000000000064"
     "0000000000000065000000000000006600000000000000670000000000000068"
     "0000000000000069000000000000006a000000000000006b000000000000006c"
     "000000000000006d000000000000006e000000000000006f0000000000000070"
     "0000000000000071000000000000007200000000000000730000000000000074",
     b'{"type":"TASK_BATCH","tasks":[{"task_id":7,"files":[100,101,102,'
     b'103,104,105,106,107,108,109,110,111,112,113,114,115,116],"flops"'
     b':1.0,"lease_id":79,"job_id":3}],"lease_ttl":2.0}\n'),
    (messages.NoTask(reason=protocol.REASON_JOB_DONE),
     "c0de01140000000100",
     b'{"type":"NO_TASK","reason":"job-done"}\n'),
    (messages.NoTask(reason=protocol.REASON_IDLE),
     "c0de01140000000101",
     b'{"type":"NO_TASK","reason":"idle"}\n'),
    (messages.NoTask(reason=protocol.REASON_DRAINING),
     "c0de01140000000102",
     b'{"type":"NO_TASK","reason":"draining"}\n'),
    (messages.Ack(),
     "c0de01150000000101",
     b'{"type":"ACK","accepted":true}\n'),
    (messages.Ack(accepted=False),
     "c0de01150000000100",
     b'{"type":"ACK","accepted":false}\n'),
    (messages.Ack(accepted=False, reason="stale-lease"),
     "c0de01150000000e02000b7374616c652d6c65617365",
     b'{"type":"ACK","accepted":false,"reason":"stale-lease"}\n'),
    (messages.Ack(accepted=True, draining=True),
     "c0de0115000000010d",
     b'{"type":"ACK","accepted":true,"draining":true}\n'),
    (messages.Ack(accepted=False, reason="overloaded", draining=False,
                  retry_after=0.25),
     "c0de01150000001516000a6f7665726c6f616465643fd0000000000000",
     b'{"type":"ACK","accepted":false,"reason":"overloaded","draining":'
     b'false,"retry_after":0.25}\n'),
    (messages.HeartbeatAck(),
     "c0de0116000000080000000000000000",
     b'{"type":"HEARTBEAT_ACK","renewed":[],"expired":[]}\n'),
    (messages.HeartbeatAck(renewed=[77], expired=[3]),
     "c0de01160000001800000001000000000000004d000000010000000000000003",
     b'{"type":"HEARTBEAT_ACK","renewed":[77],"expired":[3]}\n'),
    (messages.JobAccepted(job_id=0, task_ids=[0, 1, 2]),
     "c0de011700000024000000000000000000000003000000000000000000000000"
     "000000010000000000000002",
     b'{"type":"JOB_ACCEPTED","job_id":0,"task_ids":[0,1,2]}\n'),
    (messages.JobStatusReply(job_id=0, tasks=3, completed=1, pending=1,
                             outstanding=1, done=False),
     "c0de010700000029000000000000000000000000000000030000000000000001"
     "0000000000000001000000000000000100",
     b'{"type":"JOB_STATUS","job_id":0,"tasks":3,"completed":1,"pending'
     b'":1,"outstanding":1,"done":false}\n'),
    (messages.JobStatusReply(job_id=2, tasks=1, completed=1, pending=0,
                             outstanding=0, done=True),
     "c0de010700000029000000000000000200000000000000010000000000000001"
     "0000000000000000000000000000000001",
     b'{"type":"JOB_STATUS","job_id":2,"tasks":1,"completed":1,"pending'
     b'":0,"outstanding":0,"done":true}\n'),
    (messages.StatsReply(stats={"completions": 4}),
     "c0de01080000001581a5737461747381ab636f6d706c6574696f6e7304",
     b'{"type":"STATS","stats":{"completions":4}}\n'),
    (messages.StatsReply(stats={
         "sites": {"0": {"rate": 0.5, "hits": [1, 2]}}, "draining": False,
         "note": None, "offset": -5, "bytes": 2**40, "name": "shard-0"}),
     "c0de01080000005c81a5737461747386a5736974657381a13082a472617465cb"
     "3fe0000000000000a468697473920102a8647261696e696e67c2a46e6f7465c0"
     "a66f6666736574fba56279746573cf0000010000000000a46e616d65a7736861"
     "72642d30",
     b'{"type":"STATS","stats":{"sites":{"0":{"rate":0.5,"hits":[1,2]}}'
     b',"draining":false,"note":null,"offset":-5,"bytes":1099511627776,'
     b'"name":"shard-0"}}\n'),
    (messages.Redirect(shards=[
         {"shard": 0, "host": "127.0.0.1", "port": 7178}], shard_count=1),
     "c0de01180000004783a67368617264739183a5736861726400a4686f7374a931"
     "32372e302e302e31a4706f7274cd1c0aab73686172645f636f756e7401a97061"
     "72746974696f6ea76a6f622d6d6f64",
     b'{"type":"REDIRECT","shards":[{"shard":0,"host":"127.0.0.1","port'
     b'":7178}],"shard_count":1,"partition":"job-mod"}\n'),
    (messages.Redirect(shards=[
         {"shard": 0, "host": "127.0.0.1", "port": 7178},
         {"shard": 1, "host": "127.0.0.1", "port": 7179}],
         shard_count=2, partition="job-mod", codec="binary-1"),
     "c0de01180000007584a67368617264739283a5736861726400a4686f7374a931"
     "32372e302e302e31a4706f7274cd1c0a83a5736861726401a4686f7374a93132"
     "372e302e302e31a4706f7274cd1c0bab73686172645f636f756e7402a9706172"
     "746974696f6ea76a6f622d6d6f64a5636f646563a862696e6172792d31",
     b'{"type":"REDIRECT","shards":[{"shard":0,"host":"127.0.0.1","port'
     b'":7178},{"shard":1,"host":"127.0.0.1","port":7179}],"shard_count'
     b'":2,"partition":"job-mod","codec":"binary-1"}\n'),
    (messages.Error(error="nope"),
     "c0de01190000000c81a56572726f72a46e6f7065",
     b'{"type":"ERROR","error":"nope"}\n'),
    (messages.StealGrant(),
     "c0de011a0000000881a57461736b7390",
     b'{"type":"STEAL_GRANT","tasks":[]}\n'),
    (messages.StealGrant(tasks=[
         {"task_id": 0, "job_id": 0, "files": [1], "flops": 1.0}],
         export_id=1),
     "c0de011a0000003c82a57461736b739184a77461736b5f696400a66a6f625f69"
     "6400a566696c65739101a5666c6f7073cb3ff0000000000000a96578706f7274"
     "5f696401",
     b'{"type":"STEAL_GRANT","tasks":[{"task_id":0,"job_id":0,"files":['
     b'1],"flops":1.0}],"export_id":1}\n'),
]


def codecs_for(message):
    """A ``(binary-1, json-2)`` codec pair that decodes ``message``."""
    side = ("client" if isinstance(message, messages.ClientMessage)
            else "server")
    return (make_codec(protocol.CODEC_BINARY, decodes=side),
            make_codec(protocol.CODEC_JSON, decodes=side))


@pytest.mark.parametrize(
    "message, frame_hex, line", GOLDEN,
    ids=[f"{index}-{case[0].TYPE}" for index, case in enumerate(GOLDEN)])
def test_golden_bytes(message, frame_hex, line):
    binary, json_lines = codecs_for(message)
    assert binary.encode(message).hex() == frame_hex
    assert json_lines.encode(message) == line
    assert binary.feed(bytes.fromhex(frame_hex)) == [message]
    assert json_lines.feed(line) == [message]
    assert binary.buffered == 0 and json_lines.buffered == 0


def test_every_message_class_has_a_golden_frame():
    registered = (set(messages.ClientMessage.REGISTRY.values())
                  | set(messages.ServerMessage.REGISTRY.values()))
    assert {type(case[0]) for case in GOLDEN} == registered
