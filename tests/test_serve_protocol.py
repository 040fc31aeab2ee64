"""Wire format and observability primitives of the live service."""

import json
import types

import pytest

from repro.obs.metrics import LatencyHistogram
from repro.obs.top import render_top
from repro.serve import protocol
from repro.serve.stats import ServeStats


# -- framing -----------------------------------------------------------------

def test_encode_decode_roundtrip():
    message = {"type": protocol.TASK, "task_id": 3,
               "files": [1, 2, 9], "flops": 1.5e9}
    line = protocol.encode_line(message)
    assert line.endswith(b"\n")
    assert protocol.decode_line(line) == message


def test_encode_requires_type():
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_line({"task_id": 1})


def test_encode_rejects_oversized_message():
    huge = {"type": protocol.JOB_SUBMIT,
            "tasks": list(range(protocol.MAX_MESSAGE_BYTES))}
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_line(huge)


@pytest.mark.parametrize("line", [
    b"not json\n",
    b"[1, 2, 3]\n",            # not an object
    b'{"task_id": 5}\n',       # no type
    b'{"type": 7}\n',          # non-string type
])
def test_decode_rejects_malformed(line):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(line)


def test_decode_rejects_oversized_line():
    line = json.dumps({"type": "X", "pad": "a" * protocol.MAX_MESSAGE_BYTES}
                      ).encode()
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(line)


# -- codec negotiation -------------------------------------------------------

def test_negotiate_codec_picks_first_mutual_offer():
    assert protocol.negotiate_codec(
        [protocol.CODEC_BINARY, protocol.CODEC_JSON]
    ) == protocol.CODEC_BINARY
    assert protocol.negotiate_codec(
        [protocol.CODEC_JSON, protocol.CODEC_BINARY]
    ) == protocol.CODEC_JSON
    # Unknown offers are skipped, not fatal: forward compatibility.
    assert protocol.negotiate_codec(
        ["zstd-9", protocol.CODEC_BINARY]
    ) == protocol.CODEC_BINARY


def test_negotiate_codec_falls_back_to_json():
    # No offers / nothing mutual -> the v2-compatible JSON framing.
    assert protocol.negotiate_codec([]) == protocol.CODEC_JSON
    assert protocol.negotiate_codec(["zstd-9"]) == protocol.CODEC_JSON
    assert protocol.negotiate_codec(
        [protocol.CODEC_BINARY], supported=(protocol.CODEC_JSON,)
    ) == protocol.CODEC_JSON


def test_codec_offers_maps_cli_options():
    assert protocol.codec_offers("auto") == list(protocol.DEFAULT_CODECS)
    assert protocol.codec_offers("json") == [protocol.CODEC_JSON]
    assert protocol.codec_offers("binary") == [protocol.CODEC_BINARY]
    with pytest.raises(ValueError):
        protocol.codec_offers("carrier-pigeon")


def test_is_int_rejects_booleans():
    """``isinstance(True, int)`` is true in Python, so a JSON ``true``
    would pass for a file id (the ``ids`` field type's cases are in
    ``tests/test_serve_messages.py``)."""
    assert protocol.is_int(3) and not protocol.is_int(True)


# -- latency histogram -------------------------------------------------------

def test_histogram_empty():
    hist = LatencyHistogram()
    assert hist.count == 0
    assert hist.quantile(0.5) == 0.0
    assert hist.snapshot()["p99_us"] == 0.0


def test_histogram_quantiles_bounded():
    hist = LatencyHistogram()
    samples = [10e-6] * 90 + [5e-3] * 10
    for sample in samples:
        hist.record(sample)
    assert hist.count == 100
    assert hist.max == pytest.approx(5e-3)
    # p50 lands in the 10us bucket (upper edge <= 16us), p99 near max.
    assert 10e-6 <= hist.quantile(0.50) <= 16e-6
    assert 2.5e-3 <= hist.quantile(0.99) <= 5e-3
    # Quantiles never exceed the observed max.
    assert hist.quantile(1.0) <= hist.max


def test_histogram_mean_and_underflow():
    hist = LatencyHistogram()
    hist.record(0.0)        # underflow bucket
    hist.record(2e-6)
    assert hist.count == 2
    assert hist.mean == pytest.approx(1e-6)


# -- stats snapshot ----------------------------------------------------------

def test_stats_snapshot_and_rendering():
    clock_value = [0.0]
    stats = ServeStats(clock=lambda: clock_value[0])
    clock_value[0] = 2.0
    stats.metrics["jobs_submitted"].inc()
    stats.metrics["tasks_submitted"].inc(10)
    stats.record_queue_depth(10)
    stats.record_assignment(0, 100e-6, overlap_hit=True)
    stats.record_assignment(0, 200e-6, overlap_hit=False)
    stats.record_assignment(1, 50e-6, overlap_hit=True)
    stats.metrics["completions"].inc(3)
    stats.record_delta(added=4, removed=1, referenced=9)
    stats.bind_live(types.SimpleNamespace(
        queue_depth=7, outstanding=2, parked_workers=1, draining=False,
        active_leases=2, jobs_active=1))
    snap = stats.snapshot()
    assert snap["assignments"] == 3
    assert snap["assignments_per_sec"] == pytest.approx(1.5)
    assert snap["peak_queue_depth"] == 10
    assert snap["sites"]["0"]["overlap_hit_rate"] == pytest.approx(0.5)
    assert snap["sites"]["1"]["overlap_hit_rate"] == pytest.approx(1.0)
    assert snap["file_deltas"] == {"added": 4, "removed": 1,
                                   "referenced": 9}
    assert snap["draining"] is False
    assert snap["queue_depth"] == 7 and snap["leases"]["active"] == 2
    rendered = render_top(snap)
    assert "3 total (1.5/s)" in rendered
    assert "p99" in rendered
    assert "   0  [" in rendered and " 50.0% (1/2)" in rendered
    # The snapshot must be JSON-serializable (it rides the wire).
    json.dumps(snap)
