"""repro.obs — unified observability: metrics, events, traces, HTTP.

One registry feeds every exporter:

* :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``LatencyHistogram``
  behind a :class:`MetricsRegistry` with label support,
* :mod:`repro.obs.prometheus` — text exposition writer + strict parser,
* :mod:`repro.obs.http` — asyncio ``/metrics`` + ``/healthz`` +
  ``/stats.json`` scrape endpoint,
* :mod:`repro.obs.events` — schema'd JSON-lines event log (ring buffer
  + rotating file sink),
* :mod:`repro.obs.trace` — per-decision spans from
  ``PolicyEngine.choose`` ("why was this task picked"),
* :mod:`repro.obs.top` — the ``repro top`` live terminal view.

The live daemon (:mod:`repro.serve`) and the cluster tier
(:mod:`repro.cluster`) publish through this layer.
"""

from .events import (EVENT_SCHEMAS, EventLog, EventSchemaError,
                     RotatingJsonlSink, iter_events, validate_event)
from .http import ObsHttpServer
from .metrics import (Counter, Gauge, LatencyHistogram, MetricFamily,
                      MetricsRegistry)
from .prometheus import CONTENT_TYPE, ParseError, parse, render
from .top import fetch_json, render_top, run_top
from .trace import DecisionTracer, explain_span

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DecisionTracer",
    "EVENT_SCHEMAS",
    "EventLog",
    "EventSchemaError",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "ObsHttpServer",
    "ParseError",
    "RotatingJsonlSink",
    "explain_span",
    "fetch_json",
    "iter_events",
    "parse",
    "render",
    "render_top",
    "run_top",
    "validate_event",
]
