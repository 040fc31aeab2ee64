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

from .. import _lazy_exports

_LAZY = {
    "EVENT_SCHEMAS": ("repro.obs.events", "EVENT_SCHEMAS"),
    "EventLog": ("repro.obs.events", "EventLog"),
    "EventSchemaError": ("repro.obs.events", "EventSchemaError"),
    "RotatingJsonlSink": ("repro.obs.events", "RotatingJsonlSink"),
    "iter_events": ("repro.obs.events", "iter_events"),
    "validate_event": ("repro.obs.events", "validate_event"),
    "ObsHttpServer": ("repro.obs.http", "ObsHttpServer"),
    "Counter": ("repro.obs.metrics", "Counter"),
    "Gauge": ("repro.obs.metrics", "Gauge"),
    "LatencyHistogram": ("repro.obs.metrics", "LatencyHistogram"),
    "MetricFamily": ("repro.obs.metrics", "MetricFamily"),
    "MetricsRegistry": ("repro.obs.metrics", "MetricsRegistry"),
    "CONTENT_TYPE": ("repro.obs.prometheus", "CONTENT_TYPE"),
    "ParseError": ("repro.obs.prometheus", "ParseError"),
    "parse": ("repro.obs.prometheus", "parse"),
    "render": ("repro.obs.prometheus", "render"),
    "fetch_json": ("repro.obs.top", "fetch_json"),
    "render_top": ("repro.obs.top", "render_top"),
    "run_top": ("repro.obs.top", "run_top"),
    "DecisionTracer": ("repro.obs.trace", "DecisionTracer"),
    "explain_span": ("repro.obs.trace", "explain_span"),
}

__all__ = sorted(_LAZY)

__getattr__, __dir__ = _lazy_exports(globals())
