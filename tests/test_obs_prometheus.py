"""Prometheus exposition: writer output, strict parser, invariants.

The same parser validates CI's live scrape, so these tests pin both
directions: what we write is what a Prometheus server accepts, and
malformed text is rejected loudly.
"""

import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import (CONTENT_TYPE, ParseError, parse,
                                  render)
from repro.serve.stats import ServeStats


def test_content_type_pins_exposition_version():
    assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_render_counter_gauge_help_and_type_lines():
    registry = MetricsRegistry()
    registry.counter("repro_widgets_total", "Widgets made").inc(3)
    registry.gauge("repro_depth", "Current depth").set(2.5)
    text = render(registry)
    assert "# HELP repro_widgets_total Widgets made\n" in text
    assert "# TYPE repro_widgets_total counter\n" in text
    assert "repro_widgets_total 3\n" in text
    assert "# TYPE repro_depth gauge\n" in text
    assert "repro_depth 2.5\n" in text
    assert text.endswith("\n")


def test_label_values_escape_and_round_trip():
    registry = MetricsRegistry()
    family = registry.counter("repro_odd_total", 'has "quotes"\nand \\',
                              labelnames=("name",))
    nasty = 'va"l\nue\\end'
    family.labels(name=nasty).inc()
    text = render(registry)
    assert r'name="va\"l\nue\\end"' in text
    parsed = parse(text)
    family_back = parsed["repro_odd_total"]
    assert family_back.help == 'has "quotes"\nand \\'
    assert family_back.value({"name": nasty}) == 1.0


def test_labels_render_in_declared_order():
    registry = MetricsRegistry()
    family = registry.counter("repro_ordered_total",
                              labelnames=("zeta", "alpha"))
    family.labels(zeta="1", alpha="2").inc()
    text = render(registry)
    # Declared order (zeta before alpha), not alphabetical.
    assert 'repro_ordered_total{zeta="1",alpha="2"} 1' in text


def test_histogram_exposition_invariants():
    registry = MetricsRegistry()
    hist = registry.histogram("repro_latency_seconds", "latency",
                              base_seconds=1e-6, num_buckets=6)
    for seconds in (0.5e-6, 3e-6, 3e-6, 1.0):  # incl. overflow sample
        hist.record(seconds)
    text = render(registry)
    family = parse(text)["repro_latency_seconds"]
    assert family.kind == "histogram"
    assert family.value(suffix="_count") == 4.0
    assert family.value(suffix="_sum") == pytest.approx(0.5e-6 + 6e-6
                                                        + 1.0)
    assert family.value({"le": "+Inf"}, suffix="_bucket") == 4.0
    # Cumulative along finite edges; the 1.0 s overflow only in +Inf.
    assert family.value({"le": "1e-06"}, suffix="_bucket") == 1.0
    assert family.value({"le": "4e-06"}, suffix="_bucket") == 3.0
    edges = [labels["le"] for name, labels, _value in family.samples
             if name.endswith("_bucket")]
    assert edges[-1] == "+Inf"
    finite = [float(edge) for edge in edges[:-1]]
    assert finite == sorted(finite)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ParseError):
        parse("no spaces or values\n")
    with pytest.raises(ParseError):
        parse('x{le="0.1" 3\n')  # unterminated label block
    with pytest.raises(ParseError):
        parse("x 12abc\n")
    with pytest.raises(ParseError):
        parse('x{bad-name="1"} 2\n')
    with pytest.raises(ParseError):
        parse('x{a="1",a="2"} 2\n')  # duplicate label
    with pytest.raises(ParseError):
        parse('x{a="\\q"} 2\n')  # bad escape


def test_parse_rejects_duplicate_type_and_late_type():
    with pytest.raises(ParseError):
        parse("# TYPE x counter\n# TYPE x counter\nx 1\n")
    with pytest.raises(ParseError):
        parse("x 1\n# TYPE x counter\n")


def test_parse_rejects_non_cumulative_histogram():
    bad = ("# TYPE h histogram\n"
           'h_bucket{le="1"} 5\n'
           'h_bucket{le="2"} 3\n'
           'h_bucket{le="+Inf"} 5\n'
           "h_sum 1\nh_count 5\n")
    with pytest.raises(ParseError):
        parse(bad)


def test_parse_rejects_histogram_without_inf_or_mismatched_count():
    with pytest.raises(ParseError):
        parse("# TYPE h histogram\n"
              'h_bucket{le="1"} 1\n'
              "h_sum 1\nh_count 1\n")
    with pytest.raises(ParseError):
        parse("# TYPE h histogram\n"
              'h_bucket{le="1"} 1\n'
              'h_bucket{le="+Inf"} 1\n'
              "h_sum 1\nh_count 2\n")


def test_parse_handles_special_values_and_comments():
    families = parse("# a free-form comment\n"
                     "x_nan NaN\n"
                     "x_inf +Inf\n"
                     "x_ninf -Inf\n")
    assert math.isnan(families["x_nan"].value())
    assert families["x_inf"].value() == float("inf")
    assert families["x_ninf"].value() == float("-inf")


def test_serve_stats_registry_renders_parseable_exposition():
    """The real registry the daemon exposes passes the strict parser,
    and the Prometheus numbers agree with the STATS snapshot — the
    labeled ones included."""
    stats = ServeStats()
    stats.metrics["jobs_submitted"].inc()
    stats.metrics["tasks_submitted"].inc(5)
    stats.record_assignment(0, 120e-6, overlap_hit=True,
                            kernel="ordered")
    stats.record_assignment(1, 80e-6, overlap_hit=False,
                            kernel="scored")
    stats.record_delta(added=3, removed=1, referenced=7,
                       latency_s=250e-6)
    families = parse(render(stats.registry))
    snap = stats.snapshot()
    # One FILE_DELTA, one sample — and the STATS snapshot carries the
    # same histogram's summary: its count, and count x mean = sum.
    assert families["repro_file_delta_seconds"].value(
        suffix="_count") == 1.0
    assert families["repro_file_delta_seconds"].value(
        suffix="_sum") == pytest.approx(250e-6)
    delta = snap["file_delta_latency"]
    assert delta["count"] == families["repro_file_delta_seconds"].value(
        suffix="_count")
    assert delta["count"] * delta["mean_us"] * 1e-6 == pytest.approx(
        families["repro_file_delta_seconds"].value(suffix="_sum"))
    assert families["repro_assignments_total"].value() == \
        snap["assignments"]
    assert families["repro_tasks_submitted_total"].value() == 5.0
    assert families["repro_site_assignments_total"].value(
        {"site": "0"}) == 1.0
    assert families["repro_site_overlap_hit_rate"].value(
        {"site": "1"}) == 0.0
    assert families["repro_decision_latency_seconds"].value(
        suffix="_count") == 2.0
    assert families["repro_files_added_total"].value() == 3.0
    assert families["repro_scheduler_decisions_by_kernel_total"].value(
        {"kernel": "ordered"}) == 1.0
    assert stats.decisions_by_kernel == {"ordered": 1, "scored": 1}
    # ``tenants``, ``batches.sizes`` and ``steal.requests`` are read off
    # the labeled counters /metrics renders — one count per fact — with
    # job ids and batch sizes in numeric order (10 after 2).
    for job_id in (10, 2, 2, 0):
        stats.record_tenant_assignment(job_id)
    for size in (10, 2, 1, 2):
        stats.record_batch(size)
    for outcome in ("granted", "empty", "granted"):
        stats.record_steal_request(outcome)
    families = parse(render(stats.registry))
    snap = stats.snapshot()

    def scraped(name, label):
        return {labels[label]: int(value) for _sample, labels, value
                in families[name].samples}

    assert list(snap["tenants"].items()) == [("0", 1), ("2", 2),
                                             ("10", 1)]
    assert snap["tenants"] == scraped("repro_tenant_assignments_total",
                                      "job")
    assert list(snap["batches"]["sizes"]) == ["1", "2", "10"]
    assert snap["batches"]["sizes"] == scraped(
        "repro_assignment_batch_size_total", "size")
    assert snap["batches"]["tasks"] == 15
    assert list(snap["steal"]["requests"].items()) == [("empty", 1),
                                                       ("granted", 2)]
    assert snap["steal"]["requests"] == scraped(
        "repro_steal_requests_total", "outcome")
