"""OpenMetrics text exposition: rendering, escaping, and a live scrape.

Covers the satellite checklist for the exposition layer: label/value
escaping, histogram bucket monotonicity, empty-registry output, and a
golden-shape scrape of a real serve daemon's ``GET /metrics``.
"""

from __future__ import annotations

import math
import re

import pytest

from repro import obs
from repro.obs import openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeClient, daemon_in_thread

# One OpenMetrics line: comment, or ``name{labels} value [timestamp]``.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[^{}]*\})?"                       # optional label set
    r" -?(\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$")


def _sample_lines(text):
    return [line for line in text.splitlines()
            if line and not line.startswith("#")]


@pytest.fixture(autouse=True)
def _obs_isolation():
    yield
    obs.configure(enabled=False, reset=True)
    obs.get_bus().clear()


# ----------------------------------------------------------------------
# naming / escaping
# ----------------------------------------------------------------------
class TestNamesAndEscaping:
    def test_sanitize_name_maps_dots_and_prefix(self):
        assert openmetrics.sanitize_name("serve.queue_depth") \
            == "repro_serve_queue_depth"

    def test_sanitize_name_illegal_chars(self):
        name = openmetrics.sanitize_name("weird metric-name!")
        assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$", name)

    def test_label_value_escaping(self):
        assert openmetrics.escape_label_value('a"b') == 'a\\"b'
        assert openmetrics.escape_label_value("a\\b") == "a\\\\b"
        assert openmetrics.escape_label_value("a\nb") == "a\\nb"

    def test_labeled_roundtrip(self):
        name = openmetrics.labeled("serve.endpoint_seconds",
                                   endpoint='an"aly\\ze')
        base, labels = openmetrics.split_labels(name)
        assert base == "serve.endpoint_seconds"
        assert labels == {"endpoint": 'an"aly\\ze'}

    def test_escaped_labels_render_parseable(self):
        registry = MetricsRegistry()
        registry.counter(openmetrics.labeled(
            "requests", endpoint='a"b\\c\nd')).inc()
        text = openmetrics.render_registry(registry)
        sample = [l for l in _sample_lines(text)
                  if l.startswith("repro_requests_total")]
        assert len(sample) == 1
        assert '\\"' in sample[0]
        assert "\\n" in sample[0]
        assert "\n" not in sample[0]


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestRenderRegistry:
    def test_empty_registry_is_just_eof(self):
        assert openmetrics.render_registry(MetricsRegistry()) == "# EOF\n"

    def test_ends_with_eof(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert openmetrics.render_registry(registry).endswith("# EOF\n")

    def test_counter_gets_total_suffix_and_type(self):
        registry = MetricsRegistry()
        registry.counter("batch.retries").inc(3)
        text = openmetrics.render_registry(registry)
        assert "# TYPE repro_batch_retries counter" in text
        assert "repro_batch_retries_total 3" in text

    def test_gauge_rendered_plain(self):
        registry = MetricsRegistry()
        registry.gauge("serve.queue_depth").set(7)
        text = openmetrics.render_registry(registry)
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 7" in text

    def test_histogram_buckets_cumulative_and_monotone(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in (0.002, 0.002, 0.02, 0.2, 2.0, 20.0, 200.0):
            hist.observe(value)
        text = openmetrics.render_registry(registry)
        bucket_re = re.compile(
            r'^repro_latency_bucket\{le="([^"]+)"\} (\d+)$', re.M)
        buckets = [(le, int(count))
                   for le, count in bucket_re.findall(text)]
        assert buckets, text
        assert buckets[-1][0] == "+Inf"
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert counts[-1] == 7
        # +Inf bucket == _count, and _sum matches the observations
        assert "repro_latency_count 7" in text
        sum_match = re.search(r"^repro_latency_sum (\S+)$", text, re.M)
        assert sum_match
        assert math.isclose(float(sum_match.group(1)), 222.224,
                            rel_tol=1e-9)
        # bucket boundaries themselves are increasing
        finite = [float(le) for le, _ in buckets[:-1]]
        assert finite == sorted(finite)

    def test_every_sample_line_well_formed(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.gauge("c.d").set(1.5)
        registry.histogram("e.f").observe(0.1)
        registry.counter(openmetrics.labeled("g", x="y")).inc()
        for line in _sample_lines(openmetrics.render_registry(registry)):
            assert SAMPLE_RE.match(line), line


# ----------------------------------------------------------------------
# live scrape
# ----------------------------------------------------------------------
class TestLiveScrape:
    def test_warm_daemon_exposes_twelve_families(self, tmp_path):
        handle = daemon_in_thread(cache_dir=str(tmp_path / "cache"))
        try:
            client = ServeClient(port=handle.port)
            client.wait_healthy()
            client.analyze(example="pipeline")  # warm the engine
            text = client.metrics_text()
        finally:
            handle.stop()
        assert text.endswith("# EOF\n")
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(families) >= 12, families
        assert len(set(families)) == len(families), "duplicate family"
        for line in _sample_lines(text):
            assert SAMPLE_RE.match(line), line
        # the scrape-time serve gauges and engine metrics are present
        for expected in ("repro_serve_queue_depth",
                         "repro_serve_uptime_seconds",
                         "repro_bus_swallowed_sink_errors",
                         "repro_bus_sinks"):
            assert expected in families, expected
