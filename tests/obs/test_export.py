"""Export formats: golden-pinned JSON snapshot shape and Prometheus text."""

import json

from repro.obs import export
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _populated():
    registry = MetricsRegistry()
    registry.enable()
    registry.counter("sim.batch.chunks", help="Chunks simulated.").add(3)
    registry.gauge("engine.workers").set(2)
    hist = registry.histogram("store.put_bytes", buckets=[100, 1000])
    hist.observe(50)
    hist.observe(500)
    hist.observe(5000)
    tracer = Tracer()
    tracer._totals["hit_kernel"] = [4, 2.5, 2.5]
    tracer._totals["translate"] = [4, 0.5, 0.5]
    return registry, tracer


class TestJsonSnapshot:
    def test_golden_document_shape(self):
        registry, tracer = _populated()
        document = export.snapshot(registry, tracer, meta={"command": "sweep"})
        # Golden pin: this exact shape is the repro-obs/1 contract that
        # EXPERIMENTS.md's dump-diffing workflow depends on.
        assert document == {
            "schema": "repro-obs/1",
            "meta": {"command": "sweep"},
            "metrics": {
                "counters": {"sim.batch.chunks": 3},
                "gauges": {"engine.workers": 2},
                "histograms": {
                    "store.put_bytes": {
                        "count": 3,
                        "sum": 5550.0,
                        "buckets": {"100": 1, "1000": 1, "+Inf": 1},
                    }
                },
            },
            "phases": {
                "hit_kernel": {
                    "count": 4,
                    "total_seconds": 2.5,
                    "self_seconds": 2.5,
                },
                "translate": {
                    "count": 4,
                    "total_seconds": 0.5,
                    "self_seconds": 0.5,
                },
            },
        }

    def test_meta_omitted_when_empty(self):
        registry, tracer = _populated()
        assert "meta" not in export.snapshot(registry, tracer)

    def test_write_snapshot_round_trips(self, tmp_path):
        registry, tracer = _populated()
        path = export.write_snapshot(tmp_path / "nested" / "dump.json", registry, tracer)
        loaded = json.loads(path.read_text())
        assert loaded == export.snapshot(registry, tracer)
        assert loaded["schema"] == export.SCHEMA


class TestPrometheusText:
    def test_golden_counter_and_gauge_lines(self):
        registry, tracer = _populated()
        text = export.to_prometheus_text(registry, tracer)
        assert "# HELP repro_sim_batch_chunks Chunks simulated.\n" in text
        assert "# TYPE repro_sim_batch_chunks counter\n" in text
        assert "repro_sim_batch_chunks 3\n" in text
        assert "# TYPE repro_engine_workers gauge\n" in text
        assert "repro_engine_workers 2\n" in text

    def test_histogram_buckets_are_cumulative(self):
        registry, tracer = _populated()
        text = export.to_prometheus_text(registry, tracer)
        assert 'repro_store_put_bytes_bucket{le="100"} 1\n' in text
        assert 'repro_store_put_bytes_bucket{le="1000"} 2\n' in text
        assert 'repro_store_put_bytes_bucket{le="+Inf"} 3\n' in text
        assert "repro_store_put_bytes_sum 5550\n" in text
        assert "repro_store_put_bytes_count 3\n" in text

    def test_phase_series(self):
        registry, tracer = _populated()
        text = export.to_prometheus_text(registry, tracer)
        assert 'repro_phase_seconds{phase="hit_kernel"} 2.5\n' in text
        assert 'repro_phase_count{phase="translate"} 4\n' in text

    def test_empty_registry_renders_empty(self):
        assert export.to_prometheus_text(MetricsRegistry(), Tracer()) == ""

    def test_dotted_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("a.b-c.d")
        text = export.to_prometheus_text(registry, Tracer())
        assert "repro_a_b_c_d 0" in text
