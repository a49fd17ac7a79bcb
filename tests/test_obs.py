"""Tests for the observability layer: metrics, tracing, pipeline wiring."""

import json

import pytest

from repro.crs import ClauseRetrievalServer, SearchMode
from repro.engine import PrologMachine
from repro.obs import (
    Counter,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    TraceRecorder,
    get_default,
    set_default,
)
from repro.storage import KnowledgeBase, Residency
from repro.terms import read_term


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        assert registry.value("hits") == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("retrievals", mode="fs1").inc()
        registry.counter("retrievals", mode="fs2").inc(4)
        assert registry.value("retrievals", mode="fs1") == 1
        assert registry.value("retrievals", mode="fs2") == 4
        assert registry.total("retrievals") == 5

    def test_gauge_up_and_down(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("active")
        gauge.inc(3)
        gauge.dec()
        assert registry.value("active") == 2
        gauge.set(7)
        assert registry.value("active") == 7

    def test_histogram_buckets(self):
        histogram = Histogram("h", buckets=(1, 10, 100))
        for sample in (0, 1, 5, 50, 5000):
            histogram.observe(sample)
        assert histogram.counts == [2, 1, 1, 1]  # <=1, <=10, <=100, +Inf
        assert histogram.count == 5
        assert histogram.min == 0 and histogram.max == 5000
        assert histogram.mean == pytest.approx(5056 / 5)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_and_json(self):
        registry = MetricsRegistry()
        registry.counter("a", mode="s").inc(2)
        registry.histogram("h", buckets=(1, 2)).observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["a{mode=s}"] == {"type": "counter", "value": 2}
        assert snapshot["h"]["count"] == 1
        parsed = json.loads(registry.to_json())
        assert parsed["a{mode=s}"]["value"] == 2

    def test_render_lists_everything(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        lines = registry.render().splitlines()
        assert lines[0].startswith("alpha")
        assert lines[1].startswith("zeta")

    def test_render_keeps_sub_millisecond_histograms_readable(self):
        import re

        registry = MetricsRegistry()
        waits = registry.histogram("lock.wait_s", buckets=(1e-5, 1e-4))
        for value in (5.33600041308091e-06, 3.559500009941985e-05):
            waits.observe(value)
        (line,) = registry.render().splitlines()
        fields = dict(re.findall(r"(\w+)=(\S+)", line))
        assert fields == {
            "count": "2", "mean": "2.04655e-05",
            "min": "5.336e-06", "max": "3.5595e-05",
        }
        for value in fields.values():
            assert value != "0.000"
            assert len(re.sub(r"\D", "", value.split("e")[0])) < 17


class TestTracing:
    def test_span_nesting_parent_ids(self):
        obs = Instrumentation()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        spans = {s.name: s for s in obs.recorder}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert outer.duration_s >= 0

    def test_ring_buffer_capacity(self):
        obs = Instrumentation(recorder=TraceRecorder(capacity=4))
        for n in range(10):
            with obs.span(f"s{n}"):
                pass
        assert len(obs.recorder) == 4
        assert obs.recorder.spans()[0].name == "s6"

    def test_ndjson_roundtrip(self, tmp_path):
        obs = Instrumentation()
        with obs.span("stage", bytes=12):
            pass
        path = tmp_path / "trace.ndjson"
        assert obs.recorder.write_ndjson(str(path)) == 1
        line = json.loads(path.read_text().strip())
        assert line["name"] == "stage"
        assert line["attrs"]["bytes"] == 12
        assert line["duration_s"] >= 0

    def test_disabled_is_a_noop(self):
        obs = Instrumentation(enabled=False)
        with obs.span("x") as span:
            span.set(ignored=True)
        obs.counter("c").inc()
        obs.histogram("h").observe(1)
        assert len(obs.recorder) == 0
        assert len(obs.registry) == 0

    def test_default_swap_and_restore(self):
        mine = Instrumentation()
        previous = set_default(mine)
        try:
            assert get_default() is mine
        finally:
            set_default(previous)
        assert get_default() is previous


def disk_machine(obs, clauses=100, cache_size=0):
    kb = KnowledgeBase(obs=obs)
    kb.consult_text(
        " ".join(f"item(i{n}, cat{n % 5})." for n in range(clauses)),
        module="data",
    )
    kb.module("data").pin(Residency.DISK)
    kb.sync_to_disk()
    crs = ClauseRetrievalServer(kb, cache_size=cache_size, obs=obs)
    return PrologMachine(kb, crs=crs, obs=obs, trace_retrievals=64)


class TestPipelineInstrumentation:
    def test_spans_cover_every_stage(self):
        """One traced run emits disk, FS1, FS2 and software spans."""
        obs = Instrumentation()
        machine = disk_machine(obs)
        for mode in SearchMode:
            machine.mode = mode
            machine.succeeds("item(i5, _)")
        names = obs.recorder.span_names()
        assert {
            "engine.retrieve",
            "crs.retrieve",
            "disk.read",
            "fs1.scan",
            "fs2.search",
            "software.scan",
        } <= names

    def test_ndjson_stage_coverage(self, tmp_path):
        obs = Instrumentation()
        machine = disk_machine(obs)
        for mode in SearchMode:
            machine.mode = mode
            machine.succeeds("item(i7, _)")
        path = tmp_path / "trace.ndjson"
        obs.recorder.write_ndjson(str(path))
        names = {json.loads(line)["name"] for line in path.read_text().splitlines()}
        for stage in ("disk.read", "fs1.scan", "fs2.search", "software.scan"):
            assert stage in names

    def test_registry_agrees_with_retrieval_stats(self):
        """Registry totals equal the per-call RetrievalStats sums."""
        obs = Instrumentation()
        machine = disk_machine(obs)
        for mode in SearchMode:
            machine.mode = mode
            machine.succeeds("item(i3, _)")
            machine.succeeds("item(_, cat2)")
        per_call = [stats for _, stats in machine.trace if stats is not None]
        registry = obs.registry
        assert registry.total("crs.retrievals") == len(per_call)
        assert registry.total("crs.clauses_scanned") == sum(
            s.clauses_total for s in per_call
        )
        assert registry.total("crs.candidates_returned") == sum(
            s.final_candidates for s in per_call
        )
        assert registry.total("crs.fs2_search_calls") == sum(
            s.fs2_search_calls for s in per_call
        )
        assert registry.value("fs2.search_calls") == sum(
            s.fs2_search_calls for s in per_call
        )
        assert registry.total("crs.sim_filter_time_s") == pytest.approx(
            sum(s.filter_time_s for s in per_call)
        )

    def test_cache_counters(self):
        obs = Instrumentation()
        machine = disk_machine(obs, cache_size=8)
        machine.succeeds("item(i3, _)")
        machine.succeeds("item(i3, _)")
        assert obs.registry.value("crs.cache.misses") == 1
        assert obs.registry.value("crs.cache.hits") == 1
        # A hit still counts as a retrieval, matching QueryStats...
        assert obs.registry.total("crs.retrievals") == 2
        # ...with logical counts preserved and no physical time added.
        assert obs.registry.total("crs.sim_filter_time_s") == machine.stats.filter_time_s

    def test_false_drop_accounting(self):
        obs = Instrumentation()
        machine = disk_machine(obs)
        machine.mode = SearchMode.BOTH
        list(machine.solve_text("item(i9, C)"))
        registry = obs.registry
        # fs2 examined = fs1 candidates; satisfiers <= examined.
        assert registry.value("fs2.clauses_examined") == registry.value(
            "fs1.candidates"
        )
        assert registry.value("fs2.false_drops") == registry.value(
            "fs2.clauses_examined"
        ) - registry.value("fs2.satisfiers")

    def test_solutions_records_ground_truth_false_drops(self):
        obs = Instrumentation()
        kb = KnowledgeBase(obs=obs)
        kb.consult_text("p(f(a)). p(f(b)). p(g(a)).")
        crs = ClauseRetrievalServer(kb, obs=obs)
        matches = crs.solutions(read_term("p(f(a))"), mode=SearchMode.SOFTWARE)
        assert len(matches) == 1
        registry = obs.registry
        assert registry.value("crs.true_matches") == 1
        assert (
            registry.value("crs.false_drops")
            == registry.total("crs.candidates_returned") - 1
        )
