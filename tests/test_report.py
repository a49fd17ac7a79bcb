"""Tests for query-run reports and retrieval tracing."""

from repro.engine import PrologMachine
from repro.obs import Instrumentation, MetricsRegistry
from repro.report import (
    format_metrics,
    format_query_report,
    format_retrieval,
    headline_counters,
)
from repro.storage import KnowledgeBase, Residency


def traced_machine():
    kb = KnowledgeBase()
    kb.consult_text(
        " ".join(f"item(i{n}, cat{n % 5})." for n in range(100))
        + " lookup(X) :- item(X, cat3).",
        module="data",
    )
    kb.module("data").pin(Residency.DISK)
    kb.sync_to_disk()
    return PrologMachine(kb, trace_retrievals=8)


class TestTracing:
    def test_trace_collects_retrievals(self):
        machine = traced_machine()
        list(machine.solve_text("item(i5, C)"))
        assert machine.trace is not None
        assert len(machine.trace) == 1
        goal, stats = machine.trace[0]
        assert stats.clauses_total == 100

    def test_trace_ring_buffer(self):
        machine = traced_machine()
        for n in range(12):
            machine.succeeds(f"item(i{n}, _)")
        assert len(machine.trace) == 8  # maxlen honoured

    def test_trace_off_by_default(self):
        kb = KnowledgeBase()
        kb.consult_text("p(a).")
        machine = PrologMachine(kb)
        machine.succeeds("p(a)")
        assert machine.trace is None


class TestReportFormatting:
    def test_report_contents(self):
        machine = traced_machine()
        list(machine.solve_text("lookup(X)"))
        report = format_query_report(machine, title="demo")
        assert "demo" in report
        assert "retrievals" in report
        assert "clauses scanned" in report
        assert "search modes:" in report
        assert "last" in report and "retrievals:" in report

    def test_retrieval_line(self):
        machine = traced_machine()
        machine.succeeds("item(i1, _)")
        goal, stats = machine.trace[0]
        line = format_retrieval(goal, stats)
        assert "item(i1," in line
        assert "mode=" in line
        assert "scanned=100" in line

    def test_selectivity_percentage(self):
        machine = traced_machine()
        machine.succeeds("item(i1, _)")
        report = format_query_report(machine)
        assert "filter selectivity" in report

    def test_empty_machine_report(self):
        kb = KnowledgeBase()
        machine = PrologMachine(kb)
        report = format_query_report(machine)
        assert "retrievals        : 0" in report


class TestMetricsFormatting:
    def instrumented_machine(self):
        obs = Instrumentation()
        kb = KnowledgeBase(obs=obs)
        kb.consult_text("p(a). p(b).")
        return PrologMachine(kb, obs=obs), obs

    def test_headline_counters_present_when_zero(self):
        head = headline_counters(MetricsRegistry())
        assert head["retrievals"] == 0
        assert head["shard_lock_waits"] == 0
        assert head["shard_lock_wait_max_s"] == 0.0
        assert set(head) >= {"cache_hits", "fs2_search_calls", "shard_lock_wait_s"}

    def test_format_metrics_sections(self):
        machine, obs = self.instrumented_machine()
        machine.succeeds("p(a)")
        text = format_metrics(obs, title="demo metrics")
        assert text.startswith("demo metrics\n============")
        assert "retrievals=1" in text
        assert "stage sim time (s):" in text
        assert "  software " in text
        assert "registry:" in text
        assert "crs.retrievals{mode=software}" in text

    def test_format_metrics_accepts_bare_registry(self):
        registry = MetricsRegistry()
        for shard, wait in (("0", 0.25), ("0", 0.5), ("1", 0.125)):
            registry.histogram("cluster.shard_lock.wait_s", shard=shard).observe(
                wait
            )
        text = format_metrics(registry)
        assert "lock waits=3  wait total/max=0.875000/0.500000 s" in text

    def test_query_report_appends_metrics_when_enabled(self):
        machine, obs = self.instrumented_machine()
        machine.succeeds("p(a)")
        report = format_query_report(machine)
        assert "pipeline metrics" in report

    def test_query_report_silent_when_disabled(self):
        kb = KnowledgeBase()
        kb.consult_text("p(a).")
        machine = PrologMachine(kb)
        machine.succeeds("p(a)")
        assert "pipeline metrics" not in format_query_report(machine)
