"""Tests for the disk-to-FS2 streaming co-simulation."""

from repro.disk import FUJITSU_M2351A, MICROPOLIS_1325
from repro.fs2 import SecondStageFilter, simulate_streaming_search
from repro.pif import SymbolTable, clause_record
from repro.terms import clause_from_term, read_term


def prepared(clause_texts, query_text, indicator):
    symbols = SymbolTable()
    records = [
        bytes(clause_record(clause_from_term(read_term(text)), symbols))
        for text in clause_texts
    ]
    fs2 = SecondStageFilter(symbols)
    fs2.load_microprogram()
    fs2.set_query(read_term(query_text))
    return fs2, records


class TestStreamingTimeline:
    def test_per_clause_records(self):
        fs2, records = prepared(
            ["p(a, b)", "p(a, c)", "p(x, y)"], "p(a, X)", ("p", 2)
        )
        timeline = simulate_streaming_search(fs2, records, ("p", 2))
        assert len(timeline.clauses) == 3
        assert timeline.satisfiers == 2
        assert [c.hit for c in timeline.clauses] == [True, True, False]
        for clause in timeline.clauses:
            assert clause.transfer_ns > 0
            assert clause.match_ns > 0

    def test_match_times_follow_table1(self):
        fs2, records = prepared(["p(a)"], "p(a)", ("p", 1))
        timeline = simulate_streaming_search(fs2, records, ("p", 1))
        assert timeline.clauses[0].match_ns == 105  # one MATCH

    def test_double_buffering_never_slower(self):
        fs2, records = prepared(
            [f"p(c{i}, f(c{i}, {i}))" for i in range(20)],
            "p(X, f(X, N))",
            ("p", 2),
        )
        timeline = simulate_streaming_search(fs2, records, ("p", 2))
        assert timeline.double_buffered_ns <= timeline.single_buffered_ns
        assert timeline.overlap_speedup >= 1.0

    def test_disk_bound_regime(self):
        """At realistic rates, transfer dominates: the filter is free."""
        fs2, records = prepared(
            [f"p(a{i})" for i in range(10)], "p(X)", ("p", 1)
        )
        timeline = simulate_streaming_search(
            fs2, records, ("p", 1), drive=FUJITSU_M2351A
        )
        assert timeline.total_transfer_ns > timeline.total_match_ns
        assert timeline.match_bound_clauses == 0
        # Double-buffered total collapses to (almost) pure transfer time.
        assert timeline.double_buffered_ns < timeline.single_buffered_ns
        slack = timeline.double_buffered_ns - timeline.total_transfer_ns
        assert slack == timeline.clauses[-1].match_ns

    def test_empty_stream(self):
        fs2, _ = prepared(["p(a)"], "p(a)", ("p", 1))
        timeline = simulate_streaming_search(fs2, [], ("p", 1))
        assert timeline.double_buffered_ns == 0
        assert timeline.overlap_speedup == 1.0

    def test_slower_disk_widens_margin(self):
        fs2, records = prepared(
            [f"p(a{i})" for i in range(5)], "p(X)", ("p", 1)
        )
        fast = simulate_streaming_search(fs2, records, ("p", 1), FUJITSU_M2351A)
        fs2.set_query(read_term("p(X)"))
        slow = simulate_streaming_search(fs2, records, ("p", 1), MICROPOLIS_1325)
        assert slow.total_transfer_ns > fast.total_transfer_ns
        assert slow.total_match_ns == fast.total_match_ns
