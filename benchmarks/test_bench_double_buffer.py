"""[A1] Ablation: the Double Buffer's transfer/match overlap.

The Double Buffer lets clause n+1 stream from disk while clause n is being
matched, so per-clause time is max(transfer, match) instead of their sum
(section 3.2).  This bench quantifies the win across operation mixes and
streams an open query through the simulator in Result-Memory chunks.
"""

from repro.disk import FUJITSU_M2351A, MICROPOLIS_1325
from repro.fs2 import SecondStageFilter, simulate_streaming_search
from repro.fs2.timing import execution_time_ns
from repro.pif import SymbolTable, clause_record
from repro.terms import read_term
from repro.unify import HardwareOp
from repro.workloads import FactKBSpec, generate_facts
from tables import record_table


def test_bench_overlap_model():
    record_bytes = 40  # a typical small compiled fact
    transfer_ns = record_bytes / FUJITSU_M2351A.transfer_rate_bytes_per_sec * 1e9

    def model():
        rows = []
        for ops_per_clause, label in ((3, "3 MATCH ops"), (8, "8 mixed ops"), (20, "20 mixed ops")):
            match_ns = ops_per_clause * (
                0.7 * execution_time_ns(HardwareOp.MATCH)
                + 0.3 * execution_time_ns(HardwareOp.QUERY_FETCH)
            )
            single = transfer_ns + match_ns  # no overlap: sequential
            double = max(transfer_ns, match_ns)  # overlap
            rows.append(
                (
                    label,
                    round(transfer_ns),
                    round(match_ns),
                    round(single),
                    round(double),
                    round(single / double, 2),
                )
            )
        return rows

    rows = model()
    for _, transfer, match, single, double, speedup in rows:
        assert double == max(transfer, match)
        assert 1.0 <= speedup <= 2.0
    record_table(
        "A1",
        "Double-buffer ablation: per-clause ns with/without overlap",
        ("match work", "transfer ns", "match ns", "single buf", "double buf", "speedup"),
        rows,
        notes="overlap approaches 2x when transfer and match are balanced",
    )


def test_bench_streaming_cosimulation():
    """Real per-clause op times folded against real transfer times."""
    symbols = SymbolTable()
    clauses = generate_facts(
        FactKBSpec(
            functor="rec", arity=3, count=150, structure_fraction=0.5,
            variable_fraction=0.1, domain_sizes=(15,) * 3, seed=6,
        )
    )
    records = [bytes(clause_record(c, symbols)) for c in clauses]
    query = read_term("rec(S, S, X)")

    def cosim():
        rows = []
        for drive in (FUJITSU_M2351A, MICROPOLIS_1325):
            fs2 = SecondStageFilter(symbols)
            fs2.load_microprogram()
            fs2.set_query(query)
            timeline = simulate_streaming_search(
                fs2, records, ("rec", 3), drive=drive
            )
            rows.append(
                (
                    drive.name,
                    round(timeline.total_transfer_ns / 1e3),
                    round(timeline.total_match_ns / 1e3),
                    round(timeline.single_buffered_ns / 1e3),
                    round(timeline.double_buffered_ns / 1e3),
                    round(timeline.overlap_speedup, 3),
                    timeline.match_bound_clauses,
                )
            )
        return rows

    rows = cosim()
    for _, transfer_us, match_us, single_us, double_us, speedup, bound in rows:
        assert double_us <= single_us
        assert bound == 0, "the filter must never throttle the disk"
        assert transfer_us > match_us
    record_table(
        "A1b",
        "Streaming co-simulation: 150 clauses, shared-variable query",
        (
            "drive",
            "transfer us",
            "match us",
            "single buf us",
            "double buf us",
            "speedup",
            "match-bound slots",
        ),
        rows,
        notes="0 match-bound slots == section 4's claim holds clause by clause",
    )


def test_bench_open_query_in_result_memory_chunks():
    """An open query passes every record, 64 satisfiers per search."""
    symbols = SymbolTable()
    clauses = generate_facts(
        FactKBSpec(functor="rec", arity=3, count=200, domain_sizes=(20,) * 3, seed=2)
    )
    records = [bytes(clause_record(c, symbols)) for c in clauses]
    fs2 = SecondStageFilter(symbols)
    fs2.load_microprogram()
    query = read_term("rec(Q1, Q2, Q3)")
    fs2.set_query(query)
    # Split into Result-Memory-sized calls (64 satisfiers max).
    satisfiers = 0
    for start in range(0, len(records), 64):
        satisfiers += fs2.search(records[start : start + 64]).satisfiers
        fs2.set_query(query)
    assert satisfiers == len(records)  # open query: everything matches
