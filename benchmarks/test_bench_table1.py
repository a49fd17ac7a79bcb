"""[T1 / F6-12] Regenerate Table 1: execution times of the FS2 operations.

The paper's Table 1 is derived from device propagation delays along the
datapath routes of Figures 6-12.  This bench recomputes every row from
the route model and asserts exact agreement with the paper.
"""

from repro.fs2.timing import (
    OPERATION_TIMINGS,
    PAPER_TABLE1_NS,
    execution_time_ns,
    table1,
    worst_case_op,
)
from repro.unify import HardwareOp
from tables import record_table


def test_bench_table1():
    rows = table1()
    assert len(rows) == 7
    for figure, op_name, time_ns in rows:
        assert PAPER_TABLE1_NS[HardwareOp[op_name]] == time_ns
    record_table(
        "T1",
        "Table 1: Execution Times of the FS2 Hardware Functions",
        ("figure", "operation", "model ns", "paper ns", "match"),
        [
            (figure, op_name, time_ns, PAPER_TABLE1_NS[HardwareOp[op_name]],
             "exact" if time_ns == PAPER_TABLE1_NS[HardwareOp[op_name]] else "DIFF")
            for figure, op_name, time_ns in rows
        ],
    )


def test_bench_route_breakdown():
    def breakdown():
        rows = []
        for op, timing in OPERATION_TIMINGS.items():
            for cycle_number, cycle in enumerate(timing.cycles, start=1):
                db = cycle.db_route.delay_ns() if cycle.db_route else 0
                query = cycle.query_route.delay_ns() if cycle.query_route else 0
                rows.append(
                    (
                        op.name,
                        cycle_number,
                        db,
                        query,
                        cycle.governing,
                        cycle.delay_ns(),
                    )
                )
        return rows

    rows = breakdown()
    record_table(
        "T1b",
        "Figures 6-12: per-cycle route delays (ns)",
        ("operation", "cycle", "db route", "query route", "governing", "counted"),
        rows,
    )
    # Spot checks against the figure captions.
    by_key = {(r[0], r[1]): r for r in rows}
    assert by_key[("MATCH", 1)][2:4] == (40, 75)
    assert by_key[("QUERY_FETCH", 1)][5] == 120
    assert by_key[("QUERY_CROSS_BOUND_FETCH", 3)][5] == 45


def test_bench_worst_case_lookup():
    op = worst_case_op()
    assert op == HardwareOp.QUERY_CROSS_BOUND_FETCH
    assert execution_time_ns(op) == 235
