"""[E7] Naive reverse on the engine and on its oracle.

Prolog-X is a *compiler*; the PDBM software component inherits that.
This bench runs the classic naive-reverse workload on the ZIP-style
compiled-clause machine (the one engine, behind ``PrologMachine.solve``)
and on the tree-walking interpreter the test suite keeps as its oracle
(``tests/oracle.py``), records the logical-inference count of each, and
checks that both return the same reversed list.  Host speed (LIPS) is
not a paper number and is not recorded here.
"""

from repro.engine import PrologMachine
from repro.storage import KnowledgeBase
from repro.terms import read_term, term_to_string
from tables import record_table
from tests.oracle import oracle_answers

NREV_PROGRAM = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""

#: nrev on a 30-element list performs 496 logical inferences.
NREV30_INFERENCES = 496
NREV30_GOAL = "nrev([{items}], R)".format(items=", ".join(map(str, range(30))))
EXPECTED = "[" + ",".join(str(i) for i in reversed(range(30))) + "]"


def _machine() -> PrologMachine:
    kb = KnowledgeBase()
    kb.consult_text(NREV_PROGRAM)
    return PrologMachine(kb, unknown_predicates="fail")


def test_bench_nrev_interpreter():
    machine = _machine()
    solution = next(oracle_answers(machine, read_term(NREV30_GOAL)))
    assert term_to_string(solution["R"]) == EXPECTED
    # One clause retrieval per procedure call: the inference count.
    assert machine.stats.retrievals == NREV30_INFERENCES
    record_table(
        "E7a",
        "nrev30 on the tree-walking interpreter",
        ("metric", "value"),
        [("logical inferences", machine.stats.retrievals)],
    )


def test_bench_nrev_compiled():
    machine = _machine()
    solution = next(iter(machine.solve_text(NREV30_GOAL)))
    assert term_to_string(solution["R"]) == EXPECTED
    # One clause retrieval per procedure call: the inference count.
    assert machine.stats.retrievals == NREV30_INFERENCES
    record_table(
        "E7b",
        "nrev30 on the ZIP compiled-clause machine",
        ("metric", "value"),
        [("logical inferences", machine.stats.retrievals)],
        notes="engines verified to produce the identical reversed list",
    )
