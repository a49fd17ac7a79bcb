"""[F1] The Figure 1 algorithm: hardware vs software oracle, and its effect.

Streams a clause corpus through the microcoded FS2 simulator and through
the pure-software level-3+cross-binding matcher, asserting zero
divergence, and reports how far partial test unification cuts the
candidate set on workloads with variables and structures.
"""

import random

from repro.pif import SymbolTable, compile_clause
from repro.terms import read_term, rename_apart
from repro.fs2 import SecondStageFilter
from repro.unify import PartialMatcher, unifiable
from repro.workloads import FactKBSpec, generate_facts
from tables import record_table


def _workload():
    rng = random.Random(31)
    clauses = generate_facts(
        FactKBSpec(
            functor="rec",
            arity=3,
            count=400,
            variable_fraction=0.15,
            structure_fraction=0.3,
            domain_sizes=(12, 12, 12),
            seed=8,
        )
    )
    queries = []
    for seed in range(6):
        head = clauses[rng.randrange(len(clauses))].head
        queries.append(head)
    queries.append(read_term("rec(S, S, X)"))
    queries.append(read_term("rec(c0_1, Y, Z)"))
    return clauses, queries


def test_bench_fig1_equivalence():
    clauses, queries = _workload()
    symbols = SymbolTable()
    compiled = [compile_clause(c, symbols) for c in clauses]
    fs2 = SecondStageFilter(symbols)
    fs2.load_microprogram()

    def run_all():
        divergences = 0
        rows = []
        for query in queries:
            fs2.set_query(query)
            matcher = PartialMatcher(query)
            sim_hits = 0
            oracle_hits = 0
            for clause, record in zip(clauses, compiled):
                sim = fs2.match_compiled(record)
                oracle = matcher.match_head(clause.head).hit
                sim_hits += sim
                oracle_hits += oracle
                if sim != oracle:
                    divergences += 1
            rows.append((str(query), sim_hits, oracle_hits))
        return divergences, rows

    divergences, rows = run_all()
    assert divergences == 0
    record_table(
        "F1",
        "Figure 1 algorithm: microcoded FS2 vs software oracle",
        ("query", "FS2 hits", "oracle hits"),
        rows,
        notes=f"divergences: {divergences} (must be 0) over "
        f"{len(queries)}x{len(clauses)} clause matches",
    )


def test_bench_fig1_soundness_and_filtering():
    clauses, queries = _workload()

    def soundness_sweep():
        lost = 0
        total_candidates = 0
        total_answers = 0
        for query in queries:
            matcher = PartialMatcher(query)
            for clause in clauses:
                hit = matcher.match_head(clause.head).hit
                true = unifiable(query, rename_apart(clause.head))
                total_candidates += hit
                total_answers += true
                if true and not hit:
                    lost += 1
        return lost, total_candidates, total_answers

    lost, candidates, answers = soundness_sweep()
    assert lost == 0
    total = len(queries) * len(clauses)
    record_table(
        "F1b",
        "Filter soundness and selectivity of level 3 + cross binding",
        ("quantity", "value"),
        [
            ("clause matches tested", total),
            ("true unifiers", answers),
            ("candidates passed", candidates),
            ("true unifiers lost", lost),
            ("false drops", candidates - answers),
            ("candidate fraction", round(candidates / total, 4)),
        ],
    )
