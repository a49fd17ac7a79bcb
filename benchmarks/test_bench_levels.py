"""[E2] The five matching levels: the ablation behind choosing level 3.

The paper investigates five partial-test-unification depths and adopts
level 3 plus cross-binding checks because levels 4 and 5 cost too much
hardware.  This bench measures, per level (with and without cross-binding
checks), the surviving candidate volume and the modelled matching cost on
a workload rich in structures and repeated variables.
"""

from repro.fs2.timing import execution_time_ns
from repro.terms import read_term, rename_apart
from repro.unify import MatchLevel, PartialMatcher, unifiable
from repro.workloads import FactKBSpec, generate_facts
from tables import record_table


def _workload():
    import random

    from repro.terms import Atom, Clause, Int, Struct

    rng = random.Random(23)
    clauses = list(
        generate_facts(
            FactKBSpec(
                functor="rec",
                arity=3,
                count=350,
                variable_fraction=0.2,
                structure_fraction=0.4,
                domain_sizes=(10, 10, 10),
                seed=23,
            )
        )
    )
    # Depth-2 structures whose differences are invisible to level 3:
    # rec(deep(g(K)), cN, M) varies K below the first structure level.
    for row in range(150):
        clauses.append(
            Clause(
                Struct(
                    "rec",
                    (
                        Struct("deep", (Struct("g", (Int(row % 12),)),)),
                        Atom(f"c1_{rng.randrange(10)}"),
                        Int(row),
                    ),
                )
            )
        )
    rng.shuffle(clauses)
    queries = [clauses[i * 41].head for i in range(6)]
    queries.append(read_term("rec(S, S, Z)"))
    queries.append(read_term("rec(c0_2, s1(c1_3, 3), W)"))
    queries.append(read_term("rec(deep(g(7)), C, M)"))
    return clauses, queries


def test_bench_level_ablation():
    clauses, queries = _workload()
    answers = sum(
        unifiable(q, rename_apart(c.head)) for q in queries for c in clauses
    )
    total = len(queries) * len(clauses)

    def ablation():
        rows = []
        for level in MatchLevel:
            for cross in (False, True):
                if level == MatchLevel.FULL_WITH_CROSS_BINDING and not cross:
                    continue
                candidates = 0
                op_time = 0
                for query in queries:
                    matcher = PartialMatcher(query, level=level, cross_binding=cross)
                    for clause in clauses:
                        outcome = matcher.match_head(clause.head)
                        candidates += outcome.hit
                        op_time += sum(
                            execution_time_ns(op) * count
                            for op, count in outcome.ops.items()
                        )
                rows.append(
                    (
                        int(level),
                        "yes" if cross else "no",
                        candidates,
                        candidates - answers,
                        round(100 * (candidates - answers) / total, 2),
                        round(op_time / 1e3, 1),
                    )
                )
        return rows

    rows = ablation()
    # Candidates shrink monotonically with level (cross-binding fixed).
    with_cross = [r for r in rows if r[1] == "yes"]
    candidate_counts = [r[2] for r in with_cross]
    assert candidate_counts == sorted(candidate_counts, reverse=True)
    # Every level is sound: candidates never fall below the true answers.
    assert all(r[2] >= answers for r in rows)
    # Cross-binding checks only remove candidates.
    by_level = {}
    for r in rows:
        by_level.setdefault(r[0], {})[r[1]] = r[2]
    for level, variants in by_level.items():
        if "no" in variants and "yes" in variants:
            assert variants["yes"] <= variants["no"]
    record_table(
        "E2",
        "Matching levels 1-5: candidates and modelled op cost "
        f"({total} matches, {answers} true answers)",
        ("level", "cross bind", "candidates", "false drops", "false drop %", "op time us"),
        rows,
        notes="the paper adopts level 3 + cross binding: each level tightens "
        "the candidate set, but levels 4/5 need unbounded-depth hardware",
    )
