"""[E1] FS1 false drops: the three sources of section 2.1.

False drops ("ghosts") come from (1) non-unique encoding — hash
collisions, controlled by codeword width; (2) truncation — only the first
12 arguments are encoded; (3) variables invisible to the index — the
shared-variable queries.  Each source gets a sweep.
"""

import random
from collections import Counter

from repro.pif import ClauseFile, SymbolTable
from repro.scw import (
    DEFAULT_SCHEME,
    CodewordScheme,
    FirstStageFilter,
    SecondaryIndexFile,
    false_drop_probability,
    optimal_bits_per_key,
)
from repro.terms import Atom, Clause, Struct, Var, read_term, rename_apart
from repro.unify import unifiable
from repro.workloads import FactKBSpec, generate_couples, generate_facts
from tables import record_table


def _false_drop_rate(scheme, clauses, query):
    query_cw = scheme.query_codeword(query)
    candidates = 0
    answers = 0
    for clause in clauses:
        if scheme.matches(query_cw, scheme.clause_codeword(clause.head)):
            candidates += 1
        if unifiable(query, rename_apart(clause.head)):
            answers += 1
    assert candidates >= answers, "FS1 dropped a true unifier"
    false = candidates - answers
    return candidates, answers, false


def test_bench_codeword_width_sweep():
    clauses = generate_facts(
        FactKBSpec(functor="r", arity=4, count=600, domain_sizes=(40, 40, 40, 40), seed=21)
    )
    queries = [clauses[i * 37].head for i in range(8)]

    def sweep():
        rows = []
        for width in (16, 32, 64, 128):
            scheme = CodewordScheme(width=width, bits_per_key=2, max_args=12)
            candidates = answers = 0
            for query in queries:
                c, a, _ = _false_drop_rate(scheme, clauses, query)
                candidates += c
                answers += a
            total = len(queries) * len(clauses)
            rows.append(
                (
                    width,
                    scheme.entry_bytes(),
                    candidates,
                    answers,
                    round(100 * (candidates - answers) / total, 3),
                )
            )
        return rows

    rows = sweep()
    # Wider codewords mean fewer false drops (non-unique encoding source).
    drop_rates = [row[4] for row in rows]
    assert drop_rates[0] >= drop_rates[-1]
    assert drop_rates[-1] < 1.0  # 128-bit codewords are nearly exact here
    record_table(
        "E1",
        "False drops vs codeword width (non-unique encoding)",
        ("width bits", "entry bytes", "candidates", "true answers", "false drop %"),
        rows,
    )


def test_bench_truncation():
    """Arguments beyond max_args are not encoded: mismatches go unseen."""

    def truncation_rows():
        rows = []
        for arity in (4, 8, 12, 16, 20):
            scheme = CodewordScheme(width=64, bits_per_key=2, max_args=12)
            # Clauses agreeing with the query on the first 12 arguments but
            # differing beyond them.
            base = [Atom(f"k{i}") for i in range(arity)]
            query = Struct("t", tuple(base))
            decoys = []
            for d in range(50):
                args = list(base)
                args[arity - 1] = Atom(f"other{d}")  # differ in the LAST arg
                decoys.append(Clause(Struct("t", tuple(args))))
            query_cw = scheme.query_codeword(query)
            passed = sum(
                1
                for c in decoys
                if scheme.matches(query_cw, scheme.clause_codeword(c.head))
            )
            rows.append((arity, len(decoys), passed))
        return rows

    rows = truncation_rows()
    for arity, decoys, passed in rows:
        if arity <= 12:
            assert passed < decoys  # the differing argument is encoded
        else:
            assert passed == decoys  # truncated: every decoy is a ghost
    record_table(
        "E1b",
        "False drops from truncation (12 encoded arguments)",
        ("arity", "decoy clauses", "decoys passing FS1"),
        rows,
        notes="decoys differ from the query only in the final argument",
    )


def test_bench_analytic_vs_measured():
    """The Roberts/ref-[11] formula against the real generator (E1d)."""
    clauses = generate_facts(
        FactKBSpec(
            functor="r", arity=4, count=500,
            domain_sizes=(10**6,) * 4, seed=77,  # effectively unique atoms
        )
    )
    # A query whose one constant matches no clause: every pass is a false
    # drop, and a single-key query keeps the rates measurably large.
    query = read_term("r(zz_a, V1, V2, V3)")
    record_keys = 4  # four ground atoms per head
    query_keys = 1

    def sweep():
        rows = []
        for width in (16, 24, 32, 48, 64):
            scheme = CodewordScheme(width=width, bits_per_key=2, max_args=12)
            query_cw = scheme.query_codeword(query)
            passed = sum(
                1
                for clause in clauses
                if scheme.matches(query_cw, scheme.clause_codeword(clause.head))
            )
            measured = passed / len(clauses)
            predicted = false_drop_probability(width, 2, record_keys, query_keys)
            rows.append(
                (
                    width,
                    round(100 * predicted, 3),
                    round(100 * measured, 3),
                )
            )
        return rows

    rows = sweep()
    # Order-of-magnitude agreement between theory and implementation.
    for width, predicted_pct, measured_pct in rows:
        assert measured_pct <= predicted_pct * 8 + 1.0
        if predicted_pct > 2:
            assert measured_pct >= predicted_pct / 8 - 1.0
    record_table(
        "E1d",
        "Analytic false-drop model vs the real codeword generator",
        ("width bits", "predicted %", "measured %"),
        rows,
        notes=f"optimal k at width 48, r=4 keys: "
        f"{optimal_bits_per_key(48, record_keys)} bits/key (50% saturation rule)",
    )


def test_bench_shared_variables():
    """The married_couple(S, S) query retrieves the entire predicate."""
    clauses = generate_couples(count=800, same_surname_fraction=0.05, seed=17)
    scheme = CodewordScheme(width=96, bits_per_key=2)
    shared_query = read_term("married_couple(S, S)")
    ground_query = clauses[3].head

    def measure():
        rows = []
        for label, query in (
            ("ground married_couple(a, b)", ground_query),
            ("shared married_couple(S, S)", shared_query),
        ):
            candidates, answers, false = _false_drop_rate(scheme, clauses, query)
            rows.append(
                (label, candidates, answers, false,
                 round(100 * false / len(clauses), 2))
            )
        return rows

    rows = measure()
    shared_row = rows[1]
    assert shared_row[1] == len(clauses)  # everything retrieved
    assert shared_row[2] < len(clauses) * 0.1  # yet few true answers
    record_table(
        "E1c",
        "False drops from shared variables (section 2.1 example)",
        ("query", "candidates", "true answers", "false drops", "false drop %"),
        rows,
        notes="FS1 is blind to the S=S constraint; FS2 exists for this case",
    )


E1E_FACTS = 5000
E1E_GOALS = 200


def _one_key_per_argument_shapes():
    """(label, facts, bound positions, goals): every argument one atom."""
    rng = random.Random(1989)
    nodes = E1E_FACTS // 4  # out-degree 4
    edges = [
        Clause(Struct("edge", (Atom(f"n{i // 4}"), Atom(f"n{rng.randrange(nodes)}"))))
        for i in range(E1E_FACTS)
    ]
    recs = generate_facts(
        FactKBSpec(
            functor="rec", arity=3, count=E1E_FACTS,
            domain_sizes=(E1E_FACTS // 10,) * 3, seed=31,
        )
    )
    shapes = []
    for label, facts, bound in (
        ("edge/2 one-bound", edges, (0,)),
        ("rec/3 one-bound", recs, (0,)),
        ("rec/3 two-bound", recs, (0, 1)),
    ):
        goals = []
        for _ in range(E1E_GOALS):
            head = facts[rng.randrange(len(facts))].head
            goals.append(
                Struct(
                    head.functor,
                    tuple(
                        arg if position in bound else Var(f"V{position}")
                        for position, arg in enumerate(head.args)
                    ),
                )
            )
        shapes.append((label, facts, bound, goals))
    return shapes


def test_bench_false_drops_per_bits_per_key():
    """E1e: ref [11]'s prediction against FS1's measured false drops per
    goal, as k climbs from the prototype's 2 to the per-arity optimum."""
    width = DEFAULT_SCHEME.width

    def sweep():
        rows = []
        for label, facts, bound, goals in _one_key_per_argument_shapes():
            arity = len(facts[0].head.args)
            true_counts = Counter(
                tuple(fact.head.args[p] for p in bound) for fact in facts
            )
            trues = [
                true_counts[tuple(goal.args[p] for p in bound)] for goal in goals
            ]
            clause_file = ClauseFile(facts[0].head.indicator, SymbolTable())
            for fact in facts:
                clause_file.append(fact)
            optimum = optimal_bits_per_key(width, arity)
            for k in sorted({2, 4, DEFAULT_SCHEME.bits_per_key, 8, optimum}):
                scheme = CodewordScheme(width=width, bits_per_key=k)
                index = SecondaryIndexFile.build(clause_file, scheme)
                results = FirstStageFilter(scheme).search_batch(index, goals)
                false_drops = [
                    len(result.candidate_addresses) - true
                    for result, true in zip(results, trues)
                ]
                assert min(false_drops) >= 0, "FS1 dropped a true unifier"
                probability = false_drop_probability(width, k, arity, len(bound))
                predicted = sum(
                    probability * (len(facts) - true) for true in trues
                ) / len(goals)
                rows.append(
                    (
                        label,
                        k,
                        "default" if k == DEFAULT_SCHEME.bits_per_key
                        else "per-arity optimum" if k == optimum
                        else "prototype" if k == 2 else "",
                        predicted,
                        sum(false_drops) / len(goals),
                    )
                )
        return rows

    rows = sweep()
    for _, k, _, predicted, measured in rows:
        # Order-of-magnitude agreement, as in E1d.
        assert measured <= predicted * 8 + 0.1
        if predicted > 1:
            assert measured >= predicted / 8
        if k == DEFAULT_SCHEME.bits_per_key:
            assert measured < 0.1
    record_table(
        "E1e",
        f"False drops per goal vs bits per key ({width}-bit codeword, "
        f"{E1E_FACTS} facts, {E1E_GOALS} goals per shape)",
        ("goal shape", "k", "scheme", "predicted", "measured"),
        rows,
        notes=f"default k = optimal_bits_per_key({width}, "
        f"{DEFAULT_SCHEME.max_args}); predicted = "
        "false_drop_probability(width, k, arity, bound) x non-answers",
    )
