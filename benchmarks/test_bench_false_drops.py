"""[E1] FS1 false drops: the three sources of section 2.1.

False drops ("ghosts") come from (1) non-unique encoding — hash
collisions, controlled by codeword width; (2) truncation — only the first
12 arguments are encoded; (3) variables invisible to the index — the
shared-variable queries.  Each source gets a sweep.
"""

from repro.scw import CodewordScheme, false_drop_probability, optimal_bits_per_key
from repro.terms import Atom, Clause, Struct, read_term, rename_apart
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
