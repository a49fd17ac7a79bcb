"""Integration and property tests for the FS2 engine.

The crown-jewel invariants:

* the microcoded simulator agrees with the software level-3+cross-binding
  oracle on every clause — both the hit/miss decision and the hardware
  operation counts;
* the filter never drops a clause that fully unifies with the query.
"""

from collections import Counter

import pytest
from hypothesis import given, settings

from repro.fs2 import (
    FS2ProtocolError,
    OperationalMode,
    SecondStageFilter,
)
from repro.pif import (
    ClauseFile,
    CompiledClause,
    PIFDecoder,
    PIFError,
    SymbolTable,
    compile_clause,
)
from repro.terms import Clause, clause_from_term, read_term, rename_apart
from repro.unify import HardwareOp, PartialMatcher, unifiable
from tests.strategies import clause_heads


def make_kb(texts, indicator):
    symbols = SymbolTable()
    cf = ClauseFile(indicator, symbols)
    for text in texts:
        cf.append(clause_from_term(read_term(text)))
    return symbols, cf


def run_search(query_text, texts, indicator, cross_binding=True):
    symbols, cf = make_kb(texts, indicator)
    fs2 = SecondStageFilter(symbols, cross_binding=cross_binding)
    fs2.load_microprogram()
    fs2.set_query(read_term(query_text))
    records = [bytes(cf.record_bytes(i)) for i in range(len(cf))]
    stats = fs2.search(records)
    decoder = PIFDecoder(symbols)
    hits = []
    for record in fs2.read_results():
        compiled, _ = CompiledClause.from_bytes(record, indicator)
        hits.append(str(decoder.decode_head(compiled.head_encoded)))
    return stats, hits


class TestSearchFlow:
    def test_ground_query_selects_exact(self):
        stats, hits = run_search(
            "p(a, b)",
            ["p(a, b)", "p(a, c)", "p(b, b)"],
            ("p", 2),
        )
        assert hits == ["p(a,b)"]
        assert stats.clauses_examined == 3
        assert stats.satisfiers == 1

    def test_variable_clauses_always_pass(self):
        stats, hits = run_search(
            "p(a)",
            ["p(X)", "p(b)", "p(a)"],
            ("p", 1),
        )
        assert hits == ["p(X)", "p(a)"]

    def test_query_variables_pass_everything(self):
        stats, hits = run_search("p(X)", ["p(a)", "p(b)"], ("p", 1))
        assert len(hits) == 2

    def test_shared_query_variable(self):
        # The married_couple query that defeats FS1 is exactly what FS2
        # exists to filter.
        stats, hits = run_search(
            "married(S, S)",
            ["married(smith, smith)", "married(smith, jones)", "married(X, X)"],
            ("married", 2),
        )
        assert hits == ["married(smith,smith)", "married(X,X)"]

    def test_cross_binding_checks(self):
        stats, hits = run_search(
            "f(X, b, X)",
            ["f(A, A, c)", "f(A, A, b)"],
            ("f", 3),
        )
        assert hits == ["f(A,A,b)"]

    def test_cross_binding_disabled_admits_more(self):
        stats, hits = run_search(
            "f(X, b, X)",
            ["f(A, A, c)", "f(A, A, b)"],
            ("f", 3),
            cross_binding=False,
        )
        assert len(hits) == 2  # the inconsistent clause becomes a false drop

    def test_structures_first_level(self):
        stats, hits = run_search(
            "p(f(a, g(1)))",
            ["p(f(a, g(2)))", "p(f(b, g(1)))", "p(f(a))"],
            ("p", 1),
        )
        # g(1) vs g(2) differ at depth 2: invisible to level 3.
        assert hits == ["p(f(a,g(2)))"]

    def test_lists_and_tails(self):
        stats, hits = run_search(
            "p([1, 2 | T])",
            ["p([1, 2, 3])", "p([1, 3, 3])", "p([1, 2])", "p([1 | X])"],
            ("p", 1),
        )
        assert hits == ["p([1,2,3])", "p([1,2])", "p([1|X])"]

    def test_rules_filtered_by_head(self):
        stats, hits = run_search(
            "anc(tom, X)",
            ["anc(A, B) :- parent(A, B)", "anc(dick, harry)", "anc(tom, jane)"],
            ("anc", 2),
        )
        assert hits == ["anc(A,B)", "anc(tom,jane)"]

    def test_atom_query(self):
        stats, hits = run_search("go", ["go", "go"], ("go", 0))
        assert stats.satisfiers == 2

    def test_match_found_bit(self):
        symbols, cf = make_kb(["p(a)"], ("p", 1))
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("p(zzz)"))
        fs2.search([bytes(cf.record_bytes(0))])
        assert not fs2.control.match_found
        fs2.set_query(read_term("p(a)"))
        fs2.search([bytes(cf.record_bytes(0))])
        assert fs2.control.match_found

    def test_mode_sequence(self):
        symbols, cf = make_kb(["p(a)"], ("p", 1))
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        assert fs2.control.mode == OperationalMode.MICROPROGRAMMING
        fs2.set_query(read_term("p(a)"))
        assert fs2.control.mode == OperationalMode.SET_QUERY
        fs2.search([bytes(cf.record_bytes(0))])
        assert fs2.control.mode == OperationalMode.SEARCH
        fs2.read_results()
        assert fs2.control.mode == OperationalMode.READ_RESULT

    def test_protocol_enforced(self):
        symbols = SymbolTable()
        fs2 = SecondStageFilter(symbols)
        with pytest.raises(FS2ProtocolError):
            fs2.set_query(read_term("p(a)"))
        fs2.load_microprogram()
        with pytest.raises(FS2ProtocolError):
            fs2.search([])

    def test_wrong_predicate_never_matches(self):
        symbols, cf = make_kb(["q(a)"], ("q", 1))
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("p(a)"))
        stats = fs2.search([bytes(cf.record_bytes(0))], indicator=("q", 1))
        assert stats.satisfiers == 0

    def test_stats_accounting(self):
        stats, _ = run_search("p(a, b)", ["p(a, b)", "p(x, y)"], ("p", 2))
        assert stats.clauses_examined == 2
        assert stats.bytes_streamed > 0
        assert stats.micro_cycles > 0
        assert stats.op_time_ns > 0
        assert stats.op_counts[HardwareOp.MATCH] >= 2
        assert stats.false_drop_candidates == 1

    def test_query_reuse_resets_state(self):
        symbols, cf = make_kb(["p(a)", "p(b)"], ("p", 1))
        records = [bytes(cf.record_bytes(i)) for i in range(2)]
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("p(a)"))
        assert fs2.search(records).satisfiers == 1
        fs2.set_query(read_term("p(b)"))
        assert fs2.search(records).satisfiers == 1
        assert len(fs2.read_results()) == 1


class TestOpAccounting:
    def op_counts(self, query_text, clause_text):
        symbols = SymbolTable()
        compiled = compile_clause(
            clause_from_term(read_term(clause_text)), symbols
        )
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term(query_text))
        fs2.match_compiled(compiled)
        return fs2.tue.op_counts

    def test_simple_match_ops(self):
        ops = self.op_counts("p(a, b)", "p(a, b)")
        assert ops[HardwareOp.MATCH] == 2

    def test_store_fetch_ops(self):
        ops = self.op_counts("p(a, a)", "p(X, X)")
        assert ops[HardwareOp.DB_STORE] == 1
        assert ops[HardwareOp.DB_FETCH] == 1

    def test_cross_bound_ops(self):
        ops = self.op_counts("f(X, a, b)", "f(A, a, A)")
        assert ops[HardwareOp.DB_CROSS_BOUND_FETCH] == 1
        assert ops[HardwareOp.DB_STORE] == 1
        assert ops[HardwareOp.QUERY_STORE] == 1

    def test_time_follows_table1(self):
        symbols = SymbolTable()
        compiled = compile_clause(clause_from_term(read_term("p(a)")), symbols)
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("p(a)"))
        fs2.match_compiled(compiled)
        assert fs2.tue.op_time_ns == 105  # one MATCH


class TestStatsInvariants:
    @settings(max_examples=150, deadline=None)
    @given(clause_heads(arity=3), clause_heads(arity=3))
    def test_op_time_is_sum_of_table1(self, query, head):
        """op_time_ns must equal the Table 1 cost of the counted ops."""
        from repro.fs2.timing import execution_time_ns

        symbols = SymbolTable()
        try:
            compiled = compile_clause(Clause(head), symbols)
        except PIFError:
            return
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(query)
        fs2.match_compiled(compiled)
        expected = sum(
            execution_time_ns(op) * count
            for op, count in fs2.tue.op_counts.items()
        )
        assert fs2.tue.op_time_ns == expected


class TestHardwareOracleEquivalence:
    """The microcoded simulator must agree with the software oracle."""

    @settings(max_examples=400, deadline=None)
    @given(clause_heads(arity=3), clause_heads(arity=3))
    def test_decision_and_op_equivalence(self, query, head):
        symbols = SymbolTable()
        try:
            compiled = compile_clause(Clause(head), symbols)
        except PIFError:
            return  # oversized/unencodable: outside the hardware's domain
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(query)
        sim_hit = fs2.match_compiled(compiled)
        oracle = PartialMatcher(query, level=3, cross_binding=True).match_head(
            head
        )
        assert sim_hit == oracle.hit
        assert Counter(fs2.tue.op_counts) == oracle.ops

    @settings(max_examples=400, deadline=None)
    @given(clause_heads(arity=2), clause_heads(arity=2))
    def test_soundness(self, query, head):
        symbols = SymbolTable()
        try:
            compiled = compile_clause(Clause(head), symbols)
        except PIFError:
            return
        if not unifiable(query, rename_apart(head)):
            return
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(query)
        assert fs2.match_compiled(compiled), "FS2 dropped a true unifier"

    @settings(max_examples=200, deadline=None)
    @given(clause_heads(arity=2), clause_heads(arity=2))
    def test_equivalence_without_cross_binding(self, query, head):
        symbols = SymbolTable()
        try:
            compiled = compile_clause(Clause(head), symbols)
        except PIFError:
            return
        fs2 = SecondStageFilter(symbols, cross_binding=False)
        fs2.load_microprogram()
        fs2.set_query(query)
        sim_hit = fs2.match_compiled(compiled)
        oracle = PartialMatcher(query, level=3, cross_binding=False).match_head(
            head
        )
        assert sim_hit == oracle.hit

    def test_big_terms_equivalence(self):
        """Pointer-form structures and lists (arity > 31)."""
        big_args = ", ".join(str(i) for i in range(40))
        cases = [
            (f"p(big({big_args}))", f"p(big({big_args}))", True),
            (f"p([{big_args}])", f"p([{big_args}])", True),
            (f"p([{big_args}])", "p([1, 2, 3])", False),
            (f"p([{big_args} | T])", "p([0, 1, 2])", True),
        ]
        for query_text, clause_text, expected in cases:
            symbols = SymbolTable()
            compiled = compile_clause(
                clause_from_term(read_term(clause_text)), symbols
            )
            fs2 = SecondStageFilter(symbols)
            fs2.load_microprogram()
            query = read_term(query_text)
            fs2.set_query(query)
            sim_hit = fs2.match_compiled(compiled)
            oracle_hit = PartialMatcher(query).match_head(
                read_term(clause_text)
            ).hit
            assert sim_hit == oracle_hit == expected, (query_text, clause_text)
