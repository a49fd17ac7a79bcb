"""Tests for symbol tables and compiled clause files."""

import pytest
from hypothesis import given, settings

from repro.pif import (
    MAX_RECORD_BYTES,
    ClauseFile,
    CompiledClause,
    PIFError,
    SymbolTable,
    compile_clause,
)
from repro.terms import Clause, clause_from_term, read_term
from tests.strategies import clause_heads


def parse_clause(text: str) -> Clause:
    return clause_from_term(read_term(text))


@pytest.fixture
def symbols():
    return SymbolTable()


class TestSymbolTable:
    def test_interning_idempotent(self, symbols):
        a = symbols.intern_atom("foo")
        b = symbols.intern_atom("foo")
        assert a == b
        assert len(symbols) == 1

    def test_distinct_offsets(self, symbols):
        assert symbols.intern_atom("a") != symbols.intern_atom("b")

    def test_floats_separate_namespace(self, symbols):
        atom_offset = symbols.intern_atom("1.0")
        float_offset = symbols.intern_float(1.0)
        assert atom_offset != float_offset

    def test_lookup(self, symbols):
        offset = symbols.intern_atom("hello")
        assert symbols.atom_name_at(offset) == "hello"
        f = symbols.intern_float(2.5)
        assert symbols.float_at(f).value == 2.5

    def test_kind_mismatch(self, symbols):
        offset = symbols.intern_atom("x")
        with pytest.raises(KeyError):
            symbols.float_at(offset)

    def test_missing_offset(self, symbols):
        with pytest.raises(KeyError):
            symbols.lookup(99)

    def test_serialisation_roundtrip(self, symbols):
        symbols.intern_atom("foo")
        symbols.intern_float(3.5)
        symbols.intern_atom("ünïcode")
        restored = SymbolTable.from_bytes(symbols.to_bytes())
        assert restored.atom_name_at(0) == "foo"
        assert restored.float_at(1).value == 3.5
        assert restored.atom_name_at(2) == "ünïcode"

    def test_contains(self, symbols):
        symbols.intern_atom("x")
        assert symbols.contains_atom("x")
        assert not symbols.contains_atom("y")


class TestCompileClause:
    def test_fact(self, symbols):
        compiled = compile_clause(parse_clause("p(a, b)"), symbols)
        assert compiled.is_fact
        assert compiled.indicator == ("p", 2)
        assert compiled.body_stream == b""

    def test_rule(self, symbols):
        compiled = compile_clause(parse_clause("p(X) :- q(X), r(X)"), symbols)
        assert not compiled.is_fact
        assert len(compiled.body_stream) > 0

    def test_record_roundtrip(self, symbols):
        original = compile_clause(parse_clause("p(f(X), [1|X])"), symbols)
        data = original.to_bytes()
        restored, offset = CompiledClause.from_bytes(data, ("p", 2))
        assert offset == len(data)
        assert restored == original

    def test_record_roundtrip_without_names(self, symbols):
        original = compile_clause(parse_clause("p(X, Y)"), symbols)
        data = original.to_bytes(include_names=False)
        restored, _ = CompiledClause.from_bytes(data, ("p", 2))
        assert restored.var_names == ()
        assert restored.head_stream == original.head_stream

    def test_oversized_record_rejected(self, symbols):
        big = ", ".join(f"atom{i}" for i in range(30))
        clause = parse_clause(f"p([{big}], [{big}], [{big}], [{big}], [{big}])")
        compiled = compile_clause(clause, symbols)
        with pytest.raises(PIFError):
            compiled.to_bytes()


class TestClauseFile:
    def test_append_preserves_order(self, symbols):
        cf = ClauseFile(("p", 1), symbols)
        cf.append(parse_clause("p(b)"))
        cf.append(parse_clause("p(a)"))
        cf.append(parse_clause("p(X) :- q(X)"))
        assert len(cf) == 3
        assert cf.decode_clause(0).head == read_term("p(b)")
        assert cf.decode_clause(1).head == read_term("p(a)")

    def test_wrong_indicator_rejected(self, symbols):
        cf = ClauseFile(("p", 1), symbols)
        with pytest.raises(ValueError):
            cf.append(parse_clause("q(a)"))
        with pytest.raises(ValueError):
            cf.append(parse_clause("p(a, b)"))

    def test_mixed_facts_and_rules(self, symbols):
        # Mixed relations are the point of the integrated approach.
        cf = ClauseFile(("p", 1), symbols)
        cf.append(parse_clause("p(a)"))
        cf.append(parse_clause("p(X) :- q(X)"))
        cf.append(parse_clause("p(b)"))
        decoded = [cf.decode_clause(i) for i in range(3)]
        assert decoded[0].is_fact
        assert not decoded[1].is_fact
        assert decoded[1].body == (read_term("q(X)"),)
        assert decoded[2].is_fact

    def test_fact_count_runs_with_append(self, symbols):
        cf = ClauseFile(("p", 1), symbols)
        assert cf.fact_count == 0
        for text in ["p(a)", "p(X) :- q(X)", "p(b)", "p(Y) :- r(Y), s(Y)",
                     "p(c)"]:
            cf.append(parse_clause(text))
            assert cf.fact_count == sum(1 for r in cf if r.is_fact)
        assert cf.fact_count == 3

    def test_rule_decode_roundtrip(self, symbols):
        cf = ClauseFile(("anc", 2), symbols)
        clause = parse_clause("anc(X, Z) :- parent(X, Y), anc(Y, Z)")
        cf.append(clause)
        decoded = cf.decode_clause(0)
        assert decoded.head == clause.head
        assert decoded.body == clause.body

    def test_shared_variable_head_body(self, symbols):
        cf = ClauseFile(("p", 2), symbols)
        cf.append(parse_clause("p(X, Y) :- q(Y, X)"))
        decoded = cf.decode_clause(0)
        assert decoded == parse_clause("p(X, Y) :- q(Y, X)")

    def test_addresses_and_bytes(self, symbols):
        cf = ClauseFile(("p", 1), symbols)
        cf.append(parse_clause("p(a)"))
        cf.append(parse_clause("p(f(b, c))"))
        image = cf.to_bytes()
        addresses = cf.record_addresses()
        assert addresses[0] == 0
        first_record = cf.record(0).to_bytes()
        assert addresses[1] == len(first_record)
        assert image[: len(first_record)] == first_record
        # Each record must fit one Result Memory slot.
        for index in range(len(cf)):
            assert len(cf.record(index).to_bytes()) <= MAX_RECORD_BYTES

    def test_source_clause_kept(self, symbols):
        cf = ClauseFile(("p", 1), symbols)
        clause = parse_clause("p(a)")
        cf.append(clause)
        assert cf.source_clause(0) == clause

    @settings(max_examples=100)
    @given(clause_heads(functor="p", arity=3))
    def test_compile_decode_roundtrip_property(self, head):
        symbols = SymbolTable()
        cf = ClauseFile(("p", 3), symbols)
        try:
            cf.append(Clause(head))
        except PIFError:
            return  # oversized record: correctly rejected
        assert cf.decode_clause(0).head == head
