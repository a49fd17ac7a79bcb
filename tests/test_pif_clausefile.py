"""Tests for symbol tables and compiled clause files."""

import pytest
from hypothesis import given, settings

from repro.pif import (
    MAX_RECORD_BYTES,
    ClauseFile,
    CompiledClause,
    PIFDecodeError,
    PIFError,
    SymbolTable,
    clause_record,
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
        clause = parse_clause("p(f(X), [1|X])")
        data = clause_record(clause, SymbolTable())
        restored, offset = CompiledClause.from_bytes(data, ("p", 2))
        assert offset == len(data)
        assert restored == compile_clause(clause, symbols)

    def test_record_roundtrip_without_names(self, symbols):
        # The names are a debugging aid: a record may leave them out.
        data = clause_record(parse_clause("p(X, Y)"), symbols)
        head_length = data[3] << 8 | data[4]
        bare = bytearray(data[: 9 + head_length])
        bare[0:3] = len(bare).to_bytes(2, "big") + b"\x00"  # no names flag
        restored, _ = CompiledClause.from_bytes(bytes(bare), ("p", 2))
        assert restored.var_names == ()
        assert restored.head_stream == compile_clause(
            parse_clause("p(X, Y)"), symbols
        ).head_stream

    def test_oversized_record_rejected(self, symbols):
        big = ", ".join(f"atom{i}" for i in range(30))
        clause = parse_clause(f"p([{big}], [{big}], [{big}], [{big}], [{big}])")
        # The record is written once, so the cap fires at compile time.
        with pytest.raises(PIFError, match="Result Memory slot"):
            compile_clause(clause, symbols)


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
        first_record = bytes(cf.record_bytes(0))
        assert addresses[1] == len(first_record)
        assert image[: len(first_record)] == first_record
        # Each record must fit one Result Memory slot.
        for index in range(len(cf)):
            assert len(bytes(cf.record_bytes(index))) <= MAX_RECORD_BYTES

    def test_no_source_clause_is_retained(self, symbols):
        """The file is its image: the clause handed to ``append`` is
        compiled into the buffer and let go, and reads parse it back."""
        import gc

        cf = ClauseFile(("p", 1), symbols)
        clause = parse_clause("p(f(X)) :- q(X)")
        cf.append(clause)
        assert cf.decode_clause(0) == clause
        assert set(vars(cf)) == {
            "indicator", "symbols", "generation", "fact_count",
            "_image", "_addresses",
        }
        handed_in = {id(clause), id(clause.head), id(clause.body)}
        reachable, frontier = set(), [cf]
        while frontier:
            node = frontier.pop()
            if id(node) not in reachable:
                reachable.add(id(node))
                frontier.extend(gc.get_referents(node))
        assert not handed_in & reachable

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


FILE_TEXTS = [
    "p(a)", "p(X) :- q(X)", "p(f(b, [1, 2.5 | T]))", "p(-0.0)", "p(Y) :- r(Y), s(Y)",
]


def build_file(symbols, texts=FILE_TEXTS) -> ClauseFile:
    cf = ClauseFile(("p", 1), symbols)
    for text in texts:
        cf.append(parse_clause(text))
    return cf


def same_file(left: ClauseFile, right: ClauseFile) -> None:
    assert left.to_bytes() == right.to_bytes()
    assert left.record_addresses() == right.record_addresses()
    assert left.fact_count == right.fact_count
    assert len(left) == len(right)
    assert [r for r in left] == [r for r in right]


class TestImageAdoption:
    """``from_image`` wraps a serialised file — heap bytes or a view of
    an mmap — and the wrapped file reads exactly like the one that
    wrote the image."""

    @pytest.mark.parametrize("wrap", [bytes, memoryview], ids=["bytes", "view"])
    def test_adopted_file_reads_like_its_writer(self, symbols, wrap):
        original = build_file(symbols)
        adopted = ClauseFile.from_image(
            ("p", 1), symbols, wrap(original.to_bytes())
        )
        same_file(adopted, original)
        assert adopted.generation != original.generation
        for position, address in enumerate(original.record_addresses()):
            assert adopted.record_span(address) == original.record_span(address)
            assert bytes(adopted.record_bytes(position)) == original.record_bytes(
                position
            )
            assert adopted.decode_clause(position) == original.decode_clause(
                position
            )

    def test_empty_image(self, symbols):
        adopted = ClauseFile.from_image(("p", 1), symbols, b"")
        assert len(adopted) == 0 and adopted.size_bytes() == 0
        adopted.append(parse_clause("p(a)"))
        assert adopted.decode_clause(0) == parse_clause("p(a)")

    def test_only_adopted_views_hand_out_views(self, symbols):
        """A growable buffer cannot be resized under an exported view,
        so a file that owns its image copies records out."""
        owned = build_file(symbols)
        assert isinstance(owned.record_bytes(0), bytes)
        image = owned.to_bytes()
        viewed = ClauseFile.from_image(("p", 1), symbols, memoryview(image))
        record = viewed.record_bytes(1)
        assert isinstance(record, memoryview) and record.obj is image
        held = viewed.record_bytes(0)
        viewed.append(parse_clause("p(z)"))  # copy-on-write, then grows
        assert isinstance(viewed.record_bytes(0), bytes)
        assert bytes(held) == viewed.record_bytes(0)  # old view still valid
        assert len(image) == owned.size_bytes()  # adopted buffer untouched

    def test_unknown_address(self, symbols):
        cf = build_file(symbols)
        for address in (1, cf.size_bytes(), cf.size_bytes() + 7):
            with pytest.raises(KeyError):
                cf.record_span(address)

    def test_zero_length_record_rejected(self, symbols):
        image = bytearray(build_file(symbols).to_bytes())
        image[0:2] = b"\x00\x00"
        with pytest.raises(PIFDecodeError, match="claims 0 bytes"):
            ClauseFile.from_image(("p", 1), symbols, bytes(image))

    def test_truncated_trailing_header_rejected(self, symbols):
        image = build_file(symbols).to_bytes() + b"\x00\x0c\x00"
        with pytest.raises(PIFDecodeError, match="header"):
            ClauseFile.from_image(("p", 1), symbols, image)

    def test_record_running_past_the_image_rejected(self, symbols):
        image = build_file(symbols).to_bytes()
        with pytest.raises(PIFDecodeError, match="past the image end"):
            ClauseFile.from_image(("p", 1), symbols, image[:-1])

    def test_inflated_length_rejected(self, symbols):
        """A 9-byte header claiming 0xFFFF bytes is over the slot cap; a
        claim within the cap must still equal the sum of its streams."""
        with pytest.raises(PIFDecodeError, match="claims 65535 bytes"):
            ClauseFile.from_image(
                ("p", 0), symbols, b"\xff\xff\x00" + b"\x00" * 6
            )
        image = bytearray(build_file(symbols, ["p(a)", "p(b)"]).to_bytes())
        first = int.from_bytes(image[0:2], "big")
        image[0:2] = (first + 4).to_bytes(2, "big")  # swallows 4 bytes of p(b)
        with pytest.raises(PIFDecodeError, match="do not add up"):
            ClauseFile.from_image(("p", 1), symbols, bytes(image))

    def test_name_blob_may_not_leave_its_record(self, symbols):
        image = bytearray(build_file(symbols, ["p(Xyz)"]).to_bytes())
        image[-4] = 200  # the one name now claims 200 bytes
        with pytest.raises(PIFDecodeError, match="do not add up"):
            ClauseFile.from_image(("p", 1), symbols, bytes(image))
        flagged = bytearray(build_file(symbols, ["p(a)"]).to_bytes())
        flagged[2] |= 0x02  # names flagged, no blob
        with pytest.raises(PIFDecodeError, match="do not add up"):
            ClauseFile.from_image(("p", 1), symbols, bytes(flagged))


class TestSplice:
    """``prepend`` and ``delete`` edit the image in place; the result is
    the file a from-scratch build of the surviving clauses would be."""

    @pytest.mark.parametrize("victim", range(len(FILE_TEXTS)))
    def test_delete_equals_rebuild(self, symbols, victim):
        cf = build_file(symbols)
        before = cf.generation
        length = cf.delete(victim)
        survivors = FILE_TEXTS[:victim] + FILE_TEXTS[victim + 1 :]
        same_file(cf, build_file(symbols, survivors))
        assert cf.generation != before
        assert length == len(
            bytes(clause_record(parse_clause(FILE_TEXTS[victim]), symbols))
        )

    def test_prepend_equals_rebuild(self, symbols):
        cf = build_file(symbols)
        before = cf.generation
        cf.prepend(parse_clause("p(front) :- q(front)"))
        same_file(cf, build_file(symbols, ["p(front) :- q(front)", *FILE_TEXTS]))
        assert cf.generation != before

    def test_append_keeps_the_generation(self, symbols):
        cf = build_file(symbols)
        before = cf.generation
        cf.append(parse_clause("p(z)"))
        assert cf.generation == before

    def test_delete_to_empty_then_reuse(self, symbols):
        cf = build_file(symbols, ["p(a)"])
        cf.delete(0)
        assert len(cf) == 0 and cf.size_bytes() == 0 and cf.fact_count == 0
        cf.prepend(parse_clause("p(b)"))
        cf.append(parse_clause("p(c)"))
        same_file(cf, build_file(symbols, ["p(b)", "p(c)"]))

    def test_splicing_an_adopted_file_copies_first(self, symbols):
        image = build_file(symbols).to_bytes()
        adopted = ClauseFile.from_image(("p", 1), symbols, memoryview(image))
        adopted.delete(2)
        adopted.prepend(parse_clause("p(front)"))
        survivors = ["p(front)", *FILE_TEXTS[:2], *FILE_TEXTS[3:]]
        same_file(adopted, build_file(symbols, survivors))
        assert image == build_file(symbols).to_bytes()

    def test_oversized_prepend_leaves_the_file_alone(self, symbols):
        cf = build_file(symbols)
        before = (cf.to_bytes(), cf.generation)
        big = ", ".join(f"atom{i}" for i in range(130))
        with pytest.raises(PIFError):
            cf.prepend(parse_clause(f"p([{big}])"))
        assert (cf.to_bytes(), cf.generation) == before
