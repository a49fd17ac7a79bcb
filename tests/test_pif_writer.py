"""The one PIF record writer (``repro.pif.clausefile.clause_record``).

Its output is pinned to a golden corpus of records captured from the
two-pass encoder it replaced (``compile_clause(...).to_bytes()``): every
tag family, the pointer forms, the 28-bit integer edges, ``-0.0``,
anonymous variables and bodies sharing head variables.  Beside the
corpus: every limit the writer enforces, and a round trip of generated
clauses through the record and back.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.pif import (
    ClauseFile,
    CompiledClause,
    PIFEncoder,
    PIFError,
    SymbolTable,
    SymbolTableFull,
    clause_record,
    compile_clause,
)
from repro.pif import symbols as symbols_module
from repro.storage.wal import MutationRecord, encode_record
from repro.terms import Atom, Clause, Int, Struct, Var, clause_from_term, read_term

from .strategies import clause_heads, terms

# -- the golden corpus (hex; each clause compiled into a fresh table) -------

CLAUSE_RECORDS = [
    ('p', '000900000000000000', '00000000'),
    ('p(a)', '000d0000040000000008000000', '000000010000000161'),
    ('p(a, b, c)', '001500000c00000000080000000800000108000002', '00000003000000016100000001620000000163'),
    ('p([])', '000d00000400000000e0000000', '00000000'),
    ("p('[]', [], '')", '001500000c00000000e0000000e000000008000000', '0000000100000000'),
    ('p(f(a), g(h(b), c))', '002100001800000000610000000800000162000002610000030800000408000005', '00000006000000016600000001610000000167000000016800000001620000000163'),
    ('p([a, b, c])', '001d00001400000000e3000000080000000800000108000002e0000000', '00000003000000016100000001620000000163'),
    ('p([a, b | T], T)', '002002001400000000a200000008000000080000012600000024000000010154', '0000000200000001610000000162'),
    ('p([a | b])', '001500000c00000000e10000000800000008000001', '0000000200000001610000000162'),
    ('p([[]], [[a]], [X | Y], [Y])', '004602003800000000e1000000e0000000e0000000e1000000e100000008000000e0000000e0000000a10000002600000026000001e100000024000001e00000000201580159', '000000010000000161'),
    ('p(134217727, -134217728, 0, -1, 16777216, -16777217)', '00210000180000000017ffffff18000000100000001fffffff110000001effffff', '00000000'),
    ('p(1.5, -0.0, 0.0, 1.0e10, -2.25)', '001d000014000000000900000009000001090000010900000209000003', '0000000401000003312e3501000003302e300100000d31303030303030303030302e30010000052d322e3235'),
    ('p(_, _, X, _, X)', '0020020014000000002000000020000000260000002000000024000000010158', '00000000'),
    ('p(X, Y) :- q(X, Z), r(Z, Y)', '0034030008001c00002600000026000001620000006200000124000000260000026200000224000002240000010301580159015a', '00000003000000012c00000001710000000172'),
    ('p(X) :- X > 1, \\+ q(X, _), r(f(X), [X | T], T)', '00520300040040000026000000620000006200000124000000100000016200000061000002620000032400000020000000630000046100000524000000a10000002400000026000001240000010201580154', '00000006000000012c000000013e000000025c2b000000017100000001720000000166'),
    ('p :- true', '000900000000000000', '00000000'),
    ('p(A) :- q(A) ; r(A)', '002403000400140000260000006200000061000001240000006100000224000000010141', '00000003000000013b00000001710000000172'),
    ('p(f(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31))', '0095000008000000845f00000000000000000000200800000108000002080000030800000408000005080000060800000708000008080000090800000a0800000b0800000c0800000d0800000e0800000f080000100800001108000012080000130800001408000015080000160800001708000018080000190800001a0800001b0800001c0800001d0800001e0800001f08000020', '00000021000000016600000002613000000002613100000002613200000002613300000002613400000002613500000002613600000002613700000002613800000002613900000003613130000000036131310000000361313200000003613133000000036131340000000361313500000003613136000000036131370000000361313800000003613139000000036132300000000361323100000003613232000000036132330000000361323400000003613235000000036132360000000361323700000003613238000000036132390000000361333000000003613331'),
    ('p([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32])', '009d0000080000008cdf0000000000000000000021100000001000000110000002100000031000000410000005100000061000000710000008100000091000000a1000000b1000000c1000000d1000000e1000000f100000101000001110000012100000131000001410000015100000161000001710000018100000191000001a1000001b1000001c1000001d1000001e1000001f10000020e0000000', '00000000'),
    ('p([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32 | T], T)', '00a402000c0000008c9f000000000000002400000000000021100000001000000110000002100000031000000410000005100000061000000710000008100000091000000a1000000b1000000c1000000d1000000e1000000f100000101000001110000012100000131000001410000015100000161000001710000018100000191000001a1000001b1000001c1000001d1000001e1000001f1000002026000000010154', '00000000'),
    ('p(f(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31, g(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31)))', '0121000008000001105f00000000000084000000200800000108000002080000030800000408000005080000060800000708000008080000090800000a0800000b0800000c0800000d0800000e0800000f080000100800001108000012080000130800001408000015080000160800001708000018080000190800001a0800001b0800001c0800001d0800001e0800001f08000020000000210800000108000002080000030800000408000005080000060800000708000008080000090800000a0800000b0800000c0800000d0800000e0800000f080000100800001108000012080000130800001408000015080000160800001708000018080000190800001a0800001b0800001c0800001d0800001e0800001f080000205f00002100000000', '000000220000000166000000026130000000026131000000026132000000026133000000026134000000026135000000026136000000026137000000026138000000026139000000036131300000000361313100000003613132000000036131330000000361313400000003613135000000036131360000000361313700000003613138000000036131390000000361323000000003613231000000036132320000000361323300000003613234000000036132350000000361323600000003613237000000036132380000000361323900000003613330000000036133310000000167'),
    ('p(X, [f(X, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31) | Y]) :- q(Y, X)', '00b6030014000c008826000000a10000005f000000000000002600000162000021240000012400000000000021240000000800000108000002080000030800000408000005080000060800000708000008080000090800000a0800000b0800000c0800000d0800000e0800000f080000100800001108000012080000130800001408000015080000160800001708000018080000190800001a0800001b0800001c0800001d0800001e0800001f080000200201580159', '000000220000000166000000026130000000026131000000026132000000026133000000026134000000026135000000026136000000026137000000026138000000026139000000036131300000000361313100000003613132000000036131330000000361313400000003613135000000036131360000000361313700000003613138000000036131390000000361323000000003613231000000036132320000000361323300000003613234000000036132350000000361323600000003613237000000036132380000000361323900000003613330000000036133310000000171'),
    ('p(\'hello world\', \'It\'\'s\', \'café\', "str")', '002900002000000000080000000800000108000002e3000000100000731000007410000072e0000000', '000000030000000b68656c6c6f20776f726c64000000044974277300000005636166c3a9'),
    ("'p q'(f(-(1)), - 1, a- -1)", '002900002000000000610000006100000110000001610000011000000162000001080000021fffffff', '000000030000000166000000012d0000000161'),
    ('p(f(X, Y, _, Z), [Z, Y, X])', '0038020028000000006400000026000000260000012000000026000002e3000000240000022400000124000000e00000000301580159015a', '000000010000000166'),
]

QUERY_STREAMS = [
    ('p(X, Y, X)', '270000002700000125000000', '', ('X', 'Y')),
    ('p(_, a, [X | T])', '2000000008000000a10000002700000027000001', '', ('X', 'T')),
    ('p(f(a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27, a28, a29, a30, a31), X)', '5f0000000000000027000000', '000000200800000108000002080000030800000408000005080000060800000708000008080000090800000a0800000b0800000c0800000d0800000e0800000f080000100800001108000012080000130800001408000015080000160800001708000018080000190800001a0800001b0800001c0800001d0800001e0800001f08000020', ('X',)),
    ('p(1.5, -3, Z)', '090000001ffffffd27000000', '', ('Z',)),
]

SHARED_TABLE_RECORDS = [
    ('p(a, b)', '0011000008000000000800000008000001'),
    ('q(b, c) :- p(c, a)', '001d010008000c00000800000108000002620000030800000208000000'),
    ('p(1.5, f(a))', '001500000c00000000090000046100000508000000'),
    ('r([b, 1.5 | X], X)', '002002001400000000a200000008000001090000042600000024000000010158'),
]
SHARED_TABLE = '00000006000000016100000001620000000163000000017001000003312e350000000166'

WAL_FRAMES = [
    (1, 'assertz', 'p(a, X)', None, '3a000000243b05fc01000000000000000000040075736572000009000000000000010000000161010070020014000014020008000000000800000026000000010158'),
    (7, 'retract', 'q(X) :- r(X, [a])', 'w-9', '5200000059b92142070000000000000002010400757365720300772d390e000000000000020000000172000000016101007101002400002403000400140000260000006200000024000000e100000008000001e0000000010158'),
]


def _clause(text):
    return clause_from_term(read_term(text))


@pytest.mark.parametrize(
    "text, record, table", CLAUSE_RECORDS, ids=[c[0][:40] for c in CLAUSE_RECORDS]
)
def test_golden_records(text, record, table):
    symbols = SymbolTable()
    written = clause_record(_clause(text), symbols)
    assert written.hex() == record
    assert symbols.to_bytes().hex() == table
    # compile_clause is the parse of that record.
    assert compile_clause(_clause(text), SymbolTable()) == CompiledClause.from_bytes(
        bytes.fromhex(record), _clause(text).indicator
    )[0]


def test_golden_records_into_one_table():
    symbols = SymbolTable()
    for text, record in SHARED_TABLE_RECORDS:
        assert clause_record(_clause(text), symbols).hex() == record
    assert symbols.to_bytes().hex() == SHARED_TABLE


@pytest.mark.parametrize("text, stream, heap, names", QUERY_STREAMS)
def test_golden_query_streams(text, stream, heap, names):
    encoded = PIFEncoder(SymbolTable(), side="query").encode_head(read_term(text))
    assert (encoded.stream.hex(), encoded.heap.hex(), encoded.var_names) == (
        stream, heap, names
    )


@pytest.mark.parametrize("seq, op, text, write_id, frame", WAL_FRAMES)
def test_golden_wal_frames(seq, op, text, write_id, frame):
    record = MutationRecord(seq, op, _clause(text), "user", write_id)
    assert encode_record(record).hex() == frame


def test_clause_file_images_are_the_records():
    clause_file = ClauseFile(("p", 1), SymbolTable())
    clause_file.append(_clause("p(b)"))
    clause_file.prepend(_clause("p(X) :- q(X, [X])"))
    clause_file.append(_clause("p(c)"))
    shadow = SymbolTable()  # interns in the order the file wrote
    fact_b, rule, fact_c = (
        clause_record(_clause(text), shadow)
        for text in ("p(b)", "p(X) :- q(X, [X])", "p(c)")
    )
    assert clause_file.to_bytes() == rule + fact_b + fact_c
    assert clause_file.record_addresses() == [
        0, len(rule), len(rule) + len(fact_b)
    ]
    assert clause_file.fact_count == 2
    assert [clause_file.decode_clause(i) for i in range(3)] == [
        _clause(text) for text in ("p(X) :- q(X, [X])", "p(b)", "p(c)")
    ]


# -- limits -----------------------------------------------------------------


def test_record_over_512_bytes():
    wide = ", ".join(f"a{i}" for i in range(31))
    clause = _clause(f"p([{wide}], [{wide}], [{wide}], [{wide}])")
    with pytest.raises(PIFError, match="512"):
        clause_record(clause, SymbolTable())
    just_under = _clause(f"p([{wide}], [{wide}], [{wide}])")
    assert len(clause_record(just_under, SymbolTable())) <= 512


def test_257th_variable():
    head = Struct("p", tuple(Var(f"V{i}") for i in range(257)))
    with pytest.raises(PIFError, match="256 distinct variables"):
        clause_record(Clause(head), SymbolTable())


def test_256_variables_hit_the_size_cap_first():
    head = Struct("p", tuple(Var(f"V{i}") for i in range(256)))
    with pytest.raises(PIFError, match="Result Memory slot"):
        clause_record(Clause(head), SymbolTable())


@pytest.mark.parametrize("value", [2**27, -(2**27) - 1, 2**40])
def test_integer_outside_28_bits(value):
    with pytest.raises(PIFError, match="28-bit"):
        clause_record(Clause(Struct("p", (Int(value),))), SymbolTable())


@pytest.mark.parametrize("value", [2**27 - 1, -(2**27)])
def test_integer_at_the_28_bit_edges(value):
    clause = Clause(Struct("p", (Int(value),)))
    symbols = SymbolTable()
    record = clause_record(clause, symbols)
    assert ClauseFile.from_image(("p", 1), symbols, bytes(record)).decode_clause(
        0
    ) == clause


def test_long_variable_name():
    clause = Clause(Struct("p", (Var("V" * 300),)))
    with pytest.raises(PIFError, match="255 bytes"):
        clause_record(clause, SymbolTable())


def test_full_symbol_table(monkeypatch):
    monkeypatch.setattr(symbols_module, "MAX_SYMBOLS", 2)
    symbols = SymbolTable()
    clause_record(_clause("p(a)"), symbols)
    with pytest.raises(SymbolTableFull):
        clause_record(_clause("p(b, c)"), symbols)


def test_head_must_be_callable():
    with pytest.raises(PIFError, match="callable"):
        PIFEncoder(SymbolTable()).encode_head(Int(3))


# -- round trip ---------------------------------------------------------------

_BODY_GOALS = st.lists(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda arity: clause_heads(functor="q", arity=arity)
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    arity=st.integers(min_value=0, max_value=4),
    args=st.lists(terms(max_depth=3), min_size=4, max_size=4),
    body=_BODY_GOALS,
)
def test_record_decodes_to_the_clause(arity, args, body):
    head = Struct("p", tuple(args[:arity])) if arity else Atom("p")
    clause = Clause(head, tuple(body))
    symbols = SymbolTable()
    try:
        record = clause_record(clause, symbols)
    except PIFError:
        assume(False)
    clause_file = ClauseFile.from_image(clause.indicator, symbols, bytes(record))
    assert clause_file.decode_clause(0) == clause
    compiled, end = CompiledClause.from_bytes(record, clause.indicator)
    assert end == len(record)
    # The head stream is the query-side encoder's, with DB variable tags.
    if not body:
        encoded = PIFEncoder(SymbolTable(), side="db").encode_head(head)
        assert encoded.stream == compiled.head_stream
        assert encoded.var_names == compiled.var_names
