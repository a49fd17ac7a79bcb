"""Terms in constructor form on every pickle hop, one atom per name.

Pickling carries every goal and result over the process backend's
worker pipe and every handed-over clause into a server process.  A
compound pickles as its flat pre-order tokens, everything else as its
constructor arguments, and an atom unpickles through a weak-valued
table, so a loaded knowledge base holds one :class:`Atom` per name.
The symbol table likewise hands out one atom per offset.
"""

import gc
import math
import pickle
import tracemalloc

import pytest

from repro.pif import PIFDecoder, PIFEncoder, SymbolTable
from repro.terms import (
    ANONYMOUS,
    NIL,
    Atom,
    Clause,
    Float,
    Int,
    Struct,
    Var,
    clause_from_term,
    make_list,
    read_term,
)
from repro.terms import term as term_module
from repro.workloads.synthetic import FactKBSpec, generate_facts


def round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


LONG_LIST = make_list([Int(i) for i in range(5000)])


@pytest.mark.parametrize(
    "value",
    [
        read_term("f(g(a, h(1, 2.5)), [x, y | T], 'hello world', -7)"),
        Struct("p", (Int(1), LONG_LIST)),
        Var("_"),
        Var("X"),
        Atom("[]"),
        Int(-(2**70)),
        Float(1.5),
        clause_from_term(read_term("p(X, [a]) :- q(X, _), r, s(f(X))")),
        Clause(Atom("go")),
        Clause(read_term("rec(a, b, c)")),
    ],
    ids=[
        "nested-struct",
        "5000-element-list",
        "anonymous-var",
        "named-var",
        "nil",
        "big-int",
        "float",
        "clause-with-body",
        "atom-fact",
        "fact",
    ],
)
def test_round_trip_equals_the_original(value):
    loaded = round_trip(value)
    assert loaded == value
    assert type(loaded) is type(value)
    assert hash(loaded) == hash(value)


def test_negative_zero_keeps_its_sign():
    loaded = round_trip(Float(-0.0))
    assert loaded == Float(-0.0)
    assert math.copysign(1.0, loaded.value) == -1.0


def test_nested_structs_pickle_flat():
    """The pickle names the rebuild function once and no ``Struct`` class."""
    blob = pickle.dumps(Struct("p", (Int(1), LONG_LIST)))
    assert blob.count(b"_struct_from_tokens") == 1
    assert b"Struct" not in blob


class ForgedClause:
    """Pickles as a clause whose head is not callable."""

    def __reduce__(self):
        return (Clause, (Int(3),))


def test_constructor_checks_run_on_load():
    with pytest.raises(ValueError, match="at least one argument"):
        term_module._struct_from_tokens(("f", 0))
    with pytest.raises(ValueError, match="missing arguments"):
        term_module._struct_from_tokens(("f", 2, Atom("a")))
    with pytest.raises(ValueError, match="callable"):
        pickle.loads(pickle.dumps(ForgedClause()))


def test_clause_is_slotted():
    assert not hasattr(Clause(Atom("go")), "__dict__")


def test_an_unpickled_atom_is_one_object_per_name():
    first = pickle.loads(pickle.dumps(Atom("x")))
    second = pickle.loads(pickle.dumps(Atom("x")))
    assert first is second
    assert round_trip(NIL) is NIL


def test_equal_atoms_stay_equal_whether_shared_or_not():
    made = Atom("x")
    loaded = round_trip(made)
    assert loaded == made and hash(loaded) == hash(made)
    goal = Struct("p", (made, Atom("x")))
    assert round_trip(goal).args[0] is round_trip(goal).args[1]


def test_the_intern_table_keeps_no_client_atom():
    gc.collect()
    table = term_module._INTERNED_ATOMS
    before = len(table)
    goal = Struct("p", (Atom("fresh_client_atom_61d0"), Var("X")))
    loaded = round_trip(goal)
    assert loaded == goal
    assert len(table) == before + 1
    del goal, loaded
    gc.collect()
    assert len(table) == before


class TestSymbolTableAtoms:
    @pytest.fixture
    def symbols(self):
        table = SymbolTable()
        table.intern_atom("rec")
        table.intern_float(2.5)
        table.intern_atom("hello")
        return table

    def test_one_atom_per_offset(self, symbols):
        offset = symbols.intern_atom("hello")
        assert symbols.atom_at(offset) is symbols.atom_at(offset)
        assert symbols.atom_at(offset) == Atom("hello")
        assert symbols.float_at(1) is symbols.float_at(1)

    def test_names_and_decodes_construct_no_atom(self, symbols, monkeypatch):
        encoded = PIFEncoder(symbols).encode_term(
            read_term("f(hello, [rec, 2.5], _, X)")
        )

        def refuse(self, name):
            raise AssertionError(f"Atom({name!r}) constructed")

        monkeypatch.setattr(Atom, "__init__", refuse)
        assert symbols.atom_name_at(0) == "rec"
        decoded = PIFDecoder(symbols).decode_term(encoded)
        assert decoded.args[0] is symbols.atom_at(2)
        assert decoded.args[2] is ANONYMOUS

    def test_a_round_tripped_table_reads_the_same(self, symbols):
        restored = SymbolTable.from_bytes(symbols.to_bytes())
        assert [restored.lookup(k) for k in range(3)] == [
            ("atom", "rec"),
            ("float", 2.5),
            ("atom", "hello"),
        ]
        with pytest.raises(KeyError, match="float, not an atom"):
            restored.atom_at(1)
        with pytest.raises(KeyError, match="atom, not a float"):
            restored.float_at(0)


#: The benchmark's fact KB: what a server process is handed at start.
BENCH_FACTS = FactKBSpec("rec", 3, 20000, domain_sizes=(2000, 40, 40))
MAX_RETAINED_PER_CLAUSE = 300
MAX_PEAK_BYTES = 12 << 20


def test_unpickling_the_bench_facts_stays_compact():
    """20 000 handed-over facts: ~200 B each retained, an ~8 MB peak.

    With dataclass-state pickling, one fresh atom per occurrence and a
    ``__dict__`` per clause the same load retained 567 B per clause and
    peaked at 25.6 MB.
    """
    blob = pickle.dumps(generate_facts(BENCH_FACTS), pickle.HIGHEST_PROTOCOL)
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        clauses = pickle.loads(blob)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(clauses) == BENCH_FACTS.count
    per_clause = (current - baseline) / len(clauses)
    assert per_clause <= MAX_RETAINED_PER_CLAUSE, f"{per_clause:.0f} B per clause"
    assert peak - baseline <= MAX_PEAK_BYTES, f"peak {(peak - baseline) >> 20} MB"
