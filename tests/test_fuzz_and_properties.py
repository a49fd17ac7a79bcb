"""Fuzzing and cross-cutting property tests.

These complement the per-module suites with adversarial inputs (random
bytes into decoders, random programs through the storage round-trip) and
end-to-end invariants over randomly generated knowledge bases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crs import ClauseRetrievalServer, SearchMode
from repro.pif import (
    ClauseFile,
    CompiledClause,
    PIFDecodeError,
    PIFDecoder,
    PIFError,
    SymbolTable,
)
from repro.pif.encoder import EncodedArgs
from repro.scw import CodewordScheme, SecondaryIndexFile
from repro.storage import KnowledgeBase, Residency
from repro.terms import Clause, ReaderError, read_program, rename_apart
from repro.unify import unifiable
from tests.strategies import clause_heads


class TestDecoderFuzz:
    @settings(max_examples=300)
    @given(st.binary(max_size=64))
    def test_decode_random_bytes_terminates_cleanly(self, blob):
        """Random bytes either decode or raise a decode-family error."""
        symbols = SymbolTable()
        symbols.intern_atom("a")
        encoded = EncodedArgs(indicator=("p", 1), stream=blob, heap=b"")
        decoder = PIFDecoder(symbols)
        try:
            decoder.decode_args(encoded)
        except (PIFDecodeError, ValueError, KeyError):
            pass  # rejection is the expected outcome for garbage

    @settings(max_examples=200)
    @given(st.binary(max_size=64), st.binary(max_size=32))
    def test_decode_random_heap(self, stream, heap):
        symbols = SymbolTable()
        encoded = EncodedArgs(indicator=("p", 1), stream=stream, heap=heap)
        try:
            PIFDecoder(symbols).decode_args(encoded)
        except (PIFDecodeError, ValueError, KeyError):
            pass

    @settings(max_examples=200)
    @given(st.binary(min_size=9, max_size=80))
    def test_record_from_random_bytes(self, blob):
        try:
            CompiledClause.from_bytes(blob, ("p", 1))
        except (PIFDecodeError, ValueError, KeyError, IndexError):
            pass


class TestReaderFuzz:
    @settings(max_examples=300)
    @given(st.text(max_size=40))
    def test_reader_terminates(self, text):
        """Arbitrary text parses or raises ReaderError — never hangs."""
        try:
            read_program(text)
        except ReaderError:
            pass


class TestStorageRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(clause_heads(arity=2), min_size=1, max_size=8))
    def test_clause_file_disk_roundtrip(self, heads):
        """Serialise a clause file, reload every record, decode, compare."""
        symbols = SymbolTable()
        clause_file = ClauseFile(("p", 2), symbols)
        kept = []
        for head in heads:
            try:
                clause_file.append(Clause(head))
                kept.append(head)
            except PIFError:
                pass  # oversized record
        image = clause_file.to_bytes()
        addresses = clause_file.record_addresses()
        decoder = PIFDecoder(symbols)
        for position, address in enumerate(addresses):
            record, _ = CompiledClause.from_bytes(image, ("p", 2), address)
            assert decoder.decode_head(record.head_encoded) == kept[position]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(clause_heads(arity=2), min_size=1, max_size=8))
    def test_index_image_matches_rebuilt(self, heads):
        symbols = SymbolTable()
        clause_file = ClauseFile(("p", 2), symbols)
        for head in heads:
            try:
                clause_file.append(Clause(head))
            except PIFError:
                pass
        if len(clause_file) == 0:
            return
        scheme = CodewordScheme(width=64)
        first = SecondaryIndexFile.build(clause_file, scheme)
        second = SecondaryIndexFile.build(clause_file, scheme)
        assert first.to_bytes() == second.to_bytes()


class TestModeEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(clause_heads(arity=2), min_size=2, max_size=10),
        clause_heads(arity=2),
    )
    def test_all_modes_agree(self, heads, query):
        """The four CRS modes return the same resolvent set, always."""
        kb = KnowledgeBase()
        kept = 0
        for head in heads:
            try:
                kb.add_clause(Clause(head), module="data")
                kept += 1
            except PIFError:
                pass
        if kept == 0:
            return
        kb.module("data").pin(Residency.DISK)
        kb.sync_to_disk()
        crs = ClauseRetrievalServer(kb)
        expected = {
            str(clause)
            for clause in kb.clauses(("p", 2))
            if unifiable(query, rename_apart(clause.head))
        }
        for mode in SearchMode:
            got = {str(c) for c, _ in crs.solutions(query, mode=mode)}
            assert got == expected, f"mode {mode} diverged"

    def test_incremental_index_equals_rebuild(self):
        """Appends through a live index must match a from-scratch build."""
        kb = KnowledgeBase()
        kb.consult_text("p(a). p(b).", module="data")
        store = kb.store(("p", 1))
        from repro.terms import read_term

        kb.assertz(read_term("p(c)"))
        kb.assertz(read_term("p(f(d))"))
        rebuilt = SecondaryIndexFile.build(store.clause_file, store.scheme)
        assert store.index.to_bytes() == rebuilt.to_bytes()
