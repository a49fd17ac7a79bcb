"""Failure injection: malformed inputs, resource exhaustion, watchdogs."""

import pytest

from repro.disk import DiskFullError, DiskSim, DriveModel, DiskGeometry
from repro.fs2 import (
    FS2ProtocolError,
    ResultMemoryFull,
    SecondStageFilter,
    WCS_WORDS,
    WritableControlStore,
)
from repro.fs2.microcode import MicroProgram, assemble_search_program
from repro.pif import (
    PIFDecodeError,
    PIFDecoder,
    PIFEncoder,
    PIFError,
    SymbolTable,
    clause_record,
    compile_clause,
    scan_items,
)
from repro.pif.encoder import EncodedArgs
from repro.terms import Clause, Int, Struct, clause_from_term, read_term


class TestMalformedPIF:
    def test_truncated_item(self):
        with pytest.raises(PIFDecodeError):
            scan_items(b"\x08\x00")

    def test_truncated_extension(self):
        # A struct-pointer tag without its 4-byte extension.
        with pytest.raises(PIFDecodeError):
            scan_items(bytes([0x5F, 0, 0, 1]))

    def test_unassigned_tag(self):
        symbols = SymbolTable()
        encoded = EncodedArgs(
            indicator=("p", 1), stream=bytes([0x00, 0, 0, 0])
        )
        with pytest.raises(PIFDecodeError):
            PIFDecoder(symbols).decode_args(encoded)

    def test_dangling_symbol_reference(self):
        symbols = SymbolTable()
        encoded = EncodedArgs(
            indicator=("p", 1), stream=bytes([0x08, 0, 0, 99])
        )
        with pytest.raises(KeyError):
            PIFDecoder(symbols).decode_args(encoded)

    def test_heap_pointer_out_of_range(self):
        symbols = SymbolTable()
        symbols.intern_atom("f")
        stream = bytes([0x5F, 0, 0, 0]) + (999).to_bytes(4, "big")
        encoded = EncodedArgs(indicator=("p", 1), stream=stream, heap=b"")
        with pytest.raises(PIFDecodeError):
            PIFDecoder(symbols).decode_args(encoded)

    def test_heap_pointer_cycle(self):
        # A heap blob whose one element points back at the blob itself:
        # refused, not followed until the interpreter's stack runs out.
        symbols = SymbolTable()
        symbols.intern_atom("f")
        pointer = bytes([0x5F, 0, 0, 0]) + (0).to_bytes(4, "big")
        heap = (1).to_bytes(4, "big") + pointer
        encoded = EncodedArgs(indicator=("p", 1), stream=pointer, heap=heap)
        with pytest.raises(PIFDecodeError, match="heap pointer"):
            PIFDecoder(symbols).decode_args(encoded)

    def test_shared_heap_blob_is_bounded(self):
        # k heap levels, each blob holding two pointers to the one below:
        # a few hundred bytes that would decode to 2^k leaves.  Refused
        # once the blobs read exceed what the record's bytes could hold.
        symbols = SymbolTable()
        symbols.intern_atom("f")

        def pointer(blob):
            return bytes([0x5F, 0, 0, 0]) + blob.to_bytes(4, "big")

        heap = (1).to_bytes(4, "big") + bytes([0x08, 0, 0, 0])  # f
        below = 0
        for _ in range(18):
            top = len(heap)
            heap += (2).to_bytes(4, "big") + pointer(below) * 2
            below = top
        encoded = EncodedArgs(
            indicator=("p", 1), stream=pointer(below), heap=heap
        )
        assert len(heap) < 400
        with pytest.raises(PIFDecodeError, match="heap blobs"):
            PIFDecoder(symbols).decode_args(encoded)

    def test_arity_mismatch_detected(self):
        symbols = SymbolTable()
        encoder = PIFEncoder(symbols)
        encoded = encoder.encode_head(read_term("p(a)"))
        lying = EncodedArgs(
            indicator=("p", 2),  # claims two arguments, stream has one
            stream=encoded.stream,
            heap=encoded.heap,
        )
        with pytest.raises(PIFDecodeError):
            PIFDecoder(symbols).decode_head(lying)


class TestResourceLimits:
    def test_oversized_clause_rejected_at_append(self):
        symbols = SymbolTable()
        big = ", ".join(f"a{i}" for i in range(40))
        clause = clause_from_term(read_term(f"p([{big}], [{big}], [{big}], [{big}], [{big}])"))
        from repro.pif import ClauseFile

        clause_file = ClauseFile(("p", 5), symbols)
        with pytest.raises(PIFError):
            clause_file.append(clause)

    def test_result_memory_overflow_in_search(self):
        """More than 64 satisfiers in one FS2 search call overflows the RM."""
        symbols = SymbolTable()
        records = [
            bytes(clause_record(Clause(Struct("p", (Int(i),))), symbols))
            for i in range(65)
        ]
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("p(X)"))  # everything matches
        with pytest.raises(ResultMemoryFull):
            fs2.search(records)

    def test_crs_chunks_around_result_memory(self):
        """The CRS splits search calls so RM overflow cannot happen."""
        from repro.crs import ClauseRetrievalServer, SearchMode
        from repro.storage import KnowledgeBase, Residency

        kb = KnowledgeBase()
        kb.consult_text(" ".join(f"p({i})." for i in range(200)), module="data")
        kb.module("data").pin(Residency.DISK)
        kb.sync_to_disk()
        crs = ClauseRetrievalServer(kb)
        result = crs.retrieve(read_term("p(X)"), mode=SearchMode.FS2_ONLY)
        assert len(result.candidates) == 200
        assert result.stats.fs2_search_calls >= 4

    def test_disk_full(self):
        tiny = DriveModel(
            name="tiny",
            geometry=DiskGeometry(512, 2, 1, 1),
            transfer_rate_bytes_per_sec=1e6,
            average_seek_s=0.01,
            rpm=3600,
        )
        disk = DiskSim(tiny)
        disk.write_extent("a", b"\0" * 1000)
        with pytest.raises(DiskFullError):
            disk.write_extent("b", b"\0" * 100)

    def test_too_many_variables(self):
        symbols = SymbolTable()
        encoder = PIFEncoder(symbols)
        args = ", ".join(f"V{i}" for i in range(300))
        term = read_term(f"p({args})")
        with pytest.raises(PIFError):
            encoder.encode_head(term)


class TestProtocolAndWatchdog:
    def test_search_before_query(self):
        fs2 = SecondStageFilter(SymbolTable())
        fs2.load_microprogram()
        with pytest.raises(FS2ProtocolError):
            fs2.search([])

    def test_query_before_microprogram(self):
        fs2 = SecondStageFilter(SymbolTable())
        with pytest.raises(FS2ProtocolError):
            fs2.set_query(read_term("p(a)"))

    def test_match_before_query(self):
        symbols = SymbolTable()
        compiled = compile_clause(clause_from_term(read_term("p(a)")), symbols)
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        with pytest.raises(FS2ProtocolError):
            fs2.match_compiled(compiled)

    def test_watchdog_on_corrupt_microprogram(self):
        """A microprogram that never signals an outcome trips the watchdog."""
        symbols = SymbolTable()
        compiled = compile_clause(clause_from_term(read_term("p(a)")), symbols)
        fs2 = SecondStageFilter(symbols)
        looping = MicroProgram(
            words=(int(0x1) | (0 << 4),),  # JMP 0: infinite loop
            labels={"POLL": 0},
            map_rom=dict(assemble_search_program().map_rom),
        )
        fs2.load_microprogram(looping)
        fs2.set_query(read_term("p(a)"))
        with pytest.raises(RuntimeError, match="watchdog"):
            fs2.match_compiled(compiled)

    def test_oversized_program_rejected(self):
        wcs = WritableControlStore()
        huge = MicroProgram(
            words=tuple([0] * (WCS_WORDS + 1)), labels={}, map_rom={}
        )
        with pytest.raises(ValueError):
            wcs.load_program(huge)

    def test_corrupt_record_stream(self):
        """Garbage bytes in a record must fail loudly, not mismatch quietly."""
        symbols = SymbolTable()
        fs2 = SecondStageFilter(symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("p(a)"))
        good = bytes(clause_record(clause_from_term(read_term("p(a)")), symbols))
        corrupt = bytes([good[0], good[1], 0xFF]) + good[3:]
        with pytest.raises(Exception):
            fs2.search([corrupt])


class TestInterpreterLimits:
    def test_depth_limit(self, monkeypatch):
        from repro.engine import PrologError, PrologMachine, zipvm
        from repro.storage import KnowledgeBase

        kb = KnowledgeBase()
        kb.consult_text("loop(X) :- loop(X).")
        machine = PrologMachine(kb)
        # A runaway recursion trips the machine's step watchdog.
        monkeypatch.setattr(zipvm, "MAX_STEPS", 50)
        with pytest.raises(PrologError, match="50 steps"):
            machine.succeeds("loop(1)")
