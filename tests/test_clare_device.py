"""Tests for the unified CLARE device (shared window, b2 selection)."""

import pytest

from repro.clare import CLARE, BoardNotSelected
from repro.fs2 import FilterSelect
from repro.pif import ClauseFile, CompiledClause, PIFDecoder, SymbolTable
from repro.scw import CodewordScheme, SecondaryIndexFile
from repro.terms import clause_from_term, read_term

SCHEME = CodewordScheme(width=64, bits_per_key=2)


@pytest.fixture
def setup():
    symbols = SymbolTable()
    clause_file = ClauseFile(("p", 2), symbols)
    for text in ["p(a, b)", "p(a, c)", "p(X, X)", "p(zz, ww)"]:
        clause_file.append(clause_from_term(read_term(text)))
    index = SecondaryIndexFile.build(clause_file, SCHEME)
    device = CLARE(symbols, SCHEME)
    return device, clause_file, index, symbols


class TestBoardSelection:
    def test_default_is_fs1(self, setup):
        device, *_ = setup
        assert device.selected == FilterSelect.FS1

    def test_fs2_op_while_fs1_selected(self, setup):
        device, *_ = setup
        with pytest.raises(BoardNotSelected):
            device.fs2_load_microprogram()

    def test_fs1_op_while_fs2_selected(self, setup):
        device, _, index, _ = setup
        device.select(FilterSelect.FS2)
        with pytest.raises(BoardNotSelected):
            device.fs1_set_query(read_term("p(a, X)"))

    def test_selection_is_b2(self, setup):
        device, *_ = setup
        device.select(FilterSelect.FS2)
        assert device.control.value & 0x04
        device.select(FilterSelect.FS1)
        assert not (device.control.value & 0x04)


class TestFS1Path:
    def test_search_and_status_bit(self, setup):
        device, clause_file, index, _ = setup
        device.fs1_set_query(read_term("p(a, X)"))
        result = device.fs1_search(index.to_bytes())
        assert len(result.addresses) >= 3  # p(a,b), p(a,c), p(X,X)
        assert device.control.match_found

    def test_no_match_clears_status(self):
        # A ground-only index (no variable clause to absorb everything).
        symbols = SymbolTable()
        clause_file = ClauseFile(("q", 1), symbols)
        clause_file.append(clause_from_term(read_term("q(apple)")))
        index = SecondaryIndexFile.build(clause_file, SCHEME)
        device = CLARE(symbols, SCHEME)
        device.fs1_set_query(read_term("q(nothing_like_this)"))
        device.fs1_search(index.to_bytes())
        assert not device.control.match_found


class TestFS2Path:
    def test_full_protocol(self, setup):
        device, clause_file, _, symbols = setup
        device.select(FilterSelect.FS2)
        device.fs2_load_microprogram()
        device.fs2_set_query(read_term("p(a, X)"))
        records = [bytes(clause_file.record_bytes(i)) for i in range(len(clause_file))]
        stats = device.fs2_search(records)
        assert stats.satisfiers == 3
        assert len(device.fs2_read_results()) == 3
        assert stats.clock_time_ns > 0

    def test_shared_control_register(self, setup):
        device, clause_file, _, _ = setup
        device.select(FilterSelect.FS2)
        device.fs2_load_microprogram()
        device.fs2_set_query(read_term("p(zz, ww)"))
        device.fs2_search([bytes(clause_file.record_bytes(3))])
        # The FS2's match-found lands in the device's register.
        assert device.control.match_found


class TestMemoryMappedView:
    def test_window_shares_control_register(self, setup):
        device, *_ = setup
        from repro.fs2 import CLARE_BASE_ADDRESS

        device.window.write(CLARE_BASE_ADDRESS, 0b0000_0100)  # b2 = FS2
        assert device.selected.name == "FS2"

    def test_microprogram_via_window(self, setup):
        device, clause_file, _, _ = setup
        from repro.fs2 import CLARE_BASE_ADDRESS, FilterSelect
        from repro.fs2.microcode import assemble_search_program

        program = assemble_search_program()
        device.window.load_program_words(program.words)
        device.fs2.wcs._map_rom = dict(program.map_rom)  # ROM is factory-set
        device.fs2._program = program
        device.select(FilterSelect.FS2)
        device.fs2_set_query(read_term("p(a, b)"))
        stats = device.fs2_search([bytes(clause_file.record_bytes(0))])
        assert stats.satisfiers == 1

    def test_results_readable_through_window(self, setup):
        device, clause_file, _, _ = setup
        from repro.fs2 import CLARE_BASE_ADDRESS, FilterSelect
        from repro.fs2.vme import RM_OFFSET

        device.select(FilterSelect.FS2)
        device.fs2_load_microprogram()
        device.fs2_set_query(read_term("p(a, b)"))
        record = bytes(clause_file.record_bytes(0))
        device.fs2_search([record])
        data = device.window.read_block(
            CLARE_BASE_ADDRESS + RM_OFFSET, len(record)
        )
        assert data == record


class TestTwoStagePipeline:
    def test_mode_d(self, setup):
        device, clause_file, index, symbols = setup
        addresses = clause_file.record_addresses()
        image = clause_file.to_bytes()
        lengths = {
            address: len(bytes(clause_file.record_bytes(i)))
            for i, address in enumerate(addresses)
        }

        def fetch(candidates):
            return [image[a : a + lengths[a]] for a in candidates]

        fs1_result, fs2_stats, satisfiers = device.two_stage_search(
            read_term("p(a, b)"), index.to_bytes(), fetch, ("p", 2)
        )
        # FS1 pruned at least the unrelated clause; FS2 then rejects both
        # p(a,c) (content) and p(X,X) (shared-variable inconsistency).
        assert fs1_result.entries_processed == 4
        assert fs2_stats.clauses_examined <= 3
        decoder = PIFDecoder(symbols)
        heads = set()
        for record in satisfiers:
            compiled, _ = CompiledClause.from_bytes(record, ("p", 2))
            heads.add(str(decoder.decode_head(compiled.head_encoded)))
        assert heads == {"p(a,b)"}
        assert device.selected == FilterSelect.FS2  # pipeline ends on FS2
