"""The CLARE device: both filter boards behind one host interface.

"Both filtering stages, FS1 and FS2, appear in the form of plug-in
circuit boards.  A common address space from ffff7e00(hex) to
ffff7fff(hex) — 128k bytes in total — is shared by FS1 and FS2.  The two
filters are mutually exclusive.  The selection between the two is
governed by the third least significant bit, b2, of an 8-bit control
register" (paper section 2.2).

:class:`CLARE` owns the shared control register and enforces that mutual
exclusion: driving a board that is not selected raises
:class:`BoardNotSelected`, exactly as writes through the real window
would have reached the wrong board.
"""

from __future__ import annotations

from .fs2 import (
    ControlRegister,
    FS2SearchStats,
    FilterSelect,
    SecondStageFilter,
)
from .pif.symbols import SymbolTable
from .scw import CodewordScheme, FS1Hardware, FS1HardwareResult
from .terms import Term

__all__ = ["CLARE", "BoardNotSelected"]


class BoardNotSelected(RuntimeError):
    """An operation was issued to the board b2 does not select."""


class CLARE:
    """The two-board clause retrieval engine on one VME window."""

    def __init__(self, symbols: SymbolTable, scheme: CodewordScheme):
        self.control = ControlRegister()
        self.fs1 = FS1Hardware(scheme)
        self.fs2 = SecondStageFilter(symbols)
        # The FS2 carries its own control register internally; the device
        # owns the authoritative one and mirrors mode changes into it.
        self.fs2.control = self.control
        # The memory-mapped host view (mmap() of /dev/vme24d16).
        from .fs2.vme import VMEWindow

        self.window = VMEWindow(self.control, self.fs2.wcs, self.fs2.result)

    # -- board selection ------------------------------------------------------

    def select(self, which: FilterSelect) -> None:
        """Write b2: route the shared address window to one board."""
        self.control.select_filter(which)

    @property
    def selected(self) -> FilterSelect:
        return self.control.filter_select

    def _require(self, which: FilterSelect) -> None:
        if self.selected != which:
            raise BoardNotSelected(
                f"{which.name} operation issued while b2 selects "
                f"{self.selected.name}"
            )

    # -- FS1 operations ---------------------------------------------------------

    def fs1_set_query(self, query: Term) -> None:
        self._require(FilterSelect.FS1)
        self.fs1.set_query(query)

    def fs1_search(self, index_image: bytes) -> FS1HardwareResult:
        self._require(FilterSelect.FS1)
        result = self.fs1.stream(index_image)
        self.control.set_match_found(bool(result.addresses))
        return result

    # -- FS2 operations ---------------------------------------------------------

    def fs2_load_microprogram(self, program=None) -> None:
        self._require(FilterSelect.FS2)
        self.fs2.load_microprogram(program)

    def fs2_set_query(self, query: Term) -> None:
        self._require(FilterSelect.FS2)
        self.fs2.set_query(query)

    def fs2_search(
        self, records, indicator: tuple[str, int] | None = None
    ) -> FS2SearchStats:
        self._require(FilterSelect.FS2)
        return self.fs2.search(records, indicator=indicator)

    def fs2_read_results(self) -> list[bytes]:
        self._require(FilterSelect.FS2)
        return self.fs2.read_results()

    # -- the two-stage pipeline ---------------------------------------------------

    def two_stage_search(
        self,
        query: Term,
        index_image: bytes,
        fetch_records,
        indicator: tuple[str, int],
    ) -> tuple[FS1HardwareResult, FS2SearchStats, list[bytes]]:
        """Mode (d): FS1 over the index, FS2 over the candidates.

        ``fetch_records(addresses)`` maps FS1's candidate addresses to the
        clause records the disk would deliver (the CRS's job).  Returns
        the FS1 result, the FS2 stats and the satisfier records.
        """
        self.select(FilterSelect.FS1)
        self.fs1_set_query(query)
        fs1_result = self.fs1_search(index_image)
        records = fetch_records(fs1_result.addresses)
        self.select(FilterSelect.FS2)
        self.fs2_load_microprogram()
        self.fs2_set_query(query)
        fs2_stats = self.fs2_search(records, indicator=indicator)
        satisfiers = self.fs2_read_results()
        return fs1_result, fs2_stats, satisfiers
