"""The secondary index file: codewords + mask bits + clause addresses.

"For fast searching in large files, codewords are generated for facts and
rule heads and these are maintained in a secondary file.  The secondary
file is effectively an index table associating codewords with clause
addresses" (paper section 2.1).  Scanning this file is much cheaper than
scanning the compiled clause file itself — the size ratio is one of the
reproduction's benchmarks (E5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..pif.clausefile import ClauseFile
from ..terms import Term
from .bitsliced import BitSlicedIndex
from .codeword import Codeword, CodewordScheme

__all__ = ["IndexEntry", "SecondaryIndexFile"]

ADDRESS_BYTES = 4


@dataclass(frozen=True)
class IndexEntry:
    """One index record: the clause's codeword and its disk address."""

    codeword: Codeword
    address: int


class SecondaryIndexFile:
    """The SCW+MB index for one compiled clause file."""

    def __init__(self, scheme: CodewordScheme, indicator: tuple[str, int]):
        self.scheme = scheme
        self.indicator = indicator
        self._entries: list[IndexEntry] = []
        # The columnar view is built lazily on first use and then
        # maintained incrementally by :meth:`add`, so append-heavy loads
        # pay nothing until a columnar scan actually happens.
        self._bitsliced: BitSlicedIndex | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IndexEntry]:
        return iter(self._entries)

    def add(self, head: Term, address: int) -> IndexEntry:
        """Index one clause head at the given clause-file address."""
        entry = IndexEntry(self.scheme.clause_codeword(head), address)
        self._entries.append(entry)
        if self._bitsliced is not None:
            self._bitsliced.add(entry.codeword, entry.address)
        return entry

    @property
    def bitsliced(self) -> BitSlicedIndex:
        """The columnar view of this index (built lazily, kept in sync)."""
        if self._bitsliced is None:
            sliced = BitSlicedIndex(self.scheme)
            for entry in self._entries:
                sliced.add(entry.codeword, entry.address)
            self._bitsliced = sliced
        return self._bitsliced

    @classmethod
    def build(
        cls, clause_file: ClauseFile, scheme: CodewordScheme
    ) -> "SecondaryIndexFile":
        """Build the index for every clause in ``clause_file``.

        Heads come from the file's retained source clauses — the same
        heads :meth:`add` sees on incremental appends — so a bulk load
        compiles each clause once and never decodes it back.
        """
        index = cls(scheme, clause_file.indicator)
        addresses = clause_file.record_addresses()
        for position, address in enumerate(addresses):
            index.add(clause_file.source_clause(position).head, address)
        return index

    def scan(self, query: Codeword) -> list[int]:
        """Addresses of all clauses whose codeword matches ``query``."""
        matches = self.scheme.matches
        return [e.address for e in self._entries if matches(query, e.codeword)]

    def entry_at(self, position: int) -> IndexEntry:
        return self._entries[position]

    # -- size accounting ---------------------------------------------------

    def size_bytes(self) -> int:
        """Serialised index size (codeword + mask + address per entry)."""
        return len(self._entries) * self.scheme.entry_bytes(ADDRESS_BYTES)

    def to_bytes(self) -> bytes:
        """The on-disk image the FS1 hardware streams through."""
        out = bytearray()
        cw_bytes = self.scheme.codeword_bytes
        mask_bytes = self.scheme.mask_bytes
        mask_field = (1 << (mask_bytes * 8)) - 1
        for entry in self._entries:
            out += entry.codeword.bits.to_bytes(cw_bytes, "big")
            out += (entry.codeword.mask & mask_field).to_bytes(mask_bytes, "big")
            out += entry.address.to_bytes(ADDRESS_BYTES, "big")
        return bytes(out)
