"""The secondary index file: codewords + mask bits + clause addresses.

"For fast searching in large files, codewords are generated for facts and
rule heads and these are maintained in a secondary file.  The secondary
file is effectively an index table associating codewords with clause
addresses" (paper section 2.1).  Scanning this file is much cheaper than
scanning the compiled clause file itself — the size ratio is one of the
reproduction's benchmarks (E5).

A :class:`SecondaryIndexFile` *is* that file's image: one fixed-width
row per clause (codeword bits, mask bits, clause address, all
big-endian), parsed on demand, plus the bit-sliced columns FS1 scans,
derived from the rows on first use and spliced in step with them after
that.
"""

from __future__ import annotations

import sys
from array import array
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
    """The SCW+MB index for one compiled clause file.

    ``_rows`` is either a ``bytearray`` this index owns and grows, or a
    read-only buffer adopted by :meth:`from_image` (``bytes`` off a
    saved file, a ``memoryview`` over an mmap'd segment); the first
    mutation of an adopted index copies the rows (copy-on-write).
    """

    def __init__(self, scheme: CodewordScheme, indicator: tuple[str, int]):
        self.scheme = scheme
        self.indicator = indicator
        self._row_bytes = scheme.entry_bytes(ADDRESS_BYTES)
        self._mask_bits = 8 * scheme.mask_bytes
        self._rows: bytearray | bytes | memoryview = bytearray()
        #: the packed column image shipped beside adopted rows, if any:
        #: (bytes per column, columns, planes).
        self._packed: tuple[int, bytes, bytes] | None = None
        self._bitsliced: BitSlicedIndex | None = None

    @classmethod
    def from_image(
        cls,
        scheme: CodewordScheme,
        indicator: tuple[str, int],
        rows: bytes | memoryview,
        packed: tuple[int, bytes, bytes] | None = None,
    ) -> "SecondaryIndexFile":
        """Adopt a serialised index without copying or re-hashing it.

        ``packed`` is the :meth:`BitSlicedIndex.packed_columns` image of
        the same entries when the writer shipped one; without it the
        columns are derived from the rows on first use.
        """
        index = cls(scheme, indicator)
        if len(rows) % index._row_bytes:
            raise ValueError(
                f"index image of {len(rows)} bytes is not a whole number "
                f"of {index._row_bytes}-byte rows"
            )
        index._rows = rows
        index._packed = packed
        return index

    @classmethod
    def build(
        cls, clause_file: ClauseFile, scheme: CodewordScheme
    ) -> "SecondaryIndexFile":
        """Index every clause of ``clause_file`` from its decoded head.

        The from-scratch reference (and the fallback when a saved index
        is missing or stale): a live store never needs it, because
        :meth:`add` hashes each head as it is appended.
        """
        index = cls(scheme, clause_file.indicator)
        for position, address in enumerate(clause_file.record_addresses()):
            index.add(clause_file.decode_clause(position).head, address)
        return index

    def __len__(self) -> int:
        return len(self._rows) // self._row_bytes

    def __iter__(self) -> Iterator[IndexEntry]:
        return (self.entry_at(position) for position in range(len(self)))

    def entry_at(self, position: int) -> IndexEntry:
        """Row ``position``, parsed (bits and mask as stored)."""
        start = position * self._row_bytes
        mask_at = start + self.scheme.codeword_bytes
        address_at = mask_at + self.scheme.mask_bytes
        rows = self._rows
        return IndexEntry(
            Codeword(
                int.from_bytes(rows[start:mask_at], "big"),
                int.from_bytes(rows[mask_at:address_at], "big"),
            ),
            int.from_bytes(rows[address_at : start + self._row_bytes], "big"),
        )

    # -- mutation ----------------------------------------------------------

    def add(self, head: Term, address: int) -> None:
        """Index one clause head at the given clause-file address."""
        codeword, row = self._row(head, address)
        self._owned_rows().extend(row)
        if self._bitsliced is not None:
            self._bitsliced.add(codeword, address)

    def insert_front(self, head: Term, shift: int) -> None:
        """Index a clause spliced in before every other.

        ``shift`` is its record length: every other address grows by it.
        """
        codeword, row = self._row(head, 0)
        self._shift_addresses(0, shift)
        self._owned_rows()[0:0] = row
        if self._bitsliced is not None:
            self._bitsliced.insert_front(codeword, shift)

    def delete(self, position: int, shift: int) -> None:
        """Drop row ``position``; later addresses shrink by ``shift``."""
        self._shift_addresses(position + 1, -shift)
        start = position * self._row_bytes
        del self._owned_rows()[start : start + self._row_bytes]
        if self._bitsliced is not None:
            self._bitsliced.delete(position, shift)

    def _row(self, head: Term, address: int) -> tuple[Codeword, bytes]:
        """A head's codeword and its serialised row (mask cut to its field)."""
        codeword = self.scheme.clause_codeword(head)
        mask_bits = self._mask_bits
        fields = codeword.bits << mask_bits | codeword.mask & ((1 << mask_bits) - 1)
        return codeword, (fields << 8 * ADDRESS_BYTES | address).to_bytes(
            self._row_bytes, "big"
        )

    def _owned_rows(self) -> bytearray:
        """The rows as a buffer this index may resize (copy-on-write)."""
        if not isinstance(self._rows, bytearray):
            self._rows = bytearray(self._rows)
            self._packed = None  # describes the rows as adopted, not as mutated
        return self._rows

    def record_addresses(self) -> list[int]:
        """The clause-file address each row carries, in row order."""
        return self._addresses().tolist()

    def _addresses(self, first: int = 0) -> array:
        """The address column of rows ``first``.. as native integers."""
        start = first * self._row_bytes + self._row_bytes - ADDRESS_BYTES
        packed = bytearray((len(self) - first) * ADDRESS_BYTES)
        for byte in range(ADDRESS_BYTES):
            packed[byte::ADDRESS_BYTES] = self._rows[
                start + byte :: self._row_bytes
            ]
        addresses = array("I", packed)
        if sys.byteorder == "little":
            addresses.byteswap()
        return addresses

    def _shift_addresses(self, first: int, delta: int) -> None:
        """Add ``delta`` to the address field of every row from ``first``."""
        if first >= len(self):
            return
        addresses = array("I", [a + delta for a in self._addresses(first)])
        if sys.byteorder == "little":
            addresses.byteswap()
        packed = addresses.tobytes()
        rows = self._owned_rows()
        start = first * self._row_bytes + self._row_bytes - ADDRESS_BYTES
        for byte in range(ADDRESS_BYTES):
            rows[start + byte :: self._row_bytes] = packed[byte::ADDRESS_BYTES]

    # -- scanning ----------------------------------------------------------

    @property
    def bitsliced(self) -> BitSlicedIndex:
        """The columnar view FS1 scans (derived on first use, kept in sync)."""
        if self._bitsliced is None:
            if self._packed is not None:
                self._bitsliced = BitSlicedIndex.from_packed(
                    self.scheme, self._addresses(), *self._packed
                )
                self._packed = None
            else:
                sliced = BitSlicedIndex(self.scheme)
                for entry in self:
                    sliced.add(entry.codeword, entry.address)
                self._bitsliced = sliced
        return self._bitsliced

    def scan(self, query: Codeword) -> list[int]:
        """Addresses of all clauses whose codeword matches ``query``.

        The per-row reference the columnar scan is held against.
        """
        matches = self.scheme.matches
        return [e.address for e in self if matches(query, e.codeword)]

    # -- the image ---------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialised index size (codeword + mask + address per entry)."""
        return len(self._rows)

    def to_bytes(self) -> bytes:
        """The on-disk image the FS1 hardware streams through."""
        return bytes(self._rows)

    def shared_rows(self) -> bytes | memoryview:
        """The rows as a read-only buffer another index may adopt
        (:meth:`ClauseFile.shared_image`'s counterpart)."""
        if isinstance(self._rows, bytearray):
            self._rows = bytes(self._rows)
        return self._rows
