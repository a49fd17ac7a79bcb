"""A bit-sliced (vertically partitioned) SCW+MB signature index.

The paper's FS1 matches codewords "in parallel, using standard PLAs and
MSI components" (section 4): every index entry streams past a matcher
that tests all codeword bits at once.  The software analogue of that
parallel matcher is the *bit-sliced signature file*: instead of one
record per clause (horizontal layout, :class:`~repro.scw.index.
SecondaryIndexFile`), the index stores one machine-word-packed *column*
per codeword bit position — column ``b`` holds entry ``j``'s bit ``b``
at position ``j`` — plus one packed plane per mask-bit position.

A query then costs ``O(popcount(query))`` big-integer ANDs over
``N``-bit columns instead of ``N`` per-entry match calls: for each
constrained query argument, the entries containing all of the
argument's bits are the AND of those bits' columns, the entries whose
mask absorbs the position are the mask plane, and the survivors are the
AND across arguments of (plane OR column-AND).  Python's arbitrary-
precision integers do the word-packing for free, so one AND touches 64
entries per machine word — the same data-parallelism the PLA matcher
gets from its wired comparators.

The result sets are *identical* to the naive scan by construction (the
property suite holds the two against each other), and the simulated
SCW+MB timing model is untouched: bit-slicing changes where the real
wall-clock goes, not what the modelled 1989 hardware would charge.

Entries are not only appended: when a clause is spliced out of (or in
front of) its file, :meth:`BitSlicedIndex.delete` /
:meth:`BitSlicedIndex.insert_front` splice one bit out of (or into)
every column and plane — a shift and two masks per big integer — and
re-address the entries behind it, leaving exactly the columns a
from-scratch build of the surviving entries would produce.
"""

from __future__ import annotations

import re
from array import array
from typing import Iterable, Iterator, Sequence

from .codeword import Codeword, CodewordScheme

__all__ = ["BitSlicedIndex"]

#: set-bit offsets of every byte value, for the survivor walk.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)
_NONZERO_BYTE = re.compile(rb"[^\x00]")


def _bit_positions(value: int) -> Iterable[int]:
    """Indices of the set bits of ``value``, ascending.

    Two big-integer operations per set bit: right for codeword-sized
    integers (``arg_bits``, ``Codeword.bits``), wrong for an N-entry
    survivor set — that walk is :meth:`BitSlicedIndex._enumerate`.
    """
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


class BitSlicedIndex:
    """Columnar SCW+MB index over one predicate's clause signatures.

    Entries are appended in clause-file order (the same order the
    horizontal index keeps), so survivor enumeration yields addresses in
    exactly the order :meth:`SecondaryIndexFile.scan` returns them.
    """

    def __init__(self, scheme: CodewordScheme):
        self.scheme = scheme
        #: one N-entry column per codeword bit position.
        self._columns = [0] * scheme.width
        #: one N-entry plane per encoded argument position.  Truncated
        #: clauses carry mask bits beyond ``max_args``; no query ever
        #: constrains those positions, so they get no plane.
        self._planes: list[int] = [0] * scheme.max_args
        self._addresses = array("I")
        self._occupied = 0  # (1 << len(self)) - 1, maintained incrementally

    def __len__(self) -> int:
        return len(self._addresses)

    def add(self, codeword: Codeword, address: int) -> None:
        """Append one entry's bits into the columns (clause-file order)."""
        self._set(codeword, 1 << len(self._addresses))
        self._addresses.append(address)
        self._occupied = self._occupied << 1 | 1

    def _set(self, codeword: Codeword, slot: int) -> None:
        for bit in _bit_positions(codeword.bits):
            self._columns[bit] |= slot
        encoded = (1 << self.scheme.max_args) - 1
        for position in _bit_positions(codeword.mask & encoded):
            self._planes[position] |= slot

    def insert_front(self, codeword: Codeword, shift: int) -> None:
        """Splice one entry in at slot 0, address 0.

        Every other entry moves up one slot (one bit spliced into each
        column) and its address grows by ``shift`` — the length of the
        record that was spliced in front of the clause file.
        """
        self._columns = [column << 1 for column in self._columns]
        self._planes = [plane << 1 for plane in self._planes]
        self._set(codeword, 1)
        self._addresses = array(
            "I", [0, *(address + shift for address in self._addresses)]
        )
        self._occupied = self._occupied << 1 | 1

    def delete(self, slot: int, shift: int) -> None:
        """Splice the entry at ``slot`` out of every column.

        Later entries move down one slot and their addresses shrink by
        ``shift`` — the length of the record cut from the clause file.
        """
        low = (1 << slot) - 1
        self._columns = [
            (column >> slot + 1) << slot | column & low
            for column in self._columns
        ]
        self._planes = [
            (plane >> slot + 1) << slot | plane & low for plane in self._planes
        ]
        addresses = self._addresses
        del addresses[slot]
        addresses[slot:] = array("I", [a - shift for a in addresses[slot:]])
        self._occupied >>= 1

    # -- segment export / attach -------------------------------------------

    def packed_columns(self) -> tuple[int, bytes, bytes]:
        """(bytes per column, columns image, planes image).

        The serialised form of the columnar index: each column (and each
        mask plane) as a little-endian fixed-width integer of
        ``ceil(N/8)`` bytes.  Written once into a shared segment;
        attaching rebuilds the index with :meth:`from_packed` by slicing
        the mmap — no clause decoding, no re-hashing.
        """
        nbytes = max(1, (len(self._addresses) + 7) // 8)
        columns = b"".join(c.to_bytes(nbytes, "little") for c in self._columns)
        planes = b"".join(p.to_bytes(nbytes, "little") for p in self._planes)
        return nbytes, columns, planes

    @classmethod
    def from_packed(
        cls,
        scheme: CodewordScheme,
        addresses: Sequence[int],
        column_bytes: int,
        columns: bytes,
        planes: bytes,
    ) -> "BitSlicedIndex":
        """Rebuild an index from its :meth:`packed_columns` image.

        ``columns``/``planes`` may be ``bytes`` or memoryviews over an
        mmap'd segment; each column is one ``int.from_bytes`` over its
        slice, so attaching costs O(width) conversions, not O(entries)
        decodes.
        """
        index = cls(scheme)
        index._columns = [
            int.from_bytes(
                columns[b * column_bytes : (b + 1) * column_bytes], "little"
            )
            for b in range(len(columns) // column_bytes)
        ]
        index._planes = [
            int.from_bytes(
                planes[p * column_bytes : (p + 1) * column_bytes], "little"
            )
            for p in range(len(planes) // column_bytes)
        ]
        index._addresses = array("I", addresses)
        index._occupied = (1 << len(index._addresses)) - 1
        return index

    # -- scanning ----------------------------------------------------------

    def scan(self, query: Codeword) -> list[int]:
        """Addresses matching ``query``: a batch of one."""
        return self.scan_batch([query])[0][0]

    def iter_scan(self, query: Codeword) -> Iterator[int]:
        """Lazily yield matching addresses, in clause-file order.

        Same result set as :meth:`scan`, but survivors are enumerated on
        demand so a consumer that stops early (or streams straight into
        FS2) never builds the intermediate address list.
        """
        (survivors,), _ = self._evaluate([query])
        return self._enumerate(survivors)

    def scan_batch(
        self, queries: Sequence[Codeword]
    ) -> tuple[list[list[int]], int]:
        """Per-query address lists (input order) and the columns touched.

        The one evaluator behind every scan; see :meth:`_evaluate`.
        """
        survivors, columns_touched = self._evaluate(queries)
        return [self._materialize(s) for s in survivors], columns_touched

    # -- internals ---------------------------------------------------------

    def _evaluate(self, queries: Sequence[Codeword]) -> tuple[list[int], int]:
        """Survivor bitsets of many query codewords, and the columns touched.

        For each constrained argument of a query, the entries holding all
        of its bits are the AND of those bits' columns; OR in the
        position's mask plane (a clause variable absorbs any constant)
        and AND across positions.  Once a query has no survivors its
        remaining ANDs are skipped.  The second value — the one
        definition of ``fs1.bitsliced.columns_touched`` — is the number
        of distinct columns the batch's constrained arguments name: what
        one pass over the index loads, however the batch is split.
        """
        full = self._occupied
        columns, planes = self._columns, self._planes
        named = 0  # union of every constrained argument's bits
        survivor_sets = []
        for query in queries:
            survivors = full
            for position, bits in enumerate(query.arg_bits):
                named |= bits
                if bits == 0 or not survivors:
                    continue
                contain = full
                for bit in _bit_positions(bits):
                    contain &= columns[bit]
                plane = planes[position] if position < len(planes) else 0
                survivors &= plane | contain
            survivor_sets.append(survivors)
        return survivor_sets, named.bit_count()

    def _enumerate(self, survivors: int) -> Iterator[int]:
        """Lazily yield the addresses of the set bits of ``survivors``.

        Walks the survivor integer's little-endian byte image and stops
        only at non-zero bytes (a C-level regex scan), so the cost is
        O(N/8) bytes scanned plus O(hits) — not :func:`_bit_positions`'
        two N-bit integer operations per hit.
        """
        addresses = self._addresses
        image = survivors.to_bytes((survivors.bit_length() + 7) >> 3, "little")
        for match in _NONZERO_BYTE.finditer(image):
            at = match.start()
            base = at << 3
            for bit in _BYTE_BITS[image[at]]:
                yield addresses[base + bit]

    def _materialize(self, survivors: int) -> list[int]:
        if survivors == self._occupied:
            # All entries survive (an all-variable query touches no
            # column): the answer is the address list in file order.
            return list(self._addresses)
        return list(self._enumerate(survivors))
