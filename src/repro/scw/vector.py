"""A vectorised (word-array) SCW+MB signature index.

The third FS1 backend (``mode="vector"``): the same columnar layout as
:class:`~repro.scw.bitsliced.BitSlicedIndex` — one N-entry bit column
per codeword position, one packed plane per mask position — but stored
as C-contiguous little-endian ``uint64`` word arrays instead of Python
big integers.  A scan is then a handful of vectorised AND/OR reductions
across all N entries at once (numpy when importable), and
:meth:`scan_batch` stacks K query accumulators into one 2-D broadcast
over the shared columns.

numpy is an *optional accelerator*, never a requirement: when it cannot
be imported (or has been monkeypatched away by the fallback test
backend), the same word arrays live in ``array('Q')`` buffers and the
reductions run as per-word Python loops — slower than the big-int
engine, but byte-identical in layout and result, which is what the
no-numpy CI job proves.

The packed byte layout is the big-int engine's ``packed_columns`` image
(little-endian words, 8-byte aligned columns), so a worker process can
attach either representation over the *same* mmap'd ``.cols`` segment:
the numpy path is one zero-copy ``np.frombuffer(...).reshape`` over the
map.  Survivor enumeration stays lazy (:meth:`iter_scan`), and the
eager :meth:`scan` enumerates only the non-zero survivor words, so a
selective query over a huge predicate never walks the full bitmap.

Result sets, ordering, and the modelled 1989 SCW+MB accounting are
identical to the naive and big-int engines by construction; the
property suite in ``tests/test_vector.py`` holds all three against each
other under both backends.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, Sequence

from .codeword import Codeword, CodewordScheme

__all__ = ["VectorSlicedIndex", "have_numpy"]

WORD_BITS = 64
WORD_BYTES = 8
_FULL_WORD = (1 << WORD_BITS) - 1
_BIG_ENDIAN_HOST = sys.byteorder == "big"


def _numpy():
    """numpy, or None when it cannot import — resolved on first call.

    The optional accelerator is bound to the module global ``_np`` the
    first time a vector index is built (or anyone asks), not at import:
    a server on the default ``bitsliced`` engine never loads it.  The
    ``array('Q')`` fallback covers its absence.
    """
    global _np
    try:
        return _np
    except NameError:
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - the no-numpy CI job
            _np = None
        return _np


def __getattr__(name: str):
    # PEP 562: ``vector._np`` read from outside (the tests' both-backends
    # fixture monkeypatches it) resolves the lazy binding the same way.
    if name == "_np":
        return _numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def have_numpy() -> bool:
    """Whether the numpy fast path is active for new indexes."""
    return _numpy() is not None


def _bit_positions(value: int):
    """Indices of the set bits of ``value``, ascending."""
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


def _pad_to_words(image, column_bytes: int, count: int) -> bytes:
    """Re-pack ``count`` columns of ``column_bytes`` each to whole words.

    Columns are little-endian integers, so zero-padding each one up to
    the next 8-byte boundary is value-preserving.  Used only for legacy
    (unaligned) images; the current packers always emit aligned columns.
    """
    words_per = max(1, (column_bytes + WORD_BYTES - 1) // WORD_BYTES)
    out = bytearray(count * words_per * WORD_BYTES)
    for i in range(count):
        chunk = image[i * column_bytes : (i + 1) * column_bytes]
        start = i * words_per * WORD_BYTES
        out[start : start + column_bytes] = chunk
    return bytes(out)


class VectorSlicedIndex:
    """Columnar SCW+MB index over ``uint64`` word arrays.

    Same surface and same results as :class:`BitSlicedIndex`; entries
    append in clause-file order, so enumeration yields addresses exactly
    as the naive scan returns them.  The backend (numpy vs ``array``)
    is chosen per instance at construction time from module state
    (numpy is first imported here, never at module import), which keeps
    the fallback testable by monkeypatching ``vector._np``.
    """

    def __init__(self, scheme: CodewordScheme):
        self.scheme = scheme
        self._np = _numpy()
        self._count = 0
        self._addresses: list[int] = []
        self._addr_cache = None  # numpy address array, rebuilt on append
        self._cap = 1  # capacity in words per column
        self._writable = True
        if self._np is not None:
            np = self._np
            self._cols = np.zeros((scheme.width, self._cap), dtype="<u8")
            self._planes = np.zeros((scheme.max_args, self._cap), dtype="<u8")
        else:
            self._cols = [array("Q", [0]) for _ in range(scheme.width)]
            self._planes = [array("Q", [0]) for _ in range(scheme.max_args)]

    def __len__(self) -> int:
        return self._count

    @property
    def backend(self) -> str:
        """``"numpy"`` or ``"array"`` — which engine this instance runs."""
        return "numpy" if self._np is not None else "array"

    # -- building ----------------------------------------------------------

    def _nwords(self) -> int:
        return (self._count + WORD_BITS - 1) // WORD_BITS

    def _n_planes(self) -> int:
        if self._np is not None:
            return self._planes.shape[0]
        return len(self._planes)

    def _thaw(self) -> None:
        """Copy attached (read-only) buffers into writable storage."""
        if self._writable:
            return
        if self._np is not None:
            np = self._np
            self._cols = np.array(self._cols, dtype="<u8")
            self._planes = np.array(self._planes, dtype="<u8")
        else:
            self._cols = [array("Q", c) for c in self._cols]
            self._planes = [array("Q", p) for p in self._planes]
        self._writable = True

    def _ensure_capacity(self, words: int) -> None:
        if words <= self._cap:
            return
        new_cap = max(words, self._cap * 2)
        if self._np is not None:
            np = self._np
            cols = np.zeros((self._cols.shape[0], new_cap), dtype="<u8")
            cols[:, : self._cap] = self._cols
            planes = np.zeros((self._planes.shape[0], new_cap), dtype="<u8")
            planes[:, : self._cap] = self._planes
            self._cols, self._planes = cols, planes
        else:
            pad = array("Q", [0]) * (new_cap - self._cap)
            for column in self._cols:
                column.extend(pad)
            for plane in self._planes:
                plane.extend(pad)
        self._cap = new_cap

    def _grow_planes(self, n_planes: int) -> None:
        """Truncated clauses carry mask bits beyond ``max_args``."""
        if self._np is not None:
            np = self._np
            grown = np.zeros((n_planes, self._cap), dtype="<u8")
            grown[: self._planes.shape[0]] = self._planes
            self._planes = grown
        else:
            while len(self._planes) < n_planes:
                self._planes.append(array("Q", [0]) * self._cap)

    def add(self, codeword: Codeword, address: int) -> None:
        """Append one entry's bits into the word columns."""
        self._thaw()
        word, bit = divmod(self._count, WORD_BITS)
        self._ensure_capacity(word + 1)
        if self._np is not None:
            mask = self._np.uint64(1 << bit)
            cols = self._cols
            for b in _bit_positions(codeword.bits):
                cols[b, word] |= mask
            for p in _bit_positions(codeword.mask):
                if p >= self._planes.shape[0]:
                    self._grow_planes(p + 1)
                self._planes[p, word] |= mask
        else:
            mask = 1 << bit
            for b in _bit_positions(codeword.bits):
                self._cols[b][word] |= mask
            for p in _bit_positions(codeword.mask):
                if p >= len(self._planes):
                    self._grow_planes(p + 1)
                self._planes[p][word] |= mask
        self._addresses.append(address)
        self._addr_cache = None
        self._count += 1

    @classmethod
    def from_entries(cls, scheme: CodewordScheme, entries) -> "VectorSlicedIndex":
        """Bulk-build from ``IndexEntry`` rows (one pack pass, no per-add
        word stores — much faster than N :meth:`add` calls)."""
        columns = [0] * scheme.width
        planes = [0] * scheme.max_args
        addresses: list[int] = []
        for entry in entries:
            slot = 1 << len(addresses)
            for b in _bit_positions(entry.codeword.bits):
                columns[b] |= slot
            for p in _bit_positions(entry.codeword.mask):
                if p >= len(planes):
                    planes.extend([0] * (p + 1 - len(planes)))
                planes[p] |= slot
            addresses.append(entry.address)
        nbytes = max(1, (len(addresses) + WORD_BITS - 1) // WORD_BITS) * WORD_BYTES
        packed_cols = b"".join(c.to_bytes(nbytes, "little") for c in columns)
        packed_planes = b"".join(p.to_bytes(nbytes, "little") for p in planes)
        index = cls.from_packed(scheme, addresses, nbytes, packed_cols, packed_planes)
        # Bulk construction still yields a mutable index (the attached
        # zero-copy path stays frozen; this one owns private bytes, but
        # add() thaws either way, so just flag it writable after a copy).
        index._thaw()
        return index

    # -- segment export / attach -------------------------------------------

    def packed_columns(self) -> tuple[int, bytes, bytes]:
        """(bytes per column, columns image, planes image).

        Byte-for-byte the format :meth:`BitSlicedIndex.packed_columns`
        emits: little-endian fixed-width columns, 8-byte aligned.
        """
        nwords = max(1, self._nwords())
        if self._np is not None:
            np = self._np
            cols = np.ascontiguousarray(self._cols[:, :nwords], dtype="<u8")
            planes = np.ascontiguousarray(self._planes[:, :nwords], dtype="<u8")
            return nwords * WORD_BYTES, cols.tobytes(), planes.tobytes()

        def image(rows) -> bytes:
            chunks = []
            for row in rows:
                words = row[:nwords]
                if len(words) < nwords:
                    words = words + array("Q", [0]) * (nwords - len(words))
                if _BIG_ENDIAN_HOST:  # pragma: no cover - x86/arm are LE
                    words = array("Q", words)
                    words.byteswap()
                chunks.append(words.tobytes())
            return b"".join(chunks)

        return nwords * WORD_BYTES, image(self._cols), image(self._planes)

    @classmethod
    def from_packed(
        cls,
        scheme: CodewordScheme,
        addresses: Sequence[int],
        column_bytes: int,
        columns,
        planes,
    ) -> "VectorSlicedIndex":
        """Rebuild from a :meth:`packed_columns` image (or a memoryview
        over an mmap'd ``.cols`` segment).

        With numpy and 8-byte-aligned columns the attach is **zero
        copy**: one ``np.frombuffer`` + ``reshape`` over the existing
        buffer, so N workers over one shard share the kernel's pages.
        Unaligned (legacy) images are re-packed; the array fallback
        copies into ``array('Q')`` rows either way.
        """
        if column_bytes <= 0:
            raise ValueError("column_bytes must be positive")
        index = cls(scheme)
        n_cols = len(columns) // column_bytes
        n_planes = len(planes) // column_bytes
        aligned = column_bytes % WORD_BYTES == 0
        words_per = max(1, (column_bytes + WORD_BYTES - 1) // WORD_BYTES)
        if index._np is not None:
            np = index._np
            if not aligned:
                columns = _pad_to_words(columns, column_bytes, n_cols)
                planes = _pad_to_words(planes, column_bytes, n_planes)
            cols2d = np.frombuffer(columns, dtype="<u8")
            index._cols = cols2d.reshape(n_cols, words_per)
            if n_planes:
                index._planes = np.frombuffer(planes, dtype="<u8").reshape(
                    n_planes, words_per
                )
            else:
                index._planes = np.zeros((0, words_per), dtype="<u8")
            index._writable = False
        else:

            def rows(image, count: int) -> list[array]:
                if not aligned:
                    image = _pad_to_words(image, column_bytes, count)
                    row_bytes = words_per * WORD_BYTES
                else:
                    row_bytes = column_bytes
                out = []
                for i in range(count):
                    row = array("Q")
                    row.frombytes(bytes(image[i * row_bytes : (i + 1) * row_bytes]))
                    if _BIG_ENDIAN_HOST:  # pragma: no cover
                        row.byteswap()
                    out.append(row)
                return out

            index._cols = rows(columns, n_cols)
            index._planes = rows(planes, n_planes)
            index._writable = False
        index._cap = words_per
        index._addresses = list(addresses)
        index._count = len(index._addresses)
        return index

    # -- scanning ----------------------------------------------------------

    def scan(self, query: Codeword) -> list[int]:
        """Addresses matching ``query`` — identical to the naive scan."""
        survivors, _ = self._survivors(query)
        return self._materialize(survivors)

    def scan_info(self, query: Codeword) -> tuple[list[int], int]:
        """(matching addresses, distinct columns touched) for one query."""
        survivors, columns_touched = self._survivors(query)
        return self._materialize(survivors), columns_touched

    def iter_scan(self, query: Codeword) -> Iterator[int]:
        """Lazily yield matching addresses, in clause-file order."""
        survivors, _ = self._survivors(query)
        return self._enumerate(survivors)

    def scan_batch(
        self, queries: Sequence[Codeword]
    ) -> tuple[list[list[int]], int]:
        """K queries against one pass over the columns.

        Under numpy the per-(query, argument) accumulators are rows of
        one 2-D matrix seeded with the occupancy words; every distinct
        column the batch needs is folded into all of its sink rows with
        one broadcast AND.  Returns (per-query address lists in input
        order, distinct columns touched) — the same accounting the
        big-int engine reports.
        """
        if self._np is not None:
            return self._scan_batch_np(queries)
        wanted: set[int] = set()
        for query in queries:
            for bits in query.arg_bits:
                wanted.update(_bit_positions(bits))
        return [self.scan(query) for query in queries], len(wanted)

    # -- internals: numpy engine -------------------------------------------

    def _survivors_np(self, query: Codeword):
        np = self._np
        n = self._nwords()
        cols = self._cols
        planes = self._planes
        n_planes = planes.shape[0]
        survivors = None
        columns_touched = 0
        tmp = np.empty(n, dtype="<u8")
        merged = np.empty(n, dtype="<u8")
        for position, bits in enumerate(query.arg_bits):
            if bits == 0:
                continue  # query imposes no constraint here
            contain = None
            for bit in _bit_positions(bits):
                columns_touched += 1
                row = cols[bit, :n]
                if contain is None:
                    contain = row
                else:
                    contain = np.bitwise_and(contain, row, out=tmp)
            if position < n_planes:
                contain = np.bitwise_or(planes[position, :n], contain, out=merged)
            if survivors is None:
                survivors = contain.copy()
            else:
                np.bitwise_and(survivors, contain, out=survivors)
            if not survivors.any():
                break
        return survivors, columns_touched

    def _addr_array(self):
        if self._addr_cache is None:
            self._addr_cache = self._np.asarray(self._addresses, dtype=self._np.int64)
        return self._addr_cache

    def _enumerate_words_np(self, survivors) -> list[int]:
        """Survivor addresses via sparse word enumeration.

        Only the non-zero survivor words are unpacked: ``nonzero`` over
        the word array (64 entries per element), then one compacted
        ``unpackbits`` over just those words.  A selective scan of a
        100k-entry predicate touches a handful of words, not 100k bits.
        """
        np = self._np
        nzw = np.nonzero(survivors)[0]
        if len(nzw) == 0:
            return []
        packed = np.ascontiguousarray(survivors[nzw])
        bits = np.unpackbits(
            packed.view(np.uint8), bitorder="little"
        ).reshape(len(nzw), WORD_BITS)
        rows, bit = np.nonzero(bits)
        positions = (nzw[rows].astype(np.int64) << 6) + bit
        return self._addr_array()[positions].tolist()

    def _occupied_np(self, n: int):
        np = self._np
        occupied = np.zeros(n, dtype="<u8")
        full, rem = divmod(self._count, WORD_BITS)
        occupied[:full] = np.uint64(_FULL_WORD)
        if rem:
            occupied[full] = np.uint64((1 << rem) - 1)
        return occupied

    def _scan_batch_np(self, queries: Sequence[Codeword]):
        np = self._np
        n = self._nwords()
        # accumulator row per constrained (query, position); wanted maps
        # each distinct column to the rows it folds into.
        acc_of: dict[tuple[int, int], int] = {}
        wanted: dict[int, list[int]] = {}
        constrained: list[list[int]] = []
        for q, query in enumerate(queries):
            positions = []
            for p, bits in enumerate(query.arg_bits):
                if bits == 0:
                    continue
                positions.append(p)
                acc_of[(q, p)] = len(acc_of)
                for bit in _bit_positions(bits):
                    wanted.setdefault(bit, []).append(acc_of[(q, p)])
            constrained.append(positions)
        if not acc_of:
            return [list(self._addresses) for _ in queries], 0
        contain = np.tile(self._occupied_np(n), (len(acc_of), 1))
        for bit, sinks in wanted.items():
            column = self._cols[bit, :n]
            rows = np.asarray(sinks, dtype=np.intp)
            contain[rows] &= column
        n_planes = self._planes.shape[0]
        results: list[list[int]] = []
        for q, positions in enumerate(constrained):
            if not positions:
                results.append(list(self._addresses))
                continue
            survivors = None
            for p in positions:
                row = contain[acc_of[(q, p)]]
                if p < n_planes:
                    row = row | self._planes[p, :n]
                survivors = row if survivors is None else survivors & row
                if not survivors.any():
                    break
            results.append(self._enumerate_words_np(survivors))
        return results, len(wanted)

    # -- internals: array('Q') fallback ------------------------------------

    def _survivors_py(self, query: Codeword):
        n = self._nwords()
        cols = self._cols
        planes = self._planes
        survivors = None
        columns_touched = 0
        for position, bits in enumerate(query.arg_bits):
            if bits == 0:
                continue
            positions = list(_bit_positions(bits))
            columns_touched += len(positions)
            contain = array("Q", cols[positions[0]][:n])
            for b in positions[1:]:
                column = cols[b]
                for w in range(n):
                    contain[w] &= column[w]
            if position < len(planes):
                plane = planes[position]
                for w in range(n):
                    contain[w] |= plane[w]
            if survivors is None:
                survivors = contain
            else:
                for w in range(n):
                    survivors[w] &= contain[w]
            if not any(survivors):
                break
        return survivors, columns_touched

    # -- internals: shared --------------------------------------------------

    def _survivors(self, query: Codeword):
        if self._np is not None:
            return self._survivors_np(query)
        return self._survivors_py(query)

    def _iter_words(self, survivors) -> Iterator[int]:
        addresses = self._addresses
        words = survivors.tolist() if self._np is not None else list(survivors)
        for w, word in enumerate(words):
            base = w << 6
            while word:
                low = word & -word
                yield addresses[base + low.bit_length() - 1]
                word ^= low

    def _enumerate(self, survivors) -> Iterator[int]:
        if survivors is None:
            yield from self._addresses
        else:
            yield from self._iter_words(survivors)

    def _materialize(self, survivors) -> list[int]:
        if survivors is None:
            # No constrained positions: everything survives, in order.
            return list(self._addresses)
        if self._np is not None:
            return self._enumerate_words_np(survivors)
        return list(self._iter_words(survivors))
