"""mmap-backed read-only clause segments shared across processes.

The multi-core data plane (ROADMAP item 2) hosts each shard's engine in
a worker *process*; the shard's clause records and its bit-sliced SCW
columns are serialised **once** by the parent into a segment directory
and every worker attaches with ``mmap`` — the kernel shares the pages,
so N workers over one shard cost one copy of the knowledge base, and
record fetches inside a worker are ``memoryview`` slices of the map
(zero-copy all the way into the FS2 byte-walk).

Segment directory layout (one per shard), a superset of the
:mod:`repro.storage.persist` format:

* ``symbols.bin`` — the shared symbol table image;
* ``manifest.txt`` — scheme parameters, module residency pins, and one
  ``predicate`` line per store (name, arity, module, file stem, record
  count);
* ``<stem>.clauses`` — the predicate's concatenated record image (the
  same bytes CLARE streams);
* ``<stem>.addr`` — ``u32 count`` then ``count`` × (``u32 address``,
  ``u32 length``): the record address table, so attach is O(1) per
  record instead of a parse walk;
* ``<stem>.index`` — the horizontal SCW+MB index image
  (:meth:`~repro.scw.index.SecondaryIndexFile.to_bytes`);
* ``<stem>.cols`` — the bit-sliced columns: a ``u32×4`` header
  (entries, bytes per column, columns, planes) followed by the packed
  column and plane integers (:meth:`~repro.scw.bitsliced.
  BitSlicedIndex.packed_columns`); attaching rebuilds the
  :class:`~repro.scw.bitsliced.BitSlicedIndex` with one
  ``int.from_bytes`` per column — no clause decoding, no re-hashing.

Mutability: segments are immutable.  A worker that must mutate a
predicate first *materialises* it — decodes the shared records into a
private :class:`~repro.pif.ClauseFile` under a fresh generation — and
mutates that copy (copy-on-write per predicate).  Decoded-clause caches
key on (generation, address), and generation ids are process-local, so
no cross-process invalidation protocol is needed: the parent forwards
each mutation to the owning worker, and both sides' caches roll over
independently.
"""

from __future__ import annotations

import mmap
import pathlib
import struct
from functools import cached_property
from typing import Iterator

from ..obs import Instrumentation
from ..pif import ClauseFile, CompiledClause, SymbolTable
from ..pif.clausefile import decode_compiled, next_generation, record_is_fact
from ..scw import CodewordScheme, SecondaryIndexFile
from ..scw.bitsliced import BitSlicedIndex
from ..scw.codeword import Codeword
from ..scw.index import ADDRESS_BYTES, IndexEntry
from ..storage import KnowledgeBase
from ..storage.kb import PredicateStore
from ..storage.persist import _assign_stems
from ..terms import Clause

__all__ = [
    "SegmentError",
    "SharedClauseFile",
    "SharedIndex",
    "SharedKnowledgeBase",
    "attach_kb",
    "write_segments",
]

_MANIFEST = "manifest.txt"
_SYMBOLS = "symbols.bin"
_COLS_HEADER = struct.Struct("<IIII")
_ADDR_COUNT = struct.Struct("<I")
_ADDR_PAIR = struct.Struct("<II")


class SegmentError(RuntimeError):
    """Raised on malformed or missing segment files."""


# -- export ----------------------------------------------------------------


def write_segments(kb: KnowledgeBase, directory: str | pathlib.Path) -> list[str]:
    """Serialise ``kb`` into a segment directory; returns files written.

    Called once per shard by the parent before spawning workers.  The
    clause images, address tables, horizontal index and packed bit-sliced
    columns are all written from the in-memory structures — workers never
    recompute them.
    """
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    stems = _assign_stems(kb)

    (path / _SYMBOLS).write_bytes(kb.symbols.to_bytes())
    written.append(_SYMBOLS)

    lines = [
        f"scheme\t{kb.scheme.width}\t{kb.scheme.bits_per_key}\t"
        f"{kb.scheme.max_args}\t{kb.scheme.max_depth}"
    ]
    for module in kb.modules():
        pin = module.pinned_residency or "-"
        lines.append(
            f"module\t{module.name}\t{module.large_threshold_bytes}\t{pin}"
        )
    for store in kb:
        name, arity = store.indicator
        stem = stems[store.indicator]
        clause_file = store.clause_file
        count = len(clause_file)
        lines.append(
            f"predicate\t{name}\t{arity}\t{store.module_name}\t{stem}\t{count}"
        )

        (path / f"{stem}.clauses").write_bytes(clause_file.to_bytes())
        written.append(f"{stem}.clauses")

        addresses = clause_file.record_addresses()
        lengths = clause_file.record_lengths()
        addr = bytearray(_ADDR_COUNT.pack(count))
        for address, length in zip(addresses, lengths):
            addr += _ADDR_PAIR.pack(address, length)
        (path / f"{stem}.addr").write_bytes(bytes(addr))
        written.append(f"{stem}.addr")

        (path / f"{stem}.index").write_bytes(store.index.to_bytes())
        written.append(f"{stem}.index")

        sliced = store.index.bitsliced
        column_bytes, columns, planes = sliced.packed_columns()
        cols = (
            _COLS_HEADER.pack(
                count,
                column_bytes,
                len(columns) // column_bytes,
                len(planes) // column_bytes,
            )
            + columns
            + planes
        )
        (path / f"{stem}.cols").write_bytes(cols)
        written.append(f"{stem}.cols")
    (path / _MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(_MANIFEST)
    return written


# -- shared read-only views -------------------------------------------------


class SharedClauseFile:
    """A read-only :class:`~repro.pif.ClauseFile` view over an mmap.

    Implements the full read surface of ``ClauseFile`` (lengths, spans,
    record/decode accessors, serialisation) over a ``memoryview`` of the
    segment; :meth:`record_bytes` returns memoryview *slices*, so a
    candidate fetched here flows through FS2's byte-walk and into
    ``CompiledClause.from_bytes`` without a single record copy.

    Append is refused — mutation goes through
    :meth:`SharedKnowledgeBase.add_clause`, which materialises the
    predicate into a private mutable file first (copy-on-write).
    """

    def __init__(
        self,
        indicator: tuple[str, int],
        symbols: SymbolTable,
        view: memoryview,
        addresses: list[int],
        lengths: list[int],
    ):
        self.indicator = indicator
        self.symbols = symbols
        #: fresh per attach: (generation, address) keys stay unambiguous
        #: inside the attaching process's decode caches.
        self.generation = next_generation()
        self._view = view
        self._addresses = addresses
        self._lengths = lengths
        self._position_by_address = {a: i for i, a in enumerate(addresses)}

    def __len__(self) -> int:
        return len(self._addresses)

    @cached_property
    def fact_count(self) -> int:
        """How many records are facts.

        The file is immutable, so one pass over the records' flags bytes
        on first use (never at attach) answers for good.
        """
        view = self._view
        return sum(record_is_fact(view, a) for a in self._addresses)

    def __iter__(self) -> Iterator[CompiledClause]:
        for position in range(len(self._addresses)):
            yield self.record(position)

    def record(self, index: int) -> CompiledClause:
        compiled, _ = CompiledClause.from_bytes(
            self._view, self.indicator, self._addresses[index]
        )
        return compiled

    def source_clause(self, index: int) -> Clause:
        return self.decode_clause(index)

    def decode_clause(self, index: int) -> Clause:
        return decode_compiled(self.record(index), self.symbols)

    def append(self, clause: Clause) -> CompiledClause:
        raise TypeError(
            "shared clause files are read-only; mutate through the "
            "knowledge base (copy-on-write)"
        )

    # -- persistence / byte access --------------------------------------

    def to_bytes(self, include_names: bool = True) -> bytes:
        if include_names:
            return bytes(self._view)
        return b"".join(
            self.record(i).to_bytes(False) for i in range(len(self))
        )

    def record_addresses(self, include_names: bool = True) -> list[int]:
        if include_names:
            return list(self._addresses)
        addresses = []
        position = 0
        for i in range(len(self)):
            addresses.append(position)
            position += len(self.record(i).to_bytes(False))
        return addresses

    def record_lengths(self) -> list[int]:
        return list(self._lengths)

    def record_span(self, address: int) -> tuple[int, int]:
        try:
            position = self._position_by_address[address]
        except KeyError:
            raise KeyError(
                f"no record of {self.indicator} at address {address}"
            ) from None
        return position, self._lengths[position]

    def record_bytes(self, position: int) -> memoryview:
        """The serialised record — a zero-copy slice of the segment."""
        start = self._addresses[position]
        return self._view[start : start + self._lengths[position]]

    def last_address(self) -> int:
        if not self._addresses:
            raise IndexError("clause file is empty")
        return self._addresses[-1]

    def size_bytes(self) -> int:
        return len(self._view)


class SharedIndex:
    """A read-only :class:`~repro.scw.SecondaryIndexFile` view.

    The horizontal entry rows live in the mmap'd ``.index`` image and
    are parsed per access (the reference :meth:`scan`, ``entry_at``); the
    bit-sliced columnar view rebuilds lazily from the packed ``.cols``
    image — one ``int.from_bytes`` per column, no clause decoding.
    """

    def __init__(
        self,
        scheme: CodewordScheme,
        indicator: tuple[str, int],
        image: memoryview,
        addresses: list[int],
        entries: int,
        column_bytes: int,
        columns: memoryview,
        planes: memoryview,
    ):
        self.scheme = scheme
        self.indicator = indicator
        self._image = image
        self._addresses = addresses
        self._entries = entries
        self._column_bytes = column_bytes
        self._columns_view = columns
        self._planes_view = planes
        self._bitsliced: BitSlicedIndex | None = None

    def __len__(self) -> int:
        return self._entries

    def __iter__(self) -> Iterator[IndexEntry]:
        for position in range(self._entries):
            yield self.entry_at(position)

    def entry_at(self, position: int) -> IndexEntry:
        row = self.scheme.entry_bytes(ADDRESS_BYTES)
        base = position * row
        cw = self.scheme.codeword_bytes
        mask_bytes = self.scheme.mask_bytes
        bits = int.from_bytes(self._image[base : base + cw], "big")
        mask = int.from_bytes(
            self._image[base + cw : base + cw + mask_bytes], "big"
        )
        address = int.from_bytes(
            self._image[base + cw + mask_bytes : base + row], "big"
        )
        return IndexEntry(Codeword(bits, mask), address)

    def add(self, head, address: int) -> IndexEntry:
        raise TypeError(
            "shared indexes are read-only; mutate through the knowledge "
            "base (copy-on-write)"
        )

    @property
    def bitsliced(self) -> BitSlicedIndex:
        if self._bitsliced is None:
            self._bitsliced = BitSlicedIndex.from_packed(
                self.scheme,
                self._addresses,
                self._column_bytes,
                self._columns_view,
                self._planes_view,
            )
        return self._bitsliced

    def scan(self, query: Codeword) -> list[int]:
        matches = self.scheme.matches
        return [
            entry.address for entry in self if matches(query, entry.codeword)
        ]

    def size_bytes(self) -> int:
        return self._entries * self.scheme.entry_bytes(ADDRESS_BYTES)

    def to_bytes(self) -> bytes:
        return bytes(self._image)


class SharedKnowledgeBase(KnowledgeBase):
    """A knowledge base attached to read-only segments, COW on mutation.

    Reads are served straight off the maps.  ``add_clause`` (the only
    mutation that appends in place) first materialises the predicate
    into a private mutable :class:`~repro.pif.ClauseFile`; ``asserta``
    ``retract_matching`` and ``remove_exact`` already rebuild a fresh
    file from decoded clauses, which works on a shared store unchanged —
    either way the predicate leaves the segment under a new generation
    and the segment pages stay untouched for every other attacher.
    """

    def __init__(
        self,
        scheme: CodewordScheme,
        obs: Instrumentation | None = None,
    ):
        super().__init__(scheme=scheme, obs=obs)
        self._segment_maps: list[tuple[mmap.mmap, object]] = []

    def add_clause(self, clause: Clause, module: str = "user") -> CompiledClause:
        self.materialize(clause.indicator)
        return super().add_clause(clause, module=module)

    def materialize(self, indicator: tuple[str, int]) -> None:
        """Copy one predicate out of its segment into mutable storage."""
        store = self._predicates.get(indicator)
        if store is None or not isinstance(store.clause_file, SharedClauseFile):
            return
        shared = store.clause_file
        fresh = ClauseFile(indicator, self.symbols)
        for position in range(len(shared)):
            fresh.append(shared.decode_clause(position))
        store.clause_file = fresh
        store.invalidate_index()

    def _map_file(self, path: pathlib.Path) -> memoryview:
        if not path.exists():
            raise SegmentError(f"missing segment file {path.name}")
        if path.stat().st_size == 0:
            return memoryview(b"")
        handle = path.open("rb")
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._segment_maps.append((mapped, handle))
        return memoryview(mapped)

    def close(self) -> None:
        """Release the segment maps (best effort — exported memoryview
        slices still alive keep their map open until they are dropped)."""
        maps, self._segment_maps = self._segment_maps, []
        for mapped, handle in maps:
            try:
                mapped.close()
            except BufferError:
                pass
            handle.close()  # type: ignore[attr-defined]


# -- attach ----------------------------------------------------------------


def attach_kb(
    directory: str | pathlib.Path,
    obs: Instrumentation | None = None,
) -> SharedKnowledgeBase:
    """Attach to a segment directory written by :func:`write_segments`."""
    path = pathlib.Path(directory)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise SegmentError(f"no {_MANIFEST} in {path}")

    scheme = CodewordScheme()
    modules: list[tuple[str, int, str]] = []
    predicates: list[tuple[str, int, str, str, int]] = []
    for line_number, line in enumerate(
        manifest_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "scheme":
            scheme = CodewordScheme(
                width=int(fields[1]),
                bits_per_key=int(fields[2]),
                max_args=int(fields[3]),
                max_depth=int(fields[4]),
            )
        elif kind == "module":
            modules.append((fields[1], int(fields[2]), fields[3]))
        elif kind == "predicate":
            predicates.append(
                (fields[1], int(fields[2]), fields[3], fields[4], int(fields[5]))
            )
        else:
            raise SegmentError(f"{_MANIFEST}:{line_number}: unknown entry {kind!r}")

    kb = SharedKnowledgeBase(scheme=scheme, obs=obs)
    kb.symbols = SymbolTable.from_bytes((path / _SYMBOLS).read_bytes())
    for name, threshold, pin in modules:
        module = kb.module(name)
        module.large_threshold_bytes = threshold
        if pin != "-":
            module.pin(pin)

    for name, arity, module_name, stem, count in predicates:
        indicator = (name, arity)
        clauses_view = kb._map_file(path / f"{stem}.clauses")

        addr_image = (path / f"{stem}.addr").read_bytes()
        (declared,) = _ADDR_COUNT.unpack_from(addr_image, 0)
        if declared != count:
            raise SegmentError(
                f"{stem}.addr: {declared} records, manifest says {count}"
            )
        addresses: list[int] = []
        lengths: list[int] = []
        for address, length in _ADDR_PAIR.iter_unpack(
            addr_image[_ADDR_COUNT.size :]
        ):
            addresses.append(address)
            lengths.append(length)

        index_view = kb._map_file(path / f"{stem}.index")
        cols_view = kb._map_file(path / f"{stem}.cols")
        entries, column_bytes, n_columns, n_planes = (
            _COLS_HEADER.unpack_from(cols_view, 0)
        )
        if entries != count:
            raise SegmentError(
                f"{stem}.cols: {entries} entries, manifest says {count}"
            )
        body = cols_view[_COLS_HEADER.size :]
        columns_end = n_columns * column_bytes
        shared_file = SharedClauseFile(
            indicator, kb.symbols, clauses_view, addresses, lengths
        )
        shared_index = SharedIndex(
            scheme,
            indicator,
            index_view,
            addresses,
            entries,
            column_bytes,
            body[:columns_end],
            body[columns_end : columns_end + n_planes * column_bytes],
        )
        kb._predicates[indicator] = PredicateStore(
            indicator=indicator,
            clause_file=shared_file,  # type: ignore[arg-type]
            module_name=module_name,
            scheme=scheme,
            _index=shared_index,  # type: ignore[arg-type]
        )
        kb.module(module_name).add_procedure(indicator)
    return kb
