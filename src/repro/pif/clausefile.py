"""Compiled clause files.

"Predicates with the same functor names and arities are stored in a
compiled clause file" (paper section 2.1).  A :class:`ClauseFile` holds the
PIF-compiled clauses of one predicate in user order, and it holds them
as the very bytes that stream off the simulated disk through CLARE: one
buffer of concatenated records plus the table of where each starts.
Each record is written once, by the one writer (:func:`clause_record`,
which the WAL and the wire call too), and parsed out of the buffer on
demand (:class:`CompiledClause`
is a transient view, never stored) by the one record parser
(:func:`record_layout`, :func:`parse_record`) that also serves the FS2
and the wire, a saved or mmap'd image is adopted
as it is (:meth:`ClauseFile.from_image`), and ``asserta`` / ``retract``
splice the buffer in place (:meth:`ClauseFile.prepend`,
:meth:`ClauseFile.delete`).

Record layout (all integers big-endian)::

    +0   u16  total record length (including this header)
    +2   u8   flags (bit 0: has body, bit 1: variable names present)
    +3   u16  head stream length
    +5   u16  body stream length
    +7   u16  heap length
    +9   ...  head stream | body stream | heap | [var names]

Variable names are a debugging aid (length-prefixed UTF-8 strings); real
1989 hardware stored none.  Records are capped at
:data:`MAX_RECORD_BYTES` = 512 so a clause always fits one Result Memory
slot (the 9-bit low counter of the RM address generator).
"""

from __future__ import annotations

import itertools
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from ..terms import Atom, Clause, Struct
from .encoder import ITEM_SIZE, EncodedArgs, PIFError, TermWriter
from .decoder import PIFDecodeError, PIFDecoder
from .symbols import SymbolTable
from .tags import (
    CATEGORY,
    INLINE_CHILDREN,
    ITEM_LENGTH,
    TAG_FIRST_DB_VAR,
    TAG_SUB_DB_VAR,
    TagCategory,
    is_variable_tag,
)

__all__ = [
    "MAX_RECORD_BYTES",
    "CompiledClause",
    "ClauseFile",
    "clause_record",
    "compile_clause",
    "parse_record",
    "rebase_record",
    "record_layout",
]

#: One Result Memory slot: 9 address bits (paper section 3.2).
MAX_RECORD_BYTES = 512

_HEADER = struct.Struct(">HBHHH")  # total, flags, head, body, heap lengths
_FLAG_HAS_BODY = 0x01
_FLAG_HAS_NAMES = 0x02


@dataclass(frozen=True)
class CompiledClause:
    """One clause compiled to PIF: head stream + body stream + shared heap."""

    indicator: tuple[str, int]
    head_stream: bytes
    body_stream: bytes
    heap: bytes
    var_names: tuple[str, ...] = ()

    @property
    def head_encoded(self) -> EncodedArgs:
        return EncodedArgs(
            indicator=self.indicator,
            stream=self.head_stream,
            heap=self.heap,
            var_names=self.var_names,
        )

    @property
    def is_fact(self) -> bool:
        return not self.body_stream

    @classmethod
    def from_bytes(
        cls, data: bytes, indicator: tuple[str, int], offset: int = 0
    ) -> tuple["CompiledClause", int]:
        """Deserialise one record; returns (clause, next offset).

        ``data`` may be ``bytes`` or a ``memoryview`` over an mmap'd
        segment; only the three streams are copied out, never the record.
        """
        head, body, heap, names, end = parse_record(data, offset)
        return cls(indicator, bytes(head), bytes(body), bytes(heap), names), end


def _names_end(image: bytes, position: int, limit: int) -> int:
    """Where the variable-name blob starting at ``position`` ends.

    Never reads at or past ``limit``; -1 when the blob would.
    """
    if position >= limit:
        return -1
    names = image[position]
    position += 1
    for _ in range(names):
        if position >= limit:
            return -1
        position += 1 + image[position]
    return position


def record_layout(data: bytes, offset: int = 0) -> tuple[int, int, int, int, int]:
    """The checked header of the record at ``offset``.

    Returns ``(total, flags, head, body, heap)`` lengths.  The one place
    a record header is unpacked, and nothing is sized by a field before
    it is checked: a header cut off at the end of ``data``, a total
    outside ``9..512`` or past the end, or stream lengths (and the name
    blob, when flagged) that do not add up to the total raise
    :class:`PIFDecodeError`.  The names are walked, never decoded.
    """
    try:
        header = total, flags, head, body, heap = _HEADER.unpack_from(data, offset)
    except struct.error:
        raise PIFDecodeError(
            f"record header at {offset} runs past the image end {len(data)}"
        ) from None
    end = offset + total
    if not _HEADER.size <= total <= MAX_RECORD_BYTES:
        raise PIFDecodeError(
            f"record at {offset} claims {total} bytes; records are "
            f"{_HEADER.size}..{MAX_RECORD_BYTES}"
        )
    if end > len(data):
        raise PIFDecodeError(
            f"record at {offset} ({total} bytes) runs past the image end "
            f"{len(data)}"
        )
    position = offset + _HEADER.size + head + body + heap
    if flags & _FLAG_HAS_NAMES:
        position = _names_end(data, position, end)
    if position != end:
        raise PIFDecodeError(
            f"record at {offset}: stream lengths do not add up to its total "
            f"of {total} bytes"
        )
    return header


def parse_record(
    data: bytes, offset: int = 0
) -> tuple[bytes, bytes, bytes, tuple[str, ...], int]:
    """``(head, body, heap, var names, next offset)`` of a checked record.

    The streams are slices of ``data`` — zero-copy over a
    ``memoryview`` — and names are decoded only when flagged.
    """
    total, flags, head, body, heap = record_layout(data, offset)
    head_at = offset + _HEADER.size
    body_at = head_at + head
    heap_at = body_at + body
    names_at = heap_at + heap
    names: tuple[str, ...] = ()
    if flags & _FLAG_HAS_NAMES:
        position = names_at + 1
        decoded = []
        try:
            for _ in range(data[names_at]):
                end = position + 1 + data[position]
                decoded.append(bytes(data[position + 1 : end]).decode())
                position = end
        except UnicodeDecodeError as exc:
            raise PIFDecodeError(f"record at {offset}: {exc}") from None
        names = tuple(decoded)
    return (
        data[head_at:body_at], data[body_at:heap_at], data[heap_at:names_at],
        names, offset + total,
    )


def _record_length(data: bytes, offset: int) -> int:
    """The serialised record at ``offset``'s own total-length field."""
    return data[offset] << 8 | data[offset + 1]


def decode_compiled(compiled: CompiledClause, symbols: SymbolTable) -> Clause:
    """Decompile a compiled clause record back to a logical clause."""
    from ..terms import body_goals

    decoder = PIFDecoder(symbols)
    head = decoder.decode_head(compiled.head_encoded)
    if compiled.is_fact:
        return Clause(head)
    body_encoded = EncodedArgs(
        indicator=("$body", 1),
        stream=compiled.body_stream,
        heap=compiled.heap,
        var_names=compiled.var_names,
    )
    body_term = decoder.decode_term(body_encoded)
    return Clause(head, body_goals(body_term))


def clause_record(clause: Clause, symbols: SymbolTable) -> bytearray:
    """Compile ``clause`` straight into its record bytes.

    The one writer of the record format: head arguments, then the body
    conjunction (sharing the head's variable slots and heap), the heap
    and the variable names are appended to one buffer and the header is
    packed in front of them last.  A record over
    :data:`MAX_RECORD_BYTES`, an integer outside 28 bits, a 257th
    variable or an over-long variable name raises :class:`PIFError`; a
    full symbol table raises ``SymbolTableFull``.
    """
    writer = TermWriter(symbols, TAG_FIRST_DB_VAR, TAG_SUB_DB_VAR)
    record = bytearray(_HEADER.size)
    head = clause.head
    if head.__class__ is Struct:
        for arg in head.args:
            writer.term(arg, record)
    elif head.__class__ is not Atom:
        raise PIFError(f"clause head must be callable, got {head!r}")
    head_end = len(record)
    flags = 0
    if clause.body:
        flags = _FLAG_HAS_BODY
        writer.conjunction(clause.body, record)
    body_end = len(record)
    record += writer.heap
    heap_end = len(record)
    names = writer.names
    if names:
        if len(names) > 0xFF:  # 256 variables are 1 KB of items alone
            _check_size(heap_end)
        flags |= _FLAG_HAS_NAMES
        record.append(len(names))
        for name in names:
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFF:
                raise PIFError(f"variable name {name[:16]!r}... exceeds 255 bytes")
            record.append(len(encoded))
            record += encoded
    _check_size(len(record))
    _HEADER.pack_into(
        record, 0, len(record), flags, head_end - _HEADER.size,
        body_end - head_end, heap_end - body_end,
    )
    return record


def _check_size(total: int) -> None:
    if total > MAX_RECORD_BYTES:
        raise PIFError(
            f"clause record is {total} bytes; the Result Memory slot "
            f"limit is {MAX_RECORD_BYTES}"
        )


#: The items whose content field is a symbol offset.
_SYMBOLIC = frozenset((
    TagCategory.ATOM, TagCategory.FLOAT,
    TagCategory.STRUCT_INLINE, TagCategory.STRUCT_PTR,
))
_LIST_POINTERS = frozenset((TagCategory.TLIST_PTR, TagCategory.ULIST_PTR))


def rebase_record(
    record: bytes, source: SymbolTable, target: SymbolTable, memo: dict[int, int]
) -> bytearray:
    """``record``, written against ``source``, rewritten against ``target``.

    The bytes :func:`clause_record` writes for the record's clause into
    ``target``, with no clause built: only the content fields of atom,
    float and functor items change, and every item, blob and name keeps
    its place.  Items are visited in the order the writer interned them
    (pre-order, a pointer form's blob where its pointer stands), so
    ``target`` grows exactly as it would have.  ``memo`` holds the
    ``source`` offsets already moved into ``target`` (one dict per pair
    of tables).  An item that runs past its streams, a blob that is not
    below the item pointing at it, or more items than the record's size
    allows raise :class:`PIFDecodeError`.
    """
    head, body, heap = _HEADER.unpack_from(record)[2:]
    out = bytearray(record)
    stream_end = _HEADER.size + head + body
    heap_end = stream_end + heap
    budget = (heap_end - _HEADER.size) // ITEM_SIZE
    position = _HEADER.size
    remaining = budget + 1  # the streams are read to their end
    resume: list[tuple[int, int]] = []  # where each open blob's pointer ends
    while True:
        if remaining == 0 or (position >= stream_end and not resume):
            if not resume:
                return out
            position, remaining = resume.pop()
            continue
        tag = out[position]
        category = CATEGORY[tag]
        length = ITEM_LENGTH[tag]
        budget -= 1
        if (
            category is None or budget < 0
            or position + length > (heap_end if resume else stream_end)
        ):
            raise PIFDecodeError(f"record item at {position} is malformed")
        if category in _SYMBOLIC:
            offset = out[position + 1] << 16 | out[position + 2] << 8 | out[position + 3]
            moved = memo.get(offset)
            if moved is None:
                kind, value = source.lookup(offset)
                if (kind == "float") != (category is TagCategory.FLOAT):
                    raise PIFDecodeError(f"symbol {offset} is not a {category.name}")
                moved = memo[offset] = (
                    target.intern_float(value) if kind == "float"
                    else target.intern_atom(value)
                )
            out[position + 1 : position + ITEM_SIZE] = moved.to_bytes(3, "big")
        remaining -= 1
        if length == ITEM_SIZE:
            remaining += INLINE_CHILDREN[tag]
            position += ITEM_SIZE
            continue
        blob = stream_end + int.from_bytes(out[position + ITEM_SIZE : position + 8], "big")
        if blob + 8 > (position if resume else heap_end):
            raise PIFDecodeError(f"heap pointer at {position} out of range")
        resume.append((position + 8, remaining))
        remaining = int.from_bytes(out[blob : blob + 4], "big")
        remaining += category in _LIST_POINTERS  # a list's tail item
        position = blob + 4


def compile_clause(clause: Clause, symbols: SymbolTable) -> CompiledClause:
    """Compile a clause to PIF: the parse of its :func:`clause_record`."""
    return CompiledClause.from_bytes(
        clause_record(clause, symbols), clause.indicator
    )[0]


#: Process-wide generation ids.  A (generation, address) pair names one
#: immutable record forever: appends never move existing records, and
#: the mutations that do (:meth:`ClauseFile.prepend`,
#: :meth:`ClauseFile.delete`) take a fresh generation.
_GENERATIONS = itertools.count(1)


class ClauseFile:
    """The compiled clauses of one predicate, in user-specified order.

    The file *is* its serialised image: ``_image`` holds the
    concatenated records and ``_addresses`` where each one starts;
    records are parsed on demand.  ``_image`` is either a ``bytearray``
    this file owns and grows, or a read-only buffer adopted by
    :meth:`from_image` (``bytes`` off a saved file, a ``memoryview``
    over an mmap'd segment).  The first mutation of an adopted file
    copies the image (copy-on-write), so the adopted buffer is never
    written.  Only adopted buffers hand out zero-copy slices: a
    ``bytearray`` cannot be resized while a view of it is exported.
    """

    def __init__(self, indicator: tuple[str, int], symbols: SymbolTable):
        self.indicator = indicator
        self.symbols = symbols
        self.generation = next(_GENERATIONS)
        #: how many records are facts — kept by every mutation so the
        #: planner's fact-fraction test never walks the file.
        self.fact_count = 0
        self._image: bytearray | bytes | memoryview = bytearray()
        self._addresses = array("I")

    @classmethod
    def from_image(
        cls,
        indicator: tuple[str, int],
        symbols: SymbolTable,
        image: bytes | memoryview,
    ) -> "ClauseFile":
        """Adopt a serialised record stream without copying it.

        Every record header is checked (:func:`record_layout`) before
        anything is sized by it.
        """
        clause_file = cls(indicator, symbols)
        offset = 0
        while offset < len(image):
            total, flags, *_ = record_layout(image, offset)
            clause_file._addresses.append(offset)
            clause_file.fact_count += not flags & _FLAG_HAS_BODY
            offset += total
        clause_file._image = image
        return clause_file

    def replica(self, symbols: SymbolTable) -> "ClauseFile":
        """A file of its own over this one's records, under ``symbols``.

        The image is shared (:meth:`shared_image`) until either file's
        first mutation copies it; the address table and fact count are
        copied, not re-derived — this file checked its headers when it
        wrote or adopted them.
        """
        copy = ClauseFile(self.indicator, symbols)
        copy._image = self.shared_image()
        copy._addresses = array("I", self._addresses)
        copy.fact_count = self.fact_count
        return copy

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[CompiledClause]:
        return (self.record(index) for index in range(len(self._addresses)))

    def record(self, index: int) -> CompiledClause:
        compiled, _ = CompiledClause.from_bytes(
            self._image, self.indicator, self._addresses[index]
        )
        return compiled

    def decode_clause(self, index: int) -> Clause:
        """Decompile record ``index`` back to a logical clause."""
        return decode_compiled(self.record(index), self.symbols)

    def has_unindexed_head(self) -> bool:
        """Whether some clause has no first-argument index key (arity 0,
        or a variable first argument: :func:`repro.keys.first_arg_index_key`
        is ``None``), read off each record's first head tag undecoded."""
        if not self.indicator[1]:
            return len(self) > 0
        image, skip = self._image, _HEADER.size
        return any(is_variable_tag(image[at + skip]) for at in self._addresses)

    # -- mutation ----------------------------------------------------------

    def append(self, clause: Clause) -> None:
        """Compile and append a clause (preserving user ordering)."""
        record = self._record(clause)
        image = self._owned_image()
        self._addresses.append(len(image))
        image += record
        self.fact_count += not clause.body

    def prepend(self, clause: Clause) -> int:
        """Splice a clause in before every other; returns its record length.

        Every later record moves, so the file takes a fresh generation.
        """
        record = self._record(clause)
        self._owned_image()[0:0] = record
        self._addresses = array(
            "I", [0, *(address + len(record) for address in self._addresses)]
        )
        self.fact_count += not clause.body
        self.generation = next(_GENERATIONS)
        return len(record)

    def delete(self, index: int) -> int:
        """Cut record ``index`` out of the image; returns its length.

        The later records close the gap, so the file takes a fresh
        generation.
        """
        addresses = self._addresses
        start = addresses.pop(index)
        image = self._owned_image()
        length = _record_length(image, start)
        self.fact_count -= not image[start + 2] & _FLAG_HAS_BODY
        del image[start : start + length]
        addresses[index:] = array("I", [a - length for a in addresses[index:]])
        self.generation = next(_GENERATIONS)
        return length

    def _record(self, clause: Clause) -> bytearray:
        if clause.indicator != self.indicator:
            raise ValueError(
                f"clause {clause.indicator} does not belong in file "
                f"{self.indicator}"
            )
        return clause_record(clause, self.symbols)

    def _owned_image(self) -> bytearray:
        """The image as a buffer this file may resize (copy-on-write)."""
        if not isinstance(self._image, bytearray):
            self._image = bytearray(self._image)
        return self._image

    # -- the image ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """All records concatenated (the on-disk clause file image)."""
        return bytes(self._image)

    def shared_image(self) -> bytes | memoryview:
        """The image as a read-only buffer another file may adopt.

        An owned ``bytearray`` is swapped for an immutable copy first:
        this file and every :meth:`from_image` adopter then share one
        buffer until each copies it on its own first mutation.
        """
        if isinstance(self._image, bytearray):
            self._image = bytes(self._image)
        return self._image

    def record_addresses(self) -> list[int]:
        """Byte offset of each record within :meth:`to_bytes`."""
        return self._addresses.tolist()

    def record_span(self, address: int) -> tuple[int, int]:
        """(position, length) of the record at a byte ``address``."""
        addresses = self._addresses
        position = bisect_left(addresses, address)
        if position == len(addresses) or addresses[position] != address:
            raise KeyError(
                f"no record of {self.indicator} at address {address}"
            )
        return position, _record_length(self._image, address)

    def record_bytes(self, position: int) -> bytes | memoryview:
        """The serialised record at ``position``.

        A zero-copy slice when the image is an adopted ``memoryview``,
        a copy when this file owns (and may resize) the image.
        """
        start = self._addresses[position]
        record = self._image[start : start + _record_length(self._image, start)]
        return bytes(record) if isinstance(record, bytearray) else record

    def last_address(self) -> int:
        """Address of the most recently appended record."""
        if not self._addresses:
            raise IndexError("clause file is empty")
        return self._addresses[-1]

    def size_bytes(self) -> int:
        return len(self._image)
