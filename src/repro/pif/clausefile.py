"""Compiled clause files.

"Predicates with the same functor names and arities are stored in a
compiled clause file" (paper section 2.1).  A :class:`ClauseFile` holds the
PIF-compiled clauses of one predicate in user order, and it holds them
as the very bytes that stream off the simulated disk through CLARE: one
buffer of concatenated records plus the table of where each starts.
Records are parsed out of the buffer on demand (:class:`CompiledClause`
is a transient view, never stored), a saved or mmap'd image is adopted
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

from ..terms import Clause, Term
from .encoder import EncodedArgs, PIFEncoder, PIFError
from .decoder import PIFDecodeError, PIFDecoder
from .symbols import SymbolTable

__all__ = [
    "MAX_RECORD_BYTES",
    "CompiledClause",
    "ClauseFile",
    "compile_clause",
]

#: One Result Memory slot: 9 address bits (paper section 3.2).
MAX_RECORD_BYTES = 512

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

    def to_bytes(self, include_names: bool = True) -> bytes:
        """Serialise to the on-disk record format."""
        names_blob = b""
        flags = 0
        if self.body_stream:
            flags |= _FLAG_HAS_BODY
        if include_names and self.var_names:
            flags |= _FLAG_HAS_NAMES
            parts = [len(self.var_names).to_bytes(1, "big")]
            for name in self.var_names:
                encoded = name.encode("utf-8")
                parts.append(len(encoded).to_bytes(1, "big"))
                parts.append(encoded)
            names_blob = b"".join(parts)
        total = 9 + len(self.head_stream) + len(self.body_stream) + len(self.heap)
        total += len(names_blob)
        if total > MAX_RECORD_BYTES:
            raise PIFError(
                f"clause record is {total} bytes; the Result Memory slot "
                f"limit is {MAX_RECORD_BYTES}"
            )
        out = bytearray()
        out += total.to_bytes(2, "big")
        out.append(flags)
        out += len(self.head_stream).to_bytes(2, "big")
        out += len(self.body_stream).to_bytes(2, "big")
        out += len(self.heap).to_bytes(2, "big")
        out += self.head_stream
        out += self.body_stream
        out += self.heap
        out += names_blob
        return bytes(out)

    @classmethod
    def from_bytes(
        cls, data: bytes, indicator: tuple[str, int], offset: int = 0
    ) -> tuple["CompiledClause", int]:
        """Deserialise one record; returns (clause, next offset).

        ``data`` may be ``bytes`` or a ``memoryview`` over an mmap'd
        segment; only the three streams are copied out, never the record.
        """
        total = int.from_bytes(data[offset : offset + 2], "big")
        flags = data[offset + 2]
        head_len = int.from_bytes(data[offset + 3 : offset + 5], "big")
        body_len = int.from_bytes(data[offset + 5 : offset + 7], "big")
        heap_len = int.from_bytes(data[offset + 7 : offset + 9], "big")
        position = offset + 9
        head_stream = bytes(data[position : position + head_len])
        position += head_len
        body_stream = bytes(data[position : position + body_len])
        position += body_len
        heap = bytes(data[position : position + heap_len])
        position += heap_len
        var_names: tuple[str, ...] = ()
        if flags & _FLAG_HAS_NAMES:
            count = data[position]
            position += 1
            names = []
            for _ in range(count):
                length = data[position]
                position += 1
                names.append(bytes(data[position : position + length]).decode("utf-8"))
                position += length
            var_names = tuple(names)
        return (
            cls(indicator, head_stream, body_stream, heap, var_names),
            offset + total,
        )


def record_is_fact(data: bytes, offset: int = 0) -> bool:
    """Whether the serialised record at ``offset`` is a fact (flags only)."""
    return not data[offset + 2] & _FLAG_HAS_BODY


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


def compile_clause(clause: Clause, symbols: SymbolTable) -> CompiledClause:
    """Compile a clause to PIF with head and body sharing variable slots."""
    encoder = PIFEncoder(symbols, side="db")
    body_term: Term | None = None
    if not clause.is_fact:
        body_term = clause.to_term().args[1]  # the ','-conjunction
    head_encoded, body_stream = encoder.encode_clause(clause.head, body_term)
    return CompiledClause(
        indicator=clause.indicator,
        head_stream=head_encoded.stream,
        body_stream=body_stream,
        heap=head_encoded.heap,
        var_names=head_encoded.var_names,
    )


#: Process-wide generation ids.  A (generation, address) pair names one
#: immutable record forever: appends never move existing records, and
#: the mutations that do (:meth:`ClauseFile.prepend`,
#: :meth:`ClauseFile.delete`) take a fresh generation.
_GENERATIONS = itertools.count(1)

_HEADER = struct.Struct(">HBHHH")  # total, flags, head, body, heap lengths


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

        Every record header is checked before anything is sized by it;
        a record that is truncated, overlong or whose stream lengths do
        not add up to its total raises :class:`PIFDecodeError`.
        """
        clause_file = cls(indicator, symbols)
        end = len(image)
        offset = 0
        while offset < end:
            if offset + _HEADER.size > end:
                raise PIFDecodeError(
                    f"record header at {offset} runs past the image end {end}"
                )
            total, flags, head, body, heap = _HEADER.unpack_from(image, offset)
            if not _HEADER.size <= total <= MAX_RECORD_BYTES:
                raise PIFDecodeError(
                    f"record at {offset} claims {total} bytes; records are "
                    f"{_HEADER.size}..{MAX_RECORD_BYTES}"
                )
            if offset + total > end:
                raise PIFDecodeError(
                    f"record at {offset} ({total} bytes) runs past the "
                    f"image end {end}"
                )
            position = offset + _HEADER.size + head + body + heap
            if flags & _FLAG_HAS_NAMES:
                position = _names_end(image, position, offset + total)
            if position != offset + total:
                raise PIFDecodeError(
                    f"record at {offset}: stream lengths do not add up to "
                    f"its total of {total} bytes"
                )
            clause_file._addresses.append(offset)
            clause_file.fact_count += not flags & _FLAG_HAS_BODY
            offset += total
        clause_file._image = image
        return clause_file

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

    # -- mutation ----------------------------------------------------------

    def append(self, clause: Clause) -> CompiledClause:
        """Compile and append a clause (preserving user ordering)."""
        compiled, record = self._compile(clause)
        image = self._owned_image()
        self._addresses.append(len(image))
        image += record
        self.fact_count += compiled.is_fact
        return compiled

    def prepend(self, clause: Clause) -> int:
        """Splice a clause in before every other; returns its record length.

        Every later record moves, so the file takes a fresh generation.
        """
        compiled, record = self._compile(clause)
        self._owned_image()[0:0] = record
        self._addresses = array(
            "I", [0, *(address + len(record) for address in self._addresses)]
        )
        self.fact_count += compiled.is_fact
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
        self.fact_count -= record_is_fact(image, start)
        del image[start : start + length]
        addresses[index:] = array("I", [a - length for a in addresses[index:]])
        self.generation = next(_GENERATIONS)
        return length

    def _compile(self, clause: Clause) -> tuple[CompiledClause, bytes]:
        if clause.indicator != self.indicator:
            raise ValueError(
                f"clause {clause.indicator} does not belong in file "
                f"{self.indicator}"
            )
        compiled = compile_clause(clause, self.symbols)
        return compiled, compiled.to_bytes()  # enforces the record size cap

    def _owned_image(self) -> bytearray:
        """The image as a buffer this file may resize (copy-on-write)."""
        if not isinstance(self._image, bytearray):
            self._image = bytearray(self._image)
        return self._image

    # -- the image ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """All records concatenated (the on-disk clause file image)."""
        return bytes(self._image)

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
