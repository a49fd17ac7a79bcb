"""Compiled clause files.

"Predicates with the same functor names and arities are stored in a
compiled clause file" (paper section 2.1).  A :class:`ClauseFile` holds the
PIF-compiled clauses of one predicate in user order; its byte serialisation
is what streams off the simulated disk through CLARE.

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
from dataclasses import dataclass
from typing import Iterator

from ..terms import Clause, Term
from .encoder import EncodedArgs, PIFEncoder, PIFError
from .decoder import PIFDecoder
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


#: Process-wide generation ids.  Every ClauseFile gets a fresh one, so a
#: (generation, address) pair names one immutable record forever:
#: appends never move existing records, and the mutations that do
#: (asserta, retract) build a *new* ClauseFile with a new generation.
_GENERATIONS = itertools.count(1)


def next_generation() -> int:
    """Allocate a fresh process-wide clause-file generation id.

    Exposed for clause-file *views* (e.g. segment-backed shared files)
    that participate in the (generation, address) cache-keying contract
    without going through :class:`ClauseFile`.
    """
    return next(_GENERATIONS)


class ClauseFile:
    """The compiled clauses of one predicate, in user-specified order."""

    def __init__(self, indicator: tuple[str, int], symbols: SymbolTable):
        self.indicator = indicator
        self.symbols = symbols
        self.generation = next(_GENERATIONS)
        self._records: list[CompiledClause] = []
        self._sources: list[Clause] = []
        #: how many records are facts — kept by :meth:`append` so the
        #: planner's fact-fraction test never walks the file.
        self.fact_count = 0
        # Running byte addresses and record lengths for the default
        # serialisation, so appends (and incremental index updates) stay
        # O(1) and candidate fetches never re-serialise the whole file.
        self._addresses: list[int] = []
        self._lengths: list[int] = []
        self._position_by_address: dict[int, int] = {}
        self._next_address = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CompiledClause]:
        return iter(self._records)

    def append(self, clause: Clause) -> CompiledClause:
        """Compile and append a clause (preserving user ordering)."""
        if clause.indicator != self.indicator:
            raise ValueError(
                f"clause {clause.indicator} does not belong in file "
                f"{self.indicator}"
            )
        compiled = compile_clause(clause, self.symbols)
        record_bytes = compiled.to_bytes()  # enforce the record size cap
        self._records.append(compiled)
        self._sources.append(clause)
        self.fact_count += compiled.is_fact
        self._position_by_address[self._next_address] = len(self._addresses)
        self._addresses.append(self._next_address)
        self._lengths.append(len(record_bytes))
        self._next_address += len(record_bytes)
        return compiled

    def record(self, index: int) -> CompiledClause:
        return self._records[index]

    def source_clause(self, index: int) -> Clause:
        """The original (uncompiled) clause, for interpreter fallback."""
        return self._sources[index]

    def decode_clause(self, index: int) -> Clause:
        """Decompile record ``index`` back to a logical clause."""
        return decode_compiled(self._records[index], self.symbols)

    # -- persistence -----------------------------------------------------

    def to_bytes(self, include_names: bool = True) -> bytes:
        """All records concatenated (the on-disk clause file image)."""
        return b"".join(r.to_bytes(include_names) for r in self._records)

    def record_addresses(self, include_names: bool = True) -> list[int]:
        """Byte offset of each record within :meth:`to_bytes`."""
        if include_names:
            return list(self._addresses)
        addresses = []
        position = 0
        for record in self._records:
            addresses.append(position)
            position += len(record.to_bytes(include_names))
        return addresses

    def record_lengths(self) -> list[int]:
        """Serialised byte length of each record (cached, O(1) per record)."""
        return list(self._lengths)

    def record_span(self, address: int) -> tuple[int, int]:
        """(position, length) of the record at a byte ``address``.

        The table is maintained incrementally by :meth:`append`, so
        candidate fetches are O(1) per address instead of re-serialising
        every record on every retrieval.
        """
        try:
            position = self._position_by_address[address]
        except KeyError:
            raise KeyError(
                f"no record of {self.indicator} at address {address}"
            ) from None
        return position, self._lengths[position]

    def record_bytes(self, position: int) -> bytes:
        """The serialised record at ``position`` (one record only)."""
        return self._records[position].to_bytes()

    def last_address(self) -> int:
        """Address of the most recently appended record."""
        if not self._addresses:
            raise IndexError("clause file is empty")
        return self._addresses[-1]

    def size_bytes(self) -> int:
        # The running append address is the concatenated size; don't
        # re-serialise 300 records to answer a residency check.
        return self._next_address
