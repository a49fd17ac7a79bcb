"""The symbol table backing PIF atom/float/functor content fields.

Atom names, functor names and float values are interned here; the PIF
content field stores the 24-bit symbol offset.  The table is append-only
(compiled clause files reference offsets forever) and serialisable so a
knowledge base can persist it beside its clause files.
"""

from __future__ import annotations

from ..terms import Atom, Float

__all__ = ["QuerySymbols", "SymbolTable", "SymbolTableFull"]

#: Content fields are 24 bits wide.
MAX_SYMBOLS = 1 << 24


class SymbolTableFull(RuntimeError):
    """Raised when the 24-bit offset space is exhausted."""


class SymbolTable:
    """Append-only interning table for atoms, functors and floats.

    Atoms and functors share the name space (an atom *is* a 0-arity
    functor); floats are keyed separately so ``1.0`` and an atom ``'1.0'``
    do not collide.  Each entry is the term itself, so :meth:`atom_at`
    hands out one :class:`Atom` per offset and decoding a record
    allocates no atoms.
    """

    __slots__ = ("_entries", "_atom_index", "_float_index")

    def __init__(self) -> None:
        self._entries: list[Atom | Float] = []
        self._atom_index: dict[str, int] = {}
        self._float_index: dict[float, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def intern_atom(self, name: str) -> int:
        """Offset for an atom/functor name, allocating if new."""
        offset = self._atom_index.get(name)
        if offset is None:
            offset = self._allocate(Atom(name))
            self._atom_index[name] = offset
        return offset

    def intern_float(self, value: float) -> int:
        """Offset for a float value, allocating if new.

        ``-0.0`` interns as ``0.0``: the two unify (and hash/compare
        equal as dict keys, so they could never hold separate entries
        anyway) — canonicalising makes the decoded sign independent of
        which zero happened to be interned first.
        """
        if value == 0.0:
            value = 0.0
        offset = self._float_index.get(value)
        if offset is None:
            offset = self._allocate(Float(value))
            self._float_index[value] = offset
        return offset

    def copy(self) -> "SymbolTable":
        """A table of its own with the same entries at the same offsets."""
        table = SymbolTable()
        table._entries = list(self._entries)
        table._atom_index = dict(self._atom_index)
        table._float_index = dict(self._float_index)
        return table

    def _allocate(self, entry: Atom | Float) -> int:
        if len(self._entries) >= MAX_SYMBOLS:
            raise SymbolTableFull("24-bit symbol offset space exhausted")
        self._entries.append(entry)
        return len(self._entries) - 1

    def _entry(self, offset: int) -> Atom | Float:
        try:
            return self._entries[offset]
        except IndexError:
            raise KeyError(f"no symbol at offset {offset}") from None

    def lookup(self, offset: int) -> tuple[str, str | float]:
        """The ``(kind, value)`` entry at ``offset``."""
        entry = self._entry(offset)
        if entry.__class__ is Atom:
            return ("atom", entry.name)
        return ("float", entry.value)

    def atom_at(self, offset: int) -> Atom:
        entry = self._entry(offset)
        if entry.__class__ is not Atom:
            raise KeyError(f"symbol {offset} is a float, not an atom")
        return entry

    def float_at(self, offset: int) -> Float:
        entry = self._entry(offset)
        if entry.__class__ is not Float:
            raise KeyError(f"symbol {offset} is an atom, not a float")
        return entry

    def atom_name_at(self, offset: int) -> str:
        return self.atom_at(offset).name

    def contains_atom(self, name: str) -> bool:
        return name in self._atom_index

    # -- persistence ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the table (length-prefixed UTF-8 / float text entries)."""
        out = bytearray()
        out += len(self._entries).to_bytes(4, "big")
        for entry in self._entries:
            is_atom = entry.__class__ is Atom
            payload = (
                entry.name.encode("utf-8")
                if is_atom
                else repr(entry.value).encode()
            )
            out.append(0 if is_atom else 1)
            out += len(payload).to_bytes(3, "big")
            out += payload
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SymbolTable":
        table = cls()
        count = int.from_bytes(data[:4], "big")
        position = 4
        for _ in range(count):
            kind_byte = data[position]
            length = int.from_bytes(data[position + 1 : position + 4], "big")
            payload = data[position + 4 : position + 4 + length]
            position += 4 + length
            if kind_byte == 0:
                table.intern_atom(payload.decode("utf-8"))
            else:
                table.intern_float(float(payload.decode()))
        return table

    def size_bytes(self) -> int:
        """Serialised size, used by the index-vs-data size benchmark."""
        return len(self.to_bytes())


class QuerySymbols(SymbolTable):
    """A lookup-only view of ``table`` for encoding one query.

    A retrieval must not grow the table it searches, or clients sending
    goals with fresh atoms would fill its 24-bit space one read at a
    time; only stored clauses intern symbols.  Constants ``table`` lacks
    are numbered in this view's own entries instead, from ``len(table)``
    up — an offset no stored record can hold, so they never match, while
    two distinct absent constants stay distinct (``p(X, X)`` must still
    reject ``p(new1, new2)``) and decode back to their terms.  Offsets
    handed out that way are only good until ``table`` next grows:
    :attr:`extended` tells the caller not to keep the encoding.
    """

    __slots__ = ("_table", "_floor")

    def __init__(self, table: SymbolTable) -> None:
        super().__init__()
        self._table = table
        self._floor = len(table)

    @property
    def extended(self) -> bool:
        """True once some constant was absent from the table."""
        return bool(self._entries)

    def intern_atom(self, name: str) -> int:
        offset = self._table._atom_index.get(name)
        if offset is None:
            offset = self._floor + super().intern_atom(name)
        return offset

    def intern_float(self, value: float) -> int:
        offset = self._table._float_index.get(value)
        if offset is None:
            offset = self._floor + super().intern_float(value)
        return offset

    def _entry(self, offset: int) -> Atom | Float:
        if offset < self._floor:
            return self._table._entry(offset)
        return super()._entry(offset - self._floor)
