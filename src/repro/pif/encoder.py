"""Compiling terms into the Pseudo In-line Format (PIF).

An encoded argument is a sequence of 4-byte *items* (8-bit tag + 24-bit
content); pointer-type items carry an additional 4-byte extension that
indexes an out-of-line *heap* area holding terms too large for in-line
representation (arity above 31).

Layout decisions the paper leaves open (documented deviations):

* In-line list items are followed by their prefix elements and then one
  *tail item* (the NIL item ``0xE0`` for proper lists, a variable item for
  unlimited lists, or an arbitrary term item for improper cons chains).
  The empty list itself is the single item ``0xE0`` with no tail.
* Heap blobs are ``real-arity (4 bytes) | element items`` for structures
  and ``real-prefix-length (4 bytes) | element items | tail item`` for
  lists; nested oversized terms are encoded post-order so extensions
  always point backwards.
* Integers must fit 28-bit two's complement (tag nibble + 24-bit
  content); anything larger raises :class:`PIFError`, mirroring the
  hardware's fixed field width.

Variable occurrences are typed at compile time: the first occurrence of a
named variable gets the First-DB/Query-Var tag, later occurrences the
Subsequent tag, and all occurrences share one content field (the variable
offset, which doubles as the binding-store slot at run time).

:class:`TermWriter` is the one encoder: :class:`PIFEncoder` runs it over
a query or a head, and :func:`repro.pif.clausefile.clause_record` over a
whole clause, straight into the record's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..terms import CONS, Atom, Float, Int, Struct, Term, Var
from . import tags
from .symbols import SymbolTable

__all__ = [
    "PIFError", "EncodedArgs", "PIFEncoder", "TermWriter", "ITEM_SIZE",
    "EXTENSION_SIZE",
]

ITEM_SIZE = 4
EXTENSION_SIZE = 4


class PIFError(ValueError):
    """A term cannot be represented in PIF."""


@dataclass(frozen=True)
class EncodedArgs:
    """The PIF encoding of one clause head's (or query's) arguments."""

    indicator: tuple[str, int]
    stream: bytes
    heap: bytes = b""
    var_names: tuple[str, ...] = ()

    @property
    def size_bytes(self) -> int:
        return len(self.stream) + len(self.heap)

    def item_words(self) -> list[tuple[int, int]]:
        """The in-line stream as a list of (tag, content) pairs.

        Extensions are folded into the preceding item's word list entry by
        the stream scanner in :mod:`repro.pif.decoder`; this helper is the
        raw 4-byte view used by the FS2 double-buffer model.
        """
        words = []
        for offset in range(0, len(self.stream), ITEM_SIZE):
            word = self.stream[offset : offset + ITEM_SIZE]
            words.append((word[0], int.from_bytes(word[1:], "big")))
        return words


class PIFEncoder:
    """Encode clause heads (side ``db``) or queries (side ``query``)."""

    def __init__(self, symbols: SymbolTable, side: str = "db"):
        if side not in ("db", "query"):
            raise ValueError(f"side must be 'db' or 'query', not {side!r}")
        self.symbols = symbols
        self.side = side
        if side == "db":
            self._first_tag = tags.TAG_FIRST_DB_VAR
            self._sub_tag = tags.TAG_SUB_DB_VAR
        else:
            self._first_tag = tags.TAG_FIRST_QUERY_VAR
            self._sub_tag = tags.TAG_SUB_QUERY_VAR

    def encode_head(self, head: Term) -> EncodedArgs:
        """Encode the arguments of a clause head / query term."""
        if isinstance(head, Atom):
            return EncodedArgs(indicator=(head.name, 0), stream=b"")
        if not isinstance(head, Struct):
            raise PIFError(f"clause head must be callable, got {head!r}")
        writer = TermWriter(self.symbols, self._first_tag, self._sub_tag)
        stream = bytearray()
        for arg in head.args:
            writer.term(arg, stream)
        return writer.encoded(head.indicator, stream)

    def encode_term(self, term: Term) -> EncodedArgs:
        """Encode a single term as a one-item stream (used for bodies)."""
        writer = TermWriter(self.symbols, self._first_tag, self._sub_tag)
        stream = bytearray()
        writer.term(term, stream)
        return writer.encoded(("$term", 1), stream)


def _item(tag: int, content: int) -> bytes:
    """One 4-byte item: the 8-bit tag over a checked 24-bit content."""
    if content >> 24:
        raise PIFError(f"content field {content} exceeds 24 bits")
    return (tag << 24 | content).to_bytes(4, "big")


_NIL_ITEM = _item(tags.TAG_TLIST_INLINE_BASE, 0)  # arity 0 == []
_ANONYMOUS_ITEM = _item(tags.TAG_ANONYMOUS_VAR, 0)
_INT_MASK = (1 << tags.INT_INLINE_BITS) - 1
_INT_WORD = tags.TAG_INT_BASE << 24  # the nibble is the value's top 4 bits


class TermWriter:
    """The one PIF encoder: appends each term's items to a caller's buffer.

    One writer spans one encoding — a query, or a whole clause record
    (head and body share its variable numbering and heap).  Items go
    straight into the ``bytearray`` passed to :meth:`term`; pointer
    forms put their elements in :attr:`heap`, nested blobs first
    (post-order), so an extension always points backwards.
    """

    __slots__ = ("_atom", "_float", "_first", "_sub", "heap", "_slots", "names")

    def __init__(self, symbols: SymbolTable, first_tag: int, sub_tag: int):
        self._atom = symbols.intern_atom
        self._float = symbols.intern_float
        self._first = first_tag
        self._sub = sub_tag
        self.heap = bytearray()
        #: variable name -> offset; :attr:`names` in offset order.
        self._slots: dict[str, int] = {}
        self.names: list[str] = []

    def encoded(self, indicator: tuple[str, int], stream: bytearray) -> EncodedArgs:
        return EncodedArgs(
            indicator=indicator,
            stream=bytes(stream),
            heap=bytes(self.heap),
            var_names=tuple(self.names),
        )

    def term(self, term: Term, out: bytearray) -> None:
        kind = term.__class__
        if kind is Atom:
            name = term.name
            if name == "[]":
                out += _NIL_ITEM
            else:
                out += _item(tags.TAG_ATOM_PTR, self._atom(name))
        elif kind is Var:
            self._var(term.name, out)
        elif kind is Struct:
            self._compound(term, out)
        elif kind is Int:
            value = term.value
            if not tags.INT_INLINE_MIN <= value <= tags.INT_INLINE_MAX:
                raise PIFError(
                    f"integer {value} exceeds the 28-bit in-line range "
                    f"[{tags.INT_INLINE_MIN}, {tags.INT_INLINE_MAX}]"
                )
            out += (_INT_WORD | value & _INT_MASK).to_bytes(4, "big")
        elif kind is Float:
            out += _item(tags.TAG_FLOAT_PTR, self._float(term.value))
        else:
            raise PIFError(f"cannot encode {term!r}")

    def conjunction(self, goals: tuple[Term, ...], out: bytearray) -> None:
        """``goals`` as the right-nested ``','/2`` chain of a clause body."""
        for goal in goals[:-1]:
            out += _item(tags.TAG_STRUCT_INLINE_BASE | 2, self._atom(","))
            self.term(goal, out)
        self.term(goals[-1], out)

    def _compound(self, term: Struct, out: bytearray) -> None:
        """A structure or list and everything under it, in pre-order.

        An explicit stack of ``(term, buffer)`` entries stands in for
        recursion, so nesting is bounded by memory, not by the
        interpreter's frame limit; atomic elements go through
        :meth:`term`.  A pointer form (over 31 arguments or list
        elements) writes its elements into a blob of its own and leaves
        a closing entry ``(None, (buffer, item, blob))`` under them: once
        they are written the blob joins the heap — nested blobs first,
        post-order — and the item and its extension go to ``buffer``.
        """
        limit = tags.INLINE_ARITY_LIMIT
        stack: list[tuple] = [(term, out)]
        while stack:
            term, out = stack.pop()
            if term is None:
                parent, item, blob = out
                parent += item
                parent += self._to_heap(blob)
                continue
            if term.__class__ is not Struct:
                self.term(term, out)
                continue
            args = term.args
            if term.functor == CONS and len(args) == 2:
                elements: list[Term] = []
                while (
                    term.__class__ is Struct and term.functor == CONS
                    and len(term.args) == 2
                ):
                    elements.append(term.args[0])
                    term = term.args[1]
                count = len(elements)
                elements.append(term)  # the tail item closes the list
                open_list = term.__class__ is Var
                if count <= limit:
                    base = (
                        tags.TAG_ULIST_INLINE_BASE if open_list
                        else tags.TAG_TLIST_INLINE_BASE
                    )
                    out += _item(base | count, 0)
                    stack.extend((element, out) for element in reversed(elements))
                    continue
                base = tags.TAG_ULIST_PTR_BASE if open_list else tags.TAG_TLIST_PTR_BASE
                item = _item(base | limit, 0)
                args = elements
            else:
                offset = self._atom(term.functor)
                count = len(args)
                if count <= limit:
                    out += _item(tags.TAG_STRUCT_INLINE_BASE | count, offset)
                    stack.extend((arg, out) for arg in reversed(args))
                    continue
                item = _item(tags.TAG_STRUCT_PTR_BASE | limit, offset)
            blob = bytearray(count.to_bytes(4, "big"))
            stack.append((None, (out, item, blob)))
            stack.extend((arg, blob) for arg in reversed(args))

    def _var(self, name: str, out: bytearray) -> None:
        if name == "_":
            out += _ANONYMOUS_ITEM
            return
        offset = self._slots.get(name)
        if offset is not None:
            out += bytes((self._sub, 0, 0, offset))
            return
        offset = len(self.names)
        if offset > 0xFF:
            # The content field for variables is a one-byte offset
            # (Table A1: "Variable Offset (b)").
            raise PIFError("more than 256 distinct variables in one clause")
        self._slots[name] = offset
        self.names.append(name)
        out += bytes((self._first, 0, 0, offset))

    def _to_heap(self, blob: bytearray) -> bytes:
        """Append a finished blob to the heap; its 4-byte extension."""
        offset = len(self.heap)
        self.heap += blob
        return offset.to_bytes(EXTENSION_SIZE, "big")
