"""Decoding PIF byte streams back into terms.

One reader serves every consumer of the format.  :func:`decode_term_at`
turns the item at a byte position into the whole term it heads — the
host's clause decode (:class:`PIFDecoder`, behind the CRS, the wire, the
WAL and the replication log), the FS2 model's ``take_term`` and the
compiled FS2 plan and matcher all call it.  :func:`read_item` is the
item-level view the microcoded FS2 model and the dumps walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..terms import ANONYMOUS, NIL, Atom, Int, Struct, Term, Var, make_list
from . import tags
from .encoder import EXTENSION_SIZE, ITEM_SIZE, EncodedArgs
from .symbols import SymbolTable

__all__ = [
    "PIFDecodeError",
    "Item",
    "read_item",
    "scan_items",
    "var_name",
    "decode_term_at",
    "PIFDecoder",
]


class PIFDecodeError(ValueError):
    """Raised on malformed PIF byte streams."""


@dataclass(frozen=True, slots=True)
class Item:
    """One decoded stream item: tag, 24-bit content, optional extension."""

    tag: int
    content: int
    extension: int | None = None

    @property
    def category(self) -> tags.TagCategory:
        return tags.tag_category(self.tag)

    @property
    def arity(self) -> int:
        return tags.tag_arity(self.tag)


def read_item(data: bytes, position: int) -> tuple[Item, int]:
    """The item at ``position`` (extension folded in) and where the next starts."""
    if position + ITEM_SIZE > len(data):
        raise PIFDecodeError("truncated item")
    tag = data[position]
    length = tags.ITEM_LENGTH[tag]
    if length is None:
        raise PIFDecodeError(f"unassigned PIF tag 0x{tag:02x}")
    if position + length > len(data):
        raise PIFDecodeError("truncated extension")
    content = int.from_bytes(data[position + 1 : position + ITEM_SIZE], "big")
    extension = None
    if length > ITEM_SIZE:
        extension = int.from_bytes(data[position + ITEM_SIZE : position + length], "big")
    return Item(tag, content, extension), position + length


def scan_items(stream: bytes) -> list[Item]:
    """Split a raw in-line stream into items (extensions folded in)."""
    items: list[Item] = []
    position = 0
    while position < len(stream):
        item, position = read_item(stream, position)
        items.append(item)
    return items


def var_name(names: tuple[str, ...], offset: int) -> str:
    """The name behind a variable item's offset; ``_V<offset>`` if unnamed."""
    return names[offset] if offset < len(names) else f"_V{offset}"


_C = tags.TagCategory
_ATOM, _INT, _FLOAT, _ANON = _C.ATOM, _C.INTEGER, _C.FLOAT, _C.ANONYMOUS
_VARIABLES = frozenset(
    (_C.FIRST_QUERY_VAR, _C.SUB_QUERY_VAR, _C.FIRST_DB_VAR, _C.SUB_DB_VAR)
)
_STRUCTS = frozenset((_C.STRUCT_INLINE, _C.STRUCT_PTR))
_POINTERS = frozenset((_C.STRUCT_PTR, _C.TLIST_PTR, _C.ULIST_PTR))

#: The smallest heap blob an encoder writes: its u32 count and one item
#: (a pointer structure has over 31 arguments, a pointer list a tail).
_MIN_BLOB = 4 + ITEM_SIZE


def decode_term_at(
    data: bytes,
    position: int,
    heap: bytes,
    var_names: tuple[str, ...],
    symbols: SymbolTable,
    end: int | None = None,
    budget: list[int] | None = None,
) -> tuple[Term, int]:
    """The whole term whose first item is at ``position``, and its end.

    ``data`` is a stream, read to its end, or — when ``end`` is given —
    the heap, read only below ``end``.  A pointer form's 4-byte
    extension indexes ``heap``, whose blob is a u32 element count, the
    element items and, for lists, the tail item.  The encoder writes
    blobs post-order, so a blob reached from inside the heap lies wholly
    below the item that points to it.  That is enforced: the blob must
    fit below the pointing item's start, which becomes the ``end`` of
    every read inside it.  Each pointer followed therefore strictly
    lowers ``end``, and the walk terminates on any input.

    Termination is not enough: k heap levels whose blobs each point
    twice at the one below decode to 2^k items.  A valid record decodes
    each blob once, so the items read out of blobs never exceed
    ``(len(stream) + len(heap)) // 4``; ``budget`` (a one-element list,
    shared by every term of one stream — :meth:`PIFDecoder.decode_args`
    passes one) counts them down.  A truncated item or extension, an
    unassigned tag, a heap pointer out of range or a spent budget raises
    :class:`PIFDecodeError`; a dangling symbol offset raises
    ``KeyError``.

    Compound terms open frames on an explicit stack instead of
    recursing, so nesting depth is bounded by the input, not by the
    interpreter's frame limit.  A frame is ``[category, functor offset,
    elements, elements wanted, resume]``; ``resume`` is where a pointer
    form's parent goes on reading once its blob is done.
    """
    source = data
    limit = len(data) if end is None else end
    in_heap = end is not None
    frames: list[list] = []
    while True:
        start = position
        if position + ITEM_SIZE > limit:
            raise PIFDecodeError("truncated item")
        tag = source[position]
        content = (source[position + 1] << 16) | (source[position + 2] << 8) | source[
            position + 3
        ]
        position += ITEM_SIZE
        category = tags.CATEGORY[tag]
        if category is _ATOM:
            term = symbols.atom_at(content)
        elif category is _INT:
            term = Int(tags.inline_int(tag, content))
        elif category in _VARIABLES:
            term = Var(var_name(var_names, content))
        elif category is _ANON:
            term = ANONYMOUS
        elif category is _FLOAT:
            term = symbols.float_at(content)
        elif category is None:
            raise PIFDecodeError(f"unassigned PIF tag 0x{tag:02x}")
        else:
            if budget is None:
                budget = [(len(data) + len(heap)) // ITEM_SIZE]
            resume = None
            if category in _POINTERS:
                if position + EXTENSION_SIZE > limit:
                    raise PIFDecodeError("truncated extension")
                blob = int.from_bytes(source[position : position + EXTENSION_SIZE], "big")
                position += EXTENSION_SIZE
                # From the stream, the blob may sit anywhere in the heap;
                # from inside the heap, only wholly below this item.
                inner = start if in_heap else len(heap)
                if blob + _MIN_BLOB > inner:
                    raise PIFDecodeError(f"heap pointer {blob} out of range")
                count = int.from_bytes(heap[blob : blob + 4], "big")
                # At most the blob's words: its count word and elements
                # (lists add a tail item on top).
                budget[0] -= count + 1
                if budget[0] < 0:
                    raise PIFDecodeError("heap blobs decoded past the record's size")
                resume = (source, position, limit, in_heap)
                source, position, limit, in_heap = heap, blob + 4, inner, True
            else:
                count = tag & tags.ARITY_MASK
            if category in _STRUCTS:
                wanted = count
            elif count == 0 and category is _C.TLIST_INLINE:
                wanted = 0  # the empty list, []
            else:
                wanted = count + 1  # a list's elements, then its tail
            frames.append([category, content, [], wanted, resume])
            if wanted:
                continue
            term = _close(frames.pop(), symbols)
        # Hand the finished term up through every frame it completes.
        while frames:
            frame = frames[-1]
            elements = frame[2]
            elements.append(term)
            if len(elements) < frame[3]:
                break
            frames.pop()
            term = _close(frame, symbols)
            if frame[4] is not None:
                source, position, limit, in_heap = frame[4]
        else:
            return term, position


def _close(frame: list, symbols: SymbolTable) -> Term:
    """The term of a frame whose elements are all read."""
    category, content, elements, wanted, _ = frame
    if category in _STRUCTS:
        return Struct(symbols.atom_name_at(content), tuple(elements))
    if not wanted:
        return NIL
    return make_list(elements[:-1], tail=elements[-1])


class PIFDecoder:
    """Reconstruct terms from encoded arguments."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols

    def decode_head(self, encoded: EncodedArgs) -> Term:
        """Rebuild the full head term ``functor(args...)``."""
        name, arity = encoded.indicator
        if arity == 0:
            return Atom(name)
        args = self.decode_args(encoded)
        if len(args) != arity:
            raise PIFDecodeError(
                f"stream holds {len(args)} arguments, indicator says {arity}"
            )
        return Struct(name, tuple(args))

    def decode_args(self, encoded: EncodedArgs) -> list[Term]:
        """Decode the argument stream into a list of terms."""
        data, heap, names = encoded.stream, encoded.heap, encoded.var_names
        budget = [(len(data) + len(heap)) // ITEM_SIZE]
        terms = []
        position = 0
        while position < len(data):
            term, position = decode_term_at(
                data, position, heap, names, self.symbols, None, budget
            )
            terms.append(term)
        return terms

    def decode_term(self, encoded: EncodedArgs) -> Term:
        """Decode a single-term encoding (inverse of ``encode_term``)."""
        terms = self.decode_args(encoded)
        if len(terms) != 1:
            raise PIFDecodeError(f"expected one term, found {len(terms)}")
        return terms[0]
