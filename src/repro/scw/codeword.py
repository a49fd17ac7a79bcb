"""Superimposed codewords plus mask bits (SCW+MB) — the FS1 index scheme.

Each clause head is summarised by a fixed-width bit vector: every *ground*
component of every encoded argument hashes to ``bits_per_key`` positions,
and all positions are OR-ed together (superimposition).  The *mask bits*
extension (one bit per encoded argument, following Ramamohanarao &
Shepherd) records arguments that contain variables: such an argument can
unify with anything, so its position is exempted at match time.

Matching is *inclusion*: a clause codeword matches a query when, for every
encoded query argument, either the clause's mask bit for that position is
set, or all of the query argument's bits are present in the clause
codeword.  This is conservative by construction:

* query variables contribute no bits (no constraint);
* clause variables set the mask bit (constraint suppressed);
* ground-versus-ground mismatches are caught only probabilistically —
  hash collisions and superimposition produce the *false drops* ("ghosts")
  quantified in the paper's section 2.1, along with the two structural
  sources: truncation to :attr:`CodewordScheme.max_args` arguments and
  shared variables, which the scheme cannot see at all.

Hashing is keyed BLAKE2 so codewords are deterministic across processes
(clause files and their index files may be built at different times).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..terms import (
    CONS,
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
)
from .analysis import optimal_bits_per_key

try:  # hashlib's own blake2b, without loading OpenSSL through _hashlib
    from _blake2 import blake2b
except ImportError:  # an interpreter built without the builtin module
    from hashlib import blake2b

__all__ = ["CodewordScheme", "Codeword", "DEFAULT_SCHEME"]

#: entries a scheme's component-hash memo may hold before it is dropped.
KEY_BITS_MEMO_SIZE = 4096

#: one digest -> its eight big-endian 16-bit values.
_SIXTEEN_BIT_VALUES = struct.Struct(">8H").unpack


@dataclass(frozen=True)
class Codeword:
    """A clause or query signature: superimposed bits + per-argument masks.

    For queries, ``mask`` flags arguments that impose no constraint
    (variables); for clauses it flags arguments that can absorb anything.
    ``arg_bits`` keeps the per-argument bit groups so inclusion can be
    tested per position (the hardware stores only ``bits``+``mask`` per
    clause and recomputes the query side once per search).
    """

    bits: int
    mask: int
    arg_bits: tuple[int, ...] = ()


class CodewordScheme:
    """Parameters and hashing for SCW+MB generation.

    ``width``: codeword length in bits.  ``bits_per_key``: positions set
    per hashed component; by default ref [11]'s half-saturation optimum
    ``optimal_bits_per_key(width, max_args)`` (6 for 96 bits and 12
    arguments; the CLARE prototype used 2).  ``max_args``: arguments
    encoded before truncation (12 in the CLARE prototype).
    ``max_depth``: how deep inside an argument ground components are
    harvested.
    """

    def __init__(
        self,
        width: int = 96,
        bits_per_key: int | None = None,
        max_args: int = 12,
        max_depth: int = 4,
    ):
        if width < 8:
            raise ValueError("codeword width must be at least 8 bits")
        if max_args < 1:
            raise ValueError("max_args must be positive")
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if bits_per_key is None:
            bits_per_key = optimal_bits_per_key(width, max_args)
        if not (1 <= bits_per_key <= width):
            raise ValueError("bits_per_key must be in [1, width]")
        self.width = width
        self.bits_per_key = bits_per_key
        self.max_args = max_args
        self.max_depth = max_depth
        #: position -> a salted, empty BLAKE2 state, copied per hash
        #: (built on first use: ``max_args`` may come from a manifest).
        self._salted: dict[int, blake2b] = {}
        #: (position, component key) -> hashed bits.  A knowledge base
        #: hashes the same few thousand components over and over (clause
        #: and query side alike); see :meth:`_key_bits`.
        self._key_bits_memo: dict[tuple[int, str], int] = {}
        #: (position, atom name or integer) -> its bits, for an atomic
        #: argument: no component key is built, or kept, per use.
        self._atomic_memo: dict[tuple[int, str | int], int] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodewordScheme):
            return NotImplemented
        return (
            self.width == other.width
            and self.bits_per_key == other.bits_per_key
            and self.max_args == other.max_args
            and self.max_depth == other.max_depth
        )

    def __reduce__(self):
        """Pickle by parameters (BLAKE2 states do not pickle)."""
        return (
            CodewordScheme,
            (self.width, self.bits_per_key, self.max_args, self.max_depth),
        )

    def __hash__(self) -> int:
        return hash((self.width, self.bits_per_key, self.max_args, self.max_depth))

    def __repr__(self) -> str:
        return (
            f"CodewordScheme(width={self.width}, bits_per_key={self.bits_per_key}, "
            f"max_args={self.max_args}, max_depth={self.max_depth})"
        )

    # -- public API --------------------------------------------------------

    def clause_codeword(self, head: Term) -> Codeword:
        """The stored signature of a clause head."""
        return self._encode(head)

    def query_codeword(self, query: Term) -> Codeword:
        """The probe signature of a query (same construction)."""
        return self._encode(query)

    def matches(self, query: Codeword, clause: Codeword) -> bool:
        """SCW+MB inclusion test (the FS1 match condition).

        For every constrained query argument the clause must either mask
        the position or contain all the argument's bits.
        """
        for position, bits in enumerate(query.arg_bits):
            if bits == 0:
                continue  # query imposes no constraint here
            if clause.mask & (1 << position):
                continue  # clause absorbs anything at this position
            if bits & clause.bits != bits:
                return False
        return True

    @property
    def codeword_bytes(self) -> int:
        """Stored size of one codeword (bits field only)."""
        return (self.width + 7) // 8

    @property
    def mask_bytes(self) -> int:
        return (self.max_args + 7) // 8

    def entry_bytes(self, address_bytes: int = 4) -> int:
        """One secondary-file entry: codeword + mask bits + clause address."""
        return self.codeword_bytes + self.mask_bytes + address_bytes

    def saturation(self, codeword: Codeword) -> float:
        """Fraction of bits set — a codeword quality metric."""
        return bin(codeword.bits).count("1") / self.width

    # -- encoding ------------------------------------------------------------

    def _encode(self, head: Term) -> Codeword:
        args: tuple[Term, ...]
        if isinstance(head, Struct):
            args = head.args
        else:
            args = ()
        bits = 0
        mask = 0
        arg_bits: list[int] = []
        atomic = self._atomic_memo
        for position, arg in enumerate(args):
            if position >= self.max_args:
                # Truncation: unencoded arguments are unconstrained on the
                # query side and absorbing on the clause side.
                mask |= ((1 << (len(args) - position)) - 1) << position
                arg_bits.extend(0 for _ in args[position:])
                break
            kind = arg.__class__
            if kind is Atom or kind is Int:
                # An atomic argument is one component: its bits straight
                # off the memo, keyed by the name (a str) or the value
                # (an int), which never compare equal to each other.
                value = arg.name if kind is Atom else arg.value
                group = atomic.get((position, value))
                if group is None:
                    group = self._atomic_bits(position, value)
                bits |= group
                arg_bits.append(group)
                continue
            group = 0
            has_variable = False
            for key in self._components(arg, position):
                if key is None:
                    has_variable = True
                else:
                    group |= self._key_bits(position, key)
            bits |= group
            if has_variable:
                mask |= 1 << position
            arg_bits.append(group)
        return Codeword(bits=bits, mask=mask, arg_bits=tuple(arg_bits))

    def _atomic_bits(self, position: int, value: str | int) -> int:
        """The hash of an atom's or integer's one component, kept in the
        atomic memo only (bounded and dropped like :meth:`_key_bits`')."""
        key = f"a:{value}" if value.__class__ is str else f"i:{value}"
        memo = self._atomic_memo
        if len(memo) >= KEY_BITS_MEMO_SIZE:
            memo.clear()
        bits = memo[position, value] = self._hash_key(position, key)
        return bits

    def _components(self, term: Term, position: int) -> list[str | None]:
        """Hashable descriptors of one argument's ground components.

        ``None`` entries report variables (anywhere in the argument, to
        any depth we harvest), which force the mask bit.
        """
        found: list[str | None] = []
        self._harvest(term, 0, found)
        return found

    def _harvest(self, term: Term, depth: int, found: list[str | None]) -> None:
        if isinstance(term, Var):
            found.append(None)
            return
        if depth > self.max_depth:
            # Beyond harvest depth either side may hide anything: treat the
            # subterm as an unconstrained variable for soundness.
            found.append(None)
            return
        if isinstance(term, Atom):
            found.append(f"a:{term.name}")
            return
        if isinstance(term, Int):
            found.append(f"i:{term.value}")
            return
        if isinstance(term, Float):
            # Key by *value equality*, the relation unification uses:
            # -0.0 == 0.0 must hash identically or FS1 drops a true
            # unifier (the PIF symbol table already interns by value).
            value = 0.0 if term.value == 0 else term.value
            found.append(f"f:{value!r}")
            return
        assert isinstance(term, Struct)
        if term.functor == CONS and term.arity == 2:
            found.append("l:.")
            current: Term = term
            while isinstance(current, Struct) and current.indicator == (CONS, 2):
                self._harvest(current.args[0], depth + 1, found)
                current = current.args[1]
            if current != NIL:
                self._harvest(current, depth + 1, found)
            return
        found.append(f"s:{term.functor}/{term.arity}")
        for element in term.args:
            self._harvest(element, depth + 1, found)

    def _key_bits(self, position: int, key: str) -> int:
        """``bits_per_key`` deterministic positions for one component.

        Memoised per (position, key), at most :data:`KEY_BITS_MEMO_SIZE`
        entries; a full memo is dropped whole rather than aged.
        """
        memo = self._key_bits_memo
        bits = memo.get((position, key))
        if bits is None:
            if len(memo) >= KEY_BITS_MEMO_SIZE:
                memo.clear()
            bits = memo[position, key] = self._hash_key(position, key)
        return bits

    def _hash_key(self, position: int, key: str) -> int:
        """The hash itself (what the memo is tested against).

        The 16-byte BLAKE2 digest of ``key``, salted by ``position``, is
        read as eight big-endian 16-bit values, each naming bit
        ``value % width``.  Values are taken in order until
        ``bits_per_key`` distinct bits are set; a digest that runs out
        is followed by the digest of ``key + counter`` (4 bytes, from 1).
        """
        salted = self._salted.get(position)
        if salted is None:
            salted = self._salted[position] = blake2b(
                digest_size=16, salt=position.to_bytes(8, "big")
            )
        data = key.encode("utf-8")
        width = self.width
        wanted = self.bits_per_key
        hasher = salted.copy()
        hasher.update(data)
        bits = 0
        count = 0
        counter = 0
        while True:
            for value in _SIXTEEN_BIT_VALUES(hasher.digest()):
                bit = 1 << (value % width)
                if not bits & bit:
                    bits |= bit
                    count += 1
                    if count == wanted:
                        return bits
            counter += 1
            hasher = salted.copy()
            hasher.update(data + counter.to_bytes(4, "big"))


#: The one default scheme (96 bits, k = 6, 12 arguments) every knowledge
#: base, cluster and fleet is built with unless a caller passes another.
DEFAULT_SCHEME = CodewordScheme()
