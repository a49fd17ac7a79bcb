"""Prolog term data model.

Terms are immutable values.  The representation follows Edinburgh Prolog:

* :class:`Atom` -- symbolic constants (``foo``, ``[]``, ``'hello world'``).
* :class:`Int` / :class:`Float` -- numeric constants.
* :class:`Var` -- logic variables; the reserved name ``_`` is anonymous.
* :class:`Struct` -- compound terms ``f(t1, ..., tn)`` with ``n >= 1``.

Lists are ordinary compound terms built from the cons functor ``'.'/2`` and
the empty-list atom ``[]``; :func:`make_list` and :func:`list_parts` convert
between Python sequences and cons chains.  This mirrors the CLARE paper's
distinction between *terminated* lists (ending in ``[]``) and *unterminated*
("unlimited") lists ending in a tail variable, e.g. ``[a,b|Tail]``.

Pickling carries terms over every process hop, and it stores each term
in constructor form, so the constructor's checks run again on load.  A
compound pickles flat, as its pre-order tokens (functor and arity per
node, leaves as they are), and is rebuilt without recursion: a
5 000-element list crosses a pipe at the default recursion limit.  An
atom unpickles through a weak-valued table that hands out one
:class:`Atom` per name while any is alive.  Equality and hashing stay
by value, so sharing an object is only ever a saving.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "Term",
    "Atom",
    "Int",
    "Float",
    "Var",
    "Struct",
    "NIL",
    "CONS",
    "ANONYMOUS",
    "make_list",
    "list_parts",
    "is_list_term",
    "is_proper_list",
    "variables",
    "is_ground",
    "rename_apart",
    "term_depth",
    "term_size",
    "fresh_var",
    "functor_indicator",
]


class Term:
    """Abstract base class for all Prolog terms."""

    __slots__ = ()

    def is_callable(self) -> bool:
        """True for atoms and compound terms (things that can be a goal)."""
        return isinstance(self, (Atom, Struct))


@dataclass(frozen=True)
class Atom(Term):
    """A symbolic constant."""

    # Spelled out rather than ``slots=True``: the weak intern table
    # needs ``__weakref__``, and ``weakref_slot`` is not in Python 3.10.
    __slots__ = ("name", "__weakref__")

    name: str

    def __reduce__(self):
        return (_interned_atom, (self.name,))

    def __str__(self) -> str:
        from .writer import term_to_string

        return term_to_string(self)


@dataclass(frozen=True, slots=True)
class Int(Term):
    """An integer constant."""

    value: int

    def __reduce__(self):
        return (Int, (self.value,))

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Float(Term):
    """A floating point constant."""

    value: float

    def __reduce__(self):
        return (Float, (self.value,))

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A logic variable, identified by name within one clause/query."""

    name: str

    def __reduce__(self):
        return (Var, (self.name,))

    def is_anonymous(self) -> bool:
        """True for the don't-care variable ``_``."""
        return self.name == "_"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, eq=False)
class Struct(Term):
    """A compound term ``functor(arg1, ..., argN)`` with arity >= 1.

    Equality and hashing walk the term with an explicit stack, so a
    long list compares and hashes without Python recursion.
    """

    functor: str
    args: tuple[Term, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError(
                f"Struct {self.functor!r} needs at least one argument; "
                "use Atom for arity-0 constants"
            )
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Struct:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            left, right = stack.pop()
            if left is right:
                continue
            if left.__class__ is Struct:
                if (
                    right.__class__ is not Struct
                    or left.functor != right.functor
                    or len(left.args) != len(right.args)
                ):
                    return False
                stack.extend(zip(left.args, right.args))
            elif left != right:
                return False
        return True

    def __hash__(self) -> int:
        # Functor and arity of every node plus the leaves, in a fixed
        # traversal order: equal terms give equal token sequences.
        tokens: list = []
        stack: list[Term] = [self]
        while stack:
            term = stack.pop()
            if term.__class__ is Struct:
                tokens.append(term.functor)
                tokens.append(len(term.args))
                stack.extend(term.args)
            else:
                tokens.append(term)
        return hash(tuple(tokens))

    def __reduce__(self):
        # Pre-order tokens, so nested compounds never reach the
        # pickler's own recursion.  Each atom leaf is swapped for the
        # live atom of its name: the pickler memoizes by identity, so
        # a name then crosses once per pickle, not once per occurrence.
        tokens: list = []
        stack: list[Term] = [self]
        while stack:
            term = stack.pop()
            if term.__class__ is Struct:
                tokens.append(term.functor)
                tokens.append(len(term.args))
                stack.extend(reversed(term.args))
            elif term.__class__ is Atom:
                tokens.append(_INTERNED_ATOMS.setdefault(term.name, term))
            else:
                tokens.append(term)
        return (_struct_from_tokens, (tuple(tokens),))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple[str, int]:
        """The predicate indicator ``(name, arity)``."""
        return (self.functor, self.arity)

    def __str__(self) -> str:
        from .writer import term_to_string

        return term_to_string(self)


def _struct_from_tokens(tokens: tuple) -> Struct:
    """Rebuild a compound from its :meth:`Struct.__reduce__` tokens.

    Read back to front: a leaf is pushed, and a functor (a ``str``; a
    leaf is always a term) takes its arity's worth of finished
    arguments off the stack, first argument on top.
    """
    stack: list[Term] = []
    for index in range(len(tokens) - 1, -1, -1):
        token = tokens[index]
        if isinstance(token, str):
            start = len(stack) - tokens[index + 1]
            if start < 0:
                raise ValueError(f"compound {token!r} is missing arguments")
            args = stack[start:]
            del stack[start:]
            args.reverse()
            stack.append(Struct(token, tuple(args)))
        elif not isinstance(token, int):
            stack.append(token)
    (term,) = stack
    return term


#: The empty list atom.
NIL = Atom("[]")

#: Atoms rebuilt by unpickling, one per name while any of them is alive.
#: Weak values: a goal's fresh atom leaves no entry once the goal is
#: dropped, so clients cannot grow the table.
_INTERNED_ATOMS: weakref.WeakValueDictionary[str, Atom] = (
    weakref.WeakValueDictionary({NIL.name: NIL})
)


def _interned_atom(name: str) -> Atom:
    """The live :class:`Atom` named ``name``, made if there is none."""
    atom = _INTERNED_ATOMS.get(name)
    if atom is None:
        atom = _INTERNED_ATOMS.setdefault(name, Atom(name))
    return atom

#: The list-cons functor name.
CONS = "."

#: The anonymous (don't-care) variable.
ANONYMOUS = Var("_")

_fresh_counter = itertools.count(1)


def fresh_var(prefix: str = "_G") -> Var:
    """Return a variable with a globally unique machine-generated name."""
    return Var(f"{prefix}{next(_fresh_counter)}")


def make_list(items: Sequence[Term] | Iterable[Term], tail: Term = NIL) -> Term:
    """Build a cons-chain list term from ``items`` ending in ``tail``.

    With the default tail this builds a *terminated* list; passing a
    :class:`Var` tail builds an *unterminated* list such as ``[a,b|T]``.
    """
    result = tail
    for item in reversed(list(items)):
        result = Struct(CONS, (item, result))
    return result


def list_parts(term: Term) -> tuple[list[Term], Term]:
    """Split a cons chain into ``(prefix_elements, tail)``.

    For a proper list the tail is ``NIL``; for a partial list it is the
    first non-cons term encountered (usually a variable).  A non-list term
    yields ``([], term)``.
    """
    items: list[Term] = []
    while isinstance(term, Struct) and term.functor == CONS and term.arity == 2:
        items.append(term.args[0])
        term = term.args[1]
    return items, term


def is_list_term(term: Term) -> bool:
    """True if ``term`` is a cons cell or the empty list."""
    if term == NIL:
        return True
    return isinstance(term, Struct) and term.functor == CONS and term.arity == 2


def is_proper_list(term: Term) -> bool:
    """True if ``term`` is a cons chain terminated by ``[]``."""
    _, tail = list_parts(term)
    return tail == NIL


def variables(term: Term) -> list[Var]:
    """All variables in ``term``, in first-occurrence order, without repeats."""
    seen: dict[Var, None] = {}
    _collect_vars(term, seen)
    return list(seen)


def _collect_vars(term: Term, seen: dict[Var, None]) -> None:
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            if current not in seen:
                seen[current] = None
        elif isinstance(current, Struct):
            stack.extend(reversed(current.args))


def is_ground(term: Term) -> bool:
    """True if ``term`` contains no variables."""
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            return False
        if isinstance(current, Struct):
            stack.extend(current.args)
    return True


def _map_variables(term: Term, replace) -> Term:
    """``term`` with each variable occurrence replaced by ``replace(var)``.

    Iterative (a long list costs no Python recursion) and sharing: a
    subterm none of whose variables changed is returned as is.
    """
    # Open compounds: [term, done args, whether any argument changed].
    frames: list[list] = []
    current = term
    while True:
        if isinstance(current, Struct):
            frames.append([current, [], False])
            current = current.args[0]
            continue
        result = replace(current) if isinstance(current, Var) else current
        while frames:
            frame = frames[-1]
            struct, done, changed = frame
            args = struct.args
            if result is not args[len(done)]:
                frame[2] = changed = True
            done.append(result)
            if len(done) < len(args):
                current = args[len(done)]
                break
            frames.pop()
            result = Struct(struct.functor, tuple(done)) if changed else struct
        else:
            return result


def rename_apart(
    term: Term, suffix: str | None = None, keep_anonymous: bool = False
) -> Term:
    """Return ``term`` with every variable consistently renamed fresh.

    Used to standardise clauses apart before resolution.  Anonymous
    variables each become a distinct fresh variable (``_`` never shares)
    unless ``keep_anonymous`` preserves them (matching treats ``_`` as a
    skip, so renaming it would change filter semantics).
    """
    mapping: dict[Var, Var] = {}

    def rename(var: Var) -> Var:
        if var.is_anonymous():
            return var if keep_anonymous else fresh_var()
        renamed = mapping.get(var)
        if renamed is None:
            if suffix is not None:
                renamed = Var(f"{var.name}{suffix}")
            else:
                renamed = fresh_var(f"_{var.name}_")
            mapping[var] = renamed
        return renamed

    return _map_variables(term, rename)


def freshen_anonymous(term: Term) -> Term:
    """Replace each anonymous-variable occurrence with a distinct fresh var.

    The reader maps every ``_`` to the same :class:`Var` object; resolution
    must treat each occurrence as independent, so goals are freshened
    before solving.
    """
    return _map_variables(
        term, lambda var: fresh_var("_A") if var.is_anonymous() else var
    )


def term_depth(term: Term) -> int:
    """Nesting depth: constants/variables are depth 0, ``f(a)`` is 1, etc."""
    if isinstance(term, Struct):
        return 1 + max(term_depth(a) for a in term.args)
    return 0


def term_size(term: Term) -> int:
    """Total number of atomic/variable/functor nodes in the term."""
    size = 0
    stack = [term]
    while stack:
        current = stack.pop()
        size += 1
        if isinstance(current, Struct):
            stack.extend(current.args)
    return size


def functor_indicator(term: Term) -> tuple[str, int]:
    """The ``(name, arity)`` indicator of a callable term."""
    if isinstance(term, Atom):
        return (term.name, 0)
    if isinstance(term, Struct):
        return term.indicator
    raise TypeError(f"term has no functor: {term!r}")


def subterms(term: Term) -> Iterator[Term]:
    """Iterate over every subterm of ``term``, including itself (pre-order)."""
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, Struct):
            stack.extend(reversed(current.args))


TermLike = Union[Term, int, float, str]


def to_term(value: TermLike) -> Term:
    """Coerce a Python scalar to a term (ints, floats, strings->atoms)."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not Prolog terms")
    if isinstance(value, int):
        return Int(value)
    if isinstance(value, float):
        return Float(value)
    if isinstance(value, str):
        return Atom(value)
    raise TypeError(f"cannot convert {value!r} to a term")
