"""The Test Unification Engine (paper section 3.3, Figure 5).

The TUE owns the two binding memories and the comparator:

* **DB Memory** — dual-ported, holds database-variable bindings; "reset to
  pointing to itself at the beginning of each clause input" (an empty slot
  models the self-pointer / unbound state);
* **Query Memory** — pre-loaded with the query at Set Query time; its
  variable slots receive database terms via QUERY_STORE.

Bindings are *side-tagged terms*: a slot holds either a concrete term or a
reference to a variable of either side (a cross binding).  Storing a whole
term models the hardware's pointer into the Double Buffer / Query Memory —
both retain their data for the duration of a clause match.

Comparisons of fetched bindings are folded into the fetch operation and
are *shallow* (the stored word is one tag+content pair): structures match
on functor and tag arity, lists on the open-list counter rule, and no
elements are ever descended into.  Every operation accrues its Table 1
execution time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..pif.tags import INLINE_ARITY_LIMIT
from ..terms import NIL, Atom, Float, Int, Struct, Term, Var, list_parts
from ..unify.match import HardwareOp
from .timing import execution_time_ns

__all__ = ["SideTerm", "TestUnificationEngine"]

@dataclass(frozen=True, slots=True)
class SideTerm:
    """A term together with the side ('db'/'query') its variables live on."""

    term: Term
    side: str


class TestUnificationEngine:
    """Binding memories, comparator, and the variable-case operations."""

    def __init__(self, cross_binding: bool = True):
        self.cross_binding = cross_binding
        self._query_memory: dict[str, SideTerm] = {}
        self._db_memory: dict[str, SideTerm] = {}
        self.op_counts: Counter = Counter()
        self.op_time_ns = 0

    # -- memories ------------------------------------------------------------

    def reset_db_memory(self) -> None:
        """Per-clause reset: every DB slot points to itself (unbound)."""
        self._db_memory.clear()

    def reset_query_memory(self) -> None:
        """Set Query time: binding slots start unbound."""
        self._query_memory.clear()

    def reset_accounting(self) -> None:
        self.op_counts = Counter()
        self.op_time_ns = 0

    def _store_of(self, side: str) -> dict[str, SideTerm]:
        return self._db_memory if side == "db" else self._query_memory

    def slot(self, side: str, name: str) -> SideTerm | None:
        return self._store_of(side).get(name)

    def record_op(self, op: HardwareOp) -> None:
        self.op_counts[op] += 1
        self.op_time_ns += execution_time_ns(op)

    # -- Figure 1 variable cases ----------------------------------------------

    def var_first(self, side: str, name: str, other: SideTerm) -> None:
        """Cases 5a/6a: store the opposite term in a fresh slot."""
        self.record_op(
            HardwareOp.DB_STORE if side == "db" else HardwareOp.QUERY_STORE
        )
        self._store_of(side)[name] = other
        term = other.term
        if isinstance(term, Var) and not term.is_anonymous():
            # Var-var pair: reciprocal cross binding (if that slot is free).
            other_store = self._store_of(other.side)
            if term.name not in other_store:
                self.record_op(
                    HardwareOp.QUERY_STORE if side == "db" else HardwareOp.DB_STORE
                )
                other_store[term.name] = SideTerm(Var(name), side)

    def var_subsequent(self, side: str, name: str, other: SideTerm) -> bool:
        """Cases 5b/5c (db) and 6b/6c (query): fetch and compare."""
        store = self._store_of(side)
        binding = store.get(name)
        if binding is None:
            # The first occurrence sat inside a skipped subtree; the slot is
            # still unbound, so this behaves as a store.
            self.var_first(side, name, other)
            return True
        if isinstance(binding.term, Var):
            if not self.cross_binding:
                self.record_op(
                    HardwareOp.DB_FETCH if side == "db" else HardwareOp.QUERY_FETCH
                )
                return True
            self.record_op(
                HardwareOp.DB_CROSS_BOUND_FETCH
                if side == "db"
                else HardwareOp.QUERY_CROSS_BOUND_FETCH
            )
            ultimate = self._deref(binding)
            if isinstance(ultimate.term, Var):
                if isinstance(other.term, Var):
                    other_ultimate = self._deref(other)
                    if (
                        isinstance(other_ultimate.term, Var)
                        and other_ultimate == ultimate
                    ):
                        return True
                self._store_of(ultimate.side)[ultimate.term.name] = other
                return True
            binding = ultimate
        else:
            self.record_op(
                HardwareOp.DB_FETCH if side == "db" else HardwareOp.QUERY_FETCH
            )
        # The fetched association meets the current term (folded compare).
        return self.dispatch_terms(binding, other, folded=True)

    def _deref(self, value: SideTerm) -> SideTerm:
        """Chase cross-binding references to the ultimate association."""
        visited: set[tuple[str, str]] = set()
        current = value
        while isinstance(current.term, Var):
            if current.term.is_anonymous():
                return current
            key = (current.side, current.term.name)
            if key in visited:
                return current  # reference cycle: mutually unbound
            visited.add(key)
            bound = self._store_of(current.side).get(current.term.name)
            if bound is None:
                return current
            current = bound
        return current

    # -- term-level dispatch (for fetched bindings and list tails) -----------

    def dispatch_terms(self, a: SideTerm, b: SideTerm, folded: bool = False) -> bool:
        """Figure 1 over two materialised terms.

        Used where the datapath compares values that are no longer raw
        stream items: fetched bindings and the tails of aligned lists.
        Complex comparisons here are always shallow.
        """
        if isinstance(a.term, Var) and a.term.is_anonymous():
            return True
        if isinstance(b.term, Var) and b.term.is_anonymous():
            return True
        db_first, other = (a, b) if a.side == "db" else (b, a)
        if isinstance(db_first.term, Var) and db_first.side == "db":
            return self.var_subsequent_or_first(db_first, other)
        if isinstance(other.term, Var):
            return self.var_subsequent_or_first(other, db_first)
        if isinstance(a.term, Var):  # both same side 'query' with a var
            return self.var_subsequent_or_first(a, b)
        if isinstance(b.term, Var):
            return self.var_subsequent_or_first(b, a)
        if not folded:
            self.record_op(HardwareOp.MATCH)
        return self.shallow_compare(a.term, b.term)

    def var_subsequent_or_first(self, var_side: SideTerm, other: SideTerm) -> bool:
        """Route a variable occurrence by slot state (store vs fetch)."""
        assert isinstance(var_side.term, Var)
        name = var_side.term.name
        if name in self._store_of(var_side.side):
            return self.var_subsequent(var_side.side, name, other)
        self.var_first(var_side.side, name, other)
        return True

    # -- the comparator ---------------------------------------------------

    def shallow_compare(self, a: Term, b: Term) -> bool:
        """One tag+content comparison (what the 8-bit comparator sees)."""
        a_kind = _kind(a)
        b_kind = _kind(b)
        if a_kind != b_kind:
            return False
        if a_kind == "int":
            assert isinstance(a, Int) and isinstance(b, Int)
            return a.value == b.value
        if a_kind == "atom":
            assert isinstance(a, Atom) and isinstance(b, Atom)
            return a.name == b.name
        if a_kind == "float":
            assert isinstance(a, Float) and isinstance(b, Float)
            return a.value == b.value
        if a_kind == "struct":
            assert isinstance(a, Struct) and isinstance(b, Struct)
            if a.functor != b.functor:
                return False
            return _saturated(a.arity) == _saturated(b.arity)
        # Lists: the open-list counter rule on tags.
        a_items, a_tail = list_parts(a)
        b_items, b_tail = list_parts(b)
        a_open = isinstance(a_tail, Var)
        b_open = isinstance(b_tail, Var)
        if a_open or b_open:
            if len(a_items) > INLINE_ARITY_LIMIT or len(b_items) > INLINE_ARITY_LIMIT:
                return True  # pointer form: tags cannot disagree decisively
            return True  # unlimited list: arities need not agree
        return _saturated(len(a_items)) == _saturated(len(b_items))


def _kind(term: Term) -> str:
    if isinstance(term, Int):
        return "int"
    if isinstance(term, Float):
        return "float"
    if isinstance(term, Struct):
        if term.functor == "." and term.arity == 2:
            return "list"
        return "struct"
    if isinstance(term, Atom):
        return "list" if term == NIL else "atom"
    raise TypeError(f"unexpected term {term!r}")


def _saturated(arity: int) -> tuple[bool, int]:
    """(in-line?, field) — the tag view of an arity (saturates at 31)."""
    return (arity <= INLINE_ARITY_LIMIT, min(arity, INLINE_ARITY_LIMIT))
