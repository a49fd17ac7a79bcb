"""Partial test unification — the Figure 1 algorithm at match levels 1-5.

The paper investigates five levels of partial matching between a query
argument and a database (clause head) argument, differing in how deeply the
two terms are compared:

* **Level 1** — type (tag) only.  Since a PIF tag encodes arity for complex
  terms and the most significant nibble for in-line integers, "type only"
  still discriminates arity and coarse integer magnitude.
* **Level 2** — type and content, *ignoring* complex structures: simple
  terms compare values/symbols; structures and lists compare tag + content
  (functor symbol and arity) without descending into their elements.
* **Level 3** — type and content, catering for *first level* structures:
  the top-level elements of a structure/list are compared by level-2 rules.
* **Level 4** — type and content with *full* structures (unbounded depth).
* **Level 5** — level 4 plus variable cross-binding checks.

CLARE's FS2 implements **level 3 extended with cross-binding checks** (the
paper judged level 4/5 hardware too costly).  The variable machinery
(Figure 1 cases 5 and 6) is shared by levels 2-5: first occurrences of
query/database variables are stored (DB_STORE / QUERY_STORE), subsequent
occurrences are fetched and compared (DB_FETCH / QUERY_FETCH), and when a
fetched association is itself a variable the *ultimate* association is
chased (DB_CROSS_BOUND_FETCH / QUERY_CROSS_BOUND_FETCH) when cross-binding
checks are enabled.

Every matcher here is **conservative**: it never rejects a clause whose
head fully unifies with the query (the filter-soundness invariant).  It may
accept non-unifiers — those are the *false drops* the paper quantifies.

The matcher also counts hardware-operation invocations so that benchmarks
can cost a search with the Table 1 execution times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum

from ..pif.tags import INLINE_ARITY_LIMIT
from ..terms import (
    CONS,
    NIL,
    Atom,
    Float,
    Int,
    Struct,
    Term,
    Var,
    functor_indicator,
    list_parts,
    rename_apart,
    variables,
)

__all__ = [
    "MatchLevel",
    "HardwareOp",
    "MatchOutcome",
    "PartialMatcher",
    "partial_match",
    "match_clause_head",
]

class MatchLevel(IntEnum):
    """The five matching depths investigated in the paper (section 2.2)."""

    TYPE_ONLY = 1
    TYPE_AND_CONTENT = 2
    FIRST_LEVEL_STRUCTURES = 3
    FULL_STRUCTURES = 4
    FULL_WITH_CROSS_BINDING = 5


class HardwareOp(IntEnum):
    """The seven FS2 hardware operations (paper sections 3.3.1-3.3.7)."""

    MATCH = 1
    DB_STORE = 2
    QUERY_STORE = 3
    DB_FETCH = 4
    QUERY_FETCH = 5
    DB_CROSS_BOUND_FETCH = 6
    QUERY_CROSS_BOUND_FETCH = 7


@dataclass
class MatchOutcome:
    """Result of matching one clause head: decision plus op accounting."""

    hit: bool
    ops: Counter = field(default_factory=Counter)

    def op_count(self) -> int:
        return sum(self.ops.values())


class _Stores:
    """Variable binding stores (DB Memory / Query Memory model).

    One store per side; a binding value is either a non-variable
    :class:`Term` or a :class:`Var` (a cross-binding reference).
    """

    __slots__ = ("db", "query", "active")

    def __init__(self) -> None:
        self.db: dict[Var, Term] = {}
        self.query: dict[Var, Term] = {}
        # Fetch-comparisons in progress: a repeated (var, term) comparison
        # means the bindings are cyclic (rational-tree unification without
        # occurs check); coinductively, the repeat succeeds.
        self.active: set[tuple[str, Var, Term]] = set()

    def store_for(self, var: Var, db_vars: frozenset[Var]) -> dict[Var, Term]:
        return self.db if var in db_vars else self.query

    def deref(self, var: Var, db_vars: frozenset[Var]) -> Term:
        """Chase cross-binding references to the ultimate association.

        Returns an unbound variable (possibly ``var`` itself, or the cycle
        representative when references form a loop) or a non-variable term.
        """
        visited: set[Var] = set()
        current: Term = var
        while isinstance(current, Var):
            if current in visited:
                return current  # reference cycle == mutually unbound
            visited.add(current)
            store = self.store_for(current, db_vars)
            bound = store.get(current)
            if bound is None:
                return current
            current = bound
        return current


class PartialMatcher:
    """Match one query against many clause heads at a given level.

    The query is analysed once (its variables form the "query side"); each
    call to :meth:`match_head` models streaming one clause past the filter:
    the DB store is reset per clause, and query-variable slots are
    re-stored at each first occurrence, exactly as the hardware's static
    1st-QV/Sub-QV typing implies.
    """

    def __init__(
        self,
        query: Term,
        level: MatchLevel | int = MatchLevel.FIRST_LEVEL_STRUCTURES,
        cross_binding: bool = True,
    ):
        self.level = MatchLevel(level)
        if self.level == MatchLevel.FULL_WITH_CROSS_BINDING:
            cross_binding = True
        self.cross_binding = cross_binding
        self.query = query
        self.indicator = functor_indicator(query)
        self._query_vars = frozenset(
            v for v in variables(query) if not v.is_anonymous()
        )

    # -- public API --------------------------------------------------------

    def match_head(self, head: Term) -> MatchOutcome:
        """Test one clause head; returns the hit decision and op counts."""
        if functor_indicator(head) != self.indicator:
            return MatchOutcome(hit=False)
        if self._query_vars & {v for v in variables(head) if not v.is_anonymous()}:
            # Same variable names on both sides: standardise the clause apart,
            # as the clause compiler would have done.
            head = rename_apart(head, keep_anonymous=True)
        outcome = MatchOutcome(hit=True)
        if isinstance(self.query, Atom):  # arity 0: functor match is enough
            return outcome
        assert isinstance(self.query, Struct) and isinstance(head, Struct)
        stores = _Stores()
        db_vars = frozenset(v for v in variables(head) if not v.is_anonymous())
        for db_arg, query_arg in zip(head.args, self.query.args):
            if not self._match_pair(db_arg, query_arg, 0, stores, db_vars, outcome):
                outcome.hit = False
                break
        return outcome

    # -- Figure 1 dispatch ---------------------------------------------------

    def _match_pair(
        self,
        db_term: Term,
        query_term: Term,
        depth: int,
        stores: _Stores,
        db_vars: frozenset[Var],
        outcome: MatchOutcome,
        folded: bool = False,
    ) -> bool:
        """Dispatch one term pair (Figure 1).

        ``folded`` marks the re-comparison that concludes a fetch
        operation: its concrete/concrete compare is part of the fetch op
        (no extra MATCH is counted) and, at the hardware's level 3 and
        below, it sees only the stored tag+content word — so it never
        descends into elements.
        """
        # Anonymous variables succeed immediately (skip).
        if isinstance(db_term, Var) and db_term.is_anonymous():
            return True
        if isinstance(query_term, Var) and query_term.is_anonymous():
            return True
        if self.level == MatchLevel.TYPE_ONLY:
            return self._match_type_only(db_term, query_term)
        # Case 5: database side is a variable (takes precedence, Figure 1).
        if isinstance(db_term, Var):
            return self._handle_var(
                db_term, query_term, "db", depth, stores, db_vars, outcome
            )
        # Case 6: query side is a variable.
        if isinstance(query_term, Var):
            return self._handle_var(
                query_term, db_term, "query", depth, stores, db_vars, outcome
            )
        # Cases 1-4: both sides are non-variable terms.
        shallow = False
        if folded:
            shallow = self.level < MatchLevel.FULL_STRUCTURES
        else:
            outcome.ops[HardwareOp.MATCH] += 1
        return self._compare(
            db_term, query_term, depth, stores, db_vars, outcome, shallow=shallow
        )

    def _handle_var(
        self,
        var: Term,
        other: Term,
        side: str,
        depth: int,
        stores: _Stores,
        db_vars: frozenset[Var],
        outcome: MatchOutcome,
    ) -> bool:
        assert isinstance(var, Var)
        # A fetched binding can place a term on the opposite side of the
        # comparator, so the variable's true side comes from its origin,
        # not its position.
        side = "db" if var in db_vars else "query"
        store = stores.db if side == "db" else stores.query
        if var not in store:
            # Cases 5a / 6a: first occurrence -- store the opposite term.
            outcome.ops[
                HardwareOp.DB_STORE if side == "db" else HardwareOp.QUERY_STORE
            ] += 1
            store[var] = other
            if isinstance(other, Var) and not other.is_anonymous():
                # Variable-variable pair: record the cross binding both ways
                # so either side's subsequent occurrences see it.
                other_store = stores.store_for(other, db_vars)
                if other not in other_store:
                    other_store[other] = var
                    outcome.ops[
                        HardwareOp.QUERY_STORE
                        if side == "db"
                        else HardwareOp.DB_STORE
                    ] += 1
            return True
        # Cases 5b / 6b: subsequent occurrence -- fetch the association.
        assoc = store[var]
        if isinstance(assoc, Var):
            # Cases 5c / 6c: the association is itself a variable.
            if not self.cross_binding:
                # Original level-3 algorithm: cross bindings unchecked
                # (the plain fetch still happened).
                outcome.ops[
                    HardwareOp.DB_FETCH if side == "db" else HardwareOp.QUERY_FETCH
                ] += 1
                return True
            outcome.ops[
                HardwareOp.DB_CROSS_BOUND_FETCH
                if side == "db"
                else HardwareOp.QUERY_CROSS_BOUND_FETCH
            ] += 1
            ultimate = stores.deref(assoc, db_vars)
            if isinstance(ultimate, Var):
                # The whole reference chain is unbound: instantiate its
                # representative with the current term (mirrors binding the
                # equivalence class in full unification).
                if isinstance(other, Var):
                    if stores.deref(other, db_vars) == ultimate:
                        return True
                stores.store_for(ultimate, db_vars)[ultimate] = other
                return True
            assoc = ultimate
        else:
            outcome.ops[
                HardwareOp.DB_FETCH if side == "db" else HardwareOp.QUERY_FETCH
            ] += 1
        # Repeat the comparison with the fetched (non-variable) association;
        # the concrete compare is folded into the fetch operation above.
        # Cyclic bindings (possible without occurs check) would recurse
        # through this point forever at levels 4/5; a repeated comparison
        # of the same variable against the same term succeeds coinductively
        # (rational-tree unification semantics).
        guard = (side, var, other)
        if guard in stores.active:
            return True
        stores.active.add(guard)
        try:
            if side == "db":
                return self._match_pair(
                    assoc, other, depth, stores, db_vars, outcome, folded=True
                )
            return self._match_pair(
                other, assoc, depth, stores, db_vars, outcome, folded=True
            )
        finally:
            stores.active.discard(guard)

    # -- term comparison at the configured level ----------------------------

    def _compare(
        self,
        db_term: Term,
        query_term: Term,
        depth: int,
        stores: _Stores,
        db_vars: frozenset[Var],
        outcome: MatchOutcome,
        shallow: bool = False,
    ) -> bool:
        d_cat = _category(db_term)
        q_cat = _category(query_term)
        if d_cat != q_cat:
            return False
        if d_cat == "int":
            assert isinstance(db_term, Int) and isinstance(query_term, Int)
            return db_term.value == query_term.value
        if d_cat == "atom":
            assert isinstance(db_term, Atom) and isinstance(query_term, Atom)
            return db_term.name == query_term.name
        if d_cat == "float":
            assert isinstance(db_term, Float) and isinstance(query_term, Float)
            return db_term.value == query_term.value
        if d_cat == "list":
            return self._compare_lists(
                db_term, query_term, depth, stores, db_vars, outcome, shallow
            )
        assert isinstance(db_term, Struct) and isinstance(query_term, Struct)
        if db_term.functor != query_term.functor:
            return False
        if (
            db_term.arity > INLINE_ARITY_LIMIT
            or query_term.arity > INLINE_ARITY_LIMIT
        ):
            # Pointer-represented structures: the hardware compares the
            # (saturated) tag and the functor symbol like a simple term.
            return _tag_arity(db_term.arity) == _tag_arity(query_term.arity)
        if db_term.arity != query_term.arity:
            return False
        if shallow or not self._descend(depth):
            return True
        for d_el, q_el in zip(db_term.args, query_term.args):
            if not self._match_pair(d_el, q_el, depth + 1, stores, db_vars, outcome):
                return False
        return True

    def _compare_lists(
        self,
        db_term: Term,
        query_term: Term,
        depth: int,
        stores: _Stores,
        db_vars: frozenset[Var],
        outcome: MatchOutcome,
        shallow: bool = False,
    ) -> bool:
        d_items, d_tail = list_parts(db_term)
        q_items, q_tail = list_parts(query_term)
        d_open = isinstance(d_tail, Var)  # "unlimited" list, e.g. [a,b|T]
        q_open = isinstance(q_tail, Var)
        if len(d_items) > INLINE_ARITY_LIMIT or len(q_items) > INLINE_ARITY_LIMIT:
            # Pointer-represented lists: saturated-tag comparison only.
            if d_open or q_open:
                # An unlimited list can absorb any length difference.
                return True
            # Two terminated lists: in-line (<=31) can never equal
            # pointer-form (>31); two pointer forms are indistinguishable.
            return (len(d_items) > INLINE_ARITY_LIMIT) == (
                len(q_items) > INLINE_ARITY_LIMIT
            )
        if not d_open and not q_open and len(d_items) != len(q_items):
            # Two terminated lists: the tag arities must agree.
            return False
        if shallow or not self._descend(depth):
            return True
        # Repetitive matching: compare element pairs until either counter
        # reaches zero (the "unlimited list" rule when a tail variable is
        # present on either side).
        for d_el, q_el in zip(d_items, q_items):
            if not self._match_pair(d_el, q_el, depth + 1, stores, db_vars, outcome):
                return False
        if len(d_items) == len(q_items):
            # Both prefixes exhausted together: the tails meet.
            if d_tail == NIL and q_tail == NIL:
                return True
            return self._match_pair(d_tail, q_tail, depth + 1, stores, db_vars, outcome)
        # One counter reached zero first; at least one side is unlimited.
        # Binding the shorter side's tail variable to the remainder is
        # beyond level-3 hardware -- succeed conservatively.
        return True

    def _descend(self, depth: int) -> bool:
        """Should elements at ``depth + 1`` be compared at all?"""
        if self.level >= MatchLevel.FULL_STRUCTURES:
            return True
        if self.level == MatchLevel.FIRST_LEVEL_STRUCTURES:
            return depth == 0
        return False  # level 2: never descend into complex terms

    def _match_type_only(self, db_term: Term, query_term: Term) -> bool:
        """Level 1: compare PIF type tags only (variables are wildcards)."""
        if isinstance(db_term, Var) or isinstance(query_term, Var):
            return True
        d_cat = _category(db_term)
        q_cat = _category(query_term)
        if d_cat != q_cat:
            return False
        if d_cat == "int":
            # The in-line integer tag carries the most significant nibble.
            assert isinstance(db_term, Int) and isinstance(query_term, Int)
            return _int_tag_nibble(db_term.value) == _int_tag_nibble(query_term.value)
        if d_cat == "struct":
            # The structure tag carries the arity (functor is content).
            assert isinstance(db_term, Struct) and isinstance(query_term, Struct)
            return _tag_arity(db_term.arity) == _tag_arity(query_term.arity)
        if d_cat == "list":
            d_items, d_tail = list_parts(db_term)
            q_items, q_tail = list_parts(query_term)
            if (d_tail == NIL) != (q_tail == NIL):
                # Terminated vs unterminated tags differ, but an unlimited
                # list can still unify with a terminated one: wildcard.
                return True
            if d_tail == NIL and q_tail == NIL:
                return _tag_arity(len(d_items)) == _tag_arity(len(q_items))
            return True
        return True  # atoms/floats share a single tag per category


def _category(term: Term) -> str:
    if isinstance(term, Int):
        return "int"
    if isinstance(term, Float):
        return "float"
    if isinstance(term, Struct):
        if term.functor == CONS and term.arity == 2:
            return "list"
        return "struct"
    if isinstance(term, Atom):
        if term == NIL:
            return "list"
        return "atom"
    raise TypeError(f"unexpected term: {term!r}")


def _int_tag_nibble(value: int) -> int:
    """The most-significant nibble stored in the 0x1N integer tag."""
    return (value >> 24) & 0xF


def _tag_arity(arity: int) -> tuple[bool, int]:
    """The (in-line?, arity-field) pair carried in a complex-term tag.

    Arities above :data:`INLINE_ARITY_LIMIT` force pointer representation;
    the 5-bit arity field saturates at 31, so larger arities are
    indistinguishable from each other by tag (but always distinguishable
    from in-line terms, whose tag family differs).
    """
    return (arity <= INLINE_ARITY_LIMIT, min(arity, INLINE_ARITY_LIMIT))


def partial_match(
    query: Term,
    head: Term,
    level: MatchLevel | int = MatchLevel.FIRST_LEVEL_STRUCTURES,
    cross_binding: bool = True,
) -> bool:
    """One-shot convenience wrapper: does ``head`` pass the filter?"""
    matcher = PartialMatcher(query, level=level, cross_binding=cross_binding)
    return matcher.match_head(head).hit


def match_clause_head(
    query: Term,
    head: Term,
    level: MatchLevel | int = MatchLevel.FIRST_LEVEL_STRUCTURES,
    cross_binding: bool = True,
) -> MatchOutcome:
    """Like :func:`partial_match` but returns full op accounting."""
    matcher = PartialMatcher(query, level=level, cross_binding=cross_binding)
    return matcher.match_head(head)
