"""Clauses: facts and rules.

A clause is ``Head :- Body`` where the body is a conjunction of goals; a
fact is a clause with the empty body ``true``.  The PDBM system keeps facts
and rules together in user order — mixed relations are a design goal of the
integrated approach (paper section 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .term import Atom, Struct, Term, Var, functor_indicator, variables
from .writer import term_to_string

__all__ = ["Clause", "as_clause", "clause_from_term", "body_goals", "TRUE"]

TRUE = Atom("true")


@dataclass(frozen=True, slots=True)
class Clause:
    """A program clause with a callable head and a tuple of body goals."""

    head: Term
    body: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if not self.head.is_callable():
            raise ValueError(f"clause head must be callable: {self.head!r}")
        if not isinstance(self.body, tuple):
            object.__setattr__(self, "body", tuple(self.body))

    def __reduce__(self):
        return (Clause, (self.head, self.body) if self.body else (self.head,))

    @property
    def indicator(self) -> tuple[str, int]:
        return functor_indicator(self.head)

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def is_ground_fact(self) -> bool:
        return self.is_fact and not self.variables()

    def variables(self) -> list[Var]:
        seen: dict[Var, None] = {}
        for term in (self.head, *self.body):
            for var in variables(term):
                if not var.is_anonymous():
                    seen.setdefault(var)
        return list(seen)

    def to_term(self) -> Term:
        """The clause as a single term (``head`` or ``head :- goals``)."""
        if self.is_fact:
            return self.head
        body: Term = self.body[-1]
        for goal in reversed(self.body[:-1]):
            body = Struct(",", (goal, body))
        return Struct(":-", (self.head, body))

    def __str__(self) -> str:
        return term_to_string(self.to_term()) + "."


def body_goals(body: Term) -> tuple[Term, ...]:
    """Flatten a ``,``-conjunction into a goal tuple; ``true`` vanishes."""
    if body == TRUE:
        return ()
    goals: list[Term] = []
    stack = [body]
    while stack:
        current = stack.pop()
        if isinstance(current, Struct) and current.indicator == (",", 2):
            stack.append(current.args[1])
            stack.append(current.args[0])
        else:
            goals.append(current)
    return tuple(goals)


def clause_from_term(term: Term) -> Clause:
    """Interpret a read term as a clause (splitting on ``:-``)."""
    if isinstance(term, Struct) and term.indicator == (":-", 2):
        head, body = term.args
        return Clause(head, body_goals(body))
    return Clause(term)


def as_clause(clause_or_term: Clause | Term) -> Clause:
    """Accept either form the mutation verbs take; clauses pass through."""
    if isinstance(clause_or_term, Clause):
        return clause_or_term
    return clause_from_term(clause_or_term)
