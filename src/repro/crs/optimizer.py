"""Conjunctive-query ordering over database predicates.

A PDBM-style system answers conjunctions like ``supplies(S, P),
consumes(P, J)`` by retrieving candidates goal by goal; the candidate
volume — and hence the disk/filter work — depends heavily on goal order.
This planner implements the classic greedy bound-is-better heuristic:

* goals are scored by their estimated candidate count, obtained from a
  *real* FS1 index scan (cheap: the index is in memory and tiny);
* variables bound by already-placed goals count as constants when scoring
  the remaining goals, so joins chain through their shared variables.

Only conjunctions made purely of user database predicates are reordered —
control constructs, builtins and unknown predicates make order
significant, so such conjunctions are returned untouched.  For pure
database goals reordering is sound: the solution *set* is unchanged
(solution order may differ).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage import KnowledgeBase
from ..terms import Struct, Term, Var, functor_indicator, variables

__all__ = ["GoalEstimate", "ConjunctionPlanner"]

#: Indicators that are never database predicates (control + builtins).
_NON_DATABASE = {
    (",", 2), (";", 2), ("->", 2), ("\\+", 1), ("!", 0), ("call", 1),
    ("=", 2), ("is", 2), ("true", 0), ("fail", 0), ("findall", 3),
}


@dataclass(frozen=True)
class GoalEstimate:
    """One goal's scoring snapshot during planning."""

    goal: Term
    candidates: int
    bound_arguments: int


class ConjunctionPlanner:
    """Greedy selectivity-driven goal ordering."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb

    # -- public API --------------------------------------------------------

    def order(self, goals: tuple[Term, ...]) -> tuple[Term, ...]:
        """Reorder a pure-database conjunction; otherwise return as-is."""
        if len(goals) < 2 or not all(self._is_database_goal(g) for g in goals):
            return tuple(goals)
        remaining = list(goals)
        bound: set[Var] = set()
        ordered: list[Term] = []
        while remaining:
            best = min(
                remaining,
                key=lambda g: (self.estimate(g, bound).candidates, goals.index(g)),
            )
            remaining.remove(best)
            ordered.append(best)
            bound.update(v for v in variables(best) if not v.is_anonymous())
        return tuple(ordered)

    def explain(self, goals: tuple[Term, ...]) -> list[GoalEstimate]:
        """The estimates for each goal in the chosen order."""
        ordered = self.order(goals)
        bound: set[Var] = set()
        estimates = []
        for goal in ordered:
            estimates.append(self.estimate(goal, bound))
            bound.update(v for v in variables(goal) if not v.is_anonymous())
        return estimates

    # -- scoring --------------------------------------------------------------

    def estimate(self, goal: Term, bound: set[Var]) -> GoalEstimate:
        """Estimated candidates for ``goal`` given already-bound variables."""
        indicator = functor_indicator(goal)
        store = self.kb.store(indicator)
        if not isinstance(goal, Struct):
            return GoalEstimate(goal, len(store), 0)
        bound_arguments = sum(
            1
            for arg in goal.args
            if not isinstance(arg, Var) or arg in bound
        )
        if bound_arguments == 0:
            return GoalEstimate(goal, len(store), 0)
        constants_present = any(not isinstance(a, Var) for a in goal.args)
        if constants_present:
            # Ask the index: a real scan with the goal's constants.
            candidates = len(
                store.index.bitsliced.scan(
                    self.kb.scheme.query_codeword(goal)
                )
            )
        else:
            # Only variable bindings make it selective; assume the join
            # attribute partitions the predicate (uniformity assumption).
            distinct = max(len(store) // 10, 1)
            candidates = max(len(store) // distinct, 1)
        return GoalEstimate(goal, candidates, bound_arguments)

    def _is_database_goal(self, goal: Term) -> bool:
        if not goal.is_callable():
            return False
        indicator = functor_indicator(goal)
        if indicator in _NON_DATABASE:
            return False
        return self.kb.has_predicate(indicator)
