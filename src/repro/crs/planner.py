"""Search-mode selection.

"One of these modes will be selected depending on the nature of a query
(e.g. whether it contains cross bound variables) and the knowledge base
(e.g. whether it is rule or fact intensive)" (paper section 2.2).

The heuristics here formalise that sentence:

* memory-resident or tiny predicates are cheapest to scan in software;
* a query with shared (potentially cross-bound) variables is invisible to
  the SCW index, so FS2 must be involved;
* a query with no ground content gains nothing from either filter beyond
  the functor partitioning the clause file already provides — stream
  through FS2 to keep the host out of the loop;
* otherwise the two-stage pipeline wins: FS1 cuts the disk volume, FS2
  cuts the false drops.  The disk driver serves FS1's (ascending)
  candidate addresses as one sweep, so the fetch is bounded by one access
  plus the transfer of the candidate span — however many candidates FS1
  passes, the two-stage clause read never costs more than the full
  stream mode (c) pays.
"""

from __future__ import annotations

from collections import Counter

from ..storage import PredicateStore, Residency
from ..terms import Struct, Term, Var, is_ground, variables
from .server import SearchMode

__all__ = ["QueryFeatures", "analyse_query", "select_mode", "SOFTWARE_THRESHOLD"]

#: Below this many clauses the fixed costs of driving CLARE dominate.
SOFTWARE_THRESHOLD = 32


class QueryFeatures:
    """Structural features of a goal that drive mode selection."""

    def __init__(self, goal: Term):
        self.goal = goal
        self.ground = is_ground(goal)
        named = [v for v in variables(goal) if not v.is_anonymous()]
        occurrence_counts = Counter()
        if isinstance(goal, Struct):
            stack = list(goal.args)
            while stack:
                term = stack.pop()
                if isinstance(term, Var):
                    if not term.is_anonymous():
                        occurrence_counts[term] += 1
                elif isinstance(term, Struct):
                    stack.extend(term.args)
        self.variable_count = len(named)
        self.shared_variables = sorted(
            (v.name for v, n in occurrence_counts.items() if n > 1)
        )
        self.has_shared_variables = bool(self.shared_variables)
        if isinstance(goal, Struct):
            self.constant_arguments = sum(
                1 for a in goal.args if not isinstance(a, Var)
            )
            self.arity = goal.arity
        else:
            self.constant_arguments = 0
            self.arity = 0

    @property
    def all_variable_arguments(self) -> bool:
        return self.arity > 0 and self.constant_arguments == 0


def analyse_query(goal: Term) -> QueryFeatures:
    """Extract the mode-selection features of one goal."""
    return QueryFeatures(goal)


def select_mode(
    goal: Term, store: PredicateStore, residency: str
) -> SearchMode:
    """Pick the searching mode for one goal against one predicate."""
    features = analyse_query(goal)
    if residency == Residency.MEMORY or len(store) <= SOFTWARE_THRESHOLD:
        return SearchMode.SOFTWARE
    if features.all_variable_arguments and not features.has_shared_variables:
        # Nothing for either filter to reject: everything is a candidate.
        return SearchMode.SOFTWARE
    if features.has_shared_variables:
        # The SCW index cannot see shared variables (the married_couple
        # problem): FS2 is mandatory.  FS1 still helps when the query also
        # carries constants.
        if features.constant_arguments > 0:
            return SearchMode.BOTH
        return SearchMode.FS2_ONLY
    if features.ground and _fact_fraction(store) > 0.9:
        # Fact-intensive predicate, fully ground query: the index alone is
        # highly selective and skips streaming the clause file entirely.
        return SearchMode.FS1_ONLY
    return SearchMode.BOTH


def _fact_fraction(store: PredicateStore) -> float:
    if len(store) == 0:
        return 1.0
    return store.fact_count / len(store)
