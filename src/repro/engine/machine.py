"""The integrated PDBM Prolog machine.

One Prolog system over one knowledge base: goals against memory-resident
predicates resolve directly; goals against disk-resident predicates go
through the Clause Retrieval Server, which drives the CLARE filter
pipeline and hands back candidates for full unification.  This is the
"integrated implementation approach" of the paper's introduction — no
EDB/IDB split, mixed relations, user-controlled clause order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..crs import ClauseRetrievalServer, SearchMode
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..storage import KnowledgeBase, UnknownPredicateError
from ..terms import (
    Clause,
    Term,
    freshen_anonymous,
    functor_indicator,
    read_term,
    variables,
)
from .builtins import ExistenceError
from .zipvm import ZipMachine

__all__ = ["PrologMachine", "QueryStats"]


@dataclass
class QueryStats:
    """Aggregate retrieval accounting across one machine's lifetime."""

    retrievals: int = 0
    candidates: int = 0
    clauses_scanned: int = 0
    filter_time_s: float = 0.0
    mode_uses: dict[SearchMode, int] = field(default_factory=dict)


class PrologMachine:
    """The user-facing query interface of the PDBM system."""

    def __init__(
        self,
        kb: KnowledgeBase,
        crs: ClauseRetrievalServer | None = None,
        mode: SearchMode | None = None,
        unknown_predicates: str = "error",
        load_library: bool = False,
        output=None,
        trace_retrievals: int = 0,
        obs: Instrumentation | None = None,
    ):
        if unknown_predicates not in ("error", "fail"):
            raise ValueError("unknown_predicates must be 'error' or 'fail'")
        self.kb = kb
        self.obs = obs if obs is not None else _default_obs()
        self.crs = (
            crs if crs is not None else ClauseRetrievalServer(kb, obs=self.obs)
        )
        self.mode = mode
        self.unknown_predicates = unknown_predicates
        self.stats = QueryStats()
        #: ring buffer of the last N (goal, RetrievalStats) pairs.
        from collections import deque

        self.trace = deque(maxlen=trace_retrievals) if trace_retrievals else None
        self.output = output
        if load_library:
            from .library import LIBRARY_MODULE, LIBRARY_SOURCE

            existing = set(self.kb.predicates())
            from ..terms import clause_from_term, read_program

            for term in read_program(LIBRARY_SOURCE):
                clause = clause_from_term(term)
                # Never shadow a user predicate of the same indicator.
                if clause.indicator not in existing or (
                    clause.indicator in self.kb.module(LIBRARY_MODULE).indicators
                ):
                    self.kb.add_clause(clause, module=LIBRARY_MODULE)

    # -- queries -------------------------------------------------------------

    def solve(self, goal: Term) -> Iterator[dict[str, Term]]:
        """Solutions of ``goal`` as {variable name: value} dictionaries.

        Clauses compile on first use and run on the ZIP machine;
        retrieval goes through the CRS, so disk-resident predicates take
        the CLARE pipeline.
        """
        goal_vars = [v for v in variables(goal) if not v.is_anonymous()]
        goal = freshen_anonymous(goal)
        vm = ZipMachine(
            self._retrieve_clauses,
            assertz=self.kb.assertz,
            asserta=self.kb.asserta,
            retract=self.kb.retract_matching,
            output=self.output,
        )
        for bindings in vm.solve(goal):
            yield {v.name: bindings.resolve(v) for v in goal_vars}

    def solve_text(self, text: str) -> Iterator[dict[str, Term]]:
        """Parse and solve a goal given as source text."""
        return self.solve(read_term(text))

    def succeeds(self, text: str) -> bool:
        """True if the goal has at least one solution."""
        for _ in self.solve_text(text):
            return True
        return False

    def all_solutions(self, text: str) -> list[dict[str, Term]]:
        return list(self.solve_text(text))

    def count_solutions(self, text: str) -> int:
        return sum(1 for _ in self.solve_text(text))

    # -- clause retrieval -------------------------------------------------------

    def _retrieve_clauses(self, goal: Term) -> list[Clause]:
        indicator = functor_indicator(goal)
        if not self.kb.has_predicate(indicator):
            if self.unknown_predicates == "fail":
                return []
            name, arity = indicator
            raise ExistenceError(f"unknown predicate {name}/{arity}")
        try:
            with self.obs.span("engine.retrieve") as span:
                result = self.crs.retrieve(goal, mode=self.mode)
                span.set(candidates=len(result.candidates))
        except UnknownPredicateError:
            if self.unknown_predicates == "fail":
                return []
            raise
        self.obs.counter("engine.retrievals").inc()
        stats = result.stats
        if self.trace is not None:
            self.trace.append((goal, stats))
        self.stats.retrievals += 1
        self.stats.candidates += len(result.candidates)
        if stats is not None:
            self.stats.clauses_scanned += stats.clauses_total
            self.stats.filter_time_s += stats.filter_time_s
            self.stats.mode_uses[stats.mode] = (
                self.stats.mode_uses.get(stats.mode, 0) + 1
            )
        return result.candidates
