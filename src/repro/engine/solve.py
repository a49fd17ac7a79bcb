"""Multi-goal resolution over a sharded retrieval cluster: ``solve``.

This is the layer that turns the repo from a filter benchmark into a
queryable database.  A :class:`ClusterRetriever` adapts the sharded
front door (:class:`repro.cluster.ShardedRetrievalServer` — or a single
:class:`repro.crs.ClauseRetrievalServer`) into the pluggable
``retriever`` callable the resolution engine consumes, and a
:class:`SolveEngine` runs conjunctive queries through the compiled ZIP
machine against it.

What the adapter adds over a bare ``retrieve`` call:

* **Routing-aware accounting** — with a first-argument sharding policy,
  a goal whose first argument is bound routes to exactly one shard; an
  unbound first argument broadcasts.  The retriever tracks both so a
  ``solve`` can report how often its candidate pulls stayed on one
  engine.
* **Choice-point-aware caching** — candidates are cached per (backend
  version, canonical goal key), so re-entering a choice point (or
  retrying a goal after backtracking) re-pulls candidates only when an
  ``assert``/``retract`` actually changed the database mid-search.
* **Batched sibling prefetch** — when the compiled machine calls a
  predicate, the *ground* user-predicate goals sitting next on its goal
  stack are fetched in the same :meth:`retrieve_batch` round trip, so
  sibling goals of an activated clause body amortise FS1 index passes
  exactly like the PR 3/4 batch path.
* **Deadline propagation** — one deadline bounds every retrieval issued
  by the query, and the solve loop re-checks it between solutions, so
  the network layer's deadline/drain semantics extend through
  resolution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from ..cache import LruCache
from ..crs import SearchMode
from ..crs.server import RetrievalTimeout
from ..keys import canonical_goal_key
from ..storage import UnknownPredicateError
from ..terms import (
    Atom,
    Clause,
    Struct,
    Term,
    Var,
    freshen_anonymous,
    read_term,
    variables,
)
from .builtins import ExistenceError
from .zipvm import ZipMachine

__all__ = ["ClusterRetriever", "RetrieverStats", "SolveEngine", "SolveStats"]

#: The retriever's candidate cache is bounded by entry count AND by
#: estimated resident bytes, so a few huge candidate lists can't pin the
#: whole predicate set in memory.
RETRIEVER_CACHE_SIZE = 512
RETRIEVER_CACHE_BYTES = 4 << 20

#: Cache-cold sibling goals that ride along with one retrieval.
PREFETCH_WIDTH = 8


@dataclass
class RetrieverStats:
    """Where one retriever's candidate pulls went."""

    retrievals: int = 0
    cache_hits: int = 0
    prefetch_batches: int = 0
    prefetched_goals: int = 0
    single_shard: int = 0
    broadcasts: int = 0


class ClusterRetriever:
    """A cluster (or single CRS) behind the engine's retriever contract.

    ``backend`` needs ``retrieve_batch(goals, mode=..., timeout=...)``
    returning one object with a ``candidates`` list per goal (``timeout``
    is the budget left, in seconds, or ``None``); ``version`` and
    ``router`` are picked up when present (the sharded front door has
    both).  Not thread-safe: one retriever per running query.
    """

    def __init__(
        self,
        backend,
        mode: SearchMode | None = None,
        unknown: str = "fail",
    ):
        if unknown not in ("fail", "error"):
            raise ValueError("unknown must be 'fail' or 'error'")
        self._backend = backend
        self.mode = mode
        self.unknown = unknown
        self.stats = RetrieverStats()
        # (backend version, goal key) -> candidates.
        self._cache = LruCache(
            RETRIEVER_CACHE_SIZE,
            max_bytes=RETRIEVER_CACHE_BYTES,
            cost=_candidates_cost,
        )
        self._deadline: float | None = None
        self._router = getattr(backend, "router", None)

    # -- the Retriever contract ---------------------------------------------

    def __call__(self, goal: Term) -> list[Clause]:
        return self.prefetch(goal, ())

    def prefetch(self, goal: Term, siblings: tuple[Term, ...]) -> list[Clause]:
        """Candidates for ``goal``, pulling cache-cold ``siblings`` along.

        Siblings ride in the same ``retrieve_batch`` call and land in
        the cache for the engine's next goal dispatch; only the primary
        goal's candidates are returned.
        """
        # One reading of the backend's generation keys the probe and
        # every store of this pull (see ``LruCache``).
        version = getattr(self._backend, "version", 0)
        key = (version, canonical_goal_key(goal))
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return list(cached)
        extras: list[Term] = []
        extra_keys: list[tuple] = []
        seen = {key}
        for sibling in siblings:
            sibling_key = (version, canonical_goal_key(sibling))
            if sibling_key in seen or sibling_key in self._cache:
                continue
            seen.add(sibling_key)
            extras.append(sibling)
            extra_keys.append(sibling_key)
            if len(extras) >= PREFETCH_WIDTH:
                break
        self.stats.retrievals += 1
        self._note_routing(goal)
        if extras:
            self.stats.prefetch_batches += 1
            self.stats.prefetched_goals += len(extras)
        try:
            batches = [
                list(result.candidates)
                for result in self._backend.retrieve_batch(
                    [goal, *extras], mode=self.mode, timeout=self._remaining()
                )
            ]
        except UnknownPredicateError:
            if self.unknown == "error":
                name, arity = _goal_indicator(goal)
                raise ExistenceError(f"unknown predicate {name}/{arity}") from None
            batches = [[] for _ in range(1 + len(extras))]
        for batch_key, candidates in zip([key, *extra_keys], batches):
            self._cache.put(batch_key, candidates)
        return list(batches[0])

    def set_deadline(self, deadline: float | None) -> None:
        """Absolute ``time.monotonic`` deadline for every later pull."""
        self._deadline = deadline

    # -- internals -----------------------------------------------------------

    def _remaining(self) -> float | None:
        if self._deadline is None:
            return None
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise RetrievalTimeout("solve deadline expired before retrieval")
        return remaining

    def _note_routing(self, goal: Term) -> None:
        if self._router is None:
            return
        try:
            targets = self._router.route_goal(goal)
        except UnknownPredicateError:
            return
        if len(targets) > 1:
            self.stats.broadcasts += 1
        else:
            self.stats.single_shard += 1


def _candidates_cost(candidates: list[Clause]) -> int:
    """Estimated resident bytes of one cached candidate list.

    A structural walk (constant per term node plus symbol-name lengths)
    rather than ``sys.getsizeof`` recursion: terms are shared, frozen
    dataclasses, so an estimate that is stable across interpreters is
    worth more than a byte-exact one.
    """
    total = 64  # the list itself
    for clause in candidates:
        total += 64
        stack = [clause.head, *clause.body]
        while stack:
            term = stack.pop()
            total += 48
            if isinstance(term, Struct):
                total += len(term.functor)
                stack.extend(term.args)
            elif isinstance(term, (Atom, Var)):
                total += len(term.name)
    return total


def _goal_indicator(goal: Term) -> tuple[str, int]:
    from ..terms import functor_indicator

    return functor_indicator(goal)


@dataclass
class SolveStats:
    """One query's resolution and retrieval accounting."""

    solutions: int = 0
    calls: int = 0
    backtracks: int = 0
    retrievals: int = 0
    cache_hits: int = 0
    prefetch_batches: int = 0
    prefetched_goals: int = 0
    single_shard: int = 0
    broadcasts: int = 0


class SolveEngine:
    """Conjunctive queries against a sharded retrieval backend.

    Database mutation (``assert``/``retract`` goals) routes through the
    backend's front-door methods, so its version counter bumps and no
    cache layer — cluster LRU, retriever cache, decoded-clause LRU, disk
    extents — can serve stale candidates to later choice points.

    Not thread-safe: build one engine per concurrently running query
    (construction is cheap; the caches that matter live in the backend).
    """

    def __init__(
        self,
        backend,
        mode: SearchMode | None = None,
        unknown: str = "fail",
        output=None,
    ):
        self.backend = backend
        self.retriever = ClusterRetriever(backend, mode=mode, unknown=unknown)
        self._output = output
        self._assertz = getattr(backend, "assertz", None)
        self._asserta = getattr(backend, "asserta", None)
        self._retract = getattr(
            backend, "retract_matching", getattr(backend, "retract", None)
        )
        self.stats = SolveStats()

    # -- queries -------------------------------------------------------------

    def solve(
        self,
        goal: Term,
        deadline_s: float | None = None,
        max_solutions: int = 0,
    ) -> Iterator[dict[str, Term]]:
        """Solutions as {variable name: value} dicts, streamed lazily.

        ``deadline_s`` bounds the whole enumeration (retrievals inherit
        the remaining budget; :class:`RetrievalTimeout` is raised when
        it runs out); ``max_solutions`` > 0 stops after that many.
        """
        goal_vars = [v for v in variables(goal) if not v.is_anonymous()]
        goal = freshen_anonymous(goal)
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self.retriever.set_deadline(deadline)
        solutions = self._bindings_iter(goal)
        produced = 0
        try:
            for bindings in solutions:
                if deadline is not None and time.monotonic() > deadline:
                    raise RetrievalTimeout("solve deadline expired")
                produced += 1
                self.stats.solutions += 1
                yield {v.name: bindings.resolve(v) for v in goal_vars}
                if max_solutions and produced >= max_solutions:
                    return
        finally:
            self.retriever.set_deadline(None)

    def solve_text(self, text: str, **kwargs) -> Iterator[dict[str, Term]]:
        return self.solve(read_term(text), **kwargs)

    def _bindings_iter(self, goal: Term):
        vm = ZipMachine(
            self.retriever,
            assertz=self._assertz,
            asserta=self._asserta,
            retract=self._retract,
            output=self._output,
        )
        retriever_stats = self.retriever.stats
        for bindings in vm.solve(goal):
            self._snapshot_stats(vm, retriever_stats)
            yield bindings
        self._snapshot_stats(vm, retriever_stats)

    def _snapshot_stats(self, vm: ZipMachine, retriever: RetrieverStats):
        self.stats.calls = vm.calls
        self.stats.backtracks = vm.backtracks
        self.stats.retrievals = retriever.retrievals
        self.stats.cache_hits = retriever.cache_hits
        self.stats.prefetch_batches = retriever.prefetch_batches
        self.stats.prefetched_goals = retriever.prefetched_goals
        self.stats.single_shard = retriever.single_shard
        self.stats.broadcasts = retriever.broadcasts
