"""Shard routing: which CLARE device holds which clauses.

One CLARE is a two-stage filter in front of one disk; a cluster is N of
them, each with its own clause files, SCW index, FS2 engine and disk.
The :class:`ShardRouter` decides (a) the home shard of every stored
clause and (b) the set of shards a goal must be sent to.  Three
partitioning policies are supported:

* ``predicate`` — all clauses of one ``functor/arity`` share a shard
  (hash of the indicator).  Every goal routes to exactly one shard.
* ``first_arg`` — clauses partition by the classic first-argument index
  key (B-Prolog style argument indexing: atomic values key on the value,
  compound terms on their principal functor).  Goals with an indexable
  first argument route to that key's shard *plus* any shards holding
  clauses whose first argument is a variable (those match anything);
  goals with an unbound first argument broadcast.
* ``round_robin`` — clauses spread evenly regardless of content; every
  goal broadcasts to the shards holding its predicate.

Routing is *sound by construction*: a goal is sent to every shard that
could hold a unifying clause (the differential suite checks the merged
candidate set equals a single engine's, policy by policy).  Soundness
w.r.t. unification is not the whole story, though — a raw FS1 scan
returns codeword false drops that first-argument pruning would skip, so
:meth:`ShardRouter.route_goal` takes ``prune=False`` for FS1-only
retrievals (see its docstring).  Hashes use
CRC-32 over the canonical key encoding — deterministic across processes
and ``PYTHONHASHSEED`` values, so a KB partitions identically on every
run and the routing of a goal can be replayed offline.
"""

from __future__ import annotations

import threading
import zlib
from enum import Enum

from ..keys import canonical_goal_key, first_arg_index_key
from ..storage import UnknownPredicateError
from ..terms import Term, functor_indicator

__all__ = ["ShardingPolicy", "ShardRouter", "stable_shard_hash"]


class ShardingPolicy(str, Enum):
    """How clauses are partitioned across the cluster's engines."""

    PREDICATE = "predicate"
    FIRST_ARG = "first_arg"
    ROUND_ROBIN = "round_robin"


def stable_shard_hash(key: object) -> int:
    """A process-independent hash of a (nested-tuple) routing key.

    ``repr`` of the canonical key tuples is stable — they contain only
    strings, ints and canonicalised float reprs — and CRC-32 of that
    text is stable everywhere, unlike builtin ``hash`` under randomised
    ``PYTHONHASHSEED``.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


class ShardRouter:
    """Clause placement and goal fan-out for an N-shard cluster."""

    def __init__(self, num_shards: int, policy: ShardingPolicy | str):
        if num_shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.num_shards = num_shards
        self.policy = ShardingPolicy(policy)
        self._lock = threading.Lock()
        self._rr_next = 0
        #: shards that hold at least one clause of each predicate.
        self._indicator_shards: dict[tuple[str, int], set[int]] = {}
        #: first_arg policy only: shards holding clauses of a predicate
        #: whose first argument is unindexable (a variable, or arity 0) —
        #: such clauses can unify with any goal, so these shards join
        #: every routed goal's target set.
        self._unindexed_shards: dict[tuple[str, int], set[int]] = {}

    # -- clause placement ---------------------------------------------------

    def route_clause(self, head: Term) -> int:
        """The home shard for a clause with this head (and record it)."""
        indicator = functor_indicator(head)
        with self._lock:
            if self.policy is ShardingPolicy.PREDICATE:
                shard = self._hash_shard(("pred", indicator))
            elif self.policy is ShardingPolicy.FIRST_ARG:
                key = first_arg_index_key(head)
                if key is None:
                    shard = self._hash_shard(("pred", indicator))
                    self._unindexed_shards.setdefault(indicator, set()).add(
                        shard
                    )
                else:
                    shard = self._hash_shard(("arg", indicator, key))
            else:  # ROUND_ROBIN
                shard = self._rr_next
                self._rr_next = (self._rr_next + 1) % self.num_shards
            self._indicator_shards.setdefault(indicator, set()).add(shard)
            return shard

    def observe_indicator(
        self, indicator: tuple[str, int], shard_id: int,
        unindexed: bool = True,
    ) -> None:
        """Record that ``shard_id`` holds clauses of ``indicator``.

        Unlike :meth:`route_clause` this does not *choose* a placement —
        it registers one that already exists (a recovered or adopted
        KB, or a shard discovered by a cold client's broadcast probe).
        Under round-robin the original placement was positional, so
        re-hashing would record a lie.  Under first-arg the shard joins
        the predicate's unindexed set when ``unindexed`` — some clause
        there has a variable first argument, or the predicate has arity
        0 — exactly as if it had been routed here originally.  A cold
        client knows only the predicate, not the clause keys, so it
        keeps the conservative default: future goals broadcast to the
        shard, which is sound (the filter stages reject non-unifying
        clauses), just unpruned.
        """
        with self._lock:
            self._indicator_shards.setdefault(indicator, set()).add(shard_id)
            if unindexed and self.policy is ShardingPolicy.FIRST_ARG:
                self._unindexed_shards.setdefault(indicator, set()).add(
                    shard_id
                )

    # -- goal fan-out -------------------------------------------------------

    def route_goal(self, goal: Term, *, prune: bool = True) -> tuple[int, ...]:
        """The shards this goal must query, in ascending shard order.

        Raises :class:`UnknownPredicateError` when no shard has ever
        stored the goal's predicate — matching the single-engine server.
        An empty tuple means the predicate exists but no shard can hold a
        unifying clause (e.g. a first-argument key nobody stored under).

        ``prune`` only affects the ``first_arg`` policy.  First-argument
        pruning skips exactly the shards whose clauses *cannot unify*
        with the goal, which is invisible to any retrieval whose final
        filter stage performs (at least) partial test unification —
        software, FS2-only and FS1+FS2 all reject those clauses anyway.
        A *raw FS1 scan* is weaker than that: its codeword false drops
        are not confined to the goal's key shard, so an FS1-only
        retrieval must pass ``prune=False`` to scan every shard of the
        predicate and reproduce the single device's candidate stream
        exactly (the differential suite checks this, mode by mode).
        """
        indicator = functor_indicator(goal)
        with self._lock:
            populated = self._indicator_shards.get(indicator)
            if not populated:
                name, arity = indicator
                raise UnknownPredicateError(
                    f"unknown predicate {name}/{arity}"
                )
            if self.policy is ShardingPolicy.FIRST_ARG:
                key = first_arg_index_key(goal)
                if key is None or not prune:
                    # Unbound (or shared-variable) first argument: any
                    # shard's clauses might unify — broadcast.
                    return tuple(sorted(populated))
                targets = {self._hash_shard(("arg", indicator, key))}
                targets |= self._unindexed_shards.get(indicator, set())
                return tuple(sorted(targets & populated))
            if self.policy is ShardingPolicy.PREDICATE:
                return tuple(
                    sorted({self._hash_shard(("pred", indicator))} & populated)
                )
            return tuple(sorted(populated))  # ROUND_ROBIN broadcasts

    def is_broadcast(self, goal: Term) -> bool:
        """Whether this goal fans out to more than one shard."""
        return len(self.route_goal(goal)) > 1

    # -- introspection -------------------------------------------------------

    def routing_key(self, goal: Term) -> tuple:
        """The canonical identity routing decisions are derived from.

        This is exactly the cache key's canonical encoding
        (:func:`repro.keys.canonical_goal_key`): a ground goal's
        routing and caching can never disagree about goal identity.
        """
        return canonical_goal_key(goal)

    def known_indicators(self) -> list[tuple[str, int]]:
        with self._lock:
            return sorted(self._indicator_shards)

    def shards_for_indicator(self, indicator: tuple[str, int]) -> tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._indicator_shards.get(indicator, ())))

    # -- internals ------------------------------------------------------------

    def _hash_shard(self, key: object) -> int:
        return stable_shard_hash(key) % self.num_shards
