"""The CRS-backed resolution pipeline: routing, prefetch, freshness.

``SolveEngine`` runs conjunctive queries with clause candidates pulled
through the sharded retrieval cluster.  These tests pin down the three
behaviours the wire protocol builds on:

* first-argument routing decides one-shard pulls vs broadcasts, and the
  retriever's stats expose which happened;
* sibling goals ride one batched ``retrieve_batch`` round-trip and the
  candidate cache absorbs the later per-goal pulls;
* ``assertz``/``retract`` during resolution invalidate every cache layer
  (candidate LRU, decoded-clause LRU, on-disk extents), so later choice
  points never see stale candidates.
"""

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import ClauseRetrievalServer, RetrievalTimeout, SearchMode
from repro.engine import PrologMachine, SolveEngine
from repro.engine.solve import ClusterRetriever
from repro.storage import KnowledgeBase, Residency
from repro.terms import read_term, term_to_string
from tests.oracle import oracle_answers

GRAPH = """
edge(a, b). edge(b, c). edge(c, d). edge(a, e). edge(e, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def cluster_with(text: str, policy=ShardingPolicy.FIRST_ARG, shards: int = 2):
    cluster = ShardedRetrievalServer(shards, policy=policy)
    cluster.consult_text(text)
    return cluster


def answers(engine: SolveEngine, text: str, **kwargs) -> list[dict]:
    return [
        {name: term_to_string(value) for name, value in solution.items()}
        for solution in engine.solve(read_term(text), **kwargs)
    ]


class TestRouting:
    def test_bound_first_argument_goes_to_one_shard(self):
        engine = SolveEngine(cluster_with(GRAPH))
        assert answers(engine, "edge(a, X)") == [{"X": "b"}, {"X": "e"}]
        stats = engine.stats
        assert stats.single_shard >= 1
        assert stats.broadcasts == 0

    def test_unbound_first_argument_broadcasts(self):
        engine = SolveEngine(cluster_with(GRAPH))
        assert len(answers(engine, "edge(X, Y)")) == 5
        assert engine.stats.broadcasts >= 1

    def test_recursive_query_mixes_both(self):
        # path(a, X): the first edge(a, Y) pull routes on `a`; deeper
        # path(Y, Z) activations route on each bound midpoint.
        engine = SolveEngine(cluster_with(GRAPH))
        got = answers(engine, "path(a, X)")
        assert len(got) == 5
        assert engine.stats.single_shard >= 2


class TestPrefetch:
    def test_ground_siblings_share_one_batched_pull(self):
        engine = SolveEngine(cluster_with(GRAPH))
        got = answers(engine, "edge(a, b), edge(b, c), edge(c, d)")
        assert got == [{}]
        stats = engine.stats
        assert stats.prefetch_batches >= 1
        assert stats.prefetched_goals >= 2
        assert stats.cache_hits >= 2

    def test_repeated_subgoals_hit_the_candidate_cache(self):
        engine = SolveEngine(cluster_with(GRAPH))
        answers(engine, "path(a, d)")
        answers(engine, "path(a, d)")
        assert engine.stats.cache_hits >= 1


class TestEngineSequences:
    @pytest.mark.parametrize("engine_name", ["zip", "interp"])
    def test_cluster_solve_matches_single_kb_machine(self, engine_name):
        # PREDICATE sharding keeps every procedure whole on one shard,
        # so the cluster's candidate order is the single-KB clause
        # order and the answer *sequences* must be identical.  The
        # reference is the single-KB machine ("zip") or the tree-walking
        # oracle over the same KB ("interp").
        kb = KnowledgeBase()
        kb.consult_text(GRAPH)
        machine = PrologMachine(kb, unknown_predicates="fail")
        reference = {
            "zip": machine.solve,
            "interp": lambda goal: oracle_answers(machine, goal),
        }[engine_name]
        engine = SolveEngine(cluster_with(GRAPH, policy=ShardingPolicy.PREDICATE))
        for query in ["path(a, X)", "path(X, Y)", "edge(X, d)", "path(z, X)"]:
            want = [
                {n: term_to_string(v) for n, v in s.items()}
                for s in reference(read_term(query))
            ]
            assert answers(engine, query) == want, query

    def test_single_engine_backend_solves_under_a_deadline(self):
        # The pairing the module docstring promises: one CRS, no
        # cluster.  It takes the same ``timeout=`` the sharded front
        # door does, so a deadline needs no per-backend call path.
        kb = KnowledgeBase()
        kb.consult_text(GRAPH)
        machine = PrologMachine(kb, unknown_predicates="fail")
        engine = SolveEngine(ClauseRetrievalServer(kb))
        for query in ["path(a, X)", "path(X, Y)", "edge(X, d)", "path(z, X)"]:
            want = [
                {n: term_to_string(v) for n, v in s.items()}
                for s in machine.solve(read_term(query))
            ]
            assert answers(engine, query, deadline_s=5) == want, query

    def test_max_solutions_caps_the_stream(self):
        engine = SolveEngine(cluster_with(GRAPH))
        assert len(answers(engine, "path(X, Y)", max_solutions=3)) == 3

    def test_deadline_expiry_raises_retrieval_timeout(self):
        engine = SolveEngine(cluster_with(GRAPH))
        with pytest.raises(RetrievalTimeout):
            list(engine.solve(read_term("path(X, Y)"), deadline_s=0.0))


class TestMutationFreshness:
    """assert/retract must defeat every cache between KB and solver."""

    def test_front_door_assertz_invalidates_candidate_cache(self):
        cluster = cluster_with(GRAPH)
        engine = SolveEngine(cluster)
        assert answers(engine, "edge(e, X)") == [{"X": "d"}]
        cluster.assertz(read_term("edge(e, f)"))
        assert answers(engine, "edge(e, X)") == [{"X": "d"}, {"X": "f"}]

    def test_front_door_retract_invalidates_candidate_cache(self):
        cluster = cluster_with(GRAPH)
        engine = SolveEngine(cluster)
        assert len(answers(engine, "edge(a, X)")) == 2
        cluster.retract(read_term("edge(a, e)"))
        assert answers(engine, "edge(a, X)") == [{"X": "b"}]

    def test_mid_resolution_assertz_is_visible_to_later_choice_points(self):
        # The assertz lands while edge(a, X) still has an open choice
        # point; the path(X, f) goal after it must see the new clause.
        engine = SolveEngine(cluster_with(GRAPH))
        got = answers(engine, "edge(a, X), assertz(edge(e, f)), path(X, f)")
        # Backtracking into edge(a, X) re-runs the assertz, so the
        # clause lands twice and path(e, f) has two proofs — exactly
        # what a standard Prolog does with this query.
        assert got == [{"X": "e"}, {"X": "e"}]

    def test_mid_resolution_retract_is_visible_to_later_goals(self):
        engine = SolveEngine(cluster_with(GRAPH))
        got = answers(engine, "retract(edge(a, b)), edge(a, X)")
        assert got == [{"X": "e"}]

    @pytest.mark.parametrize("mode", [SearchMode.FS1_ONLY, SearchMode.BOTH])
    def test_disk_resident_predicate_survives_mutation(self, mode):
        # Regression: the CRS used to write a predicate's clause/index
        # extents only when absent, then slice the *old* disk bytes with
        # the *new* address table after an assert/retract — serving
        # phantom or truncated candidates to later choice points.
        kb = KnowledgeBase()
        kb.consult_text(GRAPH)
        kb.module("user").pin(Residency.DISK)
        kb.sync_to_disk()
        crs = ClauseRetrievalServer(kb)

        def candidates(goal_text: str) -> set[str]:
            result = crs.retrieve(read_term(goal_text), mode=mode)
            return {term_to_string(c.head) for c in result.candidates}

        assert "edge(a,b)" in candidates("edge(a, X)")
        kb.assertz(read_term("edge(a, z)"))
        after_assert = candidates("edge(a, X)")
        assert "edge(a,z)" in after_assert
        kb.retract(read_term("edge(a, b)"))
        after_retract = candidates("edge(a, X)")
        assert "edge(a,b)" not in after_retract
        assert "edge(a,z)" in after_retract

    def test_sharded_disk_resident_mutation(self, tmp_path):
        # The same freshness guarantee through the cluster front door
        # with every shard's module pinned to its simulated disk.
        cluster = cluster_with(GRAPH, policy=ShardingPolicy.FIRST_ARG)
        cluster.pin_module("user", Residency.DISK)
        cluster.sync_to_disk()
        engine = SolveEngine(cluster, mode=SearchMode.BOTH)
        assert answers(engine, "edge(a, X)") == [{"X": "b"}, {"X": "e"}]
        cluster.assertz(read_term("edge(a, z)"))
        assert answers(engine, "edge(a, X)") == [
            {"X": "b"}, {"X": "e"}, {"X": "z"},
        ]
        cluster.retract(read_term("edge(a, b)"))
        assert answers(engine, "edge(a, X)") == [{"X": "e"}, {"X": "z"}]


class TestRetrieverContract:
    def test_the_single_engine_honours_the_deadline_contract(self):
        # A budget already spent raises before any work (a TypeError
        # before the single engine took ``timeout=``); a retrieval that
        # starts is not pre-empted.
        kb = KnowledgeBase()
        kb.consult_text(GRAPH)
        crs = ClauseRetrievalServer(kb)
        goal = read_term("edge(a, X)")
        with pytest.raises(RetrievalTimeout):
            crs.retrieve_batch([goal], timeout=0.0)
        with pytest.raises(RetrievalTimeout):
            crs.retrieve(goal, timeout=-1.0)
        (timed,) = crs.retrieve_batch([goal], timeout=5.0)
        assert timed.candidates == crs.retrieve(goal).candidates != []

    def test_unknown_predicate_fails_quietly_by_default(self):
        engine = SolveEngine(cluster_with(GRAPH))
        assert answers(engine, "nosuch(X)") == []

    def test_unknown_predicate_can_be_strict(self):
        from repro.engine import ExistenceError

        engine = SolveEngine(cluster_with(GRAPH), unknown="error")
        with pytest.raises(ExistenceError):
            answers(engine, "nosuch(X)")

    def test_retriever_cache_keys_on_variable_pattern(self):
        # path(X, Y) and path(A, B) share a canonical key; a retrieval
        # for one must serve the other from cache.
        cluster = cluster_with(GRAPH)
        retriever = ClusterRetriever(cluster)
        first = retriever(read_term("edge(X, Y)"))
        second = retriever(read_term("edge(A, B)"))
        assert [term_to_string(c.head) for c in first] == [
            term_to_string(c.head) for c in second
        ]
        assert retriever.stats.cache_hits == 1
        assert retriever.stats.retrievals == 1
