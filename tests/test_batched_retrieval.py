"""Batched retrieval and the decoded-clause cache: same answers, less work.

``retrieve_batch`` (single engine and cluster) must be element-wise
indistinguishable from looping ``retrieve`` — identical candidate sets,
identical modelled stats — because the batch path only changes *how the
host executes* the scans, never what the simulated hardware is charged.
The decoded-clause cache likewise must be invisible except in the
``crs.decode_cache.*`` counters.
"""

import pytest

from repro.cluster import ShardedRetrievalServer
from repro.crs import ClauseRetrievalServer, SearchMode
from repro.obs import Instrumentation
from repro.storage import KnowledgeBase, Residency
from repro.terms import read_term

PROGRAM = (
    " ".join(f"fact(k{i % 7}, {i}, v{i % 3})." for i in range(48))
    + " fact(X, X, shared). rule(A, B, C) :- fact(A, B, C)."
)

GOALS = [
    "fact(k1, N, V)",
    "fact(K, 12, V)",
    "fact(A, B, C)",
    "fact(k2, N, v1)",
    "fact(k1, N, V)",  # repeat: exercises every cache layer
    "rule(k3, N, V)",
]

MODES = [
    None,
    SearchMode.SOFTWARE,
    SearchMode.FS1_ONLY,
    SearchMode.FS2_ONLY,
    SearchMode.BOTH,
]


def goal_terms():
    return [read_term(text) for text in GOALS]


def candidate_keys(result):
    return [str(clause.to_term()) for clause in result.candidates]


class TestServerBatch:
    def make_server(self, **kwargs) -> ClauseRetrievalServer:
        kb = KnowledgeBase()
        kb.consult_text(PROGRAM)
        return ClauseRetrievalServer(kb, **kwargs)

    @pytest.mark.parametrize("mode", MODES)
    def test_batch_matches_sequential(self, mode):
        batch_server = self.make_server()
        solo_server = self.make_server()
        batched = batch_server.retrieve_batch(goal_terms(), mode=mode)
        solo = [solo_server.retrieve(goal, mode=mode) for goal in goal_terms()]
        assert len(batched) == len(solo)
        for left, right in zip(batched, solo):
            assert candidate_keys(left) == candidate_keys(right)
            assert left.stats.mode == right.stats.mode
            assert left.stats.fs1_candidates == right.stats.fs1_candidates
            assert left.stats.final_candidates == right.stats.final_candidates
            assert left.stats.filter_time_s == pytest.approx(
                right.stats.filter_time_s
            )

    def test_batch_matches_sequential_on_disk(self):
        batch_server = self.make_server()
        solo_server = self.make_server()
        for server in (batch_server, solo_server):
            server.kb.module("user").pin(Residency.DISK)
            server.kb.sync_to_disk()
        batched = batch_server.retrieve_batch(goal_terms(), mode=SearchMode.BOTH)
        solo = [
            solo_server.retrieve(goal, mode=SearchMode.BOTH)
            for goal in goal_terms()
        ]
        for left, right in zip(batched, solo):
            assert candidate_keys(left) == candidate_keys(right)
            assert left.stats.bytes_from_disk == right.stats.bytes_from_disk

    def test_batch_populates_the_retrieval_cache(self):
        server = self.make_server(cache_size=16)
        first = server.retrieve_batch(goal_terms(), mode=SearchMode.BOTH)
        hits_before = server.cache_hits
        second = server.retrieve_batch(goal_terms(), mode=SearchMode.BOTH)
        assert server.cache_hits > hits_before
        for left, right in zip(first, second):
            assert candidate_keys(left) == candidate_keys(right)

    def test_batched_fs1_is_one_scan_pass(self):
        obs = Instrumentation()
        kb = KnowledgeBase(obs=obs)
        kb.consult_text(PROGRAM)
        server = ClauseRetrievalServer(kb, obs=obs)
        server.retrieve_batch(
            [read_term("fact(k1, N, V)"), read_term("fact(k2, N, V)")],
            mode=SearchMode.FS1_ONLY,
        )
        assert obs.registry.total("fs1.batch.scans") == 1
        # Per-query simulated accounting is untouched by batching.
        assert obs.registry.total("fs1.searches") == 2


class TestDecodeCache:
    def test_decode_cache_serves_recurring_candidates(self):
        obs = Instrumentation()
        kb = KnowledgeBase(obs=obs)
        kb.consult_text(PROGRAM)
        server = ClauseRetrievalServer(kb, obs=obs)  # no retrieval LRU
        goal = read_term("fact(k1, N, V)")
        first = server.retrieve(goal, mode=SearchMode.BOTH)
        candidates = first.candidates  # decoded on first access
        misses_after_first = obs.registry.total("crs.decode_cache.misses")
        assert misses_after_first == len(candidates) > 0
        second = server.retrieve(goal, mode=SearchMode.BOTH)
        assert candidate_keys(first) == candidate_keys(second)
        # Second pass decoded nothing new.
        assert (
            obs.registry.total("crs.decode_cache.misses") == misses_after_first
        )
        assert obs.registry.total("crs.decode_cache.hits") >= len(
            second.candidates
        )

    def test_decode_cache_respects_mutations(self):
        kb = KnowledgeBase()
        kb.consult_text("fact(a, 1). fact(b, 2).")
        server = ClauseRetrievalServer(kb)
        goal = read_term("fact(a, N)")
        before = server.retrieve(goal, mode=SearchMode.BOTH)
        assert candidate_keys(before) == ["fact(a,1)"]
        # retract+asserta rebuild the clause file under a new generation;
        # stale (generation, address) keys can never resurface.
        assert kb.retract(read_term("fact(a, 1)"))
        kb.asserta(read_term("fact(a, 99)"))
        after = server.retrieve(goal, mode=SearchMode.BOTH)
        assert candidate_keys(after) == ["fact(a,99)"]

    def test_decode_cache_can_be_disabled(self):
        obs = Instrumentation()
        kb = KnowledgeBase(obs=obs)
        kb.consult_text(PROGRAM)
        server = ClauseRetrievalServer(kb, obs=obs, decode_cache_size=0)
        goal = read_term("fact(k1, N, V)")
        server.retrieve(goal, mode=SearchMode.BOTH)
        server.retrieve(goal, mode=SearchMode.BOTH)
        assert obs.registry.total("crs.decode_cache.hits") == 0
        assert obs.registry.total("crs.decode_cache.misses") == 0


class TestClusterBatch:
    def make_cluster(self, shards: int, **kwargs) -> ShardedRetrievalServer:
        server = ShardedRetrievalServer(shards, **kwargs)
        server.consult_text(PROGRAM)
        return server

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("mode", MODES)
    def test_cluster_batch_matches_sequential(self, shards, mode):
        batch_cluster = self.make_cluster(shards)
        solo_cluster = self.make_cluster(shards)
        batched = batch_cluster.retrieve_batch(goal_terms(), mode=mode)
        solo = [
            solo_cluster.retrieve(goal, mode=mode) for goal in goal_terms()
        ]
        for left, right in zip(batched, solo):
            assert candidate_keys(left) == candidate_keys(right)
            assert left.stats.shards_queried == right.stats.shards_queried
            assert left.stats.filter_time_s == pytest.approx(
                right.stats.filter_time_s
            )
            assert left.stats.serial_filter_time_s == pytest.approx(
                right.stats.serial_filter_time_s
            )

    def test_cluster_batch_matches_single_engine(self):
        cluster = self.make_cluster(3)
        kb = KnowledgeBase()
        kb.consult_text(PROGRAM)
        single = ClauseRetrievalServer(kb)
        batched = cluster.retrieve_batch(goal_terms(), mode=SearchMode.BOTH)
        for result, goal in zip(batched, goal_terms()):
            expected = single.retrieve(goal, mode=SearchMode.BOTH)
            assert sorted(candidate_keys(result)) == sorted(
                candidate_keys(expected)
            )

    def test_cluster_batch_uses_the_cluster_cache(self):
        cluster = self.make_cluster(2, cache_size=16)
        cluster.retrieve_batch(goal_terms(), mode=SearchMode.BOTH)
        hits_before = cluster.cache_hits
        cluster.retrieve_batch(goal_terms(), mode=SearchMode.BOTH)
        assert cluster.cache_hits > hits_before
