"""Unit tests for the cluster batch executor and its timing model."""

import pytest

from repro.cluster import (
    BatchExecutor,
    BatchStats,
    ShardedRetrievalServer,
    ShardingPolicy,
)
from repro.obs import Instrumentation
from repro.terms import read_term

PROGRAM = " ".join(
    [f"p(a{i}, b{i})." for i in range(24)]
    + [f"q(c{i})." for i in range(24)]
    + [f"r(d{i}, e{i}, f{i})." for i in range(24)]
)


def build(policy=ShardingPolicy.PREDICATE, cache_size=0, shards=3):
    obs = Instrumentation()
    server = ShardedRetrievalServer(shards, policy, cache_size=cache_size, obs=obs)
    server.consult_text(PROGRAM)
    return server, obs


class TestBatchStats:
    def test_wall_clock_is_max_over_shards(self):
        stats = BatchStats(goals=3, shard_busy_s={0: 0.2, 1: 0.5, 2: 0.1})
        assert stats.wall_clock_s == 0.5
        assert stats.serial_time_s == pytest.approx(0.8)
        assert stats.speedup == pytest.approx(0.8 / 0.5)

    def test_empty_batch_degenerates_gracefully(self):
        stats = BatchStats()
        assert stats.wall_clock_s == 0.0
        assert stats.serial_time_s == 0.0
        assert stats.speedup == 1.0


class TestBatchExecutor:
    def test_results_in_input_order(self):
        server, _ = build()
        goals = [read_term(t) for t in ["q(X)", "p(a3, Y)", "r(A, B, C)"]]
        batch = BatchExecutor(server).run(goals)
        assert len(batch) == 3
        for goal, result in zip(goals, batch.results):
            assert result.goal is goal
        assert len(batch.results[0]) == 24
        assert len(batch.results[1]) == 1
        assert len(batch.results[2]) == 24

    def test_single_goal(self):
        server, _ = build()
        batch = BatchExecutor(server).run([read_term("q(c5)")])
        assert len(batch) == 1 and len(batch.results[0]) == 1

    def test_empty_goal_list(self):
        server, _ = build()
        batch = BatchExecutor(server).run([])
        assert len(batch) == 0
        assert batch.stats.wall_clock_s == 0.0

    def test_busy_time_folds_per_shard_stats(self):
        server, _ = build(ShardingPolicy.ROUND_ROBIN, shards=4)
        goals = [read_term("p(X, Y)"), read_term("q(Z)")]
        batch = BatchExecutor(server).run(goals)
        stats = batch.stats
        # Every queried shard's filter time lands in the busy ledger;
        # the sum over shards equals the calls' total device time.
        device = sum(
            r.stats.serial_filter_time_s for r in batch.results
        )
        assert stats.serial_time_s == pytest.approx(device)
        assert stats.wall_clock_s <= stats.serial_time_s
        assert set(stats.shard_busy_s) <= {0, 1, 2, 3}

    def test_cached_repeats_cost_no_busy_time(self):
        server, _ = build(cache_size=8)
        goal = read_term("q(X)")
        executor = BatchExecutor(server)
        first = executor.run([goal])
        again = executor.run([read_term("q(X)")])
        assert first.stats.serial_time_s > 0.0
        assert again.stats.serial_time_s == 0.0  # pure cluster-cache hits
        assert again.stats.speedup == 1.0

    def test_batch_metrics_emitted(self):
        server, obs = build(ShardingPolicy.FIRST_ARG, shards=4)
        goals = [read_term(f"p(a{i}, X)") for i in range(6)]
        BatchExecutor(server).run(goals)
        registry = obs.registry
        assert registry.total("cluster.batch.runs") == 1
        assert registry.total("cluster.batch.goals") == 6
        assert registry.total("cluster.batch.serial_time_s") == pytest.approx(
            registry.total("cluster.batch.busy_s")
        )

    def test_forced_mode_flows_through(self):
        from repro.crs import SearchMode

        server, _ = build()
        batch = BatchExecutor(server).run(
            [read_term("p(a1, X)")], mode=SearchMode.BOTH
        )
        assert batch.results[0].stats.mode is SearchMode.BOTH
