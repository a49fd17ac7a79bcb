"""Deadline enforcement inside the cluster fan-out.

The simulated engines are uninterruptible once a retrieval starts, so
the place a stuck cluster actually wedges callers is the per-shard lock
queue.  ``timeout=`` must bound it on every entry: ``retrieve``,
``retrieve_batch`` and :meth:`BatchExecutor.run` all give up waiting for
a held shard lock at the deadline and raise the typed
:class:`~repro.crs.RetrievalTimeout` (a ``TimeoutError`` subclass, so
generic handlers still catch it) instead of hanging or returning partial
results.
"""

import threading
import time

import pytest

from repro.cluster import BatchExecutor, ShardedRetrievalServer, ShardingPolicy
from repro.crs import RetrievalTimeout
from repro.terms import read_term


def small_cluster(num_shards=2):
    server = ShardedRetrievalServer(num_shards, ShardingPolicy.FIRST_ARG)
    server.consult_text(
        "p(a, 1). p(b, 2). p(c, 3). p(d, 4). q(X, X). r(only)."
    )
    return server


class HeldLock:
    """Hold one shard's lock from another thread for the test's duration."""

    def __init__(self, shard):
        self.shard = shard
        self._release = threading.Event()
        self._held = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        with self.shard.lock:
            self._held.set()
            self._release.wait(timeout=30)

    def __enter__(self):
        self._thread.start()
        assert self._held.wait(timeout=10)
        return self

    def __exit__(self, *exc_info):
        self._release.set()
        self._thread.join(timeout=10)


class TestRetrieveTimeout:
    def test_timeout_is_a_timeout_error(self):
        assert issubclass(RetrievalTimeout, TimeoutError)

    def test_held_shard_lock_raises_within_budget(self):
        server = small_cluster()
        goal = read_term("p(X, Y)")  # unbound first arg: broadcasts
        with HeldLock(server.shards[0]):
            begin = time.monotonic()
            with pytest.raises(RetrievalTimeout):
                server.retrieve(goal, timeout=0.05)
            # It gave up near the deadline, not after some huge backstop.
            assert time.monotonic() - begin < 5.0

    def test_zero_timeout_on_held_lock_fails_fast(self):
        server = small_cluster()
        with HeldLock(server.shards[0]):
            with pytest.raises(RetrievalTimeout):
                server.retrieve(read_term("p(X, Y)"), timeout=0.0)

    def test_no_timeout_still_works(self):
        server = small_cluster()
        result = server.retrieve(read_term("p(a, X)"))
        assert [str(c) for c in result.candidates] == ["p(a,1)."]

    def test_generous_timeout_returns_normally(self):
        server = small_cluster()
        result = server.retrieve(read_term("p(a, X)"), timeout=30.0)
        assert [str(c) for c in result.candidates] == ["p(a,1)."]
        # Same answer as the untimed path, stats included.
        untimed = server.retrieve(read_term("p(a, X)"))
        assert result.stats == untimed.stats

    def test_lock_released_cluster_recovers(self):
        server = small_cluster()
        goal = read_term("p(X, Y)")
        with HeldLock(server.shards[0]):
            with pytest.raises(RetrievalTimeout):
                server.retrieve(goal, timeout=0.05)
        result = server.retrieve(goal, timeout=5.0)
        assert len(result.candidates) == 4


class TestRetrieveBatchTimeout:
    def test_held_lock_times_out_batch(self):
        server = small_cluster()
        goals = [read_term("p(X, Y)"), read_term("q(A, B)")]
        with HeldLock(server.shards[0]):
            with pytest.raises(RetrievalTimeout):
                server.retrieve_batch(goals, timeout=0.05)

    def test_batch_without_timeout_unchanged(self):
        server = small_cluster()
        goals = [read_term("p(a, X)"), read_term("r(W)")]
        results = server.retrieve_batch(goals)
        assert [len(r.candidates) for r in results] == [1, 1]


class TestBatchExecutorTimeout:
    def test_fanned_out_goals_time_out(self):
        server = small_cluster()
        executor = BatchExecutor(server)
        goals = [read_term("p(X, Y)"), read_term("q(A, B)"), read_term("r(W)")]
        with HeldLock(server.shards[0]):
            with pytest.raises(RetrievalTimeout):
                executor.run(goals, timeout=0.05)

    def test_run_with_timeout_matches_untimed_results(self):
        server = small_cluster()
        executor = BatchExecutor(server)
        goals = [read_term("p(a, X)"), read_term("p(b, X)"), read_term("r(W)")]
        timed = executor.run(goals, timeout=30.0)
        untimed = executor.run(goals)
        assert [
            [str(c) for c in result.candidates] for result in timed.results
        ] == [
            [str(c) for c in result.candidates] for result in untimed.results
        ]
