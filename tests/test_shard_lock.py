"""The shard lock is the one concurrency-control mechanism, and its wait
is measured.

A shard is one stateful CLARE board (one FS2 query register, one Result
Memory, one drive), so every request-path take of its lock — reads on
both backends, asserts, retracts — goes through
``ShardedRetrievalServer._acquire_shard`` and leaves one sample in the
``cluster.shard_lock.wait_s`` histogram (labelled by shard).  A
consult is a run of asserts, so the fixtures start with samples.
"""

import threading
import time

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import RetrievalTimeout
from repro.obs import Instrumentation
from repro.parallel import ProcessShardedRetrievalServer
from repro.report import headline_counters
from repro.terms import read_term

PROGRAM = "p(a, 1). p(b, 2). p(c, 3). p(d, 4). p(e, 5). p(f, 6)."
HOLD_S = 0.05


@pytest.fixture(params=["threads", "processes"])
def server(request):
    backend = (
        ShardedRetrievalServer if request.param == "threads"
        else ProcessShardedRetrievalServer
    )
    engine = backend(2, ShardingPolicy.FIRST_ARG, obs=Instrumentation())
    engine.consult_text(PROGRAM)
    if request.param == "processes":
        engine.start()
    yield engine
    engine.close()


def waits(engine, shard=None):
    """``(samples, total seconds)`` of the shard-lock histogram: one
    shard's series, or every shard's folded as the report folds them."""
    if shard is None:
        head = headline_counters(engine.obs.registry)
        return head["shard_lock_waits"], head["shard_lock_wait_s"]
    histogram = engine.obs.registry.histogram(
        "cluster.shard_lock.wait_s", shard=str(shard)
    )
    return histogram.count, histogram.sum


def goal_on(engine, shard_id):
    """A ``p/2`` goal that routes to ``shard_id`` alone."""
    for key in "abcdef":
        goal = read_term(f"p({key}, X)")
        if tuple(engine.router.route_goal(goal)) == (shard_id,):
            return goal
    raise AssertionError(f"no key of PROGRAM routes to shard {shard_id}")


class SignallingLock:
    """A shard lock that announces each blocking ``acquire`` call, so a
    holder can time its release from the moment the waiter queued."""

    def __init__(self, lock):
        self._lock = lock
        self.queued = threading.Event()

    def acquire(self, *args, **kwargs):
        self.queued.set()
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()


class TestOneSamplePerTake:
    def test_a_broadcast_read_samples_every_shard(self, server):
        before, _ = waits(server)
        server.retrieve(read_term("p(X, Y)"))
        assert waits(server)[0] == before + 2

    def test_a_routed_read_and_an_assert_sample_once_each(self, server):
        shard_id = server.router.route_clause(read_term("p(g, 7)"))
        before = waits(server, shard_id)[0]
        server.retrieve(goal_on(server, shard_id))
        assert waits(server, shard_id)[0] == before + 1
        server.assertz(read_term("p(g, 7)"))
        assert waits(server, shard_id)[0] == before + 2
        written = server.retrieve(read_term("p(g, X)"))
        assert [str(c) for c in written.candidates] == ["p(g,7)."]

    def test_a_retract_samples_the_shards_it_probes(self, server):
        before, _ = waits(server)
        assert server.retract(read_term("p(a, 1)"))
        assert waits(server)[0] == before + 1


class TestWaitIsMeasured:
    def test_a_held_lock_shows_up_as_wait(self, server):
        shard_id = 1
        goal = goal_on(server, shard_id)
        shard = server.shards[shard_id]
        lock = shard.lock
        signalling = SignallingLock(lock)
        shard.lock = signalling
        before, before_s = waits(server, shard_id)
        lock.acquire()
        try:
            reader = threading.Thread(target=server.retrieve, args=(goal,))
            reader.start()
            assert signalling.queued.wait(timeout=10)
            time.sleep(HOLD_S)
        finally:
            lock.release()
        reader.join(timeout=10)
        shard.lock = lock
        count, total_s = waits(server, shard_id)
        assert count == before + 1
        assert total_s - before_s >= HOLD_S

    def test_a_deadline_shorter_than_the_hold_times_out(self, server):
        goal = goal_on(server, 0)
        lock = server.shards[0].lock
        before = waits(server)[0]
        lock.acquire()
        try:
            begin = time.monotonic()
            with pytest.raises(RetrievalTimeout):
                server.retrieve(goal, timeout=HOLD_S / 5)
            assert time.monotonic() - begin < HOLD_S * 20
        finally:
            lock.release()
        # A timed-out attempt took nothing, so it records no sample.
        assert waits(server)[0] == before

    def test_a_held_shard_does_not_slow_another(self, server):
        before = {shard: waits(server, shard) for shard in (0, 1)}
        lock = server.shards[0].lock
        lock.acquire()
        try:
            begin = time.perf_counter()
            server.retrieve(goal_on(server, 1), timeout=HOLD_S * 20)
            elapsed = time.perf_counter() - begin
        finally:
            lock.release()
        count, total_s = waits(server, 1)
        assert count == before[1][0] + 1
        assert total_s - before[1][1] <= elapsed
        assert waits(server, 0) == before[0]
