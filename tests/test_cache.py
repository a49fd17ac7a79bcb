"""``repro.cache.LruCache``: the one cache primitive and its one rule.

The unit, model and threaded tests pin the primitive down; the last
class holds its tenants to the rule the primitive's docstring argues —
a result computed across a mutation is never served after it — on the
two paths where a mutation can land *between* the probe and the store:
``ShardedRetrievalServer.retrieve_batch`` and ``ClusterRetriever.prefetch``.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import LruCache
from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.engine.solve import ClusterRetriever
from repro.obs import Instrumentation
from repro.terms import read_term, term_to_string


def sized(max_entries, max_bytes, **kwargs):
    """A byte-bounded cache whose values are their own cost."""
    return LruCache(max_entries, max_bytes=max_bytes, cost=int, **kwargs)


class TestBounds:
    def test_entry_bound_evicts_least_recently_used(self):
        cache = LruCache(2)
        for key in "abc":
            cache.put(key, key.upper())
        assert len(cache) == 2 and "a" not in cache
        assert (cache.get("b"), cache.get("c")) == ("B", "C")
        assert cache.evictions == 1

    def test_get_refreshes_recency_and_contains_does_not(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache  # membership is not a use...
        cache.put("c", 3)
        assert "a" not in cache  # ...so "a" was still the oldest
        assert cache.get("b") == 2  # a get is
        cache.put("d", 4)
        assert "b" in cache and "c" not in cache

    def test_byte_bound_evicts_until_it_holds(self):
        cache = sized(10, 100)
        cache.put("a", 40)
        cache.put("b", 40)
        cache.put("c", 40)
        assert "a" not in cache and cache.bytes == 80
        cache.put("d", 90)  # fits alone: everything older goes
        assert len(cache) == 1 and cache.bytes == 90

    def test_replacement_adjusts_the_byte_total(self):
        cache = sized(10, 100)
        cache.put("a", 60)
        cache.put("b", 30)
        cache.put("a", 10)  # not 60 + 10: the old charge is returned
        assert cache.bytes == 40 and len(cache) == 2
        cache.put("a", 70)  # 30 + 70 fits exactly; nothing is evicted
        assert cache.bytes == 100 and cache.evictions == 0

    def test_oversize_value_is_refused_and_disturbs_nothing(self):
        cache = sized(10, 100)
        cache.put("a", 60)
        cache.put("big", 101)
        cache.put("a", 500)
        assert "big" not in cache
        assert cache.get("a") == 60 and cache.bytes == 60
        assert cache.evictions == 0

    def test_zero_entries_admits_nothing(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None

    def test_clear_releases_entries_and_bytes(self):
        cache = sized(10, 100)
        cache.put("a", 60)
        cache.clear()
        assert len(cache) == 0 and cache.bytes == 0
        assert cache.get("a") is None

    def test_byte_bound_and_cost_come_together(self):
        with pytest.raises(ValueError):
            LruCache(4, max_bytes=100)
        with pytest.raises(ValueError):
            LruCache(4, cost=len)


class TestCounters:
    def test_events_count_on_the_object_and_under_the_prefix(self):
        obs = Instrumentation()
        cache = LruCache(1, obs=obs, prefix="test.cache")
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 1)
        total = obs.registry.total
        assert total("test.cache.hits") == 1
        assert total("test.cache.misses") == 1
        assert total("test.cache.evictions") == 1

    def test_without_obs_only_the_object_counts(self):
        cache = LruCache(1)
        cache.get("a")
        assert cache.misses == 1


class ReferenceLru:
    """The obvious LRU over a recency-ordered list of (key, value)."""

    def __init__(self, max_entries, max_bytes):
        self.max_entries, self.max_bytes = max_entries, max_bytes
        self.items = []

    def get(self, key):
        for item in self.items:
            if item[0] == key:
                self.items.remove(item)
                self.items.append(item)
                return item[1]
        return None

    def put(self, key, value):
        if self.max_entries <= 0 or value > self.max_bytes:
            return
        self.items = [item for item in self.items if item[0] != key]
        self.items.append((key, value))
        while (
            len(self.items) > self.max_entries
            or sum(v for _, v in self.items) > self.max_bytes
        ):
            self.items.pop(0)


operations = st.lists(
    st.tuples(
        st.sampled_from(["get", "put"]),
        st.integers(0, 7),
        st.integers(1, 60),
    ),
    max_size=60,
)


def run_against_reference(max_entries, max_bytes, ops):
    cache = sized(max_entries, max_bytes)
    model = ReferenceLru(max_entries, max_bytes)
    for op, key, value in ops:
        if op == "get":
            assert cache.get(key) == model.get(key)
        else:
            cache.put(key, value)
            model.put(key, value)
        assert len(cache) == len(model.items) <= max(max_entries, 0)
        assert cache.bytes == sum(v for _, v in model.items) <= max_bytes
        for key in range(8):
            assert (key in cache) == any(k == key for k, _ in model.items)


class TestAgainstReference:
    @given(st.integers(0, 5), st.integers(1, 120), operations)
    @settings(max_examples=60, deadline=None)
    def test_random_operations(self, max_entries, max_bytes, ops):
        run_against_reference(max_entries, max_bytes, ops)

    @pytest.mark.slow
    @given(st.integers(0, 5), st.integers(1, 120), operations)
    @settings(max_examples=1000, deadline=None)
    def test_random_operations_full_budget(self, max_entries, max_bytes, ops):
        run_against_reference(max_entries, max_bytes, ops)


def hammer(rounds):
    """Eight threads on one small cache; returns it once they are done."""
    cache = sized(16, 400)
    start = threading.Barrier(8)
    over_bound = []

    def work(seed):
        start.wait(timeout=30)
        state = seed
        for _ in range(rounds):
            state = (state * 1103515245 + 12345) % (1 << 31)
            key = state % 40
            if state & 64:
                cache.get(key)
            else:
                # Two costs per key, so replacement exercises the
                # subtract-the-old-charge path under contention.
                cache.put(key, 10 + (state >> 8) % 2 * 25 + key % 5)
            if len(cache) > 16:
                over_bound.append(len(cache))

    threads = [threading.Thread(target=work, args=(n + 1,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not over_bound
    return cache


def assert_consistent(cache):
    assert len(cache) <= 16
    resident = [cache.get(key) for key in range(40) if key in cache]
    assert len(resident) == len(cache)
    assert cache.bytes == sum(resident) <= 400
    assert cache.hits + cache.misses > 0


class TestThreadedHammer:
    def test_bounds_and_byte_total_survive_eight_threads(self):
        assert_consistent(hammer(rounds=2_000))

    @pytest.mark.slow
    def test_bounds_and_byte_total_survive_a_long_hammer(self):
        assert_consistent(hammer(rounds=40_000))


FACTS = " ".join(f"edge(n{i}, m{i})." for i in range(8))


def rendered(candidates):
    return sorted(term_to_string(clause.head) for clause in candidates)


class TestNothingComputedAcrossAMutationIsServedAfterIt:
    """The mutation lands after the probe read the generation and before
    the result is stored — the window the old insert guards closed."""

    def test_cluster_retrieve_batch(self, monkeypatch):
        cluster = ShardedRetrievalServer(
            2, policy=ShardingPolicy.FIRST_ARG, cache_size=16
        )
        cluster.consult_text(FACTS)
        goals = [read_term("edge(X, Y)"), read_term("edge(n1, Y)")]
        merge = cluster._merge

        def merge_then_mutate(*args):
            # Shard locks are released by now; the shard results in
            # hand predate this write.
            result = merge(*args)
            monkeypatch.setattr(cluster, "_merge", merge)
            cluster.assertz(read_term("edge(n1, late)"))
            return result

        monkeypatch.setattr(cluster, "_merge", merge_then_mutate)
        stale = cluster.retrieve_batch(goals)
        assert "edge(n1,late)" not in rendered(stale[0].candidates)
        hits = cluster.cache_hits
        fresh = cluster.retrieve_batch(goals)
        assert cluster.cache_hits == hits  # the stored results are dead
        assert "edge(n1,late)" in rendered(fresh[0].candidates)
        assert "edge(n1,late)" in rendered(fresh[1].candidates)
        # ...and what was stored after the write is served again.
        again = cluster.retrieve_batch(goals)
        assert cluster.cache_hits == hits + 2
        assert rendered(again[0].candidates) == rendered(fresh[0].candidates)

    def test_cluster_retriever_prefetch(self, monkeypatch):
        cluster = ShardedRetrievalServer(2, policy=ShardingPolicy.FIRST_ARG)
        cluster.consult_text(FACTS)
        retriever = ClusterRetriever(cluster)
        goal, sibling = read_term("edge(n1, Y)"), read_term("edge(n2, Y)")
        batch = cluster.retrieve_batch

        def batch_then_mutate(*args, **kwargs):
            results = batch(*args, **kwargs)
            monkeypatch.setattr(cluster, "retrieve_batch", batch)
            cluster.assertz(read_term("edge(n1, late)"))
            cluster.assertz(read_term("edge(n2, late)"))
            return results

        monkeypatch.setattr(cluster, "retrieve_batch", batch_then_mutate)
        stale = retriever.prefetch(goal, (sibling,))
        assert rendered(stale) == ["edge(n1,m1)"]
        assert retriever.stats.prefetched_goals == 1
        # Neither the primary nor the prefetched sibling comes back
        # from the cache: both were computed before the writes.
        assert rendered(retriever(goal)) == ["edge(n1,late)", "edge(n1,m1)"]
        assert rendered(retriever(sibling)) == ["edge(n2,late)", "edge(n2,m2)"]
        assert retriever.stats.cache_hits == 0
        assert rendered(retriever(goal)) == ["edge(n1,late)", "edge(n1,m1)"]
        assert retriever.stats.cache_hits == 1
