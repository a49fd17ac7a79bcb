"""Concurrency stress: many client threads against one sharded server.

The invariants under fire:

* no lost results — every thread's every retrieval returns exactly the
  candidate set a single engine computes for that goal;
* no duplicate cache accounting — ``cache_hits + cache_misses`` equals
  the number of retrieve calls, exactly;
* the metrics registry agrees with the per-call stats — cluster-level
  retrieval/candidate counters equal what the calls themselves report,
  and shard-level engine counters equal the physical work recorded in
  the merged per-shard stats.
"""

import random
import threading

import pytest

from repro.cluster import BatchExecutor, ShardedRetrievalServer, ShardingPolicy
from repro.crs import ClauseRetrievalServer
from repro.obs import Instrumentation
from repro.storage import KnowledgeBase
from repro.terms import read_term

THREADS = 10
ROUNDS = 3

PROGRAM = " ".join(
    [f"edge(n{i}, n{(i * 7) % 23})." for i in range(40)]
    + [f"fact(v{i})." for i in range(30)]
    + ["edge(X, sink).", "pair(A, A).", "pair(p, q)."]
)

GOAL_TEXTS = [
    "edge(n3, X)",
    "edge(X, Y)",
    "edge(X, X)",
    "fact(v7)",
    "fact(Z)",
    "pair(W, W)",
    "pair(p, Q)",
    "edge(n11, n0)",
]


def expected_counts():
    kb = KnowledgeBase()
    kb.consult_text(PROGRAM)
    single = ClauseRetrievalServer(kb)
    return {
        text: sorted(str(c) for c in single.retrieve(read_term(text)).candidates)
        for text in GOAL_TEXTS
    }


def build_server(policy, cache_size=32):
    obs = Instrumentation()
    server = ShardedRetrievalServer(
        4, policy, cache_size=cache_size, obs=obs
    )
    server.consult_text(PROGRAM)
    return server, obs


@pytest.mark.parametrize("policy", list(ShardingPolicy))
def test_hammer_mixed_goals(policy):
    expected = expected_counts()
    server, obs = build_server(policy)
    results = []  # (goal_text, candidate_multiset, stats) per call
    results_lock = threading.Lock()
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        local = []
        try:
            for _ in range(ROUNDS):
                goal_order = GOAL_TEXTS * 2  # repeats mix hits with misses
                rng.shuffle(goal_order)
                for text in goal_order:
                    result = server.retrieve(read_term(text))
                    local.append(
                        (text, sorted(str(c) for c in result.candidates),
                         result.stats)
                    )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        with results_lock:
            results.extend(local)

    threads = [
        threading.Thread(target=worker, args=(seed,)) for seed in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    calls = THREADS * ROUNDS * len(GOAL_TEXTS) * 2
    assert len(results) == calls

    # No lost or corrupted results: every call saw the full candidate set.
    for text, candidates, _ in results:
        assert candidates == expected[text], text

    # No duplicate (or dropped) cache accounting.
    assert server.cache_hits + server.cache_misses == calls
    assert server.cache_hits > 0 and server.cache_misses > 0
    registry = obs.registry
    assert registry.total("cluster.cache.hits") == server.cache_hits
    assert registry.total("cluster.cache.misses") == server.cache_misses

    # Registry totals equal the sum over per-call stats.
    assert registry.total("cluster.retrievals") == calls
    assert registry.total("cluster.candidates_returned") == sum(
        len(candidates) for _, candidates, _ in results
    )
    # Physical (miss) calls carry per-shard stats; every one of those
    # shard retrievals shows up in the shard engines' own counter...
    physical = [s for _, _, s in results if s.per_shard]
    assert registry.total("crs.retrievals") == sum(
        len(s.per_shard) for s in physical
    )
    # ...and the modelled device time the calls report is exactly what
    # the engines charged to the sim-time counter.
    assert registry.total("crs.sim_filter_time_s") == pytest.approx(
        sum(s.serial_filter_time_s for s in physical), rel=1e-9
    )
    assert registry.total("cluster.device_time_s") == pytest.approx(
        sum(s.serial_filter_time_s for s in physical), rel=1e-9
    )


def test_hammer_with_concurrent_updates():
    """Writers assert/retract while readers hammer: versions stay sane."""
    server, obs = build_server(ShardingPolicy.FIRST_ARG, cache_size=16)
    stop = threading.Event()
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                text = rng.choice(GOAL_TEXTS)
                result = server.retrieve(read_term(text))
                # Whatever the interleaving, a result is never torn: the
                # candidate list decodes to whole clauses of the goal's
                # own predicate.
                functor = text.split("(")[0]
                for clause in result.candidates:
                    assert str(clause).startswith(functor)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def writer():
        try:
            for i in range(40):
                server.assertz(read_term(f"fact(extra{i})"))
                if i % 3 == 0:
                    server.retract(read_term(f"fact(extra{i})"))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    readers = [threading.Thread(target=reader, args=(s,)) for s in range(8)]
    writers = [threading.Thread(target=writer) for _ in range(2)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    stop.set()
    for t in readers:
        t.join()
    assert not errors
    # Steady state: retracted every third extra fact from two writers.
    final = server.retrieve(read_term("fact(Z)"))
    assert len(final) == 30 + 2 * (40 - 14)


@pytest.mark.slow
def test_batch_stress_no_lost_results():
    """A large shuffled batch returns every goal's answer, in order."""
    expected = expected_counts()
    server, obs = build_server(ShardingPolicy.PREDICATE, cache_size=0)
    executor = BatchExecutor(server)
    rng = random.Random(1234)
    goal_order = GOAL_TEXTS * 25
    rng.shuffle(goal_order)
    goals = [read_term(text) for text in goal_order]
    batch = executor.run(goals)
    assert len(batch) == len(goals)
    for text, result in zip(goal_order, batch.results):
        assert sorted(str(c) for c in result.candidates) == expected[text]
    assert batch.stats.goals == len(goals)
    assert batch.stats.serial_time_s >= batch.stats.wall_clock_s
    assert obs.registry.total("cluster.batch.goals") == len(goals)
