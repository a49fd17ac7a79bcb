"""Differential harness: process shard workers must equal the threads.

:class:`repro.parallel.ProcessShardedRetrievalServer` moves shard
execution into worker processes over shared mmap segments, but the
contract is *bit identity*: for any program, goal, mode, and mutation
history, both the candidate multiset AND the modelled 1989 statistics
(simulated disk/FS1/FS2 times, byte counts, per-shard splits) must be
exactly the threaded cluster's.  The suite drives both backends side by
side — element-wise over ``retrieve``, ``retrieve_batch``, full
``solve`` queries, and across forwarded mutations — proves the respawn
path by killing workers mid-traffic, and a hypothesis property (slow
tier) repeats the comparison over random knowledge bases.
"""

import dataclasses
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import SearchMode
from repro.engine import PrologMachine, SolveEngine
from repro.obs import Instrumentation
from repro.parallel import ProcessShardedRetrievalServer
from repro.storage import KnowledgeBase, Residency
from repro.terms import Atom, Clause, Struct, Var, read_term
from tests.oracle import oracle_answers
from tests.strategies import clause_heads

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(a, d). edge(d, e).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
likes(mary, wine). likes(john, X) :- likes(X, wine).
wide(a, b, c, d, e, f, g, h, i, j, k, l, m, n).
"""

GOALS = [
    "edge(a, X)",
    "edge(X, Y)",
    "path(a, Z)",
    "likes(X, wine)",
    "wide(a, B, c, D, e, F, g, H, i, J, k, L, m, N)",
]

ALL_MODES = [None, *SearchMode]


def fingerprint(result):
    """Candidates element-wise (order preserved) plus the full stats row."""
    return (
        [str(c) for c in result.candidates],
        dataclasses.astuple(result.stats),
    )


def build_pair(clauses=None, text=PROGRAM, num_shards=3,
               policy=ShardingPolicy.PREDICATE):
    threaded = ShardedRetrievalServer(num_shards, policy)
    process = ProcessShardedRetrievalServer(
        num_shards, policy, obs=Instrumentation()
    )
    if clauses is not None:
        threaded.consult_clauses(clauses)
        process.consult_clauses(clauses)
    else:
        threaded.consult_text(text)
        process.consult_text(text)
    process.start()
    return threaded, process


def kill_one_worker(process):
    handle = next(iter(process._handles.values()))
    os.kill(handle.process.pid, signal.SIGKILL)
    handle.process.join(timeout=5.0)
    # Give the pipe a moment to report EOF on the parent side.
    deadline = time.monotonic() + 5.0
    while handle.process.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    return handle.shard_id


@pytest.fixture(scope="module")
def readonly_pair():
    threaded, process = build_pair()
    yield threaded, process
    process.close()


class TestRetrieveIdentity:
    def test_every_goal_and_mode_agrees(self, readonly_pair):
        threaded, process = readonly_pair
        for goal_text in GOALS:
            goal = read_term(goal_text)
            for mode in ALL_MODES:
                expected = fingerprint(threaded.retrieve(goal, mode=mode))
                got = fingerprint(process.retrieve(goal, mode=mode))
                assert got == expected, (goal_text, mode)

    def test_retrieve_batch_is_element_wise_identical(self, readonly_pair):
        threaded, process = readonly_pair
        goals = [read_term(text) for text in GOALS]
        expected = [fingerprint(r) for r in threaded.retrieve_batch(goals)]
        got = [fingerprint(r) for r in process.retrieve_batch(goals)]
        assert got == expected

    def test_worker_metrics_reach_the_parent_registry(self, readonly_pair):
        _, process = readonly_pair
        process.retrieve(read_term("edge(a, X)"))
        snapshots = process.pull_worker_metrics()
        assert set(snapshots) == {0, 1, 2}
        assert any(
            key.startswith("crs.retrievals")
            for snapshot in snapshots.values()
            for key in snapshot
        )
        merged = process.obs.registry.snapshot()
        assert any("worker=" in key for key in merged)


class TestMutationIdentity:
    def test_mutations_keep_both_paths_identical(self):
        threaded, process = build_pair()
        try:
            steps = [
                ("assertz", Clause(Struct("edge", (Atom("e"), Atom("f"))))),
                ("asserta", Clause(Struct("edge", (Atom("zz"), Atom("a"))))),
                ("retract", Clause(Struct("edge", (Atom("a"), Var("Q"))))),
                ("assertz", Clause(Struct("fresh", (Atom("n1"),)))),
            ]
            for number, (op, clause) in enumerate(steps):
                # Goals naming constants no shard has stored run through
                # the workers' FS2 before every write: a read that grew
                # a worker's symbol table would number the write's new
                # symbols differently from the parent's.
                for goal_text in (f"edge(novel{number}, Y)",
                                  f"edge(X, {number}.5)"):
                    goal = read_term(goal_text)
                    for mode in (SearchMode.FS2_ONLY, SearchMode.BOTH):
                        assert fingerprint(
                            process.retrieve(goal, mode=mode)
                        ) == fingerprint(threaded.retrieve(goal, mode=mode))
                if op == "assertz":
                    threaded.add_clause(clause)
                    process.add_clause(clause)
                elif op == "asserta":
                    threaded.asserta(clause)
                    process.asserta(clause)
                else:
                    removed_t = threaded.retract_matching(clause)
                    removed_p = process.retract_matching(clause)
                    assert str(removed_t) == str(removed_p)
                for goal_text in ("edge(X, Y)", "fresh(X)"):
                    goal = read_term(goal_text)
                    try:
                        expected = fingerprint(threaded.retrieve(goal))
                    except Exception as exc:
                        with pytest.raises(type(exc)):
                            process.retrieve(goal)
                        continue
                    assert fingerprint(process.retrieve(goal)) == expected
        finally:
            process.close()

    def test_a_read_never_grows_the_symbol_table(self):
        """Novel-constant goals, then writes: parent and workers keep
        numbering symbols alike, and a plan that encoded an absent
        constant is not served once an assert interns it."""
        text = " ".join(f"p(k{i}, v{i % 9})." for i in range(200))
        threaded, process = build_pair(
            text=text, num_shards=2, policy=ShardingPolicy.FIRST_ARG
        )
        try:
            def both(goal_text, mode=SearchMode.FS2_ONLY):
                goal = read_term(goal_text)
                expected = threaded.retrieve(goal, mode=mode)
                got = process.retrieve(goal, mode=mode)
                assert fingerprint(got) == fingerprint(expected), goal_text
                return len(got.candidates)

            assert both("p(zzz, Y)") == 0
            assert both("p(X, yyy)") == 0
            for fact in ("p(c, 3.5)", "p(d, foo)", "p(zzz, yyy)"):
                for backend in (threaded, process):
                    backend.assertz(read_term(fact))
            for mode in SearchMode:
                assert both("p(X, Y)", mode) == 203
            assert both("p(zzz, Y)") == 1  # not the stale empty plan
            assert both("p(X, yyy)") == 1
            assert both("p(X, foo)") == 1
            assert both("p(X, 3.5)") == 1
            before = [len(shard.kb.symbols) for shard in process.shards]
            for i in range(1000):
                process.retrieve(
                    read_term(f"p(fresh{i}, {i}.25)"), mode=SearchMode.BOTH
                )
                threaded.retrieve(
                    read_term(f"p(fresh{i}, g({i}.25))"),
                    mode=SearchMode.FS2_ONLY,
                )
            assert [len(s.kb.symbols) for s in process.shards] == before
            assert [len(s.kb.symbols) for s in threaded.shards] == before
        finally:
            process.close()

    def test_pin_to_disk_is_mirrored(self):
        threaded, process = build_pair()
        try:
            threaded.pin_module("user", Residency.DISK)
            process.pin_module("user", Residency.DISK)
            goal = read_term("edge(a, X)")
            expected = fingerprint(threaded.retrieve(goal))
            got = fingerprint(process.retrieve(goal))
            assert got == expected
            assert got[1] == expected[1]  # disk_time_s rides in the stats
        finally:
            process.close()


    def test_wide_selective_fetch_disk_time_is_identical(self):
        """The sweep-scheduled candidate fetch: one DiskSim, every backend.

        A one-bound goal over a FIRST_ARG-sharded, DISK-pinned fact KB
        makes every worker fetch dozens of scattered FS1 candidates; the
        modelled read-through schedule must come out the same float in
        the worker processes as in the threaded cluster.
        """
        text = " ".join(
            f"rec(k{i}, g{i % 8}, v{i % 97})." for i in range(1200)
        )
        threaded, process = build_pair(
            text=text, num_shards=4, policy=ShardingPolicy.FIRST_ARG
        )
        try:
            threaded.pin_module("user", Residency.DISK)
            process.pin_module("user", Residency.DISK)
            goal = read_term("rec(K, g3, V)")
            for mode in (SearchMode.BOTH, SearchMode.FS1_ONLY):
                expected = threaded.retrieve(goal, mode=mode)
                got = process.retrieve(goal, mode=mode)
                assert fingerprint(got) == fingerprint(expected), mode
                assert got.stats.disk_time_s == expected.stats.disk_time_s
                assert got.stats.shards_queried == 4
                per_shard = got.stats.per_shard
                assert {
                    shard: s.disk_time_s for shard, s in per_shard.items()
                } == {
                    shard: s.disk_time_s
                    for shard, s in expected.stats.per_shard.items()
                }
                # Scheduled as runs: far below one average access per
                # candidate, on every shard.
                drive = threaded.shards[0].kb.disk.drive
                for stats in per_shard.values():
                    assert stats.fs1_candidates > 20
                    assert stats.disk_time_s < (
                        stats.fs1_candidates * drive.access_time_s() / 4
                    )
        finally:
            process.close()


class TestSolveIdentity:
    def test_solve_streams_identical_answers_and_stats(self):
        threaded, process = build_pair()
        try:
            kb = KnowledgeBase()
            kb.consult_text(PROGRAM)
            machine = PrologMachine(kb, unknown_predicates="fail")
            for query in ("path(a, Z)", "likes(X, wine)"):
                goal = read_term(query)
                oracle = [
                    sorted((k, str(v)) for k, v in s.items())
                    for s in oracle_answers(machine, goal)
                ][:20]
                eng_t = SolveEngine(threaded)
                eng_p = SolveEngine(process)
                answers_t = [
                    sorted((k, str(v)) for k, v in s.items())
                    for s in eng_t.solve(goal, max_solutions=20)
                ]
                answers_p = [
                    sorted((k, str(v)) for k, v in s.items())
                    for s in eng_p.solve(goal, max_solutions=20)
                ]
                assert answers_p == answers_t == oracle, query
                assert dataclasses.astuple(eng_p.stats) == dataclasses.astuple(
                    eng_t.stats
                )
        finally:
            process.close()


class TestWorkerRespawn:
    def test_killed_worker_respawns_and_answers(self):
        threaded, process = build_pair()
        try:
            goals = [read_term(text) for text in GOALS]
            expected = [fingerprint(threaded.retrieve(g)) for g in goals]
            assert [fingerprint(process.retrieve(g)) for g in goals] == (
                expected
            )
            killed = kill_one_worker(process)
            # Every goal still answers bit-identically: the dead
            # worker's shard respawns transparently on first use.
            assert [fingerprint(process.retrieve(g)) for g in goals] == (
                expected
            )
            assert process.obs.registry.total(
                "parallel.worker.restarts"
            ) == 1
            replacement = process._handles[killed]
            assert replacement.process.is_alive()
            # Batches work against the replacement too.
            batch = [fingerprint(r) for r in process.retrieve_batch(goals)]
            assert batch == [fingerprint(r) for r in threaded.retrieve_batch(goals)]
        finally:
            process.close()

    def test_every_worker_killed_under_one_fan_out(self):
        """The pipelined fan-out retries per handle and stays in step:
        every dead worker is replaced inside one broadcast batch, and no
        reply is left unread to answer a later request."""
        threaded, process = build_pair()
        try:
            goals = [read_term(text) for text in GOALS]
            expected = [fingerprint(r) for r in threaded.retrieve_batch(goals)]
            for handle in list(process._handles.values()):
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join(timeout=5.0)
            results = process.retrieve_batch(goals)
            assert [fingerprint(r) for r in results] == expected
            busy = {shard for r in results for shard in r.stats.per_shard}
            assert len(busy) > 1
            assert process.obs.registry.total(
                "parallel.worker.restarts"
            ) == len(busy)
            for goal in goals:
                assert fingerprint(process.retrieve(goal)) == fingerprint(
                    threaded.retrieve(goal)
                )
        finally:
            process.close()

    def test_a_stuck_shard_times_the_fan_out_out(self):
        """Deadline contract on the process backend: queue wait is cut
        off, and the locks taken before the stuck one are given back."""
        from repro.crs import RetrievalTimeout

        _, process = build_pair(
            text="q(a). q(b). q(c). q(d).",
            num_shards=2,
            policy=ShardingPolicy.ROUND_ROBIN,
        )
        try:
            goal = read_term("q(X)")
            stuck = process.shards[1].lock
            stuck.acquire()
            try:
                for entry in (
                    lambda: process.retrieve(goal, timeout=0.05),
                    lambda: process.retrieve_batch([goal], timeout=0.05),
                ):
                    with pytest.raises(RetrievalTimeout):
                        entry()
                    assert process.shards[0].lock.acquire(timeout=1.0)
                    process.shards[0].lock.release()
            finally:
                stuck.release()
            assert len(process.retrieve(goal, timeout=5.0).candidates) == 4
        finally:
            process.close()

    def test_mutations_survive_a_respawn(self):
        """The replacement re-exports from the parent's mutated shard."""
        threaded, process = build_pair()
        try:
            clause = Clause(Struct("edge", (Atom("post"), Atom("kill"))))
            threaded.add_clause(clause)
            process.add_clause(clause)
            kill_one_worker(process)
            goal = read_term("edge(X, Y)")
            assert fingerprint(process.retrieve(goal)) == fingerprint(
                threaded.retrieve(goal)
            )
        finally:
            process.close()


@pytest.mark.slow
class TestDifferentialProperty:
    @given(
        heads=st.lists(
            clause_heads(functor="p", arity=3), min_size=1, max_size=10
        ),
        goal=clause_heads(functor="p", arity=3),
        policy=st.sampled_from(list(ShardingPolicy)),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_kb_process_equals_threaded(self, heads, goal, policy):
        clauses = [Clause(head=h) for h in heads]
        threaded, process = build_pair(
            clauses=clauses, num_shards=2, policy=policy
        )
        try:
            for mode in SearchMode:
                expected = fingerprint(threaded.retrieve(goal, mode=mode))
                got = fingerprint(process.retrieve(goal, mode=mode))
                assert got == expected, (policy, mode)
            batch_expected = [
                fingerprint(r) for r in threaded.retrieve_batch([goal, goal])
            ]
            batch_got = [
                fingerprint(r) for r in process.retrieve_batch([goal, goal])
            ]
            assert batch_got == batch_expected
        finally:
            process.close()
