"""The worker result transport: one pickled pipe, identical to the threads.

Process shard workers used to answer ``retrieve_batch`` through a
``multiprocessing.shared_memory`` slab, with the pickled pipe as its
overflow path; the slab is gone and the pipe every other verb rides is
the only transport.  The case names below are kept from that era.  They
pin the transport's contract — bit identity with the threaded cluster,
candidates element-wise and the full stats tuple — including replies far
larger than one slab slot used to hold.  That nothing of the slab comes
back is guarded structurally in ``test_public_api``.
"""

import dataclasses

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import SearchMode
from repro.obs import Instrumentation
from repro.parallel import ProcessShardedRetrievalServer
from repro.terms import Atom, Clause, Struct, Var, read_term

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(a, d). edge(d, e).
path(X, Y) :- edge(X, Y).
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


def fingerprint(result):
    return (
        [str(c) for c in result.candidates],
        dataclasses.astuple(result.stats),
    )


def build_process():
    server = ProcessShardedRetrievalServer(
        3, ShardingPolicy.PREDICATE, obs=Instrumentation()
    )
    server.consult_text(PROGRAM)
    server.start()
    return server


@pytest.fixture(scope="module")
def transport_pair():
    """Threaded reference + process workers answering on the pipe."""
    threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
    threaded.consult_text(PROGRAM)
    process = build_process()
    yield threaded, process
    process.close()


class TestTransportIdentity:
    def test_shm_equals_pipe_equals_threaded(self, transport_pair):
        threaded, process = transport_pair
        for goal_text in GOALS:
            goal = read_term(goal_text)
            for mode in [None, *SearchMode]:
                expected = fingerprint(threaded.retrieve(goal, mode=mode))
                assert fingerprint(process.retrieve(goal, mode=mode)) == (
                    expected
                ), (goal_text, mode)

    def test_retrieve_batch_identity(self, transport_pair):
        threaded, process = transport_pair
        goals = [read_term(text) for text in GOALS]
        expected = [fingerprint(r) for r in threaded.retrieve_batch(goals)]
        assert [fingerprint(r) for r in process.retrieve_batch(goals)] == (
            expected
        )
        # A batch whose pickled reply dwarfs the slab's old 8-byte
        # overflow threshold still arrives whole and in order.
        wide = goals * 40
        assert [fingerprint(r) for r in process.retrieve_batch(wide)] == (
            expected * 40
        )

    def test_mutations_stay_identical_over_shm(self):
        threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
        threaded.consult_text(PROGRAM)
        process = build_process()
        try:
            steps = [
                ("assertz", Clause(Struct("edge", (Atom("e"), Atom("f"))))),
                ("asserta", Clause(Struct("edge", (Atom("zz"), Atom("a"))))),
                ("retract", Clause(Struct("edge", (Atom("a"), Var("Q"))))),
                ("assertz", Clause(Struct("fresh", (Atom("n1"),)))),
            ]
            for op, clause in steps:
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
                # The batch reply follows the same mutated shards.
                goals = [read_term(text) for text in GOALS]
                assert [
                    fingerprint(r) for r in process.retrieve_batch(goals)
                ] == [fingerprint(r) for r in threaded.retrieve_batch(goals)]
        finally:
            process.close()


class TestDeepGoalsCrossThePipe:
    """A goal holding a 5 000-element list, at the default recursion limit.

    The goal is pickled to the worker and comes back inside its
    ``RetrievalResult``.  Terms pickle as flat token tuples, so neither
    hop recurses per cons cell; the threaded backend, which pickles
    nothing, is the reference.  The test process may run with a raised
    limit, so the retrieval runs in a fresh interpreter.
    """

    SCRIPT = """
import sys
sys.setrecursionlimit(1000)
from repro.cluster import ShardedRetrievalServer
from repro.parallel import ProcessShardedRetrievalServer
from repro.terms import Int, Struct, make_list

PROGRAM = "p(1, L). p(2, x). p(1, [a]). p(1, [0 | T])."
goal = Struct("p", (Int(1), make_list([Int(i) for i in range(5000)])))
threaded = ShardedRetrievalServer(2)
threaded.consult_text(PROGRAM)
process = ProcessShardedRetrievalServer(2)
process.consult_text(PROGRAM)
process.start()
try:
    expected = threaded.retrieve(goal)
    got = process.retrieve(goal)
finally:
    process.close()
assert [str(c) for c in expected.candidates] == ["p(1,L).", "p(1,[0|T])."]
assert got.candidates == expected.candidates, got.candidates
assert got.goal == goal
assert sys.getrecursionlimit() == 1000
"""

    def test_both_backends_return_the_same_candidates(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-3000:]
