"""The shared-memory result transport and worker fault tolerance.

Worker→parent result traffic rides a :class:`multiprocessing.
shared_memory` slab instead of the pickled pipe (see
:mod:`repro.parallel.shm`).  The contract is bit identity with the
threaded cluster — candidates element-wise, full stats tuple — for
every goal, mode, and mutation.  This suite drives the slab path
differentially against the pickled pipe (forced by an absurdly small
slab, or by a host that cannot create shared memory) and the threaded
reference, and proves the respawn path by killing a worker mid-traffic.
"""

import dataclasses
import os
import pickle
import signal
import time

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import SearchMode
from repro.obs import Instrumentation
from repro.parallel import ProcessShardedRetrievalServer
from repro.parallel import server as parallel_server
from repro.parallel.shm import encode_results, is_shm_ref
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


def build_process(**kwargs):
    server = ProcessShardedRetrievalServer(
        3, ShardingPolicy.PREDICATE, obs=Instrumentation(), **kwargs
    )
    server.consult_text(PROGRAM)
    server.start()
    return server


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
def transport_trio():
    """Threaded reference + slab path + pickled pipe over one program.

    An eight-byte slab holds no payload at all, so every result of the
    ``pipe`` server takes the overflow path.
    """
    threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
    threaded.consult_text(PROGRAM)
    shm = build_process()
    pipe = build_process(shm_slot_bytes=8)
    yield threaded, shm, pipe
    shm.close()
    pipe.close()


class TestTransportIdentity:
    def test_shm_equals_pipe_equals_threaded(self, transport_trio):
        threaded, shm, pipe = transport_trio
        for goal_text in GOALS:
            goal = read_term(goal_text)
            for mode in [None, *SearchMode]:
                expected = fingerprint(threaded.retrieve(goal, mode=mode))
                assert fingerprint(shm.retrieve(goal, mode=mode)) == (
                    expected
                ), (goal_text, mode, "shm")
                assert fingerprint(pipe.retrieve(goal, mode=mode)) == (
                    expected
                ), (goal_text, mode, "pipe")

    def test_retrieve_batch_identity(self, transport_trio):
        threaded, shm, pipe = transport_trio
        goals = [read_term(text) for text in GOALS]
        expected = [fingerprint(r) for r in threaded.retrieve_batch(goals)]
        assert [fingerprint(r) for r in shm.retrieve_batch(goals)] == expected
        assert [fingerprint(r) for r in pipe.retrieve_batch(goals)] == expected

    def test_slab_traffic_is_counted(self, transport_trio):
        _, shm, pipe = transport_trio
        before = shm.obs.registry.total("parallel.shm.results")
        shm.retrieve(read_term("edge(a, X)"))
        after = shm.obs.registry.total("parallel.shm.results")
        assert after > before
        assert shm.obs.registry.total("parallel.shm.bytes") > 0
        # The overflow path never touches a slab.
        assert pipe.obs.registry.total("parallel.shm.results") == 0

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
        finally:
            process.close()


class TestSlabFallback:
    def test_tiny_slots_fall_back_to_the_pipe(self):
        """Payloads that outgrow a slot still answer, over the pipe."""
        threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
        threaded.consult_text(PROGRAM)
        process = build_process(shm_slot_bytes=8)
        try:
            for goal_text in GOALS:
                goal = read_term(goal_text)
                expected = fingerprint(threaded.retrieve(goal))
                assert fingerprint(process.retrieve(goal)) == expected
            assert process.obs.registry.total("parallel.shm.fallbacks") > 0
            assert process.obs.registry.total("parallel.shm.results") == 0
        finally:
            process.close()


class TestSlabUnavailable:
    """No ``/dev/shm``: workers launch without a slab and pickle."""

    @pytest.fixture
    def no_shared_memory(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(parallel_server, "SharedMemory", refuse)

    def test_workers_fall_back_to_the_pipe(self, no_shared_memory):
        threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
        threaded.consult_text(PROGRAM)
        process = build_process()
        try:
            total = process.obs.registry.total
            assert total("parallel.shm.unavailable") == 3  # one per worker
            goals = [read_term(text) for text in GOALS]
            for goal in goals:
                for mode in [None, *SearchMode]:
                    assert fingerprint(
                        process.retrieve(goal, mode=mode)
                    ) == fingerprint(threaded.retrieve(goal, mode=mode))
            batch = [fingerprint(r) for r in process.retrieve_batch(goals)]
            assert batch == [
                fingerprint(r) for r in threaded.retrieve_batch(goals)
            ]
            assert total("parallel.shm.results") == 0
            assert total("parallel.shm.fallbacks") == 0  # nothing overflowed
            # A respawned worker is launched the same way.
            kill_one_worker(process)
            assert [fingerprint(process.retrieve(g)) for g in goals] == [
                fingerprint(threaded.retrieve(g)) for g in goals
            ]
            assert total("parallel.worker.restarts") == 1
            assert total("parallel.shm.unavailable") == 4
        finally:
            process.close()


class TestWorkerRespawn:
    def test_killed_worker_respawns_and_answers(self):
        threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
        threaded.consult_text(PROGRAM)
        process = build_process()
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
        threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
        threaded.consult_text(PROGRAM)
        process = build_process()
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

        process = ProcessShardedRetrievalServer(
            2, ShardingPolicy.ROUND_ROBIN, obs=Instrumentation()
        )
        process.consult_text("q(a). q(b). q(c). q(d).")
        process.start()
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
        threaded = ShardedRetrievalServer(3, ShardingPolicy.PREDICATE)
        threaded.consult_text(PROGRAM)
        process = build_process()
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


class TestCodec:
    def test_merged_results_refuse_the_slab(self):
        """A result with no address list cannot ride the slab."""
        from repro.crs import RetrievalResult, RetrievalStats, SearchMode

        result = RetrievalResult(
            goal=read_term("p(a)"),
            candidates=[],
            stats=RetrievalStats(mode=SearchMode.FS1_ONLY, residency="main"),
            addresses=None,
        )
        assert encode_results([result], kb=None) is None

    def test_is_shm_ref_discriminates(self):
        assert is_shm_ref(("__shm__", 128))
        assert not is_shm_ref(("__shm__", 0, 128))
        assert not is_shm_ref(["__shm__", 128])
        assert not is_shm_ref(pickle.dumps(("__shm__", 128)))
