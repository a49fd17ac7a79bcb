"""The network service over the multi-core data plane.

A short, hard-bounded smoke: :class:`~repro.net.RetrievalService`
fronting a :class:`~repro.parallel.ProcessShardedRetrievalServer`
(spawned shard workers over shared mmap segments) must serve retrieve,
batch, mutate, and solve over real loopback sockets exactly like the
threaded engine does.  Every test carries its own timeout so a wedged
worker pipe fails the suite instead of hanging it.
"""

import dataclasses

import pytest

from repro.cluster import ShardedRetrievalServer
from repro.net import BackgroundService, RetrievalClient, RetrievalService
from repro.parallel import ProcessShardedRetrievalServer
from repro.terms import read_term

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(a, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""

TIMEOUT_S = 30.0


def fingerprint(result):
    return (
        [str(c) for c in result.candidates],
        dataclasses.astuple(result.stats),
    )


@pytest.fixture(scope="module")
def process_address():
    engine = ProcessShardedRetrievalServer(2)
    engine.consult_text(PROGRAM)
    engine.start()
    service = RetrievalService(engine, max_in_flight=4)
    with BackgroundService(service) as background:
        yield background.start()
    engine.close()


@pytest.fixture(scope="module")
def threaded_address():
    engine = ShardedRetrievalServer(2)
    engine.consult_text(PROGRAM)
    service = RetrievalService(engine, max_in_flight=4)
    with BackgroundService(service) as background:
        yield background.start()


class TestProcessBackedService:
    def test_retrieve_matches_threaded_service(
        self, process_address, threaded_address
    ):
        with RetrievalClient(*process_address) as proc_client, RetrievalClient(
            *threaded_address
        ) as thread_client:
            for goal_text in ("edge(a, X)", "edge(X, Y)", "path(a, Z)"):
                goal = read_term(goal_text)
                got = proc_client.retrieve(goal, deadline_s=TIMEOUT_S)
                expected = thread_client.retrieve(goal, deadline_s=TIMEOUT_S)
                assert fingerprint(got) == fingerprint(expected), goal_text

    def test_batch_and_solve_over_processes(self, process_address):
        with RetrievalClient(*process_address) as client:
            goals = [read_term("edge(a, X)"), read_term("edge(X, Y)")]
            results = client.retrieve_batch(goals, deadline_s=TIMEOUT_S)
            assert [len(r.candidates) for r in results] == [2, 4]
            answers = list(
                client.solve(
                    read_term("path(a, Z)"),
                    deadline_s=TIMEOUT_S,
                    max_solutions=10,
                )
            )
            bound = sorted(str(answer["Z"]) for answer in answers)
            assert bound == ["b", "c", "d", "d"]

    def test_mutations_propagate_to_the_workers(self, process_address):
        with RetrievalClient(*process_address) as client:
            client.mutate(
                "assertz", read_term("edge(d, zz)"), deadline_s=TIMEOUT_S
            )
            result = client.retrieve(
                read_term("edge(d, X)"), deadline_s=TIMEOUT_S
            )
            assert sorted(str(c) for c in result.candidates) == ["edge(d,zz)."]
