"""Differential square: oracle / PrologMachine / CRS-backed solve / net solve.

Hypothesis generates small terminating programs (a DAG of ``edge/2``
facts plus recursive closure, cut, negation, and shared-variable rules);
every query must produce the *identical answer sequence* on all four
paths:

1. the tree-walking oracle (``tests/oracle.py``) over a single
   KnowledgeBase;
2. ``PrologMachine.solve`` — the ZIP machine — over the same KB;
3. ``SolveEngine`` pulling candidates through a predicate-sharded
   cluster;
4. the ``solve`` verb over the wire protocol, answers streamed one
   frame at a time.

Predicate sharding keeps each procedure whole on one shard, so the
cluster's candidate order equals single-KB clause order and sequence
equality (not just set equality) is the contract under test.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.engine import PrologMachine, SolveEngine
from repro.net import BackgroundService, RetrievalService
from repro.storage import KnowledgeBase
from repro.terms import read_term, term_to_string
from tests.oracle import oracle_answers

RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
reach(X) :- path(n0, X).
first_hop(X) :- edge(n0, X), !.
sink(X) :- node(X), \\+ edge(X, _).
linked(X, Z) :- edge(X, Y), edge(Y, Z).
"""

QUERIES = [
    "path(n0, X)",
    "path(X, Y)",
    "reach(X)",
    "first_hop(X)",
    "sink(X)",
    "linked(X, Z)",
    "edge(X, Y), path(Y, Z)",
]


@st.composite
def dag_programs(draw):
    """Edge facts over nodes n0..nK, always acyclic (i -> j needs i < j)."""
    node_count = draw(st.integers(min_value=3, max_value=6))
    pairs = st.tuples(
        st.integers(0, node_count - 2), st.integers(1, node_count - 1)
    ).filter(lambda p: p[0] < p[1])
    edges = draw(
        st.lists(pairs, min_size=2, max_size=8, unique=True)
    )
    lines = [f"node(n{i})." for i in range(node_count)]
    lines += [f"edge(n{a}, n{b})." for a, b in edges]
    return "\n".join(lines) + "\n" + RULES


def render(solution: dict) -> dict:
    return {name: term_to_string(value) for name, value in solution.items()}


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=dag_programs())
def test_in_process_square_agrees(program):
    kb = KnowledgeBase()
    kb.consult_text(program)
    machine = PrologMachine(kb, unknown_predicates="fail")
    cluster = ShardedRetrievalServer(2, policy=ShardingPolicy.PREDICATE)
    cluster.consult_text(program)
    cluster_solve = SolveEngine(cluster)
    for query in QUERIES:
        reference = [render(s) for s in oracle_answers(machine, read_term(query))]
        compiled = [render(s) for s in machine.solve(read_term(query))]
        assert compiled == reference, f"machine vs oracle: {query}"
        assert [
            render(s) for s in cluster_solve.solve(read_term(query))
        ] == reference, f"cluster vs oracle: {query}"


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=dag_programs())
def test_net_solve_streams_the_interpreter_sequence(program):
    from repro.net import RetrievalClient

    kb = KnowledgeBase()
    kb.consult_text(program)
    machine = PrologMachine(kb, unknown_predicates="fail")
    cluster = ShardedRetrievalServer(2, policy=ShardingPolicy.PREDICATE)
    cluster.consult_text(program)
    service = RetrievalService(cluster, max_in_flight=2, queue_limit=4)
    with BackgroundService(service) as background:
        host, port = background.service.address
        with RetrievalClient(host, port) as client:
            for query in QUERIES:
                reference = [
                    render(s) for s in oracle_answers(machine, read_term(query))
                ]
                streamed = [
                    render(s) for s in client.solve(read_term(query))
                ]
                assert streamed == reference, f"net solve: {query}"


@pytest.mark.parametrize("seed_nodes", [3, 4, 5])
def test_recursive_closure_square_on_dense_dag(seed_nodes):
    """A deterministic dense DAG as a fixed anchor next to the fuzzing."""
    lines = [f"node(n{i})." for i in range(seed_nodes)]
    lines += [
        f"edge(n{a}, n{b})."
        for a in range(seed_nodes)
        for b in range(a + 1, seed_nodes)
    ]
    program = "\n".join(lines) + "\n" + RULES
    kb = KnowledgeBase()
    kb.consult_text(program)
    machine = PrologMachine(kb, unknown_predicates="fail")
    cluster = ShardedRetrievalServer(3, policy=ShardingPolicy.PREDICATE)
    cluster.consult_text(program)
    engine = SolveEngine(cluster)
    for query in QUERIES:
        reference = [render(s) for s in oracle_answers(machine, read_term(query))]
        assert [render(s) for s in machine.solve(read_term(query))] == reference
        assert [
            render(s) for s in engine.solve(read_term(query))
        ] == reference, query
