"""Retrieval answers travel as the stored PIF records.

An engine's :class:`~repro.crs.RetrievalResult` carries its candidates as
the records it read under the shard lock; the wire rebases each one onto
the message's symbol table (:func:`repro.pif.clausefile.rebase_record`)
and never builds a ``Clause``.  Here:

* **guard** — over loopback, ``retrieve`` and ``retrieve_batch`` on a
  4-shard cluster and on a fleet node make no server-side
  ``decode_compiled`` or ``clause_record`` call and no decoded-clause
  cache lookup (software mode still decodes each clause it matches:
  decoding is that mode's filter, not its transport);
* **payload oracle** — the bytes equal those of the encoder that wrote
  every candidate from its decoded clause (``tests/payload_oracle.py``),
  on the golden record corpus and on results of all four modes, single
  engine and merged across shards.  No record differs, heap records
  included: the rebase visits items in the writer's intern order;
* **race** — an ``asserta`` / ``retract`` splicing the predicate while an
  answer is in flight leaves that answer the pre-splice one, never torn;
* **deep terms** — the PIF writer and reader walk with explicit stacks.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Fleet, FleetClient, ShardedRetrievalServer
from repro.crs import ClauseRetrievalServer, RetrievalResult, SearchMode
from repro.net import BackgroundService, RetrievalClient, RetrievalService, protocol
from repro.obs import Instrumentation
from repro.pif import PIFDecodeError, PIFError, SymbolTable, clause_record
from repro.pif import clausefile
from repro.storage import KnowledgeBase, Residency
from repro.terms import Atom, Clause, Struct, Var, clause_from_term, read_term

from .payload_oracle import batch_payload, result_payload
from .strategies import terms
from .test_pif_writer import CLAUSE_RECORDS

PROGRAM = "\n".join(
    [
        *(f"rec(k{i % 40}, v{i % 7}, {i - 200}, {i / 4})." for i in range(400)),
        "rec(K, 'quoted atom', -1, 0.0) :- K = k1, \\+ rec(K, none, _, _).",
        "big(f(" + ", ".join(f"a{i}" for i in range(33)) + "), ["
        + ", ".join(str(i) for i in range(40)) + " | T], T).",
        "big(g([x, [y, [z]]], X, _), [X | T], T) :- big(_, T, _).",
        "pair(X, X). pair([], '[]'). pair(f(_, _), 1.5).",
        "path(X, Y) :- edge(X, Y). path(X, Z) :- edge(X, Y), path(Y, Z).",
        "edge(a, b). edge(b, c). edge(c, d).",
    ]
)

GOALS = [
    "rec(k7, V, N, F)", "rec(K, v3, N, F)", "rec(k1, 'quoted atom', N, F)",
    "big(X, Y, Z)", "pair(A, B)", "pair(S, S)", "path(a, Y)", "edge(X, Y)",
]


def cluster(**kwargs) -> ShardedRetrievalServer:
    engine = ShardedRetrievalServer(4, "first_arg", **kwargs)
    engine.consult_text(PROGRAM)
    engine.pin_module("user", Residency.DISK)
    return engine


def goals(mode: SearchMode | None = SearchMode.BOTH) -> list:
    """The goals; planned, only those of the predicate big enough to leave
    software mode."""
    return [
        read_term(text) for text in GOALS
        if mode is not None or text.startswith("rec(")
    ]


# -- guard ---------------------------------------------------------------------


@pytest.fixture
def server_calls(monkeypatch):
    """Counts of the decode/encode entry points called on server threads."""
    counts = {"decode_compiled": 0, "clause_record": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            if threading.current_thread().name.startswith("clare-net"):
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    import repro.crs.server
    import repro.net.protocol

    for module in (clausefile, repro.crs.server):
        monkeypatch.setattr(
            module, "decode_compiled",
            counting("decode_compiled", clausefile.decode_compiled),
        )
    for module in (clausefile, repro.net.protocol):
        monkeypatch.setattr(
            module, "clause_record",
            counting("clause_record", clausefile.clause_record),
        )
    return counts


def decode_cache_lookups(obs: Instrumentation) -> float:
    total = obs.registry.total
    return total("crs.decode_cache.hits") + total("crs.decode_cache.misses")


HARDWARE_MODES = [None, SearchMode.FS1_ONLY, SearchMode.FS2_ONLY, SearchMode.BOTH]


@pytest.mark.parametrize("mode", HARDWARE_MODES, ids=str)
def test_a_cluster_answers_without_building_clauses(server_calls, mode):
    obs = Instrumentation()
    engine = cluster(obs=obs)
    expected = [r.candidates for r in cluster().retrieve_batch(goals(mode), mode)]
    with BackgroundService(RetrievalService(engine, obs=obs)) as service:
        host, port = service.start()
        with RetrievalClient(host, port) as client:
            batch = client.retrieve_batch(goals(mode), mode=mode)
            single = [client.retrieve(goal, mode=mode) for goal in goals(mode)]
    assert [r.candidates for r in batch] == expected
    assert [r.candidates for r in single] == expected
    assert sum(map(len, expected)) > 0
    assert server_calls == {"decode_compiled": 0, "clause_record": 0}
    assert decode_cache_lookups(obs) == 0


def test_a_fleet_node_answers_without_building_clauses(server_calls):
    obs = Instrumentation()
    reference = cluster()
    with Fleet(PROGRAM, num_shards=2, replicas=1, policy="first_arg",
               obs=obs, service_opts={"obs": obs}) as fleet:
        for node in fleet.nodes.values():
            node.engine.pin_module("user", Residency.DISK)
        client = FleetClient(fleet.manifest, fleet.router)
        try:
            for mode in HARDWARE_MODES:
                for goal in goals(mode):
                    got = {str(c) for c in client.retrieve(goal, mode=mode).candidates}
                    # Every filter is sound: no true unifier is dropped.
                    assert got >= {str(c) for c, _ in reference.solutions(goal)}
                    assert got
        finally:
            client.close()
        assert server_calls == {"decode_compiled": 0, "clause_record": 0}
        assert decode_cache_lookups(obs) == 0


def test_in_process_callers_still_decode_through_the_cache():
    obs = Instrumentation()
    engine = cluster(obs=obs)
    (result,) = engine.retrieve_batch([read_term("rec(k7, V, N, F)")])
    assert decode_cache_lookups(obs) == 0  # nothing read yet
    count = len(result)
    clauses = result.candidates
    assert len(clauses) == count > 10
    assert all(isinstance(c, Clause) for c in clauses)
    assert obs.registry.total("crs.decode_cache.misses") == count
    again = engine.retrieve(read_term("rec(k7, V, N, F)"))
    assert again.candidates == clauses
    assert obs.registry.total("crs.decode_cache.hits") == count


# -- payload oracle --------------------------------------------------------------


@pytest.mark.parametrize("text", [text for text, _, _ in CLAUSE_RECORDS])
def test_golden_corpus_payloads_match_the_clause_encoder(text):
    clause = clause_from_term(read_term(text))
    name, arity = clause.indicator
    kb = KnowledgeBase()
    kb.consult_text(f"zz(1, 2.5, foo). {text}.")
    server = ClauseRetrievalServer(kb)
    goal = (
        Struct(name, tuple(Var(f"A{i}") for i in range(arity)))
        if arity else Atom(name)
    )
    for mode in SearchMode:
        result = server.retrieve(goal, mode=mode)
        assert len(result) == 1
        assert protocol.encode_result_response(result) == result_payload(result)


@pytest.mark.parametrize("mode", list(SearchMode) + [None], ids=str)
@pytest.mark.parametrize("shards", [1, 4])
def test_every_mode_payload_matches_the_clause_encoder(mode, shards):
    engine = ShardedRetrievalServer(shards, "first_arg")
    engine.consult_text(PROGRAM)
    engine.pin_module("user", Residency.DISK)
    results = engine.retrieve_batch(goals(), mode=mode)
    assert all(result.sources is not None for result in results)
    assert protocol.encode_batch_response(results) == batch_payload(results)
    decoded = protocol.decode_batch_response(protocol.encode_batch_response(results))
    assert decoded == results


def test_clause_results_still_encode_from_their_clauses():
    clause = clause_from_term(read_term("p(f(X), [a | X], 2.5)"))
    result = RetrievalResult(goal=read_term("p(A, B, C)"), candidates=[clause])
    assert result.sources is None
    assert protocol.encode_result_response(result) == result_payload(result)


@settings(max_examples=200, deadline=None)
@given(
    args=st.lists(terms(max_depth=4, max_arity=34), min_size=0, max_size=4),
    body=st.lists(terms(max_depth=2), max_size=3),
    seen=st.lists(st.sampled_from(["a", "b", "f", "[]", ","]), max_size=5),
)
def test_rebase_writes_what_the_writer_writes(args, body, seen):
    body = tuple(goal for goal in body if goal.__class__ in (Atom, Struct))
    head = Struct("p", tuple(args)) if args else Atom("p")
    clause = Clause(head, body)
    store = SymbolTable()
    for name in ("zz", "p", "q", "1.5"):
        store.intern_atom(name)
    try:
        record = clause_record(clause, store)
    except PIFError:
        assume(False)
    rebased, written = SymbolTable(), SymbolTable()
    for name in seen:
        rebased.intern_atom(name)
        written.intern_atom(name)
    memo: dict[int, int] = {}
    assert clausefile.rebase_record(record, store, rebased, memo) == (
        clause_record(clause, written)
    )
    assert rebased.to_bytes() == written.to_bytes()


def test_rebase_rejects_a_blob_pointing_up():
    table = SymbolTable()
    record = bytearray(clause_record(
        clause_from_term(read_term("p(f(" + ", ".join("a" * 33) + "))")), table
    ))
    record[13:17] = (1 << 16).to_bytes(4, "big")  # the pointer's extension
    with pytest.raises(PIFDecodeError):
        clausefile.rebase_record(bytes(record), table, SymbolTable(), {})


# -- race ------------------------------------------------------------------------


def test_a_splice_during_encoding_leaves_the_answer_whole(monkeypatch):
    engine = cluster()
    goal = read_term("rec(k7, V, N, F)")
    before = engine.retrieve(goal).candidates
    victim = next(c for c in before if c.head.args[0] == Atom("k7"))
    extra = clause_from_term(read_term("rec(k7, brand_new, 1, 2.0)"))
    original = protocol.encode_result_response

    def splice_then_encode(result):
        # The records were read under the shard lock; these splices move
        # every later record of the predicate before they are encoded.
        engine.asserta(extra)
        assert engine.remove_exact(victim)
        return original(result)

    monkeypatch.setattr(protocol, "encode_result_response", splice_then_encode)
    with BackgroundService(RetrievalService(engine)) as service:
        host, port = service.start()
        with RetrievalClient(host, port) as client:
            assert client.retrieve(goal).candidates == before
            after = engine.retrieve(goal).candidates
            assert extra in after and victim not in after
            monkeypatch.setattr(protocol, "encode_result_response", original)
            assert client.retrieve(goal).candidates == after


def test_concurrent_splices_yield_whole_answers():
    engine = cluster()
    goal = read_term("rec(k7, V, N, F)")
    first = engine.retrieve(goal).candidates
    extra = clause_from_term(read_term("rec(k7, spliced, 0, 0.5)"))
    answers = {tuple(map(str, first)), tuple(map(str, [extra, *first]))}
    stop = threading.Event()

    def splicer():
        while not stop.is_set():
            engine.asserta(extra)
            engine.remove_exact(extra)

    with BackgroundService(RetrievalService(engine)) as service:
        host, port = service.start()
        thread = threading.Thread(target=splicer)
        thread.start()
        try:
            with RetrievalClient(host, port) as client:
                for _ in range(60):
                    got = client.retrieve(goal).candidates
                    assert tuple(map(str, got)) in answers
        finally:
            stop.set()
            thread.join()


# -- deep terms ------------------------------------------------------------------


def nested(depth: int, functor: str = "s") -> Struct:
    term = Atom("z")
    for _ in range(depth):
        term = Struct(functor, (term,))
    return term


def test_a_10000_deep_term_round_trips_as_a_solution():
    term = nested(10_000)
    index, bindings = protocol.decode_solution(
        protocol.encode_solution(5, {"N": term})
    )
    assert index == 5 and bindings["N"] == term


def test_deep_terms_with_heap_forms_round_trip():
    term = Atom("z")
    for level in range(300):
        if level % 3 == 0:
            term = Struct("f", (term, *(Atom(f"a{i}") for i in range(32))))
        elif level % 3 == 1:
            term = Struct(".", (term, Struct(".", (Var("X"), Var("T")))))
        else:
            term = Struct("g", (term,))
    _, bindings = protocol.decode_solution(protocol.encode_solution(0, {"T": term}))
    assert bindings["T"] == term


def test_a_3000_deep_goal_decodes_on_both_sides():
    goal = Struct("nat", (nested(3000),))
    decoded, mode, _ = protocol.decode_retrieve_request(
        protocol.encode_retrieve_request(goal, SearchMode.FS2_ONLY)
    )
    assert decoded == goal and mode is SearchMode.FS2_ONLY
    answer = protocol.decode_result_response(
        protocol.encode_result_response(RetrievalResult(goal=goal))
    )
    assert answer.goal == goal


def test_the_wire_solve_streams_1000_nat_answers():
    engine = ShardedRetrievalServer(2)
    engine.consult_text("nat(z). nat(s(X)) :- nat(X).")
    with BackgroundService(RetrievalService(engine)) as service:
        host, port = service.start()
        with RetrievalClient(host, port) as client:
            answers = list(client.solve(read_term("nat(N)"), max_solutions=1000))
    assert len(answers) == 1000
    assert answers[-1]["N"] == nested(999)
