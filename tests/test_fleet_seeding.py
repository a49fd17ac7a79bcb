"""How a fleet seeds its replicas: each shard's partition is compiled
once, and every replica adopts a knowledge base of its own over copies
of those images (``KnowledgeBase.replica``).  The replicas start
byte-identical and never share a mutable object, so a write on one
leaves the other's bytes as they were."""

from __future__ import annotations

import pytest

from repro.cluster import Fleet
from repro.storage import KnowledgeBase
from repro.terms import clause_from_term, read_program, read_term

PROGRAM = " ".join(
    [f"rec(k{i}, v{i % 5}, {i})." for i in range(120)]
    + ["pair(X, X).", "near(X, Y) :- rec(X, V, _), rec(Y, V, _).", "flag."]
)


def images(kb: KnowledgeBase) -> dict:
    """Every byte a knowledge base is made of."""
    return {
        "symbols": kb.symbols.to_bytes(),
        **{
            f"{name}/{arity}": (
                store.clause_file.to_bytes(), store.index.to_bytes()
            )
            for store in kb
            for name, arity in [store.indicator]
        },
    }


def replica_kbs(fleet: Fleet, shard_id: int) -> list[KnowledgeBase]:
    return [
        fleet.nodes[address].engine.shards[0].kb
        for address in fleet.manifest.replicas_for(shard_id)
    ]


@pytest.fixture
def fleet():
    with Fleet(PROGRAM, num_shards=2, replicas=2, policy="first_arg") as fleet:
        yield fleet


def test_replicas_start_byte_identical_with_their_own_objects(fleet):
    for shard_id in range(fleet.num_shards):
        first, second = replica_kbs(fleet, shard_id)
        assert first is not second
        assert first.symbols is not second.symbols
        assert images(first) == images(second)
        assert first.clause_count() > 0
        for indicator in first.predicates():
            mine, theirs = first.store(indicator), second.store(indicator)
            assert mine is not theirs
            assert mine.clause_file is not theirs.clause_file
            assert mine.index is not theirs.index
        assert first.modules()[0] is not second.modules()[0]
        assert first.modules()[0].indicators is not second.modules()[0].indicators


@pytest.mark.parametrize("write", ["assertz", "asserta", "retract"])
def test_a_write_on_one_replica_leaves_the_other_alone(fleet, write):
    goal = read_term("rec(k7, v2, 7)")
    (shard_id,) = fleet.router.route_goal(goal)
    first, second = (
        fleet.nodes[address].engine
        for address in fleet.manifest.replicas_for(shard_id)
    )
    before = images(second.shards[0].kb)
    if write == "retract":
        assert first.retract(goal)
    else:
        getattr(first, write)(read_term("rec(k7, brand_new_atom, 700)"))
    assert images(first.shards[0].kb) != before
    assert images(second.shards[0].kb) == before
    assert len(second.retrieve(read_term("rec(k7, V, N)")).candidates) == 1


def test_replica_of_a_knowledge_base():
    kb = KnowledgeBase()
    kb.consult_text(PROGRAM)
    kb.module("user").pin("disk")
    copy = kb.replica()
    assert images(copy) == images(kb)
    assert copy.module("user").pinned_residency == "disk"
    assert [copy.clauses(i) for i in copy.predicates()] == [
        kb.clauses(i) for i in kb.predicates()
    ]
    before = images(kb)
    copy.asserta(read_term("rec(first, v0, 0)"))
    copy.retract(read_term("pair(_, _)"))
    copy.assertz(read_term("another(fresh_atom)"))
    assert images(kb) == before
    # Replicas share their source's images (frozen to bytes in place),
    # and nothing else.
    left, right = kb.replica(), kb.replica()
    for indicator in kb.predicates():
        source = kb.store(indicator)
        for replica in (left, right):
            store = replica.store(indicator)
            assert store.clause_file._image is source.clause_file._image
            assert store.index._rows is source.index._rows
    left.assertz(read_term("rec(late, v1, 1)"))
    kb.assertz(read_term("rec(later, v2, 2)"))
    assert images(right) == before
    assert images(left) != before and images(kb) != before


@pytest.mark.parametrize("write", ["assertz", "asserta", "retract"])
def test_a_replicas_first_write_stays_private(write):
    # The replica copies its source's symbol entries and address tables
    # rather than re-deriving them; its first write, which grows or
    # splices them, reaches neither its source nor a sibling.
    kb = KnowledgeBase()
    kb.consult_text(PROGRAM)
    replica, sibling = kb.replica(), kb.replica()
    source_state = images(kb), len(kb.symbols), kb.store(("rec", 3)).clause_file.record_addresses()
    if write == "retract":
        assert replica.retract(read_term("rec(k3, V, N)"))
    else:
        getattr(replica, write)(read_term("rec(k3, unseen_atom, 3.5)"))
    for untouched in (kb, sibling):
        assert (
            images(untouched), len(untouched.symbols),
            untouched.store(("rec", 3)).clause_file.record_addresses(),
        ) == source_state
    assert images(replica) != source_state[0]
    assert [str(c) for c in sibling.clauses(("rec", 3))] == [
        str(c) for c in kb.clauses(("rec", 3))
    ]
    # ... and the source's own next write stays out of the replica.
    kb.assertz(read_term("rec(k999, another_unseen, 1)"))
    assert not replica.symbols.contains_atom("another_unseen")
    assert len(replica.clauses(("rec", 3))) == 120 + (write != "retract") - (
        write == "retract"
    )


def test_fleet_takes_clauses_as_well_as_text():
    clauses = [clause_from_term(term) for term in read_program(PROGRAM)]
    with Fleet(PROGRAM, num_shards=2, replicas=1, policy="first_arg") as text_fleet:
        with Fleet(clauses, num_shards=2, replicas=1, policy="first_arg") as fleet:
            for shard_id in range(2):
                assert [images(kb) for kb in replica_kbs(fleet, shard_id)] == [
                    images(kb) for kb in replica_kbs(text_fleet, shard_id)
                ]
