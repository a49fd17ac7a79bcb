"""Subprocess body for the WAL crash-injection suite.

Run as::

    python wal_crash_runner.py STORE_DIR ACKS_FILE POINT HITS COUNT [bulk|retract]

Builds a durable two-shard engine over ``STORE_DIR``, arms crash point
``POINT`` to SIGKILL this process on its ``HITS``-th hit, then applies
``COUNT`` deterministic mutations.  After each mutator *returns* —
i.e. after ``wait_durable`` acknowledged the write per the flush policy
— the mutation's ``write_id`` is appended to ``ACKS_FILE`` with
``O_APPEND`` + ``fsync``, so the acks file is the ground truth of what
the "client" was promised.  The parent test recovers the store and
asserts the promise held: every acked write survived, in order, with no
duplicates.

If ``POINT`` starts with ``compact.`` the mutations all complete (and
ack) first, and the armed point fires inside the explicit
``engine.compact()`` call — crash-during-compaction must never lose an
acked write either.

With a trailing ``bulk`` the run is one bulk load instead: the
``COUNT`` facts of :func:`bulk_plan` go through ``consult_clauses`` (one
group commit per chunk, not per clause) and the single ack line
``bulk`` is written only after the whole load returned.  A crash
mid-batch must leave a contiguous prefix of the plan — whole chunks
plus whatever reached the file — never a hole.

With a trailing ``retract`` the run follows :func:`retract_plan`
instead — templates with variables, rules retracted by head and body,
``asserta`` in between — and compacts half way, so a crash in the second
half is recovered from a snapshot's adopted images plus a WAL tail of
splices.

With a trailing ``seed`` the run builds a one-node durable fleet over
``STORE_DIR`` (its durability root) from :func:`seed_program` instead:
the armed point (``compact.*``) fires while the node writes its seed
snapshot, before the fleet ever starts.  Nothing is acked.

With a trailing ``resync`` the run builds a one-shard, two-replica
durable fleet over an empty program, so each replica's seed snapshot is
an empty one at seq 0.  It kills the second replica, asserts ``COUNT``
facts on the first (:func:`resync_facts`), then arms the point and
restarts the second: an empty node at seq 0 resyncs by adopting the
peer's snapshot, so the point fires in that adoption's checkpoint.

The schedules (see :func:`mutation_plan`, :func:`retract_plan`,
:func:`bulk_plan`, :func:`seed_program`, :func:`resync_facts`) are
pure: the parent imports this module and replays the same plan against an
in-memory oracle to decide exactly what the recovered KB must contain.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)


def mutation_plan(count: int) -> list[tuple[str, str, str]]:
    """The deterministic mutation schedule: (op, clause_text, write_id).

    Mostly ``assertz`` of unique facts, an ``asserta`` every seventh
    mutation, and every fifth mutation retracts the fact asserted three
    steps earlier (which is always still present: retract indices are
    ``4 mod 5`` so the victims, at ``1 mod 5``, are never retracted
    twice).  Every mutation changes the KB, so each one bumps the engine
    version by exactly one — the parent leans on that to map the acked
    prefix onto a version number.
    """
    plan: list[tuple[str, str, str]] = []
    for i in range(count):
        write_id = f"crash:{i}"
        if i % 5 == 4:
            plan.append(("retract", f"crash_fact(k{i - 3})", write_id))
        elif i % 7 == 3:
            plan.append(("asserta", f"crash_fact(k{i})", write_id))
        else:
            plan.append(("assertz", f"crash_fact(k{i})", write_id))
    return plan


def retract_plan(count: int) -> list[tuple[str, str, str]]:
    """A splice-heavy schedule: (op, clause_text, write_id).

    Nine clauses go in first (six facts, three rules); after that every
    second mutation retracts — the oldest surviving fact through a
    template with two variables, or the oldest surviving rule through a
    head-and-body template — and the others ``asserta`` a fact or
    ``assertz`` a rule to keep both kinds in stock.  As in
    :func:`mutation_plan`, every mutation changes the KB exactly once.
    """
    plan: list[tuple[str, str, str]] = []
    facts: list[int] = []
    rules: list[int] = []
    for i in range(count):
        write_id = f"splice:{i}"
        loading = i < 9
        if not loading and i % 2:
            if i % 4 == 3:
                text = f"crash_rec(r{rules.pop(0)}, A, B) :- Body"
            else:
                text = f"crash_rec(k{facts.pop(0)}, V, N)"
            plan.append(("retract", text, write_id))
        elif 6 <= i < 9 or not loading and i % 4 == 0:
            rules.append(i)
            plan.append(
                ("assertz", f"crash_rec(r{i}, V, N) :- aux(V, N)", write_id)
            )
        else:
            facts.append(i)
            op = "assertz" if loading else "asserta"
            plan.append((op, f"crash_rec(k{i}, v{i % 3}, {i})", write_id))
    return plan


def bulk_plan(count: int) -> list[str]:
    """The bulk-load schedule: ``count`` unique facts over two predicates."""
    return [
        f"bulk_a(k{i})" if i % 3 else f"bulk_b(k{i}, v{i % 11})"
        for i in range(count)
    ]


def seed_program(count: int) -> str:
    """The seeding schedule: a fleet partition of ``count`` facts."""
    return " ".join(f"seed_fact(k{i})." for i in range(count))


def seed_fleet(root: str, point: str, hits: int, count: int) -> int:
    """Boot a one-node durable fleet over ``root`` with ``point`` armed."""
    from repro.cluster import Fleet
    from repro.storage.wal import install_crash_point

    install_crash_point(point, hits)
    fleet = Fleet(
        seed_program(count), num_shards=1, replicas=1,
        durability_root=root, durability_opts={"auto_compact": False},
    )
    fleet.start()
    fleet.stop()
    print("SURVIVED")
    return 0


def resync_facts(count: int) -> list[str]:
    """The facts the peer holds when the empty replica resyncs."""
    return [f"resync_fact(k{i})" for i in range(count)]


def resync_fleet(root: str, point: str, hits: int, count: int) -> int:
    """Resync an empty durable replica with ``point`` armed."""
    from repro.cluster import Fleet
    from repro.storage.wal import install_crash_point
    from repro.terms import read_term

    fleet = Fleet(
        "", num_shards=1, replicas=2, durability_root=root,
        durability_opts={"auto_compact": False},
    )
    fleet.start()
    peer, stale = fleet.nodes.values()
    fleet.kill(stale.address)
    for text in resync_facts(count):
        peer.engine.assertz(read_term(text))
    install_crash_point(point, hits)
    fleet.restart(stale.address)
    fleet.stop()
    print("SURVIVED")
    return 0


def main(argv: list[str]) -> int:
    store_dir, acks_file, point, hits, count = (
        argv[0], argv[1], argv[2], int(argv[3]), int(argv[4]),
    )
    if argv[5:] == ["seed"]:
        return seed_fleet(store_dir, point, hits, count)
    if argv[5:] == ["resync"]:
        return resync_fleet(store_dir, point, hits, count)
    bulk = argv[5:] == ["bulk"]
    splice = argv[5:] == ["retract"]
    from repro.cluster import ShardedRetrievalServer
    from repro.storage import DurabilityOptions
    from repro.storage.wal import install_crash_point
    from repro.terms import as_clause, read_term

    engine = ShardedRetrievalServer(
        2,
        "predicate",
        durability=DurabilityOptions(
            directory=store_dir, auto_compact=False
        ),
    )
    install_crash_point(point, hits)
    acks = os.open(acks_file, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def ack(write_id: str) -> None:
        # The mutator returned: the write is acknowledged.  Record the
        # promise durably before offering the next mutation.
        os.write(acks, (write_id + "\n").encode("ascii"))
        os.fsync(acks)

    if bulk:
        engine.consult_clauses(
            as_clause(read_term(text)) for text in bulk_plan(count)
        )
        ack("bulk")
    else:
        plan = retract_plan(count) if splice else mutation_plan(count)
        for position, (op, text, write_id) in enumerate(plan):
            if splice and position == count // 2:
                engine.compact()
            term = read_term(text)
            if op == "assertz":
                engine.assertz(term, write_id=write_id)
            elif op == "asserta":
                engine.asserta(term, write_id=write_id)
            else:
                removed = engine.retract_matching(term, write_id=write_id)
                assert removed is not None, f"plan retract missed: {text}"
            ack(write_id)
    if point.startswith("compact."):
        engine.compact()
    engine.close()
    # Reaching here means the armed point never fired — the parent
    # treats that as a harness bug, not a pass.
    print("SURVIVED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
