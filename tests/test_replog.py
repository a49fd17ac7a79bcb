"""``ReplicationLog`` on its own: no shards, no sockets.

The log is driven the way the engine drives it — apply a mutation to a
``KnowledgeBase`` (standing in for a shard, under whatever lock the
caller holds), then ``append`` with the KB just touched — and held to
its contracts: seq, tail and memo move together; ``since()`` is one
read path over tail and WAL; a barrier cuts every earlier seq off;
the memo outlives exactly what the tail holds; tail entries decode to
the clause that was appended however the file is spliced afterwards.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import MutationLogOverflow, ReplicationLog, WritesFrozen
from repro.storage import (
    DurabilityOptions,
    DurableStore,
    KnowledgeBase,
    WalError,
    load_write_ids,
    save_kb,
)
from repro.storage.wal import encode_record
from repro.terms import clause_from_term, read_term
from tests.test_splice_differential import EDGE_CLAUSES


def clause(text):
    return clause_from_term(read_term(text))


class Shard:
    """A KB plus the apply-then-append step the engine performs."""

    def __init__(self, log):
        self.log = log
        self.kb = KnowledgeBase()

    def apply(self, op, item, write_id=None, module="user"):
        if op == "assertz":
            self.kb.add_clause(item, module=module)
        elif op == "asserta":
            self.kb.asserta(item, module=module)
        else:
            item = self.kb.retract_matching(item)
            assert item is not None
        return self.log.append(op, item, module, write_id, self.kb)

    def replay(self, record):
        return self.apply(record.op, record.clause, record.write_id, record.module)


def open_store(directory):
    store = DurableStore(DurabilityOptions(directory, auto_compact=False))
    state = store.open()
    return store, state


def fill(shard, count, ids=True):
    for i in range(count):
        shard.apply("assertz", clause(f"p(k{i})"), f"w-{i}" if ids else None)


class TestAppend:
    def test_seq_tail_and_memo_stay_in_step_under_eight_threads(self):
        log = ReplicationLog(4096)
        per_thread = 150

        def writer(thread):
            shard = Shard(log)  # its own "shard lock": nobody else's KB
            for i in range(per_thread):
                shard.apply(
                    "assertz", clause(f"p(t{thread}, {i})"), f"w-{thread}-{i}"
                )

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings than cores give
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert log.seq == 8 * per_thread
        records = log.since(0)
        assert [r.seq for r in records] == list(range(1, log.seq + 1))
        # The memo lists the ids in seq order, each beside its own clause.
        assert log.write_ids() == [r.write_id for r in records]
        for record in records:
            _, thread, i = record.write_id.split("-")
            assert str(record.clause) == f"p(t{thread},{i})."
        # Per-thread order is program order.
        for thread in range(8):
            mine = [r for r in records if r.write_id.startswith(f"w-{thread}-")]
            assert [r.write_id for r in mine] == [
                f"w-{thread}-{i}" for i in range(per_thread)
            ]

    def test_seen_reports_the_clause_a_retract_removed(self):
        shard = Shard(ReplicationLog(8))
        shard.apply("assertz", clause("p(a)"), "w-add")
        shard.apply("retract", clause("p(X)"), "w-del")
        assert shard.log.seen("w-add") == (True, None)
        hit, removed = shard.log.seen("w-del")
        assert hit and str(removed) == "p(a)."
        assert shard.log.seen("w-other") == (False, None)
        assert shard.log.seen(None) == (False, None)

    def test_volatile_waits_are_no_ops(self):
        log = ReplicationLog(4)
        log.wait_durable(None)
        log.wait_durable(17)
        assert log.group_commit(iter([1, None, 2])) == 3


class TestSince:
    LENGTH, TAIL = 11, 4

    def test_volatile_every_cut(self):
        shard = Shard(ReplicationLog(self.TAIL))
        fill(shard, self.LENGTH)
        log = shard.log
        for cut in range(self.LENGTH + 1):
            if cut < self.LENGTH - self.TAIL:
                with pytest.raises(MutationLogOverflow):
                    log.since(cut)
            else:
                assert [r.seq for r in log.since(cut)] == list(
                    range(cut + 1, self.LENGTH + 1)
                )
        with pytest.raises(MutationLogOverflow):
            log.since(self.LENGTH + 1)  # ahead of the log

    def test_durable_every_cut_equals_the_in_memory_reference(self, tmp_path):
        store, _ = open_store(tmp_path)
        shard = Shard(ReplicationLog(self.TAIL, store))
        reference = Shard(ReplicationLog(1024))
        for target in (shard, reference):
            fill(target, self.LENGTH - 2)
            target.apply("asserta", clause("p(front) :- q(X, X)"), "w-front")
            target.apply("retract", clause("p(k3)"), "w-gone")
        shard.log.wait_durable(shard.log.seq)
        try:
            for cut in range(self.LENGTH + 1):
                got = shard.log.since(cut)
                want = reference.log.since(cut)
                assert got == want, cut
                assert [encode_record(r) for r in got] == [
                    encode_record(r) for r in want
                ]
        finally:
            shard.log.close()

    def test_a_compacted_range_overflows(self, tmp_path):
        store, _ = open_store(tmp_path)
        shard = Shard(ReplicationLog(2, store))
        fill(shard, 6)
        seq = shard.log.checkpoint(
            lambda directory: save_kb(shard.kb, directory / "shard0")
        )
        assert seq == 6 == store.snapshot_seq
        fill(shard, 3)
        try:
            with pytest.raises(MutationLogOverflow):
                shard.log.since(4)  # folded into the snapshot
            assert [r.seq for r in shard.log.since(6)] == [7, 8, 9]
        finally:
            shard.log.close()


class TestBarrier:
    def test_every_earlier_seq_overflows_and_the_memo_is_replaced(self):
        shard = Shard(ReplicationLog(8))
        fill(shard, 5)
        seq = shard.log.barrier(["s-1", "s-2"])
        assert seq == shard.log.seq == 6
        assert shard.log.write_ids() == ["s-1", "s-2"]
        assert shard.log.seen("w-4") == (False, None)
        for cut in range(6):
            with pytest.raises(MutationLogOverflow):
                shard.log.since(cut)
        assert shard.log.since(6) == []
        shard.apply("assertz", clause("p(after)"), "w-after")
        assert [r.seq for r in shard.log.since(6)] == [7]
        assert shard.log.write_ids() == ["s-1", "s-2", "w-after"]

    def test_an_adopted_memo_is_capped_like_any_other(self):
        log = ReplicationLog(3)
        log.barrier([f"s-{i}" for i in range(7)])
        assert log.write_ids() == ["s-4", "s-5", "s-6"]
        empty = ReplicationLog(0)
        empty.barrier(["s-0"])
        assert empty.write_ids() == []


class TestMemoCap:
    def test_oldest_first_and_never_an_id_the_tail_still_holds(self):
        shard = Shard(ReplicationLog(4))
        for i in range(20):
            # Two of three mutations carry an id; the rest are
            # coordinator-originated and only occupy the tail.
            shard.apply(
                "assertz", clause(f"p(k{i})"), f"w-{i}" if i % 3 else None
            )
            memo = shard.log.write_ids()
            assert len(memo) <= 4
            stamped = [f"w-{j}" for j in range(i + 1) if j % 3]
            assert memo == stamped[-4:]  # oldest out first
            tail_ids = [
                r.write_id
                for r in shard.log.since(max(0, shard.log.seq - 4))
                if r.write_id
            ]
            assert set(tail_ids) <= set(memo)


class TestFreeze:
    def test_refuses_before_any_state_changes(self):
        shard = Shard(ReplicationLog(4))
        fill(shard, 2)
        before = (shard.log.seq, shard.log.write_ids(), shard.log.since(0))
        shard.log.freeze()
        assert shard.log.frozen
        with pytest.raises(WritesFrozen):
            shard.log.check_writable()
        assert (
            shard.log.seq, shard.log.write_ids(), shard.log.since(0)
        ) == before
        shard.log.thaw()
        shard.log.check_writable()


class TestLazyClauses:
    def test_edge_clauses_decode_equal_after_the_file_is_spliced(self):
        shard = Shard(ReplicationLog(256))
        for number, edge in enumerate(EDGE_CLAUSES):
            shard.apply("assertz", edge, f"w-{number}")
        appended = len(EDGE_CLAUSES)
        # Every later splice moves (asserta) or deletes (retract) the
        # records the first entries were read from.
        removed = []
        for number in range(4):
            shard.apply("asserta", clause(f"p(front{number}, X, X) :- q(X)"))
            removed.append(shard.kb.clauses(("p", 3))[1])
            shard.apply("retract", removed[-1])
        shard.apply("asserta", clause("w(" + ", ".join("_" * 14) + ")"))
        records = shard.log.since(0)
        assert [r.clause for r in records[:appended]] == EDGE_CLAUSES
        # ...and in the form the store itself decodes (-0.0 is stored
        # as 0.0, variable names survive).
        fresh = KnowledgeBase()
        for edge in EDGE_CLAUSES:
            fresh.add_clause(edge)
        stored = [
            str(c) for indicator in (("p", 3), ("w", 14))
            for c in fresh.clauses(indicator)
        ]
        assert sorted(str(r.clause) for r in records[:appended]) == sorted(stored)
        retracts = [r for r in records if r.op == "retract"]
        assert [r.clause for r in retracts] == removed


class TestReplayAndCheckpoint:
    def test_replay_reapplies_without_staging_again(self, tmp_path):
        store, _ = open_store(tmp_path)
        shard = Shard(ReplicationLog(8, store))
        fill(shard, 3)
        shard.log.close()

        store, state = open_store(tmp_path)
        assert [r.seq for r in state.records] == [1, 2, 3]
        reborn = Shard(ReplicationLog(8, store))
        reborn.log.replay(state, reborn.replay)
        try:
            assert reborn.log.seq == 3 and reborn.log.durable is store
            assert reborn.log.write_ids() == ["w-0", "w-1", "w-2"]
            assert len(store.records_since(0)) == 3  # nothing staged twice
            reborn.apply("assertz", clause("p(next)"))
            reborn.log.wait_durable(4)
            assert [r.seq for r in store.records_since(0)] == [1, 2, 3, 4]
        finally:
            reborn.log.close()

    def test_a_replay_that_stalls_is_refused(self, tmp_path):
        store, _ = open_store(tmp_path)
        shard = Shard(ReplicationLog(8, store))
        fill(shard, 2)
        shard.log.close()
        store, state = open_store(tmp_path)
        log = ReplicationLog(8, store)
        with pytest.raises(WalError, match="disagree"):
            log.replay(state, lambda record: None)
        assert log.durable is store  # reattached whichever way it went
        log.close()

    def test_a_checkpoint_carries_the_memo(self, tmp_path):
        store, _ = open_store(tmp_path)
        shard = Shard(ReplicationLog(8, store))
        fill(shard, 3)
        shard.log.barrier(["adopted"])
        shard.log.checkpoint(
            lambda directory: save_kb(shard.kb, directory / "shard0")
        )
        shard.log.close()
        (snapshot,) = tmp_path.glob("snapshot-*")
        assert load_write_ids(snapshot) == ["adopted"]
        _, state = open_store(tmp_path)
        assert state.snapshot_seq == 4 and state.write_ids == ["adopted"]

    def test_a_volatile_log_has_nothing_to_checkpoint(self):
        with pytest.raises(WalError):
            ReplicationLog(4).checkpoint(lambda directory: None)
        ReplicationLog(4).close()  # and closing it is a no-op
