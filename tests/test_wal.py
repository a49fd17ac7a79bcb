"""Unit tests for `repro.storage.wal` and the engine's durability wiring.

Crash-by-SIGKILL coverage lives in ``test_wal_crash.py``; this file
exercises the pieces in-process: the record codec, torn-tail detection,
group commit, engine recovery, compaction, WAL-shipped catch-up deltas,
and the property-based round trip against an in-memory oracle.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MutationRecord, ShardedRetrievalServer, WritesFrozen
from repro.cluster.server import MutationLogOverflow
from repro.obs import Instrumentation
from repro.pif import PIFError
from repro.storage import (
    DurabilityOptions,
    KnowledgeBase,
    kb_fingerprint,
    load_kb,
    save_kb,
    wal_dump,
)
from repro.storage.wal import (
    BULK_COMMIT_RECORDS,
    WalError,
    WriteAheadLog,
    _scan_segment,
    encode_record,
)
from repro.terms import clause_from_term, read_term


def _clause(text: str):
    return clause_from_term(read_term(text))


def _engine_fingerprint(engine) -> list[dict]:
    """Per-shard content fingerprint (placement included on purpose)."""
    return [kb_fingerprint(shard.kb) for shard in engine.shards]


def _durable(tmp_path, name="store", **kwargs) -> DurabilityOptions:
    kwargs.setdefault("auto_compact", False)
    return DurabilityOptions(directory=tmp_path / name, **kwargs)


class TestRecordCodec:
    RECORDS = [
        MutationRecord(1, "assertz", _clause("f(a)")),
        MutationRecord(2, "asserta", _clause("g(X, [1, 2.5, 'odd atom'])")),
        MutationRecord(3, "retract", _clause("f(a)"), write_id="w:1"),
        MutationRecord(4, "assertz", _clause("p(X) :- q(X), r(X)"),
                  module="aux"),
    ]

    def test_roundtrip_through_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_at(0, None)
        for record in self.RECORDS:
            wal.stage(record)
        wal.wait_durable(4)
        got = wal.records_since(0)
        wal.close()
        assert [r.seq for r in got] == [1, 2, 3, 4]
        assert [r.op for r in got] == [
            "assertz", "asserta", "retract", "assertz"
        ]
        assert [r.write_id for r in got] == [None, None, "w:1", None]
        assert [r.module for r in got] == ["user", "user", "user", "aux"]
        for want, have in zip(self.RECORDS, got):
            assert str(have.clause) == str(want.clause)

    def test_records_since_filters(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_at(0, None)
        for record in self.RECORDS:
            wal.stage(record)
        wal.wait_durable(4)
        assert [r.seq for r in wal.records_since(2)] == [3, 4]
        wal.close()

    def test_only_the_three_replayable_ops_encode(self):
        # An adoption is a log barrier, not a record: there is no fourth
        # op, and a record always carries its clause.
        with pytest.raises(WalError):
            encode_record(MutationRecord(1, "adopt", _clause("f(a)")))
        with pytest.raises(TypeError):
            MutationRecord(1, "assertz")

    def test_one_record_type_for_the_log_and_the_wal(self):
        import repro.storage

        assert repro.storage.MutationRecord is MutationRecord
        assert not hasattr(repro.storage, "WalRecord")

    def test_stage_out_of_order_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_at(0, None)
        wal.stage(MutationRecord(1, "assertz", _clause("f(a)")))
        with pytest.raises(WalError):
            wal.stage(MutationRecord(1, "assertz", _clause("f(b)")))
        wal.close()


class TestTornTail:
    def _sealed_segment(self, tmp_path, count=3):
        wal = WriteAheadLog(tmp_path)
        wal.open_at(0, None)
        for i in range(1, count + 1):
            wal.stage(MutationRecord(i, "assertz", _clause(f"f(k{i})")))
        wal.wait_durable(count)
        wal.close()
        (segment,) = tmp_path.glob("wal-*.log")
        return segment

    def test_garbage_tail_detected_and_confined(self, tmp_path):
        segment = self._sealed_segment(tmp_path)
        clean_size = segment.stat().st_size
        with open(segment, "ab") as handle:
            handle.write(b"\x99" * 11)  # a torn, partial frame
        scan = _scan_segment(segment)
        assert scan.torn
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert scan.valid_bytes == clean_size

    def test_truncated_record_drops_only_the_tail(self, tmp_path):
        segment = self._sealed_segment(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-5])  # tear the last record mid-body
        scan = _scan_segment(segment)
        assert scan.torn
        assert [r.seq for r in scan.records] == [1, 2]

    def test_corrupt_crc_stops_the_scan(self, tmp_path):
        segment = self._sealed_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last record's body
        segment.write_bytes(bytes(data))
        scan = _scan_segment(segment)
        assert scan.torn
        assert [r.seq for r in scan.records] == [1, 2]

    def test_engine_recovery_truncates_torn_tail(self, tmp_path):
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(1, "predicate", durability=opts)
        for i in range(1, 4):
            engine.assertz(read_term(f"f(k{i})"))
        engine.close()
        (segment,) = (tmp_path / "store").glob("wal-*.log")
        segment.write_bytes(segment.read_bytes()[:-5])

        recovered = ShardedRetrievalServer(1, "predicate", durability=opts)
        assert recovered.version == 2
        assert recovered.clause_count() == 2
        assert recovered.recovered.discarded_bytes > 0
        # Appends continue cleanly past the physical truncation point.
        recovered.assertz(read_term("f(k3b)"))
        recovered.close()
        third = ShardedRetrievalServer(1, "predicate", durability=opts)
        assert third.version == 3
        assert third.clause_count() == 3
        third.close()


class TestGroupCommit:
    def test_concurrent_writers_all_durable(self, tmp_path):
        obs = Instrumentation()
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(
            1, "predicate", durability=opts, obs=obs
        )
        total = 48

        def writer(base: int) -> None:
            for i in range(base, base + 8):
                engine.assertz(read_term(f"f(k{i})"))

        threads = [
            threading.Thread(target=writer, args=(base,))
            for base in range(0, total, 8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine.close()

        appends = obs.registry.counter("wal.appends").value
        fsyncs = obs.registry.counter("wal.fsyncs").value
        assert appends == total
        assert 1 <= fsyncs <= appends  # group commit batches acks

        recovered = ShardedRetrievalServer(1, "predicate", durability=opts)
        assert recovered.clause_count() == total
        assert recovered.version == total
        recovered.close()


class TestBatchedIngest:
    """The bulk path: own seq and own WAL record per clause, one
    durability wait per chunk.  Every check counts; none times."""

    @staticmethod
    def _facts(count: int, name: str = "f"):
        return [_clause(f"{name}(k{i}, v{i % 7})") for i in range(count)]

    @staticmethod
    def _counters(obs) -> tuple[int, int]:
        registry = obs.registry
        return (
            registry.counter("wal.appends").value,
            registry.counter("wal.fsyncs").value,
        )

    @staticmethod
    def _segment_seqs(opts) -> list[int]:
        return [
            record.seq
            for path in sorted(opts.directory.glob("wal-*.log"))
            for record in _scan_segment(path).records
        ]

    def test_bulk_load_fsyncs_once_per_chunk(self, tmp_path):
        obs = Instrumentation()
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(
            2, "first_arg", durability=opts, obs=obs
        )
        total = 2 * BULK_COMMIT_RECORDS + 5
        assert engine.consult_clauses(self._facts(total)) == total
        assert self._counters(obs) == (total, 3)  # ceil(total / chunk)
        # Acknowledged means durable: all of it is in the segment files
        # before anything is closed or flushed again.
        assert self._segment_seqs(opts) == list(range(1, total + 1))
        batches = obs.registry.histogram("wal.batch_records")
        assert batches.max == BULK_COMMIT_RECORDS
        assert batches.counts[-1] == 0  # nothing in the overflow bucket

        # A single write is not batched with anything: exactly one more.
        engine.assertz(read_term("f(single, w)"))
        assert self._counters(obs) == (total + 1, 4)
        engine.close()
        assert self._counters(obs)[1] == 4  # nothing was left to flush

    def test_consult_text_rides_the_same_path(self, tmp_path):
        obs = Instrumentation()
        engine = ShardedRetrievalServer(
            1, "predicate", durability=_durable(tmp_path), obs=obs
        )
        assert engine.consult_text("f(a). f(b). g(X) :- f(X).") == 3
        assert self._counters(obs) == (3, 1)
        engine.close()

    def test_recovery_equals_the_per_clause_path(self, tmp_path):
        """Same records in, byte-identical log out: whichever commit
        each record rode, recovery cannot tell the two paths apart."""
        records = [
            MutationRecord(seq=100 + i, op=op, clause=_clause(text),
                           write_id=f"w:{i}")
            for i, (op, text) in enumerate(
                [("assertz", f"f(k{i})") for i in range(20)]
                + [("asserta", "f(first)"), ("retract", "f(k3)"),
                   ("assertz", "g(X) :- f(X)")]
            )
        ]
        batched_opts = _durable(tmp_path, "batched")
        single_opts = _durable(tmp_path, "single")
        batched = ShardedRetrievalServer(
            2, "predicate", durability=batched_opts
        )
        single = ShardedRetrievalServer(
            2, "predicate", durability=single_opts
        )
        assert batched.apply_mutations(records) == len(records)
        for record in records:
            single.apply_mutations([record])
        batched.close()
        single.close()

        def log_bytes(opts) -> list[bytes]:
            return [
                path.read_bytes()
                for path in sorted(opts.directory.glob("wal-*.log"))
            ]

        assert log_bytes(batched_opts) == log_bytes(single_opts)
        assert self._segment_seqs(batched_opts) == list(
            range(1, len(records) + 1)
        )
        recovered = ShardedRetrievalServer(
            2, "predicate", durability=batched_opts
        )
        oracle = ShardedRetrievalServer(
            2, "predicate", durability=single_opts
        )
        try:
            assert recovered.version == oracle.version == len(records)
            assert _engine_fingerprint(recovered) == _engine_fingerprint(
                oracle
            )
            assert recovered.applied_write_ids() == [
                record.write_id for record in records
            ]
            assert recovered.applied_write_ids() == oracle.applied_write_ids()
        finally:
            recovered.close()
            oracle.close()

    def test_single_writer_during_a_bulk_load_waits_for_its_own_seq(
        self, tmp_path
    ):
        obs = Instrumentation()
        engine = ShardedRetrievalServer(
            1, "predicate", durability=_durable(tmp_path), obs=obs
        )
        wal = engine.durable_store._wal
        go, done = threading.Event(), threading.Event()
        seen: dict = {}

        def writer() -> None:
            assert go.wait(timeout=30)
            engine.assertz(read_term("f(from_writer)"), write_id="w:1")
            # Monotonic, so reading it first thing after the ack is the
            # tightest lower bound on what was durable at the ack.
            seen["durable_seq"] = wal._durable_seq
            seen["fsyncs"] = self._counters(obs)[1]
            done.set()

        def clauses():
            for position, clause in enumerate(self._facts(40)):
                if position == 10:
                    # Ten records staged, none committed: let the single
                    # writer in and hold the bulk load until it is acked.
                    go.set()
                    assert done.wait(timeout=30)
                yield clause

        thread = threading.Thread(target=writer)
        thread.start()
        assert engine.add_clauses(clauses()) == 40
        thread.join(timeout=30)
        assert not thread.is_alive()

        (mine,) = [
            r.seq for r in engine.mutations_since(0) if r.write_id == "w:1"
        ]
        assert mine == 11
        # Its ack waited for its own record (and committed the staged
        # bulk prefix with it) — with one fsync, its own.
        assert seen == {"durable_seq": 11, "fsyncs": 1}
        # The bulk load then paid one more for its remaining 30.
        assert self._counters(obs) == (41, 2)
        engine.close()

    def test_bulk_load_beside_single_writers_loses_nothing(self, tmp_path):
        """Stress: more threads than cores, switch interval shortened."""
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(2, "first_arg", durability=opts)
        bulk = self._facts(BULK_COMMIT_RECORDS + 200, "bulk")
        wal = engine.durable_store._wal
        acked: dict[str, int] = {}  # write_id -> durable seq seen at the ack

        def single(tag: int) -> None:
            for i in range(25):
                write_id = f"s:{tag}:{i}"
                engine.assertz(
                    read_term(f"one(t{tag}, n{i})"), write_id=write_id
                )
                acked[write_id] = wal._durable_seq

        threads = [
            threading.Thread(target=single, args=(tag,)) for tag in range(6)
        ]
        threads.append(
            threading.Thread(target=engine.add_clauses, args=(bulk,))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = len(bulk) + 6 * 25
        assert engine.version == total
        # Every single-write ack promised durability of that very record.
        own_seq = {
            r.write_id: r.seq for r in engine.mutations_since(0) if r.write_id
        }
        assert len(acked) == 6 * 25
        assert all(acked[w] >= own_seq[w] for w in acked)
        want = _engine_fingerprint(engine)
        engine.close()

        assert self._segment_seqs(opts) == list(range(1, total + 1))
        recovered = ShardedRetrievalServer(2, "first_arg", durability=opts)
        try:
            assert recovered.version == total
            assert _engine_fingerprint(recovered) == want
            assert sorted(recovered.applied_write_ids()) == sorted(acked)
        finally:
            recovered.close()

    @pytest.mark.parametrize("failure", ["oversize", "frozen"])
    def test_failure_mid_batch_leaves_the_prefix_durable(
        self, tmp_path, failure
    ):
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(1, "predicate", durability=opts)
        big = ", ".join(f"a{i}" for i in range(200))
        oversize = _clause(f"f([{big}], x)")  # > one Result Memory slot

        def clauses():
            yield from self._facts(7)
            if failure == "oversize":
                yield oversize
            else:
                engine.freeze_writes()
                yield _clause("f(refused, x)")
            yield _clause("f(never, reached)")

        with pytest.raises(PIFError if failure == "oversize" else WritesFrozen):
            engine.add_clauses(clauses())
        # Before any close or further write: the seven applied clauses
        # are on disk, and nothing after the failure was applied.
        assert engine.version == 7
        assert engine.durable_store._wal._durable_seq == 7
        assert self._segment_seqs(opts) == list(range(1, 8))
        want = _engine_fingerprint(engine)
        engine.close()

        recovered = ShardedRetrievalServer(1, "predicate", durability=opts)
        try:
            assert recovered.version == 7
            assert _engine_fingerprint(recovered) == want
        finally:
            recovered.close()

    def test_volatile_engine_bulk_loads_without_a_store(self):
        engine = ShardedRetrievalServer(2, "first_arg")
        assert engine.add_clauses(self._facts(50)) == 50
        assert engine.version == 50
        assert [r.seq for r in engine.mutations_since(0)] == list(
            range(1, 51)
        )


class TestEngineRecovery:
    PROGRAM = "f(a). f(b). g(1). p(X) :- f(X)."

    @pytest.mark.parametrize("flush", ["fsync", "os", "none"])
    def test_clean_close_roundtrip(self, tmp_path, flush):
        opts = _durable(tmp_path, flush=flush)
        engine = ShardedRetrievalServer(2, "predicate", durability=opts)
        engine.consult_text(self.PROGRAM)
        engine.assertz(read_term("f(c)"))
        assert engine.retract(read_term("f(a)"))
        want = _engine_fingerprint(engine)
        version = engine.version
        engine.close()

        recovered = ShardedRetrievalServer(2, "predicate", durability=opts)
        assert recovered.version == version
        assert _engine_fingerprint(recovered) == want
        got = recovered.retrieve(read_term("f(X)"))
        assert sorted(str(c) for c in got.candidates) == ["f(b).", "f(c)."]
        recovered.close()

    def test_write_id_memo_survives_recovery(self, tmp_path):
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(1, "predicate", durability=opts)
        engine.assertz(read_term("f(a)"), write_id="w:1")
        engine.close()

        recovered = ShardedRetrievalServer(1, "predicate", durability=opts)
        recovered.assertz(read_term("f(a)"), write_id="w:1")  # duplicate
        assert recovered.clause_count() == 1
        assert recovered.version == 1
        recovered.close()

    def test_close_is_idempotent(self, tmp_path):
        engine = ShardedRetrievalServer(
            1, "predicate", durability=_durable(tmp_path)
        )
        engine.assertz(read_term("f(a)"))
        engine.close()
        engine.close()

    def test_volatile_engine_has_no_store(self, tmp_path):
        engine = ShardedRetrievalServer(1, "predicate")
        assert engine.recovered is None
        engine.assertz(read_term("f(a)"))
        engine.close()  # no-op, must not raise

    def test_adopt_kb_is_durable(self, tmp_path):
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(1, "predicate", durability=opts)
        engine.consult_text("old(1).")
        kb = KnowledgeBase()
        kb.consult_text(self.PROGRAM)
        engine.adopt_kb(kb)
        engine.assertz(read_term("f(c)"))  # a post-adoption WAL record
        want = _engine_fingerprint(engine)
        version = engine.version
        engine.close()

        recovered = ShardedRetrievalServer(1, "predicate", durability=opts)
        assert recovered.version == version
        assert _engine_fingerprint(recovered) == want
        recovered.close()


class TestCompaction:
    def test_compact_folds_wal_into_snapshot(self, tmp_path):
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(2, "predicate", durability=opts)
        engine.consult_text("f(a). f(b). g(1).")
        engine.retract(read_term("f(a)"))
        want = _engine_fingerprint(engine)
        seq = engine.compact()
        assert seq == engine.version == 4
        assert engine.durable_store.snapshot_seq == 4
        # Compaction again with nothing new is a no-op at the same seq.
        assert engine.compact() == 4
        engine.assertz(read_term("f(c)"))
        engine.close()

        recovered = ShardedRetrievalServer(2, "predicate", durability=opts)
        assert recovered.version == 5
        assert recovered.recovered.snapshot_seq == 4
        assert len(recovered.recovered.records) == 1  # the WAL tail
        recovered.retract(read_term("f(c)"))
        assert _engine_fingerprint(recovered) == want
        recovered.close()

    def test_auto_compaction_triggers(self, tmp_path):
        opts = DurabilityOptions(
            directory=tmp_path / "store",
            compact_min_bytes=1,
            compact_min_records=4,
            compact_interval_s=0.01,
            auto_compact=True,
        )
        engine = ShardedRetrievalServer(1, "predicate", durability=opts)
        for i in range(16):
            engine.assertz(read_term(f"f(k{i})"))
        deadline = threading.Event()
        for _ in range(200):
            if engine.durable_store.snapshot_seq > 0:
                break
            deadline.wait(0.01)
        assert engine.durable_store.snapshot_seq > 0
        engine.close()

        recovered = ShardedRetrievalServer(1, "predicate", durability=opts)
        assert recovered.clause_count() == 16
        recovered.close()

    def test_wal_dump_renders(self, tmp_path):
        opts = _durable(tmp_path)
        engine = ShardedRetrievalServer(1, "predicate", durability=opts)
        engine.assertz(read_term("f(a)"), write_id="w:1")
        engine.compact()
        engine.assertz(read_term("f(b)"))
        engine.close()
        text = wal_dump(tmp_path / "store")
        assert "snapshot-" in text
        assert "f(b)." in text
        assert "w:1" not in text  # folded into the snapshot, purged


class TestWalShipping:
    def test_catchup_rides_wal_past_deque_eviction(self, tmp_path):
        engine = ShardedRetrievalServer(
            1, "predicate", durability=_durable(tmp_path),
            mutation_log_size=2,
        )
        for i in range(10):
            engine.assertz(read_term(f"f(k{i})"), write_id=f"w:{i}")
        # The in-memory deque only holds the last 2; the WAL serves all.
        records = engine.mutations_since(0)
        assert [r.seq for r in records] == list(range(1, 11))
        assert [r.write_id for r in records] == [f"w:{i}" for i in range(10)]
        engine.close()

    def test_catchup_overflows_below_snapshot(self, tmp_path):
        engine = ShardedRetrievalServer(
            1, "predicate", durability=_durable(tmp_path),
            mutation_log_size=2,
        )
        for i in range(6):
            engine.assertz(read_term(f"f(k{i})"))
        engine.compact()
        engine.assertz(read_term("f(tail)"))
        # Below the snapshot the log is gone — a reader must re-snapshot.
        with pytest.raises(MutationLogOverflow):
            engine.mutations_since(2)
        # The post-snapshot tail still ships fine.
        assert [r.seq for r in engine.mutations_since(6)] == [7]
        engine.close()

    def test_volatile_engine_still_overflows(self, tmp_path):
        engine = ShardedRetrievalServer(
            1, "predicate", mutation_log_size=2
        )
        for i in range(6):
            engine.assertz(read_term(f"f(k{i})"))
        with pytest.raises(MutationLogOverflow):
            engine.mutations_since(0)


class TestSaveKbDurable:
    def test_durable_save_roundtrips_and_leaves_no_temp(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("f(a). f(b). g(X) :- f(X).")
        save_kb(kb, tmp_path / "kbdir", durable=True)
        names = {p.name for p in (tmp_path / "kbdir").iterdir()}
        assert "manifest.txt" in names
        assert not any(name.endswith(".tmp") for name in names)
        restored = load_kb(tmp_path / "kbdir")
        assert kb_fingerprint(restored) == kb_fingerprint(kb)


# -- property-based round trip ------------------------------------------------

_OPS = st.sampled_from(["assertz", "asserta", "retract"])


@settings(max_examples=25, deadline=None)
@given(
    plan=st.lists(
        st.tuples(_OPS, st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=24,
    )
)
def test_recovery_matches_oracle(tmp_path_factory, plan):
    """Any mutation sequence recovers to exactly the oracle's state.

    The same ops are applied to a durable engine and to a plain
    in-memory engine (same shard count and policy, so identical
    placement); after close + recovery the per-shard fingerprints must
    be identical — no lost, duplicated or reordered mutation.
    """
    tmp_path = tmp_path_factory.mktemp("walprop")
    opts = DurabilityOptions(directory=tmp_path / "store", auto_compact=False)
    durable = ShardedRetrievalServer(2, "predicate", durability=opts)
    oracle = ShardedRetrievalServer(2, "predicate")
    try:
        for op, key in plan:
            term = read_term(f"f(k{key})")
            if op == "assertz":
                durable.assertz(term)
                oracle.assertz(term)
            elif op == "asserta":
                durable.asserta(term)
                oracle.asserta(term)
            else:
                assert durable.retract(term) == oracle.retract(term)
        assert durable.version == oracle.version
    finally:
        durable.close()

    recovered = ShardedRetrievalServer(2, "predicate", durability=opts)
    try:
        assert recovered.version == oracle.version
        assert _engine_fingerprint(recovered) == _engine_fingerprint(oracle)
    finally:
        recovered.close()
