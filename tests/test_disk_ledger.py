"""Ledger regression for the sweep fetch, at the CRS and cluster level.

The disk driver schedules an FS1 candidate fetch as read-through runs
instead of one average seek per record.  That is a change to the
*modelled disk time only*: which records are delivered, to whom, and
everything FS1/FS2 then do with them must be exactly what the
per-record-seek driver produced.  ``tests.test_disk.PerRecordSeekDisk``
is that old driver, kept test-side as the oracle.
"""

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import SearchMode
from repro.crs.server import ClauseRetrievalServer
from repro.storage import KnowledgeBase, Residency
from repro.terms import read_term
from tests.test_disk import PerRecordSeekDisk

NUM_SHARDS = 4
GROUPS = 8
FACTS = 2000
PROGRAM = " ".join(
    f"rec(k{i}, g{i % GROUPS}, v{i % 97})." for i in range(FACTS)
)
#: One bound argument, first argument open: broadcasts to every shard
#: and passes 1/GROUPS of each shard's clause file through FS1.
WIDE_GOAL = "rec(K, g3, V)"
SELECTIVE_MODES = (SearchMode.BOTH, SearchMode.FS1_ONLY)


def build_cluster(oracle: bool = False) -> ShardedRetrievalServer:
    cluster = ShardedRetrievalServer(NUM_SHARDS, ShardingPolicy.FIRST_ARG)
    if oracle:
        for shard in cluster.shards:
            shard.kb.disk = PerRecordSeekDisk(obs=shard.kb.disk.obs)
    cluster.consult_text(PROGRAM)
    cluster.pin_module("user", Residency.DISK)
    return cluster


@pytest.fixture(scope="module")
def clusters():
    return build_cluster(), build_cluster(oracle=True)


@pytest.mark.parametrize("mode", SELECTIVE_MODES, ids=lambda m: m.value)
class TestSweepLeavesTheLedgerAlone:
    def test_per_shard_results_match_the_oracle(self, clusters, mode):
        sweep, oracle = clusters
        goal = read_term(WIDE_GOAL)
        for shard, oracle_shard in zip(sweep.shards, oracle.shards):
            got = shard.server.retrieve(goal, mode=mode)
            expected = oracle_shard.server.retrieve(goal, mode=mode)
            assert [str(c) for c in got.candidates] == [
                str(c) for c in expected.candidates
            ]
            assert len(got.candidates) > 30  # wide on every shard
            for name in (
                "clauses_total", "fs1_candidates", "final_candidates",
                "fs1_time_s", "fs2_time_s", "fs2_search_calls",
                "bytes_from_disk", "software_time_s",
            ):
                assert getattr(got.stats, name) == getattr(
                    expected.stats, name
                ), name
            # Only the modelled disk time moved, and only down: bounded
            # by reading the index and streaming the whole clause file.
            drive = shard.kb.disk.drive
            store = shard.kb.store(("rec", 3))
            bound = drive.read_time_s(
                store.index.size_bytes()
            ) + drive.read_time_s(len(store.clause_file.to_bytes()))
            assert got.stats.disk_time_s <= bound
            assert got.stats.disk_time_s < expected.stats.disk_time_s / 10

    def test_merged_cluster_result_matches_the_oracle(self, clusters, mode):
        sweep, oracle = clusters
        goal = read_term(WIDE_GOAL)
        got = sweep.retrieve(goal, mode=mode)
        expected = oracle.retrieve(goal, mode=mode)
        assert got.stats.shards_queried == NUM_SHARDS
        assert sorted(str(c) for c in got.candidates) == sorted(
            str(c) for c in expected.candidates
        )
        assert len(got.candidates) >= FACTS // GROUPS
        assert got.stats.fs1_candidates == expected.stats.fs1_candidates
        assert got.stats.fs2_time_s == expected.stats.fs2_time_s
        assert got.stats.fs2_search_calls == expected.stats.fs2_search_calls
        assert got.stats.bytes_from_disk == expected.stats.bytes_from_disk
        assert got.stats.disk_time_s == sum(
            s.disk_time_s for s in got.stats.per_shard.values()
        )
        assert got.stats.disk_time_s < expected.stats.disk_time_s / 10


def test_full_stream_modes_are_untouched(clusters):
    """Modes that never fetch selectively read bit-identical disk time."""
    sweep, oracle = clusters
    goal = read_term(WIDE_GOAL)
    for mode in (SearchMode.FS2_ONLY, SearchMode.SOFTWARE):
        got = sweep.retrieve(goal, mode=mode).stats
        expected = oracle.retrieve(goal, mode=mode).stats
        assert got.disk_time_s == expected.disk_time_s
        assert got.filter_time_s == expected.filter_time_s


@pytest.mark.xfail(
    strict=True,
    reason="the ledger hides FS1 twice: _fs1_stage subtracts it from the "
    "index read and filter_time_s overlaps it again (an open ROADMAP item)",
)
def test_a_disk_fs1_fs2_retrieval_is_charged_its_serial_schedule():
    """Read the index with FS1 on the fly, then fetch on the same drive.

    One drive does both reads, so they are serial: the index read
    (FS1 matching as the index streams past) and then the candidate
    fetch (FS2 matching as the records stream past).  On 5 000 facts
    and a one-candidate goal the index read is 70.57 ms, FS1 20.00 ms
    and the fetch 25.58 ms: 96.16 ms serially, where the ledger
    charges 76.16 ms.
    """
    kb = KnowledgeBase()
    kb.consult_text(
        " ".join(f"rec(k{i}, g{i % 8}, v{i % 97})." for i in range(5000))
    )
    kb.module("user").pin(Residency.DISK)
    kb.sync_to_disk()
    goal = read_term("rec(k290, g2, V)")
    stats = ClauseRetrievalServer(kb).retrieve(goal, mode=SearchMode.BOTH).stats
    assert stats.fs1_candidates == stats.final_candidates == 1
    drive = kb.disk.drive
    index_bytes = kb.store(("rec", 3)).index.size_bytes()
    index_read = drive.read_time_s(index_bytes)
    fetch = drive.read_time_s(stats.bytes_from_disk - index_bytes)
    serial = max(index_read, stats.fs1_time_s) + max(fetch, stats.fs2_time_s)
    assert stats.filter_time_s == pytest.approx(serial)
