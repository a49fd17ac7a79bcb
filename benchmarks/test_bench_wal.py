"""[E16] Durability cost: mixed read/write loadgen over the WAL engine.

The WAL subsystem's cost claim: group-committed fsync durability prices
every *write* (the ack waits for the log flush) but leaves the *read*
path untouched — reads never take the WAL lock, so read p50/p99 should
hold roughly steady as the write fraction rises from 0% to 50%, while
write latency carries the fsync.  The absolute numbers land in
``BENCH_wal.json`` at the repo root (uploaded by the CI smoke job next
to ``BENCH_net.json``); assertions are deliberately loose — CI boxes
measure host wall clock over a real filesystem.
"""

import json
import pathlib

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.net import BackgroundService, RetrievalService
from repro.storage import DurabilityOptions
from repro.terms import read_term
from repro.workloads import run_loadgen
from tables import record_table

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_wal.json"

WRITE_FRACTIONS = (0.0, 0.1, 0.5)


def build_engine(tmp_path, facts: int) -> ShardedRetrievalServer:
    engine = ShardedRetrievalServer(
        2,
        ShardingPolicy.PREDICATE,
        durability=DurabilityOptions(
            directory=tmp_path / "store", flush="fsync"
        ),
    )
    engine.consult_text(
        " ".join(f"edge(n{i}, n{(i * 7) % facts})." for i in range(facts))
    )
    return engine


def test_bench_wal_mixed_workload(tmp_path, quick):
    facts = 300 if quick else 2_000
    qps = 150.0 if quick else 300.0
    duration_s = 0.5 if quick else 2.0

    goals = [
        read_term("edge(n1, X)"),
        read_term("edge(n17, X)"),
        read_term("edge(X, n0)"),
    ]
    mixes = []
    for index, fraction in enumerate(WRITE_FRACTIONS):
        engine = build_engine(tmp_path / f"mix{index}", facts)
        baseline = engine.clause_count()
        service = RetrievalService(
            engine, max_in_flight=8, queue_limit=64
        )
        with BackgroundService(service) as background:
            host, port = background.start()
            result = run_loadgen(
                host, port, goals,
                qps=qps, duration_s=duration_s,
                write_fraction=fraction, seed=16,
            )
        # The durability contract rides along with the benchmark: every
        # acked write is in the KB now and after recovery.
        assert result.errors == 0
        assert result.writes_ok == result.writes_offered
        assert engine.clause_count() == baseline + result.writes_ok
        engine.close()
        recovered = ShardedRetrievalServer(
            2,
            ShardingPolicy.PREDICATE,
            durability=DurabilityOptions(
                directory=tmp_path / f"mix{index}" / "store"
            ),
        )
        assert recovered.clause_count() == baseline + result.writes_ok
        recovered.close()
        mixes.append((fraction, result))

    payload = {
        "facts": facts,
        "flush": "fsync",
        "offered_qps": qps,
        "duration_s": duration_s,
        "quick": quick,
        "mixes": [
            {
                "write_fraction": fraction,
                "offered": result.offered,
                "reads_ok": result.ok,
                "writes_ok": result.writes_ok,
                "busy": result.busy,
                "errors": result.errors,
                "read_p50_ms": round(result.latency_s(0.50) * 1e3, 4),
                "read_p99_ms": round(result.latency_s(0.99) * 1e3, 4),
                "write_p50_ms": round(result.write_latency_s(0.50) * 1e3, 4),
                "write_p99_ms": round(result.write_latency_s(0.99) * 1e3, 4),
                "write_qps": round(result.write_qps, 1),
            }
            for fraction, result in mixes
        ],
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_table(
        "E16",
        "Durability cost: WAL fsync engine under mixed load (host wall clock)",
        ("write %", "reads ok", "writes ok", "read p50 ms", "read p99 ms",
         "write p50 ms", "write p99 ms"),
        [
            (
                f"{fraction * 100:.0f}%",
                result.ok,
                result.writes_ok,
                round(result.latency_s(0.50) * 1e3, 3),
                round(result.latency_s(0.99) * 1e3, 3),
                round(result.write_latency_s(0.50) * 1e3, 3),
                round(result.write_latency_s(0.99) * 1e3, 3),
            )
            for fraction, result in mixes
        ],
        notes=(
            f"open-loop {qps:g} qps for {duration_s:g}s per mix, "
            f"group-committed fsync; results in {RESULT_PATH.name}"
        ),
    )

    read_only = mixes[0][1]
    heavy = mixes[-1][1]
    # Reads must survive a write-heavy mix without collapsing: an order
    # of magnitude is far beyond any plausible WAL-contention effect.
    assert heavy.latency_s(0.50) < max(
        10 * read_only.latency_s(0.50), 0.05
    )
    for _, result in mixes:
        assert result.ok + result.writes_ok + result.busy == result.offered
