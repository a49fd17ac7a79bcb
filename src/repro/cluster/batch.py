"""Batched query execution over the shard cluster.

A production front-end does not retrieve one goal at a time: it drains a
queue of goals against the cluster.  :class:`BatchExecutor` hands the
batch to :meth:`ShardedRetrievalServer.retrieve_batch` and models its
wall clock the way the hardware would run it: each shard works through
its sub-queries serially, all shards concurrently, so the batch takes as
long as its busiest shard (max-over-shards), not the sum of every
device's work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crs import RetrievalResult, SearchMode
from ..obs import Instrumentation
from ..terms import Term
from .server import MergedRetrievalStats, ShardedRetrievalServer

__all__ = ["BatchStats", "BatchResult", "BatchExecutor"]


@dataclass
class BatchStats:
    """Modelled timing for one batch under the parallel-disk model."""

    goals: int = 0
    shard_busy_s: dict[int, float] = field(default_factory=dict)

    @property
    def wall_clock_s(self) -> float:
        """Batch latency: the busiest shard bounds the whole batch."""
        if not self.shard_busy_s:
            return 0.0
        return max(self.shard_busy_s.values())

    @property
    def serial_time_s(self) -> float:
        """The same work on a single-device timeline (the 1-shard cost)."""
        return sum(self.shard_busy_s.values())

    @property
    def speedup(self) -> float:
        """How much the parallel disks buy over one device in sequence."""
        if self.wall_clock_s == 0.0:
            return 1.0
        return self.serial_time_s / self.wall_clock_s


@dataclass
class BatchResult:
    """Per-goal results (in input order) plus batch-level accounting."""

    results: list[RetrievalResult]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)


class BatchExecutor:
    """``retrieve_batch`` plus the parallel-disk timing fold."""

    def __init__(
        self,
        server: ShardedRetrievalServer,
        obs: Instrumentation | None = None,
    ):
        self.server = server
        self.obs = obs if obs is not None else server.obs

    def run(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> BatchResult:
        """Retrieve every goal; results come back in input order.

        Shard busy time is accumulated from the merged per-shard stats
        (cluster cache hits cost nothing).  ``timeout`` is
        :meth:`ShardedRetrievalServer.retrieve_batch`'s: a stuck shard
        raises :class:`~repro.crs.RetrievalTimeout` at the deadline.
        """
        stats = BatchStats(goals=len(goals))
        with self.obs.span("cluster.batch", goals=len(goals)) as span:
            results = self.server.retrieve_batch(
                goals, mode=mode, timeout=timeout
            )
            for result in results:
                if isinstance(result.stats, MergedRetrievalStats):
                    for shard_id, shard_stats in result.stats.per_shard.items():
                        stats.shard_busy_s[shard_id] = (
                            stats.shard_busy_s.get(shard_id, 0.0)
                            + shard_stats.filter_time_s
                        )
            span.set(
                wall_clock_s=stats.wall_clock_s,
                serial_time_s=stats.serial_time_s,
                speedup=round(stats.speedup, 3),
            )
        obs = self.obs
        obs.counter("cluster.batch.runs").inc()
        obs.counter("cluster.batch.goals").inc(len(goals))
        obs.counter("cluster.batch.wall_clock_s").inc(stats.wall_clock_s)
        obs.counter("cluster.batch.serial_time_s").inc(stats.serial_time_s)
        for shard_id, busy in sorted(stats.shard_busy_s.items()):
            obs.counter("cluster.batch.busy_s", shard=str(shard_id)).inc(busy)
        obs.histogram(
            "cluster.batch.speedup", buckets=(1, 1.5, 2, 3, 4, 6, 8, 12, 16)
        ).observe(stats.speedup)
        return BatchResult(results=results, stats=stats)
