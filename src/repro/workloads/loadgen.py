"""Open-loop load generation against the network retrieval service.

A closed-loop driver (send, wait, send) measures only its own
think-time; an **open-loop** driver fires requests on a fixed arrival
schedule — request *i* departs at ``start + i / qps`` whether or not
earlier requests have answered — so queueing delay inside the server
shows up in the measured latencies instead of silently throttling the
offered load.  That is the standard methodology for tail-latency
studies, and it is what makes the p99-under-overload acceptance test
meaningful: when the service is saturated the generator keeps offering
load, the server sheds it with ``SERVER_BUSY``, and the *admitted*
requests' tail stays bounded.

The generator runs on one event loop with an
:class:`~repro.net.AsyncRetrievalClient` per concurrent request slot
(connection pooling inside the client), records per-request outcome and
latency, and reduces them to the usual percentile summary.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field

from ..crs import SearchMode
from ..net import (
    AsyncRetrievalClient,
    BackoffPolicy,
    ConnectError,
    DeadlineExceeded,
    NetError,
    ServerBusy,
    ServerDraining,
)
from ..terms import Term, read_term

__all__ = [
    "LoadgenResult",
    "percentile",
    "run_loadgen",
]


def percentile(samples: list[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``samples`` (nearest-rank, 0..1)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class LoadgenResult:
    """Everything one open-loop run measured."""

    offered: int = 0
    ok: int = 0
    busy: int = 0
    deadline_expired: int = 0
    errors: int = 0
    wall_clock_s: float = 0.0
    #: Per-request host latency (seconds), successful *reads* only.
    latencies_s: list[float] = field(default_factory=list)
    #: Total candidate clauses returned across successful requests.
    candidates: int = 0
    #: Mixed-workload accounting (``write_fraction > 0``): writes are
    #: counted into ``offered``/``busy``/``deadline_expired``/``errors``
    #: with the reads, but keep their own success count and latency
    #: distribution — a durable server's fsync cost shows up in the
    #: write tail, not smeared into the read percentiles.
    writes_offered: int = 0
    writes_ok: int = 0
    write_latencies_s: list[float] = field(default_factory=list)

    @property
    def achieved_qps(self) -> float:
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.ok / self.wall_clock_s

    @property
    def write_qps(self) -> float:
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.writes_ok / self.wall_clock_s

    def latency_s(self, fraction: float) -> float:
        return percentile(self.latencies_s, fraction)

    def write_latency_s(self, fraction: float) -> float:
        return percentile(self.write_latencies_s, fraction)

    def summary(self) -> str:
        text = (
            f"offered={self.offered} ok={self.ok} busy={self.busy} "
            f"deadline={self.deadline_expired} errors={self.errors} "
            f"qps={self.achieved_qps:.1f} "
            f"p50={self.latency_s(0.50) * 1e3:.2f}ms "
            f"p99={self.latency_s(0.99) * 1e3:.2f}ms"
        )
        if self.writes_offered:
            text += (
                f" writes_ok={self.writes_ok}/{self.writes_offered} "
                f"wqps={self.write_qps:.1f} "
                f"wp50={self.write_latency_s(0.50) * 1e3:.2f}ms "
                f"wp99={self.write_latency_s(0.99) * 1e3:.2f}ms"
            )
        return text


async def _run_loadgen_async(
    host: str,
    port: int,
    goals: list[Term],
    *,
    qps: float,
    duration_s: float,
    mode: SearchMode | None,
    deadline_s: float | None,
    max_retries: int,
    write_fraction: float = 0.0,
    write_template: str = "loadgen_fact",
    seed: int = 0,
    clock=time.monotonic,
    sleep=asyncio.sleep,
) -> LoadgenResult:
    result = LoadgenResult()
    # retries=0 by default: an open-loop driver wants SERVER_BUSY to
    # *count*, not to be papered over by client backoff.
    backoff = BackoffPolicy(max_retries=max_retries)
    client = AsyncRetrievalClient(host, port, backoff=backoff)
    lock = asyncio.Lock()
    # The read/write coin flips come from a seeded generator in arrival
    # order, so a given (seed, qps, duration) always offers the same
    # request mix — benchmark runs are comparable across flush policies.
    rng = random.Random(seed)

    async def one_read(index: int) -> None:
        goal = goals[index % len(goals)]
        begin = clock()
        try:
            response = await client.retrieve(
                goal, mode=mode, deadline_s=deadline_s
            )
        except ServerBusy:
            async with lock:
                result.busy += 1
        except DeadlineExceeded:
            async with lock:
                result.deadline_expired += 1
        except (ServerDraining, ConnectError, NetError, ConnectionError, OSError):
            async with lock:
                result.errors += 1
        else:
            elapsed = clock() - begin
            async with lock:
                result.ok += 1
                result.latencies_s.append(elapsed)
                result.candidates += len(response.candidates)

    async def one_write(index: int) -> None:
        # A unique generated fact per write: asserts never collide with
        # the read goal set, and the KB (and any WAL behind it) grows by
        # exactly the acked write count — easy to assert on.
        from ..cluster import WritesFrozen

        clause = read_term(f"{write_template}(w{seed}_{index})")
        begin = clock()
        try:
            await client.mutate(
                "assertz", clause, deadline_s=deadline_s,
                write_id=f"loadgen:{seed}:{index}",
            )
        except ServerBusy:
            async with lock:
                result.busy += 1
        except DeadlineExceeded:
            async with lock:
                result.deadline_expired += 1
        except (ServerDraining, ConnectError, NetError, WritesFrozen,
                ConnectionError, OSError):
            async with lock:
                result.errors += 1
        else:
            elapsed = clock() - begin
            async with lock:
                result.writes_ok += 1
                result.write_latencies_s.append(elapsed)

    start = clock()
    total = max(1, int(qps * duration_s))
    writes_offered = 0
    inflight: set[asyncio.Task] = set()
    for index in range(total):
        departure = start + index / qps
        delay = departure - clock()
        if delay > 0:
            await sleep(delay)
        if write_fraction > 0.0 and rng.random() < write_fraction:
            writes_offered += 1
            task = asyncio.create_task(one_write(index))
        else:
            task = asyncio.create_task(one_read(index))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
    if inflight:
        await asyncio.gather(*list(inflight), return_exceptions=True)
    result.offered = total
    result.writes_offered = writes_offered
    result.wall_clock_s = clock() - start
    await client.close()
    return result


def run_loadgen(
    host: str,
    port: int,
    goals: list[Term],
    *,
    qps: float = 200.0,
    duration_s: float = 1.0,
    mode: SearchMode | None = None,
    deadline_s: float | None = None,
    max_retries: int = 0,
    write_fraction: float = 0.0,
    write_template: str = "loadgen_fact",
    seed: int = 0,
    clock=time.monotonic,
    sleep=asyncio.sleep,
) -> LoadgenResult:
    """Drive the service open-loop at ``qps`` for ``duration_s`` seconds.

    ``goals`` are issued round-robin.  ``deadline_s`` is the per-request
    budget sent over the wire; ``max_retries`` is the client retry cap
    (0 so admission-control rejections surface as ``busy`` counts).
    ``write_fraction`` turns the run into a mixed workload: that share
    of arrivals (chosen by a generator seeded with ``seed``) become
    ``assertz`` mutations of unique ``write_template/1`` facts instead
    of reads, measured separately (see :class:`LoadgenResult`).
    ``clock`` and ``sleep`` are injectable so tests can pace the arrival
    schedule deterministically instead of asserting on real time.
    """
    if qps <= 0:
        raise ValueError("qps must be positive")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be within [0, 1]")
    return asyncio.run(
        _run_loadgen_async(
            host,
            port,
            goals,
            qps=qps,
            duration_s=duration_s,
            mode=mode,
            deadline_s=deadline_s,
            max_retries=max_retries,
            write_fraction=write_fraction,
            write_template=write_template,
            seed=seed,
            clock=clock,
            sleep=sleep,
        )
    )
