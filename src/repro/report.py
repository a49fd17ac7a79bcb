"""Query-run reports: where did retrieval time go?

Reporting sits on top of the observability layer (:mod:`repro.obs`):
the :class:`~repro.obs.MetricsRegistry` aggregates stage-level counters
across the whole pipeline — disk, FS1, FS2, host software, shard
locks — and this module is one consumer of that registry (the CLI's
``stats`` command and the NDJSON trace export are others).  The per-machine
:class:`~repro.engine.QueryStats` view of the same run is kept for the
classic per-goal trace report.
"""

from __future__ import annotations

from .crs import RetrievalStats, SearchMode
from .engine import PrologMachine
from .obs import Instrumentation, MetricsRegistry
from .terms import Term, term_to_string

__all__ = [
    "format_query_report",
    "format_retrieval",
    "format_metrics",
    "format_net_report",
    "format_shard_report",
    "headline_counters",
    "shard_breakdown",
]


def format_retrieval(goal: Term, stats: RetrievalStats) -> str:
    """One trace line: goal, mode, volumes, time split."""
    parts = [
        f"{term_to_string(goal):<36}",
        f"mode={stats.mode.value:<8}",
        f"scanned={stats.clauses_total:<6}",
        f"candidates={stats.final_candidates:<5}",
        f"filter={stats.filter_time_s * 1e3:8.3f}ms",
    ]
    if stats.fs1_candidates is not None:
        parts.insert(3, f"fs1_cands={stats.fs1_candidates:<6}")
    return "  ".join(parts)


def format_query_report(machine: PrologMachine, title: str = "query report") -> str:
    """A multi-line report of everything the machine retrieved so far."""
    stats = machine.stats
    lines = [title, "=" * len(title)]
    lines.append(f"retrievals        : {stats.retrievals}")
    lines.append(f"clauses scanned   : {stats.clauses_scanned}")
    lines.append(f"candidates passed : {stats.candidates}")
    if stats.clauses_scanned:
        ratio = stats.candidates / stats.clauses_scanned
        lines.append(f"filter selectivity: {100 * ratio:.2f}%")
    lines.append(f"modelled filter   : {stats.filter_time_s * 1e3:.3f} ms")
    if stats.mode_uses:
        lines.append("search modes:")
        for mode in SearchMode:
            if mode in stats.mode_uses:
                lines.append(f"  {mode.value:<9}: {stats.mode_uses[mode]} uses")
    if machine.trace:
        lines.append("")
        lines.append(f"last {len(machine.trace)} retrievals:")
        for goal, retrieval in machine.trace:
            if retrieval is not None:
                lines.append("  " + format_retrieval(goal, retrieval))
    if machine.obs.enabled and len(machine.obs.registry):
        lines.append("")
        lines.append(format_metrics(machine.obs, title="pipeline metrics"))
    return "\n".join(lines)


def headline_counters(registry: MetricsRegistry) -> dict[str, float]:
    """The counters every report leads with, present even when zero."""
    lock_waits = [
        instrument for instrument in registry
        if instrument.name == "cluster.shard_lock.wait_s"
    ]
    return {
        "retrievals": registry.total("crs.retrievals"),
        "cache_hits": registry.total("crs.cache.hits"),
        "cache_misses": registry.total("crs.cache.misses"),
        "fs1_searches": registry.total("fs1.searches"),
        "fs2_search_calls": registry.total("fs2.search_calls"),
        "fs2_plan_cache_hits": registry.total("fs2.plan_cache.hits"),
        "fs2_plan_cache_misses": registry.total("fs2.plan_cache.misses"),
        "fs2_compiled_clauses": registry.total("fs2.compiled.clauses"),
        "disk_bytes": registry.total("disk.bytes_read"),
        "disk_bytes_skipped": registry.total("disk.bytes_skipped"),
        "disk_seeks": registry.total("disk.seeks"),
        # every shard's lock-wait histogram, folded: takes, seconds
        # queued in total and the longest single wait
        "shard_lock_waits": sum(h.count for h in lock_waits),
        "shard_lock_wait_s": sum((h.sum for h in lock_waits), 0.0),
        "shard_lock_wait_max_s": max(
            (h.max for h in lock_waits if h.count), default=0.0
        ),
    }


#: The per-shard counter families the cluster report itemises.
_SHARD_STAGES = (
    ("retrievals", "crs.retrievals"),
    ("clauses", "crs.clauses_scanned"),
    ("candidates", "crs.candidates_returned"),
    ("disk_s", "disk.sim_time_s"),
    ("fs1_s", "fs1.sim_time_s"),
    ("fs2_s", "fs2.sim_time_s"),
    ("software_s", "software.sim_time_s"),
)


def shard_breakdown(registry: MetricsRegistry) -> dict[str, dict[str, float]]:
    """Per-shard totals of the stage counters, keyed by shard label.

    Every engine-level counter a shard emits carries its ``shard`` label
    (see :meth:`repro.obs.Instrumentation.labelled`); this folds each
    family per shard, summing across its other labels (e.g. mode).
    """
    shards: dict[str, dict[str, float]] = {}
    for instrument in registry:
        labels = dict(instrument.labels)
        shard = labels.get("shard")
        if shard is None or not hasattr(instrument, "value"):
            continue
        for stage, family in _SHARD_STAGES:
            if instrument.name == family:
                row = shards.setdefault(shard, {s: 0.0 for s, _ in _SHARD_STAGES})
                row[stage] += instrument.value
    return shards


def format_shard_report(registry: MetricsRegistry) -> str:
    """The cluster view: per-shard work split and the batch speedup.

    The speedup line compares the parallel-disk wall clock
    (max-over-shards) with what one device running the same work in
    sequence would cost — the measured gain over a 1-shard cluster.
    """
    lines = ["shard breakdown", "=" * len("shard breakdown")]
    shards = shard_breakdown(registry)
    if not shards:
        lines.append("(no shard-labelled metrics recorded)")
        return "\n".join(lines)
    header = f"{'shard':<6}" + "".join(
        f"{stage:>12}" for stage, _ in _SHARD_STAGES
    )
    lines.append(header)
    for shard in sorted(shards, key=lambda s: (len(s), s)):
        row = shards[shard]
        cells = []
        for stage, _ in _SHARD_STAGES:
            value = row[stage]
            if stage.endswith("_s"):
                cells.append(f"{value:>12.6f}")
            else:
                cells.append(f"{value:>12g}")
        lines.append(f"{shard:<6}" + "".join(cells))
    wall = registry.total("cluster.wall_clock_s")
    device = registry.total("cluster.device_time_s")
    batch_wall = registry.total("cluster.batch.wall_clock_s")
    batch_serial = registry.total("cluster.batch.serial_time_s")
    if device > 0.0 and wall > 0.0:
        lines.append(
            f"retrieval wall clock: {wall:.6f}s over {device:.6f}s device "
            f"time ({device / wall:.2f}x vs 1 shard)"
        )
    if batch_wall > 0.0:
        lines.append(
            f"batch wall clock    : {batch_wall:.6f}s over {batch_serial:.6f}s "
            f"serial ({batch_serial / batch_wall:.2f}x vs 1 shard)"
        )
    broadcasts = registry.total("cluster.broadcasts")
    single = registry.total("cluster.single_shard")
    if broadcasts or single:
        lines.append(
            f"routing             : {single:g} single-shard, "
            f"{broadcasts:g} broadcast"
        )
    return "\n".join(lines)


def format_net_report(registry: MetricsRegistry) -> str:
    """The serving view: admission control, errors, bytes, latency.

    Rendered by ``repro.cli serve`` at drain time so an operator sees
    what the admission controller actually did — how much load was
    accepted, how much was shed with ``SERVER_BUSY``, and how many
    requests spent their deadline in the queue.
    """
    lines = ["net serving", "=" * len("net serving")]
    accepted = registry.total("net.accepted")
    connections = registry.total("net.connections")
    if accepted == 0 and connections == 0:
        lines.append("(no network activity recorded)")
        return "\n".join(lines)
    lines.append(
        "accepted={:g}  busy_rejected={:g}  deadline_expired={:g}  "
        "drains={:g}".format(
            accepted,
            registry.total("net.busy_rejected"),
            registry.total("net.deadline_expired"),
            registry.total("net.drains"),
        )
    )
    lines.append(
        "connections={:g}  disconnects={:g}  bad_frames={:g}  "
        "truncated_frames={:g}  send_failures={:g}".format(
            connections,
            registry.total("net.disconnects"),
            registry.total("net.bad_frames"),
            registry.total("net.truncated_frames"),
            registry.total("net.send_failures"),
        )
    )
    lines.append(
        "bytes in/out={:g}/{:g}".format(
            registry.total("net.bytes_in"), registry.total("net.bytes_out")
        )
    )
    for instrument in registry:
        if not getattr(instrument, "count", 0):
            continue
        if instrument.name == "net.request_ms":
            lines.append(
                "request latency: n={} mean={:.3f}ms min={:.3f}ms "
                "max={:.3f}ms".format(
                    instrument.count,
                    instrument.mean,
                    instrument.min,
                    instrument.max,
                )
            )
        elif instrument.name == "wal.batch_records":
            # Group commit at a glance: a bulk load shows up as a few
            # large commits, wire writes as many commits of one or two.
            lines.append(
                "wal: appends={:g}  fsyncs={:g}  records/commit "
                "mean={:.1f} max={:g}".format(
                    registry.total("wal.appends"),
                    registry.total("wal.fsyncs"),
                    instrument.mean,
                    instrument.max,
                )
            )
    return "\n".join(lines)


def format_metrics(
    source: Instrumentation | MetricsRegistry, title: str = "pipeline metrics"
) -> str:
    """Render a metrics registry: headline counters, stage times, dump.

    The stage-time block is the registry's answer to the paper's mode
    comparison: modelled seconds attributed to the disk stream, the FS1
    index scan, the FS2 partial unification, and host software.
    """
    registry = source.registry if isinstance(source, Instrumentation) else source
    head = headline_counters(registry)
    lines = [title, "=" * len(title)]
    lines.append(
        "retrievals={:g}  cache hits/misses={:g}/{:g}  "
        "fs1 searches={:g}  fs2 search calls={:g}".format(
            head["retrievals"],
            head["cache_hits"],
            head["cache_misses"],
            head["fs1_searches"],
            head["fs2_search_calls"],
        )
    )
    lines.append(
        "fs2 plan cache hits/misses={:g}/{:g}  compiled clauses={:g}".format(
            head["fs2_plan_cache_hits"],
            head["fs2_plan_cache_misses"],
            head["fs2_compiled_clauses"],
        )
    )
    lines.append(
        "disk seeks={:g}  bytes delivered/skipped={:g}/{:g}".format(
            head["disk_seeks"],
            head["disk_bytes"],
            head["disk_bytes_skipped"],
        )
    )
    lines.append(
        "shard lock waits={:g}  wait total/max={:.6f}/{:.6f} s".format(
            head["shard_lock_waits"],
            head["shard_lock_wait_s"],
            head["shard_lock_wait_max_s"],
        )
    )
    lines.append("stage sim time (s):")
    for stage, counter in (
        ("disk", "disk.sim_time_s"),
        ("fs1", "fs1.sim_time_s"),
        ("fs2", "fs2.sim_time_s"),
        ("software", "software.sim_time_s"),
    ):
        lines.append(f"  {stage:<9}: {registry.total(counter):.6f}")
    if len(registry):
        lines.append("registry:")
        for line in registry.render().splitlines():
            lines.append("  " + line)
    return "\n".join(lines)
