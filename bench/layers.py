"""From raw spans and registry counts to the per-layer metrics.

The traced pass keeps one request in flight, so every span of both
processes lies inside exactly one driver ``bench.op`` span.  Spans know
their same-thread parent; the top span of every other thread (and of
the server process) is hung under the deepest span that contains it in
time.  A span's *self* time is its duration minus the interval its
children cover (aggregated children: minus their total), so along the
blocking path the self times add up to what the client observed.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "build_ops", "per_layer_metrics", "write_ndjson", "PER_LAYER"]


@dataclass
class Span:
    process: str
    span_id: int
    parent_id: int
    name: str
    start: int
    end: int
    calls: int
    aggregated: bool
    children: list["Span"] = field(default_factory=list, repr=False)
    self_ns: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_ops(client_spans: list[tuple], server_spans: list[tuple]) -> tuple[list[Span], list[Span]]:
    """Stitch both processes' spans into one tree per traced op.

    Returns ``(ops, unplaced)``: the ``bench.op`` roots in time order,
    and spans that lie inside no op (background work such as a WAL
    compaction that straddles requests).
    """
    spans: dict[tuple[str, int], Span] = {}
    for process, raw in (("client", client_spans), ("server", server_spans)):
        for record in raw:
            span = Span(process, *record)
            spans[(process, span.span_id)] = span
    tops: list[Span] = []
    for span in spans.values():
        parent = spans.get((span.process, span.parent_id))
        if parent is not None:
            parent.children.append(span)
        else:
            tops.append(span)
    ops = sorted(
        (s for s in tops if s.name == "bench.op"), key=lambda s: s.start
    )
    starts = [op.start for op in ops]
    unplaced: list[Span] = []
    # Longest first, so a containing span is placed before its contents.
    for span in sorted(
        (s for s in tops if s.name != "bench.op"),
        key=lambda s: s.start - s.end,
    ):
        position = bisect.bisect_right(starts, span.start) - 1
        if position < 0 or span.end > ops[position].end:
            unplaced.append(span)
            continue
        node = ops[position]
        while True:
            inner = next(
                (
                    child for child in node.children
                    if not child.aggregated
                    and child.start <= span.start and span.end <= child.end
                ),
                None,
            )
            if inner is None:
                break
            node = inner
        node.children.append(span)
    for root in ops + unplaced:
        for span in root.walk():
            span.self_ns = _self_time(span)
    return ops, unplaced


def _self_time(span: Span) -> int:
    if span.aggregated:
        return span.duration
    covered = 0
    reach = span.start
    charged = 0
    for child in sorted(span.children, key=lambda c: c.start):
        if child.aggregated:
            charged += child.duration
            continue
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return max(0, span.duration - covered - charged)


def write_ndjson(path, ops: list[Span], unplaced: list[Span]) -> int:
    """One JSON object per span; returns the number written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for index, root in enumerate(ops + unplaced):
            op_index = index if index < len(ops) else None
            for span in root.walk():
                handle.write(json.dumps({
                    "op": op_index, "process": span.process,
                    "id": span.span_id, "parent": span.parent_id,
                    "name": span.name, "start_ns": span.start,
                    "dur_ns": span.duration, "self_ns": span.self_ns,
                    "calls": span.calls, "aggregated": span.aggregated,
                }) + "\n")
                written += 1
    return written


# -- the metric table ---------------------------------------------------------

#: every per-layer metric: name -> (unit, better).  Order is print order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "net.self_ms": ("ms", "lower"),
    "net.encode_request_ms": ("ms", "lower"),
    "net.decode_request_ms": ("ms", "lower"),
    "net.encode_response_ms": ("ms", "lower"),
    "net.decode_response_ms": ("ms", "lower"),
    "net.response_bytes": ("bytes/op", "lower"),
    "net.busy_rejected": ("count", "lower"),
    "net.client_retries": ("count", "lower"),
    "cluster.retrieve_ms": ("ms", "lower"),
    "cluster.self_ms": ("ms", "lower"),
    "cluster.route_ms": ("ms", "lower"),
    "cluster.shards_per_op": ("count/op", "lower"),
    "cluster.cache_hit_ratio": ("ratio", "higher"),
    "cluster.mutate_ms": ("ms", "lower"),
    "cluster.fleet_self_ms": ("ms", "lower"),
    "cluster.fleet_acks_per_write": ("count", "higher"),
    "cluster.fleet_stale_marks": ("count", "lower"),
    "cluster.fleet_degraded_reads": ("count", "lower"),
    "crs.retrieve_ms": ("ms", "lower"),
    "crs.self_ms": ("ms", "lower"),
    "crs.select_mode_ms": ("ms", "lower"),
    "crs.decode_cache_hit_ratio": ("ratio", "higher"),
    "crs.mode_share.software": ("ratio", "lower"),
    "crs.mode_share.fs1": ("ratio", "higher"),
    "crs.mode_share.fs2": ("ratio", "higher"),
    "crs.mode_share.both": ("ratio", "higher"),
    "scw.search_ms": ("ms", "lower"),
    "scw.columns_touched": ("count/search", "lower"),
    "scw.candidates": ("count/search", "lower"),
    "scw.codeword_cache_hit_ratio": ("ratio", "higher"),
    "scw.false_drops": ("count/op", "lower"),
    "fs2.set_query_ms": ("ms", "lower"),
    "fs2.search_ms": ("ms", "lower"),
    "fs2.records_streamed": ("count/op", "lower"),
    "fs2.satisfier_ratio": ("ratio", "higher"),
    "fs2.plan_cache_hit_ratio": ("ratio", "higher"),
    "fs2.micro_cycles_per_record": ("cycles", "lower"),
    "pif.decode_ms": ("ms", "lower"),
    "pif.decodes": ("count/op", "lower"),
    "pif.compile_ms": ("ms", "lower"),
    "disk.host_ms": ("ms", "lower"),
    "disk.modelled_ms": ("ms", "lower"),
    "disk.bytes": ("bytes/op", "lower"),
    "disk.extent_rewrites": ("count/op", "lower"),
    "storage.wal_stage_ms": ("ms", "lower"),
    "storage.wal_wait_durable_ms": ("ms", "lower"),
    "storage.wal_fsyncs_per_write": ("count", "lower"),
    "storage.wal_bytes_per_write": ("bytes", "lower"),
    "storage.compactions": ("count", "lower"),
    "storage.compaction_ms": ("ms", "lower"),
    "storage.add_clause_ms": ("ms", "lower"),
    "storage.retract_rebuild_ms": ("ms", "lower"),
    "engine.solve_ms": ("ms", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.retrievals_per_solve": ("count", "lower"),
    "engine.candidate_cache_hit_ratio": ("ratio", "higher"),
    "engine.prefetch_batches": ("count/op", "higher"),
    "engine.solutions_per_solve": ("count", "higher"),
    "bench.budget_coverage": ("ratio", "higher"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.oracle_s": ("s", "lower"),
}

_MS = 1e-6  # ns -> ms


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class _Counts:
    """Counter deltas of one registry over the traced pass, by family."""

    def __init__(self, before: dict, after: dict):
        self._delta: dict[str, float] = defaultdict(float)
        self._by_key: dict[str, float] = {}
        for key, data in after.items():
            if data["type"] != "counter":
                continue
            prior = before.get(key, {}).get("value", 0.0)
            delta = data["value"] - prior
            self._by_key[key] = delta
            self._delta[key.partition("{")[0]] += delta

    def total(self, family: str) -> float:
        return self._delta.get(family, 0.0)

    def labelled(self, family: str, label: str, value: str) -> float:
        """Sum of the family's series carrying ``label=value``."""
        total = 0.0
        for key, delta in self._by_key.items():
            name, _, rest = key.partition("{")
            if name == family and f"{label}={value}" in rest.rstrip("}").split(","):
                total += delta
        return total


def per_layer_metrics(
    ops: list[Span], unplaced: list[Span], server_counts: tuple[dict, dict],
    client_counts: tuple[dict, dict], samples: list, stale_marks: int,
) -> dict[str, float]:
    """Every metric of :data:`PER_LAYER` except the ``bench.*`` ones
    that need the untraced baseline (filled in by the caller).

    Times are means per traced op unless the name says otherwise; a
    ``*_ms`` named after a call is that call's inclusive time, a
    ``<layer>.self_ms`` is the layer's exclusive share of the budget.
    """
    n_ops = max(1, len(ops))
    inclusive: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    fleet_self = 0
    for root in ops:
        for span in root.walk():
            inclusive[span.name] += span.duration
            calls[span.name] += span.calls
            if span.name.startswith("cluster.fleet."):
                fleet_self += span.self_ns
            elif span.name != "bench.op":
                layer_self[span.layer] += span.self_ns
    for root in unplaced:  # background work: a compaction spans requests
        if root.name == "storage.compaction":
            inclusive[root.name] += root.duration
            calls[root.name] += 1

    def per_op(name: str) -> float:
        return inclusive[name] * _MS / n_ops

    def per_call(name: str) -> float:
        return inclusive[name] * _MS / calls[name] if calls[name] else 0.0

    server = _Counts(*server_counts)
    client = _Counts(*client_counts)
    solves = [s for s in samples if s.kind == "solve"]
    writes = sum(1 for s in samples if s.kind in ("assertz", "retract"))
    fleet_writes = calls["cluster.fleet.write"]
    searches = server.total("fs1.searches")
    examined = server.total("fs2.clauses_examined")
    retrievals = server.total("crs.retrievals")
    prefetches = calls["engine.prefetch"]
    backend_pulls = calls["cluster.retrieve"] + calls["cluster.retrieve_batch"]
    wal_writes = calls["storage.wal_stage"]

    def mode_share(mode: str) -> float:
        hits = server.labelled("crs.retrievals", "mode", mode)
        return hits / retrievals if retrievals else 0.0

    observed_ns = sum(s.latency_s for s in samples) * 1e9
    budget_ns = sum(layer_self.values()) + fleet_self
    return {
        "net.self_ms": layer_self["net"] * _MS / n_ops,
        "net.encode_request_ms": per_op("net.encode_request"),
        "net.decode_request_ms": per_op("net.decode_request"),
        "net.encode_response_ms": per_op("net.encode_response"),
        "net.decode_response_ms": per_op("net.decode_response"),
        "net.response_bytes": server.total("net.bytes_out") / n_ops,
        "net.busy_rejected": server.total("net.busy_rejected"),
        "net.client_retries": (
            client.total("net.client.busy_retries")
            + client.total("net.client.retries")
        ),
        "cluster.retrieve_ms": per_op("cluster.retrieve")
        + per_op("cluster.retrieve_batch"),
        "cluster.self_ms": layer_self["cluster"] * _MS / n_ops,
        "cluster.route_ms": per_op("cluster.route"),
        "cluster.shards_per_op": calls["crs.retrieve"] / n_ops,
        "cluster.cache_hit_ratio": _ratio(
            server.total("cluster.cache.hits"), server.total("cluster.cache.misses")
        ),
        "cluster.mutate_ms": (
            inclusive["cluster.mutate"] * _MS / writes if writes else 0.0
        ),
        "cluster.fleet_self_ms": fleet_self * _MS / n_ops,
        "cluster.fleet_acks_per_write": (
            calls["net.client.mutate"] / fleet_writes if fleet_writes else 0.0
        ),
        "cluster.fleet_stale_marks": float(stale_marks),
        "cluster.fleet_degraded_reads": client.total("cluster.fleet.degraded_reads"),
        "crs.retrieve_ms": per_op("crs.retrieve"),
        "crs.self_ms": layer_self["crs"] * _MS / n_ops,
        "crs.select_mode_ms": per_op("crs.select_mode"),
        "crs.decode_cache_hit_ratio": _ratio(
            server.total("crs.decode_cache.hits"),
            server.total("crs.decode_cache.misses"),
        ),
        "crs.mode_share.software": mode_share("software"),
        "crs.mode_share.fs1": mode_share("fs1"),
        "crs.mode_share.fs2": mode_share("fs2"),
        "crs.mode_share.both": mode_share("fs1+fs2"),
        "scw.search_ms": per_op("scw.search"),
        "scw.columns_touched": (
            server.total("fs1.bitsliced.columns_touched") / searches
            if searches else 0.0
        ),
        "scw.candidates": (
            server.total("fs1.candidates") / searches if searches else 0.0
        ),
        "scw.codeword_cache_hit_ratio": _ratio(
            server.total("fs1.codeword_cache.hits"),
            server.total("fs1.codeword_cache.misses"),
        ),
        "scw.false_drops": server.total("fs1.false_drops") / n_ops,
        "fs2.set_query_ms": per_op("fs2.set_query"),
        "fs2.search_ms": per_op("fs2.search"),
        "fs2.records_streamed": examined / n_ops,
        "fs2.satisfier_ratio": (
            server.total("fs2.satisfiers") / examined if examined else 0.0
        ),
        "fs2.plan_cache_hit_ratio": _ratio(
            server.total("fs2.plan_cache.hits"), server.total("fs2.plan_cache.misses")
        ),
        "fs2.micro_cycles_per_record": (
            server.total("fs2.micro_cycles") / examined if examined else 0.0
        ),
        "pif.decode_ms": per_op("pif.decode"),
        "pif.decodes": calls["pif.decode"] / n_ops,
        "pif.compile_ms": per_op("pif.compile"),
        "disk.host_ms": per_op("disk.read") + per_op("disk.write"),
        "disk.modelled_ms": server.total("disk.sim_time_s") * 1e3 / n_ops,
        "disk.bytes": server.total("disk.bytes_read") / n_ops,
        "disk.extent_rewrites": calls["disk.write"] / n_ops,
        "storage.wal_stage_ms": per_call("storage.wal_stage"),
        "storage.wal_wait_durable_ms": per_call("storage.wal_wait_durable"),
        "storage.wal_fsyncs_per_write": (
            server.total("wal.fsyncs") / wal_writes if wal_writes else 0.0
        ),
        "storage.wal_bytes_per_write": (
            server.total("wal.append_bytes") / wal_writes if wal_writes else 0.0
        ),
        "storage.compactions": float(calls["storage.compaction"]),
        "storage.compaction_ms": per_call("storage.compaction"),
        "storage.add_clause_ms": per_call("storage.add_clause"),
        "storage.retract_rebuild_ms": per_call("storage.retract_rebuild"),
        "engine.solve_ms": (
            inclusive["engine.solve"] * _MS / len(solves) if solves else 0.0
        ),
        "engine.self_ms": layer_self["engine"] * _MS / n_ops,
        "engine.retrievals_per_solve": (
            backend_pulls / len(solves) if solves else 0.0
        ),
        "engine.candidate_cache_hit_ratio": (
            1.0 - backend_pulls / prefetches if prefetches else 0.0
        ),
        "engine.prefetch_batches": calls["cluster.retrieve_batch"] / n_ops,
        "engine.solutions_per_solve": (
            sum(len(s.answers) for s in solves) / len(solves) if solves else 0.0
        ),
        "bench.budget_coverage": budget_ns / observed_ns if observed_ns else 0.0,
    }
