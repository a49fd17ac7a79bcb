"""A tour of the observability layer: metrics, spans, NDJSON export.

One ``Instrumentation`` object threads through the whole pipeline —
knowledge base, disk model, CRS, FS1, FS2, host software — so a single
registry and a single span trace cover a run end to end.

Run with::

    python examples/observability.py
"""

import json
import tempfile

from repro import KnowledgeBase, PrologMachine
from repro.cluster import ShardedRetrievalServer
from repro.crs import ClauseRetrievalServer, SearchMode
from repro.obs import Instrumentation
from repro.report import format_metrics, headline_counters
from repro.storage import Residency
from repro.terms import read_term


def build_machine(obs: Instrumentation) -> PrologMachine:
    kb = KnowledgeBase(obs=obs)
    kb.consult_text(
        " ".join(f"part(p{n}, bin{n % 7}, {n % 13}). " for n in range(400)),
        module="catalogue",
    )
    kb.module("catalogue").pin(Residency.DISK)
    kb.sync_to_disk()
    crs = ClauseRetrievalServer(kb, cache_size=32, obs=obs)
    return PrologMachine(kb, crs=crs, obs=obs)


def main() -> None:
    obs = Instrumentation()
    machine = build_machine(obs)

    # Exercise every CRS search mode over the disk-resident predicate.
    for mode in SearchMode:
        machine.mode = mode
        machine.succeeds("part(p123, Bin, Load)")
    machine.mode = None
    machine.succeeds("part(p123, Bin, Load)")  # planner picks; cache warm
    machine.succeeds("part(p123, Bin, Load)")  # ... and this one hits

    print(format_metrics(obs, title="one run, four modes"))

    # The span trace is the same run seen as a tree: engine.retrieve
    # wraps crs.retrieve, which wraps the stage spans.
    print("\nspan names recorded:", ", ".join(sorted(obs.recorder.span_names())))
    with tempfile.NamedTemporaryFile(
        mode="r", suffix=".ndjson", delete=False
    ) as handle:
        count = obs.recorder.write_ndjson(handle.name)
        print(f"wrote {count} spans to {handle.name}")
        first = json.loads(handle.read().splitlines()[0])
    print("first span:", first["name"], first["attrs"])

    # The same registry also times the sharded front door's one
    # concurrency control: every take of a shard's lock.
    cluster = ShardedRetrievalServer(2, "first_arg", obs=obs)
    cluster.consult_text(" ".join(f"part(p{n}, bin1, 3). " for n in range(4)))
    cluster.retrieve(read_term("part(P, Bin, Load)"))  # one take per shard
    hits = obs.registry.value("crs.cache.hits")
    head = headline_counters(obs.registry)
    print(
        f"\ncache hits: {hits:g}, shard lock waits: "
        f"{head['shard_lock_waits']:g} "
        f"(max {head['shard_lock_wait_max_s']:.2e} s)"
    )


if __name__ == "__main__":
    main()
