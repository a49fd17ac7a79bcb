"""Sharded multi-engine clause retrieval: N CLARE devices, one front door.

:mod:`repro.cluster.routing` places clauses and fans goals out;
:mod:`repro.cluster.server` runs N complete engine instances behind the
single-server ``retrieve``/``solutions`` contract, its mutations in one
:mod:`repro.cluster.replog`; and :mod:`repro.cluster.batch` folds a
goal batch's per-shard stats into the parallel-disk (max-over-shards)
timing model.

Elasticity lives in three more modules: :mod:`repro.cluster.manifest`
(the versioned shard→replica→address placement and its CAS holder),
:mod:`repro.cluster.fleet` (replicated nodes behind real sockets, the
failover/replicated-write client, and the chaos fault verbs), and
:mod:`repro.cluster.migrate` (live shard migration and replica resync
via snapshot + mutation-log catch-up).
"""

from .batch import BatchExecutor, BatchResult, BatchStats
from .manifest import (
    ClusterManifest,
    ManifestError,
    ManifestHolder,
    ManifestVersionError,
)
from .replog import MutationLogOverflow, ReplicationLog, WritesFrozen
from .routing import ShardingPolicy, ShardRouter, stable_shard_hash
from .server import (
    ClusterShard,
    MergedRetrievalStats,
    MutationRecord,
    ShardedRetrievalServer,
)

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "BatchStats",
    "ClusterManifest",
    "ClusterNode",
    "ClusterShard",
    "Fleet",
    "FleetClient",
    "FleetWriteError",
    "ManifestError",
    "ManifestHolder",
    "ManifestVersionError",
    "MergedRetrievalStats",
    "MigrationError",
    "MutationLogOverflow",
    "MutationRecord",
    "ReplicationLog",
    "ShardRouter",
    "ShardedRetrievalServer",
    "ShardingPolicy",
    "WritesFrozen",
    "migrate_shard",
    "resync_replica",
    "stable_shard_hash",
]

#: Fleet and migration live behind a lazy import: they pull in
#: :mod:`repro.net`, whose protocol module imports *this* package for
#: :class:`MergedRetrievalStats` — importing them eagerly here would
#: close that loop while both modules are half-initialised.
_LAZY = {
    "ClusterNode": "fleet",
    "Fleet": "fleet",
    "FleetClient": "fleet",
    "FleetWriteError": "fleet",
    "MigrationError": "migrate",
    "migrate_shard": "migrate",
    "resync_replica": "migrate",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
