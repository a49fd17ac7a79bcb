"""Clause storage: modules, predicate stores, the knowledge base."""

from .kb import KnowledgeBase, PredicateStore, UnknownPredicateError
from .module import DEFAULT_LARGE_THRESHOLD_BYTES, Module, Residency
from .persist import (
    PersistenceError,
    kb_fingerprint,
    load_kb,
    load_write_ids,
    save_kb,
    save_write_ids,
)
from .wal import (
    DurabilityOptions,
    DurableStore,
    MutationRecord,
    RecoveredState,
    WalError,
    WriteAheadLog,
    wal_dump,
)

__all__ = [
    "DEFAULT_LARGE_THRESHOLD_BYTES",
    "DurabilityOptions",
    "DurableStore",
    "KnowledgeBase",
    "Module",
    "MutationRecord",
    "PersistenceError",
    "PredicateStore",
    "RecoveredState",
    "Residency",
    "UnknownPredicateError",
    "WalError",
    "WriteAheadLog",
    "kb_fingerprint",
    "load_kb",
    "load_write_ids",
    "save_kb",
    "save_write_ids",
    "wal_dump",
]
