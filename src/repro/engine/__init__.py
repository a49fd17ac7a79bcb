"""The PDBM Prolog engine: the ZIP machine, its builtins and the integrated machine."""

from .builtins import (
    ExistenceError,
    PrologError,
    ResourceError,
    term_order_key,
)
from .machine import PrologMachine, QueryStats
from .solve import ClusterRetriever, RetrieverStats, SolveEngine, SolveStats

__all__ = [
    "ClusterRetriever",
    "ExistenceError",
    "PrologError",
    "PrologMachine",
    "QueryStats",
    "ResourceError",
    "RetrieverStats",
    "SolveEngine",
    "SolveStats",
    "term_order_key",
]
