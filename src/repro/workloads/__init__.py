"""Synthetic workload generators for the evaluation benchmarks."""

from .dbbench import DBBenchProgram, build_benchmark_kb, standard_suite
from .graphs import (
    chain_path_goals,
    chain_program,
    layered_program,
    nrev_goal,
    nrev_program,
)
from .synthetic import (
    FactKBSpec,
    generate_couples,
    generate_facts,
    generate_mixed_predicate,
    ground_query_for,
    open_query,
    shared_variable_query,
)
from .warren import WARREN_FULL, WarrenSpec, build_warren_kb, warren_kb_spec

__all__ = [
    "DBBenchProgram",
    "FactKBSpec",
    "build_benchmark_kb",
    "standard_suite",
    "WARREN_FULL",
    "WarrenSpec",
    "build_warren_kb",
    "chain_path_goals",
    "chain_program",
    "layered_program",
    "nrev_goal",
    "nrev_program",
    "generate_couples",
    "generate_facts",
    "generate_mixed_predicate",
    "ground_query_for",
    "open_query",
    "shared_variable_query",
    "warren_kb_spec",
]
