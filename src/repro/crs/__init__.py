"""The Clause Retrieval Server: four search modes and planning."""

from .keys import canonical_goal_key, constant_index_key, first_arg_index_key
from .optimizer import ConjunctionPlanner, GoalEstimate
from .planner import QueryFeatures, analyse_query, select_mode
from .server import (
    ClauseRetrievalServer,
    HostCostModel,
    RetrievalResult,
    RetrievalStats,
    RetrievalTimeout,
    SearchMode,
)

__all__ = [
    "ClauseRetrievalServer",
    "ConjunctionPlanner",
    "GoalEstimate",
    "HostCostModel",
    "QueryFeatures",
    "RetrievalResult",
    "RetrievalStats",
    "RetrievalTimeout",
    "SearchMode",
    "analyse_query",
    "canonical_goal_key",
    "constant_index_key",
    "first_arg_index_key",
    "select_mode",
]
