"""Re-export of :mod:`repro.keys`, the canonical goal keys' home."""

from ..keys import canonical_goal_key, constant_index_key, first_arg_index_key

__all__ = [
    "canonical_goal_key",
    "constant_index_key",
    "first_arg_index_key",
]
