"""FS1: superimposed codeword plus mask bits (SCW+MB) index filtering."""

from .analysis import (
    expected_saturation,
    false_drop_probability,
    optimal_bits_per_key,
    recommend_width,
)
from .bitsliced import BitSlicedIndex
from .codeword import DEFAULT_SCHEME, Codeword, CodewordScheme
from .fs1 import (
    FS1_SCAN_RATE_BYTES_PER_SEC,
    FS1Result,
    FirstStageFilter,
    SchemeMismatchError,
)
from .hardware import FS1Hardware, FS1HardwareResult
from .index import ADDRESS_BYTES, IndexEntry, SecondaryIndexFile

__all__ = [
    "ADDRESS_BYTES",
    "BitSlicedIndex",
    "DEFAULT_SCHEME",
    "Codeword",
    "CodewordScheme",
    "FS1Hardware",
    "FS1HardwareResult",
    "FS1Result",
    "FS1_SCAN_RATE_BYTES_PER_SEC",
    "FirstStageFilter",
    "IndexEntry",
    "SchemeMismatchError",
    "SecondaryIndexFile",
    "expected_saturation",
    "false_drop_probability",
    "optimal_bits_per_key",
    "recommend_width",
]
