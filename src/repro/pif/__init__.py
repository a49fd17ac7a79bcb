"""The Pseudo In-line Format (PIF): CLARE's compiled clause representation."""

from . import tags
from .clausefile import (
    MAX_RECORD_BYTES,
    ClauseFile,
    CompiledClause,
    clause_record,
    compile_clause,
)
from .decoder import Item, PIFDecodeError, PIFDecoder, scan_items
from .encoder import (
    EXTENSION_SIZE,
    ITEM_SIZE,
    EncodedArgs,
    PIFEncoder,
    PIFError,
)
from .symbols import SymbolTable, SymbolTableFull

__all__ = [
    "EXTENSION_SIZE",
    "ITEM_SIZE",
    "MAX_RECORD_BYTES",
    "ClauseFile",
    "CompiledClause",
    "EncodedArgs",
    "Item",
    "PIFDecodeError",
    "PIFDecoder",
    "PIFEncoder",
    "PIFError",
    "SymbolTable",
    "SymbolTableFull",
    "clause_record",
    "compile_clause",
    "scan_items",
    "tags",
]
