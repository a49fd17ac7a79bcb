"""A guard on resident bytes per stored byte.

A knowledge base *is* its compiled images (paper section 2.1): one PIF
record buffer and one SCW+MB row buffer per predicate, plus address
tables, bit-sliced columns and the symbol table.  Nothing per clause
may live on as Python objects — not the source clause handed to
``consult``, not a compiled-record object, not an index-entry object.
When the store kept all three, 5 000 three-argument facts retained
about 32 bytes for every byte of image (1 250 per clause); kept as
images they retain about 2.7 (104 per clause).  The bound sits between
the two so the first kind of retention cannot come back unnoticed.
"""

import gc
import tracemalloc

from repro.storage import KnowledgeBase
from repro.workloads.synthetic import FactKBSpec, generate_facts

FACTS = 5000
MAX_RETAINED_PER_STORED_BYTE = 8


def test_a_consulted_kb_retains_little_more_than_its_images():
    gc.collect()
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        clauses = generate_facts(
            FactKBSpec("rec", 3, FACTS, domain_sizes=(500, 40, 40), seed=7)
        )
        kb = KnowledgeBase()
        assert kb.consult_clauses(clauses) == FACTS
        store = kb.store(("rec", 3))
        store.index.bitsliced  # FS1's columns are part of the resident set
        del clauses
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    stored = store.clause_file.size_bytes() + store.index.size_bytes()
    assert stored == len(store.clause_file.to_bytes()) + len(
        store.index.to_bytes()
    )
    assert retained <= MAX_RETAINED_PER_STORED_BYTE * stored, (
        f"{retained} bytes retained for {stored} bytes of clause and index "
        f"image ({retained / stored:.1f}x)"
    )
