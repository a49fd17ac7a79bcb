"""[E4] Scaling: in-memory Prolog vs the CLARE pipeline as KBs grow.

The paper's footnote: conventional Prolog systems on a 4 MB Sun3/160
"were unable to cope with more than about 60k clauses and even then the
overhead of loading these clauses into main memory was very high".  This
bench models the comparison: loading a predicate into a 4 MB heap and
scanning it in software vs streaming it from disk through the two-stage
filter, across knowledge-base sizes up to (a scaled) Warren medium KB.
"""

from repro.crs import ClauseRetrievalServer, HostCostModel, SearchMode
from repro.engine import PrologMachine
from repro.storage import KnowledgeBase, Residency
from repro.workloads import (
    FactKBSpec,
    build_warren_kb,
    generate_facts,
    open_query,
    warren_kb_spec,
)
from tables import record_table

#: The Sun3/160 of the paper's footnote.
HOST_MEMORY_BYTES = 4 * 1024 * 1024
#: Modelled in-memory bytes per loaded clause (heap term + index overhead).
LOADED_BYTES_PER_CLAUSE = 64


def test_bench_memory_wall():
    """Where does the in-memory approach hit the 4 MB wall?"""

    def wall():
        rows = []
        for clauses in (10_000, 30_000, 60_000, 120_000, 500_000):
            loaded = clauses * LOADED_BYTES_PER_CLAUSE
            fits = loaded <= HOST_MEMORY_BYTES
            # Loading cost: read the whole file once + build heap terms.
            model = HostCostModel()
            load_s = clauses * model.clause_decode_ns / 1e9 + loaded / 2e6
            rows.append(
                (
                    clauses,
                    round(loaded / 1e6, 2),
                    "yes" if fits else "NO",
                    round(load_s, 2) if fits else float("nan"),
                )
            )
        return rows

    rows = wall()
    fits_flags = [row[2] for row in rows]
    assert "NO" in fits_flags  # the wall exists
    assert fits_flags[0] == "yes"
    wall_at = next(row[0] for row in rows if row[2] == "NO")
    assert wall_at <= 120_000  # around the paper's ~60k observation
    record_table(
        "E4",
        "The in-memory wall on a 4 MB host (paper footnote, section 1)",
        ("clauses", "heap MB", "fits 4 MB?", "load time s"),
        rows,
        notes=f"{LOADED_BYTES_PER_CLAUSE} bytes per loaded clause assumed",
    )


def test_bench_scaling_software_vs_clare():
    def scaling():
        rows = []
        for count in (500, 2000, 8000):
            kb = KnowledgeBase()
            clauses = generate_facts(
                FactKBSpec(
                    functor="rec", arity=3, count=count,
                    domain_sizes=(count // 10,) * 3, seed=37,
                )
            )
            kb.consult_clauses(clauses, module="data")
            kb.module("data").pin(Residency.DISK)
            kb.sync_to_disk()
            crs = ClauseRetrievalServer(kb)
            query = clauses[count // 3].head
            software = crs.retrieve(query, mode=SearchMode.SOFTWARE).stats
            pipeline = crs.retrieve(query, mode=SearchMode.BOTH).stats
            rows.append(
                (
                    count,
                    round(software.filter_time_s * 1e3, 2),
                    round(pipeline.filter_time_s * 1e3, 2),
                    round(software.filter_time_s / pipeline.filter_time_s, 2),
                )
            )
        return rows

    rows = scaling()
    speedups = [row[3] for row in rows]
    # CLARE's advantage grows with knowledge-base size.
    assert speedups == sorted(speedups)
    assert speedups[-1] > 2
    record_table(
        "E4b",
        "Retrieval time scaling: software vs the FS1+FS2 pipeline",
        ("clauses", "software ms", "fs1+fs2 ms", "speedup"),
        rows,
    )


def test_bench_warren_kb_queries():
    """Run real queries against a scaled Warren medium-size KB."""
    kb = build_warren_kb(warren_kb_spec(0.002), seed=5)
    machine = PrologMachine(kb, unknown_predicates="fail")
    goals = [open_query(*indicator) for indicator in kb.predicates()[:4]]

    def run_queries():
        solutions = 0
        for goal in goals:
            for _ in machine.solve(goal):
                solutions += 1
                if solutions % 50 == 0:
                    break
        return solutions

    solutions = run_queries()
    assert solutions > 0
    spec = warren_kb_spec(0.002)
    record_table(
        "E4c",
        "Scaled Warren medium-size KB (section 1)",
        ("quantity", "value"),
        [
            ("scale factor", spec.scale),
            ("predicates", len(kb.predicates())),
            ("clauses", kb.clause_count()),
            ("compiled bytes", kb.size_bytes()),
            ("solutions sampled", solutions),
        ],
        notes="full size: 3000 predicates / 30000 rules / 3M facts / 30 MB",
    )
