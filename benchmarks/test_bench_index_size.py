"""[E5] Secondary file vs clause file size (section 2.1's premise).

"The size of a secondary file is generally much smaller than that of a
compiled clause file, thereby enabling quicker retrieval to be achieved
by scanning the former than by searching the latter exhaustively."
Sweeps codeword width to expose the size/selectivity trade-off.
"""

from repro.pif import ClauseFile, SymbolTable
from repro.scw import (
    CodewordScheme,
    SecondaryIndexFile,
    false_drop_probability,
    optimal_bits_per_key,
    recommend_width,
)
from repro.workloads import FactKBSpec, generate_facts
from tables import record_table


def _clause_file(count: int = 800):
    symbols = SymbolTable()
    clause_file = ClauseFile(("rec", 3), symbols)
    for clause in generate_facts(
        FactKBSpec(
            functor="rec", arity=3, count=count,
            structure_fraction=0.3, domain_sizes=(50, 50, 50), seed=41,
        )
    ):
        clause_file.append(clause)
    return clause_file


def test_bench_index_build():
    clause_file = _clause_file()
    scheme = CodewordScheme(width=96)
    index = SecondaryIndexFile.build(clause_file, scheme)
    assert len(index) == len(clause_file)


def test_bench_codeword_design_tool():
    """[E5b] Sizing the index for Warren's medium KB with the analytics.

    For 3M facts of ~5 ground keys each, what codeword width keeps false
    drops below various targets, and what does the secondary file cost?
    """
    record_keys = 5
    query_keys = 2
    facts = 3_000_000

    def design():
        rows = []
        for target in (0.1, 0.01, 0.001):
            width, k = recommend_width(record_keys, query_keys, target)
            entry_bytes = (width + 7) // 8 + 2 + 4  # codeword + mask + addr
            index_mb = facts * entry_bytes / 1e6
            expected_ghosts = facts * false_drop_probability(
                width, k, record_keys, query_keys
            )
            rows.append(
                (
                    f"{100 * target:g}%",
                    width,
                    k,
                    entry_bytes,
                    round(index_mb, 1),
                    round(expected_ghosts),
                )
            )
        return rows

    rows = design()
    widths = [row[1] for row in rows]
    assert widths == sorted(widths)  # tighter targets need wider codewords
    record_table(
        "E5b",
        "Codeword design for Warren's 3M-fact KB (analytic sizing tool)",
        ("false-drop target", "width bits", "k", "entry bytes", "index MB", "ghosts / full scan"),
        rows,
        notes=f"optimal k rule: k = b ln2 / r; r={record_keys} keys per fact, "
        f"{query_keys}-key queries",
    )


def test_bench_size_ratio_sweep():
    clause_file = _clause_file()
    data_bytes = clause_file.size_bytes()
    queries = [clause_file.decode_clause(i * 53).head for i in range(8)]

    def sweep():
        rows = []
        for width in (32, 64, 96, 128, 256):
            scheme = CodewordScheme(width=width, bits_per_key=2)
            index = SecondaryIndexFile.build(clause_file, scheme)
            index_bytes = index.size_bytes()
            candidates = 0
            for query in queries:
                candidates += len(index.scan(scheme.query_codeword(query)))
            selectivity = candidates / (len(queries) * len(clause_file))
            rows.append(
                (
                    width,
                    index_bytes,
                    data_bytes,
                    round(data_bytes / index_bytes, 1),
                    round(100 * selectivity, 3),
                )
            )
        return rows

    rows = sweep()
    for width, index_bytes, total_bytes, ratio, _ in rows:
        if width <= 128:
            assert index_bytes < total_bytes, "index must be smaller than data"
    # Selectivity improves (or holds) as the codeword widens.
    drops = [row[4] for row in rows]
    assert drops[0] >= drops[-1]
    record_table(
        "E5",
        "Secondary file vs compiled clause file size (codeword sweep)",
        ("width bits", "index bytes", "data bytes", "data/index", "candidates %"),
        rows,
        notes="scan volume saved by FS1 = data bytes - index bytes "
        "(plus only candidate clauses fetched afterwards)",
    )
