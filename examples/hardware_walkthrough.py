"""Drive the FS2 hardware model at register level.

Follows the host protocol of paper section 3: select FS2 on the control
register, load the microprogram, set the query, run a search, read the
Result Memory — and prints the Table 1 timings recomputed from the
datapath routes along the way.

Run with::

    python examples/hardware_walkthrough.py
"""

from repro.fs2 import (
    OperationalMode,
    SecondStageFilter,
    assemble_search_program,
    table1,
    worst_case_rate_bytes_per_sec,
)
from repro.pif import ClauseFile, CompiledClause, PIFDecoder, SymbolTable
from repro.terms import clause_from_term, read_term


def main() -> None:
    print("=== Table 1: FS2 operation times from the datapath model ===")
    for figure, op_name, time_ns in table1():
        print(f"  figure {figure:>2}  {op_name:<24} {time_ns:>4} ns")
    rate = worst_case_rate_bytes_per_sec() / 1e6
    print(f"  worst-case filter rate: {rate:.2f} Mbytes/s (vs ~2 MB/s disk)\n")

    print("=== Host protocol ===")
    symbols = SymbolTable()
    clause_file = ClauseFile(("flight", 3), symbols)
    for text in [
        "flight(edi, lhr, ba1445)",
        "flight(edi, cdg, af1234)",
        "flight(X, X, shuttle)",
        "flight(gla, lhr, ba1478)",
    ]:
        clause_file.append(clause_from_term(read_term(text)))

    fs2 = SecondStageFilter(symbols)
    print(f"control register after reset: {fs2.control!r}")

    program = assemble_search_program()
    fs2.load_microprogram(program)
    print(
        f"microprogram loaded: {len(program)} words of "
        f"{64} bits (mode = {fs2.control.mode.name})"
    )

    query = read_term("flight(edi, Where, Flight)")
    fs2.set_query(query)
    print(f"query set: {query} (mode = {fs2.control.mode.name})")

    records = [bytes(clause_file.record_bytes(i)) for i in range(len(clause_file))]
    stats = fs2.search(records)
    print(f"search done (mode = {fs2.control.mode.name})")
    print(f"  clauses examined : {stats.clauses_examined}")
    print(f"  satisfiers       : {stats.satisfiers}")
    print(f"  micro cycles     : {stats.micro_cycles}")
    print(f"  op counts        : "
          + ", ".join(f"{op.name}={n}" for op, n in sorted(stats.op_counts.items())))
    print(f"  TUE op time      : {stats.op_time_ns} ns")
    print(f"  match-found bit  : b7 = {int(fs2.control.match_found)}")

    assert fs2.control.mode != OperationalMode.READ_RESULT
    decoder = PIFDecoder(symbols)
    print("\nResult Memory contents (Read Result mode):")
    for record in fs2.read_results():
        compiled, _ = CompiledClause.from_bytes(record, ("flight", 3))
        print("  ", decoder.decode_head(compiled.head_encoded))


if __name__ == "__main__":
    main()
