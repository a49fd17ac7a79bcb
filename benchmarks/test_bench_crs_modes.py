"""[E3] The four CRS searching modes across knowledge-base sizes.

Models end-to-end retrieval time (disk + FS1 + FS2 + host software) for
modes (a)-(d) on disk-resident predicates of growing size, for a
selective ground query and for the shared-variable query.  The shape to
reproduce: software-only scales worst; FS1 collapses the volume for
selective queries; FS2 is what saves shared-variable queries; the
two-stage pipeline is the best general choice at scale.
"""

from repro.crs import ClauseRetrievalServer, SearchMode
from repro.disk import FUJITSU_M2351A, MICROPOLIS_1325, DiskSim
from repro.scw import CodewordScheme
from repro.storage import KnowledgeBase, Residency
from repro.terms import read_term
from repro.workloads import FactKBSpec, generate_couples, generate_facts
from tables import record_table

SIZES = (200, 1000, 4000)


def _kb_of_size(count: int) -> tuple[KnowledgeBase, object]:
    kb = KnowledgeBase()
    # Structure-heavy records: realistic clause sizes make the index file
    # much smaller than the clause file, which is FS1's whole premise.
    clauses = generate_facts(
        FactKBSpec(
            functor="rec", arity=3, count=count, structure_fraction=0.8,
            domain_sizes=(count // 10, count // 10, count // 10), seed=29,
        )
    )
    kb.consult_clauses(clauses, module="data")
    kb.module("data").pin(Residency.DISK)
    kb.sync_to_disk()
    return kb, clauses[count // 2].head


def test_bench_modes_vs_kb_size():
    unify_ns = ClauseRetrievalServer(KnowledgeBase()).cost_model.unify_per_candidate_ns

    def sweep():
        rows = []
        for count in SIZES:
            kb, query = _kb_of_size(count)
            crs = ClauseRetrievalServer(kb)
            times = {}
            candidates = {}
            for mode in SearchMode:
                result = crs.retrieve(query, mode=mode)
                # End-to-end: filtering plus host full unification over the
                # surviving candidates.
                times[mode] = (
                    result.stats.filter_time_s
                    + len(result.candidates) * unify_ns / 1e9
                ) * 1e3
                candidates[mode] = len(result.candidates)
            winner = min(times, key=times.get)
            rows.append(
                (
                    count,
                    round(times[SearchMode.SOFTWARE], 2),
                    round(times[SearchMode.FS1_ONLY], 2),
                    round(times[SearchMode.FS2_ONLY], 2),
                    round(times[SearchMode.BOTH], 2),
                    winner.value,
                    candidates[SearchMode.BOTH],
                )
            )
        return rows

    rows = sweep()
    record_table(
        "E3",
        "Modelled retrieval time (ms) per CRS mode vs KB size "
        "(selective ground query)",
        ("clauses", "software", "fs1", "fs2", "fs1+fs2", "winner", "final cands"),
        rows,
    )
    largest = rows[-1]
    # At scale, software-only must be the slowest of the four.
    assert largest[1] == max(largest[1:5])
    # And the hardware winner's candidates are few.
    assert largest[6] <= 5


def test_bench_modes_shared_variable_query():
    def shared_sweep():
        rows = []
        for count in SIZES:
            kb = KnowledgeBase()
            kb.consult_clauses(
                generate_couples(count=count, same_surname_fraction=0.05, seed=3),
                module="data",
            )
            kb.module("data").pin(Residency.DISK)
            kb.sync_to_disk()
            crs = ClauseRetrievalServer(kb)
            query = read_term("married_couple(S, S)")
            fs1 = crs.retrieve(query, mode=SearchMode.FS1_ONLY)
            fs2 = crs.retrieve(query, mode=SearchMode.FS2_ONLY)
            rows.append(
                (
                    count,
                    len(fs1.candidates),
                    len(fs2.candidates),
                    round(fs1.stats.filter_time_s * 1e3, 2),
                    round(fs2.stats.filter_time_s * 1e3, 2),
                )
            )
        return rows

    rows = shared_sweep()
    for count, fs1_candidates, fs2_candidates, _, _ in rows:
        assert fs1_candidates == count  # FS1 is blind to shared variables
        assert fs2_candidates < count * 0.15
    record_table(
        "E3b",
        "Shared-variable query: candidate volume per mode vs KB size",
        ("clauses", "fs1 candidates", "fs2 candidates", "fs1 ms", "fs2 ms"),
        rows,
        notes="mode (c)/(d) selection for cross-bound queries, section 2.2",
    )


WIDE_CLAUSES = 5000
WIDE_CANDIDATES = (1, 5, 20, 100, 500)
WIDE_DRIVES = (FUJITSU_M2351A, MICROPOLIS_1325)


def _short(drive) -> str:
    return drive.name.split(" (")[0]


def _wide_kb(drive) -> KnowledgeBase:
    """5 000 records; group ``cN`` tags N of them, evenly scattered."""
    group_of = {}
    for wanted in WIDE_CANDIDATES:
        stride = WIDE_CLAUSES // wanted
        for k in range(wanted):
            slot = k * stride + stride // 2
            while slot in group_of:
                slot += 1
            group_of[slot] = f"c{wanted}"
    # Few filler values, and a payload nested below the depth the SCW
    # encodes (bytes on disk, no codeword bits), keep FS1 false drops
    # from swamping the candidate column; the file is ~7x the M2351A's
    # break-even gap, so a sparse candidate set still has to reposition.
    text = " ".join(
        "rec(k{0}, {1}, w(w(w(w([a{3}, b{4}, c{2}, d{3}, e{4}, f{2}, g{3}, h{4}]))))).".format(
            i, group_of.get(i, f"o{i % 5}"), i % 89, i % 13, i % 7
        )
        for i in range(WIDE_CLAUSES)
    )
    # The prototype's k = 2: these rows are the mode planner's evidence.
    kb = KnowledgeBase(disk=DiskSim(drive), scheme=CodewordScheme(bits_per_key=2))
    kb.consult_text(text, module="data")
    kb.module("data").pin(Residency.DISK)
    kb.sync_to_disk()
    return kb


def _per_record_seek_s(drive, offsets) -> float:
    """What the fetch cost when every non-adjacent record paid an access."""
    cost, previous_end = 0.0, None
    for start, length in offsets:
        if start != previous_end:
            cost += drive.access_time_s()
        cost += drive.transfer_time_s(length)
        previous_end = start + length
    return cost


def test_bench_wide_result_fetch_schedule():
    """E3c: the two-stage fetch as FS1's candidate set widens.

    The disk driver serves FS1's candidates as read-through runs, so
    ``fs1+fs2`` degrades towards (index read + full stream) as the
    result widens instead of paying one average seek per candidate.
    """

    def sweep():
        rows = []
        for drive in WIDE_DRIVES:
            kb = _wide_kb(drive)
            crs = ClauseRetrievalServer(kb)
            store = kb.store(("rec", 3))
            index_ms = drive.read_time_s(store.index.size_bytes()) * 1e3
            for wanted in WIDE_CANDIDATES:
                goal = read_term(f"rec(K, c{wanted}, V)")
                both = crs.retrieve(goal, mode=SearchMode.BOTH).stats
                full = crs.retrieve(goal, mode=SearchMode.FS2_ONLY).stats
                fs1 = crs.fs1.search(store.index, goal)
                offsets = [
                    (address, store.clause_file.record_span(address)[1])
                    for address in fs1.candidate_addresses
                ]
                _, fetch = kb.disk.stream_records(store.extent_name(), offsets)
                old_disk_s = (
                    both.disk_time_s
                    - fetch.total_time_s
                    + _per_record_seek_s(drive, offsets)
                )
                old_ms = 1e3 * (
                    max(old_disk_s, both.fs1_time_s + both.fs2_time_s)
                    + both.software_time_s
                )
                both_ms = both.filter_time_s * 1e3
                full_ms = full.filter_time_s * 1e3
                # The bound the planner relies on: however wide the
                # result, two-stage <= index read + full clause stream.
                assert both_ms <= full_ms + index_ms
                rows.append(
                    (
                        _short(drive),
                        both.fs1_candidates,
                        fetch.seeks,
                        round(fetch.bytes_skipped / 1000, 1),
                        round(both_ms, 2),
                        round(full_ms, 2),
                        round(old_ms, 2),
                    )
                )
        return rows

    rows = sweep()
    break_even = ", ".join(
        "{}: {:.1f} KB".format(
            _short(drive),
            drive.access_time_s() * drive.transfer_rate_bytes_per_sec / 1000,
        )
        for drive in WIDE_DRIVES
    )
    record_table(
        "E3c",
        "Wide results: two-stage fetch scheduled as read-through runs "
        f"({WIDE_CLAUSES}-clause predicate, modelled filter ms)",
        (
            "drive", "fs1 cands", "seeks", "skipped KB",
            "fs1+fs2", "fs2", "per-record-seek fs1+fs2",
        ),
        rows,
        notes="break-even gap (access time x transfer rate) = " + break_even,
    )
    for row in rows:
        # Never worse than the per-record-seek schedule; equal only
        # while every gap is past break-even.
        assert row[4] <= row[6]
    widest = [row for row in rows if row[1] >= 500]
    assert all(row[2] == 1 and row[6] > 20 * row[4] for row in widest)
