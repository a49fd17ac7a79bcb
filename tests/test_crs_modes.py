"""Tests for the CRS search modes, including the mode-equivalence invariant."""

import pytest

from repro.crs import ClauseRetrievalServer, SearchMode, select_mode
from repro.storage import KnowledgeBase, Residency
from repro.terms import read_term
from repro.workloads import (
    FactKBSpec,
    generate_couples,
    generate_facts,
    ground_query_for,
    open_query,
    shared_variable_query,
)

ALL_MODES = list(SearchMode)


@pytest.fixture(scope="module")
def fact_kb():
    kb = KnowledgeBase()
    clauses = generate_facts(
        FactKBSpec(functor="rec", arity=3, count=300, seed=7)
    )
    kb.consult_clauses(clauses, module="data")
    kb.module("data").pin(Residency.DISK)
    kb.sync_to_disk()
    return kb


@pytest.fixture(scope="module")
def couples_kb():
    kb = KnowledgeBase()
    kb.consult_clauses(
        generate_couples(count=200, same_surname_fraction=0.1, seed=3),
        module="data",
    )
    kb.module("data").pin(Residency.DISK)
    kb.sync_to_disk()
    return kb


class TestModeCandidates:
    def test_all_modes_find_the_answer(self, fact_kb):
        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=1)
        for mode in ALL_MODES:
            result = crs.retrieve(query, mode=mode)
            assert any(
                clause.head == query for clause in result.candidates
            ), f"mode {mode} lost the exact-match clause"

    def test_mode_equivalence_final_answers(self, fact_kb):
        """All four modes yield the same resolvent set after unification."""
        crs = ClauseRetrievalServer(fact_kb)
        for seed in range(5):
            query = ground_query_for(
                fact_kb.clauses(("rec", 3)), seed=seed, bound_arguments=2
            )
            reference = None
            for mode in ALL_MODES:
                answers = {
                    str(clause) for clause, _ in crs.solutions(query, mode=mode)
                }
                if reference is None:
                    reference = answers
                else:
                    assert answers == reference, f"mode {mode} diverged"

    def test_filters_reduce_candidates(self, fact_kb):
        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=2)
        software = crs.retrieve(query, mode=SearchMode.SOFTWARE)
        fs1 = crs.retrieve(query, mode=SearchMode.FS1_ONLY)
        both = crs.retrieve(query, mode=SearchMode.BOTH)
        total = software.stats.clauses_total
        assert len(fs1) < total
        assert len(both) <= len(fs1)

    def test_fs2_candidates_subset_of_fs1(self, fact_kb):
        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=3)
        fs1 = {str(c) for c in crs.retrieve(query, mode=SearchMode.FS1_ONLY).candidates}
        both = {str(c) for c in crs.retrieve(query, mode=SearchMode.BOTH).candidates}
        assert both <= fs1

    def test_shared_variable_query_fs1_blind(self, couples_kb):
        """married_couple(S,S): FS1 retrieves everything, FS2 filters."""
        crs = ClauseRetrievalServer(couples_kb)
        query = shared_variable_query("married_couple")
        fs1 = crs.retrieve(query, mode=SearchMode.FS1_ONLY)
        fs2 = crs.retrieve(query, mode=SearchMode.FS2_ONLY)
        assert len(fs1) == fs1.stats.clauses_total  # total false-drop blow-up
        assert len(fs2) < len(fs1)
        # FS2's candidates are exactly the same-surname couples.
        answers = crs.solutions(query, mode=SearchMode.FS2_ONLY)
        assert len(fs2) == len(answers)

    def test_rules_survive_every_mode(self):
        kb = KnowledgeBase()
        kb.consult_text(
            "anc(X, Y) :- parent(X, Y). anc(tom, X) :- special(X). "
            "anc(a, b). anc(c, d)."
        )
        kb.module("user").pin(Residency.DISK)
        kb.sync_to_disk()
        crs = ClauseRetrievalServer(kb)
        for mode in ALL_MODES:
            result = crs.retrieve(read_term("anc(tom, X)"), mode=mode)
            kept = {str(c.head) for c in result.candidates}
            assert "anc(X,Y)" in kept
            assert "anc(tom,X)" in kept


class TestStats:
    def test_software_stats(self, fact_kb):
        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=4)
        stats = crs.retrieve(query, mode=SearchMode.SOFTWARE).stats
        assert stats.clauses_total == 300
        assert stats.software_time_s > 0
        assert stats.disk_time_s > 0  # disk resident: full file read
        assert stats.filter_time_s >= stats.software_time_s

    def test_fs1_stats(self, fact_kb):
        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=5)
        stats = crs.retrieve(query, mode=SearchMode.FS1_ONLY).stats
        assert stats.fs1_candidates is not None
        assert stats.fs1_time_s > 0
        assert stats.software_time_s == 0

    def test_fs2_stats(self, fact_kb):
        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=6)
        stats = crs.retrieve(query, mode=SearchMode.FS2_ONLY).stats
        assert stats.fs2_time_s > 0
        assert stats.fs2_search_calls >= 1
        assert stats.selectivity <= 1.0

    def test_memory_resident_no_disk_time(self):
        kb = KnowledgeBase()
        kb.consult_text("p(a). p(b).")
        crs = ClauseRetrievalServer(kb)
        stats = crs.retrieve(read_term("p(a)"), mode=SearchMode.SOFTWARE).stats
        assert stats.disk_time_s == 0
        assert stats.residency == Residency.MEMORY

    def test_hardware_modes_outpace_software_on_large_kb(self):
        """The modelled times must show CLARE's advantage (who-wins).

        On tiny predicates fixed seek costs dominate and software wins
        (that is why the planner keeps them in software); the hardware
        advantage must emerge at scale.
        """
        kb = KnowledgeBase()
        clauses = generate_facts(
            FactKBSpec(functor="big", arity=3, count=3000, seed=11)
        )
        kb.consult_clauses(clauses, module="data")
        kb.module("data").pin(Residency.DISK)
        kb.sync_to_disk()
        crs = ClauseRetrievalServer(kb)
        query = ground_query_for(clauses, seed=7)
        software = crs.retrieve(query, mode=SearchMode.SOFTWARE).stats
        both = crs.retrieve(query, mode=SearchMode.BOTH).stats
        assert both.filter_time_s < software.filter_time_s


class TestResultMemoryOverflow:
    """The 64-satisfier Result Memory limit, end to end."""

    def overflow_kb(self, count=150):
        # Every record matches the open query: one raw search call over
        # the whole predicate would capture more satisfiers than the
        # 6-bit counter allows.
        kb = KnowledgeBase()
        kb.consult_text(
            " ".join(f"hot(k{n}, v). " for n in range(count)), module="data"
        )
        kb.module("data").pin(Residency.DISK)
        kb.sync_to_disk()
        return kb

    def test_streaming_batches_avoid_overflow(self):
        from repro.fs2 import MAX_SATISFIERS

        kb = self.overflow_kb(150)
        crs = ClauseRetrievalServer(kb)
        result = crs.retrieve(read_term("hot(K, V)"), mode=SearchMode.FS2_ONLY)
        assert len(result) == 150  # nothing dropped
        assert result.stats.fs2_search_calls >= -(-150 // MAX_SATISFIERS)

    def test_both_mode_survives_all_matching_track(self):
        kb = self.overflow_kb(150)
        crs = ClauseRetrievalServer(kb)
        result = crs.retrieve(read_term("hot(K, V)"), mode=SearchMode.BOTH)
        assert len(result) == 150
        assert result.stats.fs2_search_calls >= 3

    def test_raw_search_call_overflows(self):
        # The hardware limit is real: bypass the CRS batching and feed
        # one oversized call straight to FS2.
        from repro.fs2 import MAX_SATISFIERS, ResultMemoryFull, SecondStageFilter

        kb = self.overflow_kb(MAX_SATISFIERS + 1)
        store = kb.store(("hot", 2))
        records = [
            store.clause_file.record_bytes(position)
            for position in range(len(store.clause_file))
        ]
        fs2 = SecondStageFilter(kb.symbols)
        fs2.load_microprogram()
        fs2.set_query(read_term("hot(K, V)"))
        with pytest.raises(ResultMemoryFull):
            fs2.search(records, indicator=("hot", 2))


class TestSelectiveFetchCost:
    def test_fetch_does_not_reserialise_the_file(self, fact_kb, monkeypatch):
        """FS1's selective fetch is O(candidates), not O(predicate).

        The address table is maintained incrementally by the clause
        file, so a retrieval must not write a record (``clause_record``,
        the one record writer) at all — the old code re-serialised all
        300 records per call.
        """
        from repro.pif import clausefile

        crs = ClauseRetrievalServer(fact_kb)
        query = ground_query_for(fact_kb.clauses(("rec", 3)), seed=2)
        calls = 0
        original = clausefile.clause_record

        def counting(clause, symbols):
            nonlocal calls
            calls += 1
            return original(clause, symbols)

        monkeypatch.setattr(clausefile, "clause_record", counting)
        result = crs.retrieve(query, mode=SearchMode.FS1_ONLY)
        assert len(result) >= 1
        assert calls == 0


class TestPlanner:
    def kb_with(self, texts, pin=Residency.DISK, module="data"):
        kb = KnowledgeBase()
        kb.consult_text(" ".join(texts), module=module)
        kb.module(module).pin(pin)
        return kb

    def test_small_predicate_software(self):
        kb = self.kb_with(["p(a).", "p(b)."])
        mode = select_mode(
            read_term("p(a)"), kb.store(("p", 1)), kb.residency(("p", 1))
        )
        assert mode == SearchMode.SOFTWARE

    def test_memory_resident_software(self):
        kb = self.kb_with(
            [f"p(a{i})." for i in range(100)], pin=Residency.MEMORY
        )
        mode = select_mode(
            read_term("p(a1)"), kb.store(("p", 1)), Residency.MEMORY
        )
        assert mode == SearchMode.SOFTWARE

    def test_ground_query_fact_kb_fs1(self):
        kb = self.kb_with([f"p(a{i})." for i in range(100)])
        mode = select_mode(
            read_term("p(a5)"), kb.store(("p", 1)), Residency.DISK
        )
        assert mode == SearchMode.FS1_ONLY

    def test_shared_variables_force_fs2(self):
        kb = self.kb_with([f"p(a{i}, b{i})." for i in range(100)])
        store = kb.store(("p", 2))
        pure_shared = shared_variable_query("p")
        assert select_mode(pure_shared, store, Residency.DISK) == SearchMode.FS2_ONLY

    def test_shared_plus_constants_both(self):
        kb = self.kb_with([f"p(a{i}, b{i}, c)." for i in range(100)])
        store = kb.store(("p", 3))
        query = read_term("p(S, S, c)")
        assert select_mode(query, store, Residency.DISK) == SearchMode.BOTH

    def test_open_query_software(self):
        kb = self.kb_with([f"p(a{i})." for i in range(100)])
        mode = select_mode(
            open_query("p", 1), kb.store(("p", 1)), Residency.DISK
        )
        assert mode == SearchMode.SOFTWARE

    def test_partial_query_rule_kb_both(self):
        kb = self.kb_with(
            [f"p(a{i}, b{i}) :- q(a{i})." for i in range(50)]
            + [f"p(c{i}, d{i})." for i in range(50)]
        )
        mode = select_mode(
            read_term("p(a1, X)"), kb.store(("p", 2)), Residency.DISK
        )
        assert mode == SearchMode.BOTH

    def test_fact_fraction_threshold_tracks_every_kind_of_update(self):
        """The 0.9 fact-fraction cut reads a running count; appends,
        asserta and retract (which rebuild the file) must all move it
        exactly as a walk over the records would."""
        def walked(store):
            return sum(1 for r in store.clause_file if r.is_fact) / len(store)

        goal = read_term("p(a1)")
        kb = self.kb_with(
            [f"p(a{i})." for i in range(90)]
            + [f"p(r{i}) :- q(r{i})." for i in range(10)]
        )
        store = kb.store(("p", 1))
        assert store.fact_count / len(store) == walked(store) == 0.9
        assert select_mode(goal, store, Residency.DISK) == SearchMode.BOTH
        kb.assertz(read_term("p(extra)"))  # 91 / 101 > 0.9
        assert store.fact_count / len(store) == walked(store)
        assert select_mode(goal, store, Residency.DISK) == SearchMode.FS1_ONLY
        kb.asserta(read_term("p(front) :- q(front)"))  # 91 / 102 < 0.9
        assert store.fact_count / len(store) == walked(store)
        assert select_mode(goal, store, Residency.DISK) == SearchMode.BOTH
        assert kb.retract(read_term("p(front) :- q(front)"))
        assert kb.retract(read_term("p(r0) :- q(r0)"))  # 91 / 100
        assert store.fact_count / len(store) == walked(store)
        assert select_mode(goal, store, Residency.DISK) == SearchMode.FS1_ONLY

    def test_cluster_planner_sums_the_shards_fact_counts(self):
        from repro.cluster import ShardedRetrievalServer

        texts = [f"p(a{i})." for i in range(91)] + [
            f"p(r{i}) :- q(r{i})." for i in range(9)
        ]
        kb = self.kb_with(texts, module="user")
        cluster = ShardedRetrievalServer(3, "first_arg")
        cluster.consult_text(" ".join(texts))
        cluster.pin_module("user", Residency.DISK)
        for goal in (read_term("p(a1)"), read_term("p(X)")):
            assert cluster._plan_mode(goal) == select_mode(
                goal, kb.store(("p", 1)), Residency.DISK
            )
        assert cluster._plan_mode(read_term("p(a1)")) == SearchMode.FS1_ONLY
        cluster.assertz(read_term("p(r9) :- q(r9)"))  # 91 / 101 > 0.9 still
        cluster.assertz(read_term("p(r10) :- q(r10)"))  # 91 / 102 < 0.9
        assert cluster._plan_mode(read_term("p(a1)")) == SearchMode.BOTH

    def test_machine_uses_planner(self):
        from repro.engine import PrologMachine

        kb = self.kb_with([f"p(a{i})." for i in range(100)])
        kb.sync_to_disk()
        machine = PrologMachine(kb)
        assert machine.succeeds("p(a5)")
        assert SearchMode.FS1_ONLY in machine.stats.mode_uses
