"""Segment round-trips: mmap-attached shards equal their source KB.

The multi-core data plane works only if :func:`repro.parallel.write_segments`
followed by :func:`repro.parallel.attach_kb` is a faithful, zero-copy
reconstruction: byte-identical clause records, an FS1 index whose packed
columns select exactly the entries the builder's did, and a
:class:`~repro.crs.ClauseRetrievalServer` whose candidates *and modelled
stats* cannot be told apart from one over the original knowledge base.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crs import ClauseRetrievalServer, SearchMode
from repro.parallel import SharedKnowledgeBase, attach_kb, write_segments
from repro.storage import KnowledgeBase, Residency
from repro.terms import Atom, Clause, Struct, Var, read_term
from tests.strategies import clause_heads

PROGRAM = """
edge(a, b). edge(b, c). edge(c, d). edge(a, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
likes(mary, wine). likes(john, X) :- likes(X, wine).
wide(a, b, c, d, e, f, g, h, i, j, k, l, m, n).
"""

ALL_MODES = list(SearchMode)


def build_kb(text: str = PROGRAM) -> KnowledgeBase:
    kb = KnowledgeBase()
    kb.consult_text(text)
    return kb


@pytest.fixture()
def roundtrip(tmp_path):
    kb = build_kb()
    write_segments(kb, tmp_path / "seg")
    shared = attach_kb(tmp_path / "seg")
    yield kb, shared
    shared.close()


class TestClauseFileFidelity:
    def test_record_images_are_byte_identical(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator).clause_file
            attached = shared.store(indicator).clause_file
            assert len(attached) == len(original)
            assert attached.to_bytes() == original.to_bytes()
            assert attached.record_addresses() == original.record_addresses()
            assert attached.record_lengths() == original.record_lengths()
            for position in range(len(original)):
                assert bytes(attached.record_bytes(position)) == bytes(
                    original.record_bytes(position)
                )
                assert attached.record(position) == original.record(position)

    def test_fact_count_matches_without_a_walk_at_attach(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator)
            attached = shared.store(indicator)
            assert "fact_count" not in vars(attached.clause_file)  # lazy
            assert attached.fact_count == original.fact_count
            assert attached.fact_count == sum(
                1 for record in attached.clause_file if record.is_fact
            )

    def test_decoded_clauses_survive(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator).clause_file
            attached = shared.store(indicator).clause_file
            for position in range(len(original)):
                assert str(attached.decode_clause(position)) == str(
                    original.decode_clause(position)
                )

    def test_shared_files_are_immutable(self, roundtrip):
        _, shared = roundtrip
        clause_file = shared.store(("edge", 2)).clause_file
        with pytest.raises(TypeError):
            clause_file.append(Clause(Struct("edge", (Atom("x"), Atom("y")))))

    def test_record_bytes_is_a_view_not_a_copy(self, roundtrip):
        _, shared = roundtrip
        clause_file = shared.store(("edge", 2)).clause_file
        record = clause_file.record_bytes(0)
        assert isinstance(record, memoryview)


class TestIndexFidelity:
    def test_packed_columns_scan_like_the_builder(self, roundtrip):
        kb, shared = roundtrip
        queries = [
            read_term("edge(a, X)"),
            read_term("edge(X, Y)"),
            read_term("likes(X, wine)"),
            read_term("path(a, Z)"),
        ]
        for goal in queries:
            indicator = (goal.functor, goal.arity)
            original = kb.store(indicator).index
            attached = shared.store(indicator).index
            codeword = original.scheme.query_codeword(goal)
            assert attached.scan(codeword) == original.scan(codeword)
            assert attached.bitsliced.scan(codeword) == original.bitsliced.scan(
                codeword
            )

    def test_entry_rows_parse_identically(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator).index
            attached = shared.store(indicator).index
            assert len(attached) == len(original)
            mask_field = (1 << (original.scheme.mask_bytes * 8)) - 1
            for position in range(len(original)):
                theirs = original.entry_at(position)
                ours = attached.entry_at(position)
                # arg_bits are a builder-side derivation the serialised
                # row drops by design; matching reads only bits + mask.
                assert ours.address == theirs.address
                assert ours.codeword.bits == theirs.codeword.bits
                assert ours.codeword.mask == theirs.codeword.mask & mask_field

    def test_shared_index_rejects_writes(self, roundtrip):
        _, shared = roundtrip
        index = shared.store(("edge", 2)).index
        with pytest.raises(TypeError):
            index.add(Struct("edge", (Atom("x"), Atom("y"))), 0)


def result_fingerprint(result):
    return (
        sorted(str(c) for c in result.candidates),
        dataclasses.astuple(result.stats),
    )


class TestRetrievalEquivalence:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_candidates_and_stats_match_per_mode(self, tmp_path, mode):
        kb = build_kb()
        write_segments(kb, tmp_path / "seg")
        shared = attach_kb(tmp_path / "seg")
        try:
            original = ClauseRetrievalServer(kb, cache_size=0)
            attached = ClauseRetrievalServer(shared, cache_size=0)
            for goal_text in ("edge(a, X)", "edge(X, Y)", "likes(X, wine)"):
                goal = read_term(goal_text)
                expected = result_fingerprint(original.retrieve(goal, mode=mode))
                got = result_fingerprint(attached.retrieve(goal, mode=mode))
                assert got == expected, goal_text
        finally:
            shared.close()

    def test_disk_residency_times_match(self, tmp_path):
        kb = build_kb()
        write_segments(kb, tmp_path / "seg")
        shared = attach_kb(tmp_path / "seg")
        try:
            for store in (kb, shared):
                store.module("user").pin(Residency.DISK)
                store.sync_to_disk()
            original = ClauseRetrievalServer(kb, cache_size=0)
            attached = ClauseRetrievalServer(shared, cache_size=0)
            goal = read_term("edge(a, X)")
            expected = original.retrieve(goal)
            got = attached.retrieve(goal)
            assert result_fingerprint(got) == result_fingerprint(expected)
            assert got.stats.disk_time_s == expected.stats.disk_time_s
        finally:
            shared.close()


class TestCopyOnWriteMutation:
    def test_add_clause_materializes_privately(self, tmp_path):
        kb = build_kb()
        write_segments(kb, tmp_path / "seg")
        shared = attach_kb(tmp_path / "seg")
        try:
            before = (tmp_path / "seg").glob("*")
            images = {p.name: p.read_bytes() for p in before if p.is_file()}
            shared.add_clause(Clause(Struct("edge", (Atom("d"), Atom("e")))))
            server = ClauseRetrievalServer(shared, cache_size=0)
            result = server.retrieve(read_term("edge(d, X)"))
            assert sorted(str(c) for c in result.candidates) == ["edge(d,e)."]
            # the segment files on disk are never written after export
            for path in (tmp_path / "seg").glob("*"):
                if path.is_file():
                    assert path.read_bytes() == images[path.name], path.name
        finally:
            shared.close()

    def test_asserta_and_retract_work_on_shared_stores(self, tmp_path):
        kb = build_kb()
        write_segments(kb, tmp_path / "seg")
        shared = attach_kb(tmp_path / "seg")
        try:
            shared.asserta(Clause(Struct("edge", (Atom("zz"), Atom("a")))))
            removed = shared.retract_matching(
                Clause(Struct("edge", (Atom("a"), Var("Q"))))
            )
            assert removed is not None
            server = ClauseRetrievalServer(shared, cache_size=0)
            result = server.retrieve(read_term("edge(X, Y)"))
            mirror = build_kb()
            mirror.asserta(Clause(Struct("edge", (Atom("zz"), Atom("a")))))
            mirror.retract_matching(Clause(Struct("edge", (Atom("a"), Var("Q")))))
            expected = ClauseRetrievalServer(mirror, cache_size=0).retrieve(
                read_term("edge(X, Y)")
            )
            assert sorted(str(c) for c in result.candidates) == sorted(
                str(c) for c in expected.candidates
            )
        finally:
            shared.close()


class TestRoundTripProperty:
    @given(
        heads=st.lists(
            clause_heads(functor="p", arity=3), min_size=1, max_size=12
        ),
        goal=clause_heads(functor="p", arity=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_kb_round_trips(self, tmp_path_factory, heads, goal):
        kb = KnowledgeBase()
        kb.consult_clauses([Clause(head=h) for h in heads])
        directory = tmp_path_factory.mktemp("seg")
        write_segments(kb, directory)
        shared = attach_kb(directory)
        try:
            assert isinstance(shared, SharedKnowledgeBase)
            original = ClauseRetrievalServer(kb, cache_size=0)
            attached = ClauseRetrievalServer(shared, cache_size=0)
            for mode in ALL_MODES:
                expected = result_fingerprint(original.retrieve(goal, mode=mode))
                got = result_fingerprint(attached.retrieve(goal, mode=mode))
                assert got == expected, mode
        finally:
            shared.close()
