"""Segment round-trips: mmap-attached shards equal their source KB.

The multi-core data plane works only if :func:`repro.parallel.write_segments`
followed by :func:`repro.parallel.attach_kb` is a faithful, zero-copy
reconstruction: byte-identical clause records, an FS1 index whose packed
columns select exactly the entries the builder's did, and a
:class:`~repro.crs.ClauseRetrievalServer` whose candidates *and modelled
stats* cannot be told apart from one over the original knowledge base.
The attached stores are the ordinary :class:`~repro.pif.ClauseFile` and
:class:`~repro.scw.SecondaryIndexFile` wrapped around the maps; a
mutation copies the touched predicate off the map first.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crs import ClauseRetrievalServer, SearchMode
from repro.parallel import (
    SegmentError,
    SharedKnowledgeBase,
    attach_kb,
    write_segments,
)
from repro.pif import ClauseFile
from repro.scw import SecondaryIndexFile
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


def segment_images(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


class TestClauseFileFidelity:
    def test_record_images_are_byte_identical(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator).clause_file
            attached = shared.store(indicator).clause_file
            assert type(attached) is ClauseFile  # one class, two buffers
            assert len(attached) == len(original)
            assert attached.to_bytes() == original.to_bytes()
            assert attached.size_bytes() == original.size_bytes()
            assert attached.record_addresses() == original.record_addresses()
            for position, address in enumerate(original.record_addresses()):
                assert attached.record_span(address) == original.record_span(
                    address
                )
                assert bytes(attached.record_bytes(position)) == bytes(
                    original.record_bytes(position)
                )
                assert attached.record(position) == original.record(position)

    def test_fact_count_matches_a_walk_of_the_records(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator)
            attached = shared.store(indicator)
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

    def test_shared_files_are_immutable(self, roundtrip, tmp_path):
        """Appending to an attached file copies it off the map: the
        segment on disk and every other attacher keep the old image."""
        kb, shared = roundtrip
        before = segment_images(tmp_path / "seg")
        clause_file = shared.store(("edge", 2)).clause_file
        assert clause_file._image.readonly
        clause_file.append(Clause(Struct("edge", (Atom("x"), Atom("y")))))
        assert len(clause_file) == len(kb.store(("edge", 2))) + 1
        assert segment_images(tmp_path / "seg") == before
        other = attach_kb(tmp_path / "seg")
        try:
            assert (
                other.store(("edge", 2)).clause_file.to_bytes()
                == kb.store(("edge", 2)).clause_file.to_bytes()
            )
        finally:
            other.close()

    def test_record_bytes_is_a_view_not_a_copy(self, roundtrip):
        _, shared = roundtrip
        clause_file = shared.store(("edge", 2)).clause_file
        record = clause_file.record_bytes(0)
        assert isinstance(record, memoryview)
        assert record.readonly


class TestIndexFidelity:
    def test_packed_columns_scan_like_the_builder(self, roundtrip):
        kb, shared = roundtrip
        queries = [
            read_term("edge(a, X)"),
            read_term("edge(X, Y)"),
            read_term("likes(X, wine)"),
            read_term("path(a, Z)"),
        ]
        for store in shared:
            assert store.index._packed is not None  # shipped, not re-derived
        for goal in queries:
            indicator = (goal.functor, goal.arity)
            original = kb.store(indicator).index
            attached = shared.store(indicator).index
            codeword = original.scheme.query_codeword(goal)
            assert attached.scan(codeword) == original.scan(codeword)
            assert attached.bitsliced.scan(codeword) == original.bitsliced.scan(
                codeword
            )
            assert (
                attached.bitsliced.packed_columns()
                == original.bitsliced.packed_columns()
            )

    def test_entry_rows_parse_identically(self, roundtrip):
        kb, shared = roundtrip
        for indicator in kb.predicates():
            original = kb.store(indicator).index
            attached = shared.store(indicator).index
            assert type(attached) is SecondaryIndexFile
            assert len(attached) == len(original)
            assert attached.to_bytes() == original.to_bytes()
            assert list(attached) == list(original)
            assert attached.record_addresses() == kb.store(
                indicator
            ).clause_file.record_addresses()

    def test_shared_index_rejects_writes(self, roundtrip, tmp_path):
        """The mapped rows cannot be written through; ``add`` copies
        them to the heap first and the segment keeps its image."""
        kb, shared = roundtrip
        before = segment_images(tmp_path / "seg")
        index = shared.store(("edge", 2)).index
        with pytest.raises(TypeError):
            index._rows[0] = 0xFF
        index.add(Struct("edge", (Atom("x"), Atom("y"))), 4096)
        assert len(index) == len(kb.store(("edge", 2)).index) + 1
        assert index.entry_at(len(index) - 1).address == 4096
        assert segment_images(tmp_path / "seg") == before

    def test_columns_follow_a_mutation_made_before_their_first_use(
        self, roundtrip
    ):
        """The shipped column image describes the rows as attached; a
        mutation that lands before FS1 ever ran must not resurrect it."""
        kb, shared = roundtrip
        for target in (kb, shared):
            target.asserta(Clause(Struct("edge", (Atom("zz"), Atom("a")))))
            target.retract(Clause(Struct("edge", (Atom("b"), Var("Q")))))
        original = kb.store(("edge", 2)).index
        attached = shared.store(("edge", 2)).index
        assert attached.to_bytes() == original.to_bytes()
        assert (
            attached.bitsliced.packed_columns()
            == original.bitsliced.packed_columns()
        )


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
            images = segment_images(tmp_path / "seg")
            untouched = shared.store(("path", 2)).clause_file
            shared.add_clause(Clause(Struct("edge", (Atom("d"), Atom("e")))))
            server = ClauseRetrievalServer(shared, cache_size=0)
            result = server.retrieve(read_term("edge(d, X)"))
            assert sorted(str(c) for c in result.candidates) == ["edge(d,e)."]
            # the touched predicate left the map; the others still read it
            assert isinstance(
                shared.store(("edge", 2)).clause_file.record_bytes(0), bytes
            )
            assert isinstance(untouched.record_bytes(0), memoryview)
            # the segment files on disk are never written after export
            assert segment_images(tmp_path / "seg") == images
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
            # not just the same answers: the same files, byte for byte
            ours, theirs = shared.store(("edge", 2)), mirror.store(("edge", 2))
            assert ours.clause_file.to_bytes() == theirs.clause_file.to_bytes()
            assert ours.index.to_bytes() == theirs.index.to_bytes()
            assert ours.fact_count == theirs.fact_count
        finally:
            shared.close()


class TestMalformedSegments:
    """Hostile segment bytes raise :class:`SegmentError` at attach —
    never a hang, a bare ``IndexError`` or a silently wrong store."""

    @pytest.fixture()
    def segments(self, tmp_path):
        write_segments(build_kb(), tmp_path / "seg")
        return tmp_path / "seg"

    def corrupt(self, path, edit):
        image = bytearray(path.read_bytes())
        edit(image)
        path.write_bytes(bytes(image))

    def test_zero_length_record(self, segments):
        self.corrupt(segments / "edge_2.clauses", lambda b: b.__setitem__(
            slice(0, 2), b"\x00\x00"))
        with pytest.raises(SegmentError, match="edge_2.clauses"):
            attach_kb(segments)

    def test_truncated_trailing_header(self, segments):
        self.corrupt(segments / "edge_2.clauses", lambda b: b.extend(b"\x00\x09"))
        with pytest.raises(SegmentError, match="edge_2.clauses"):
            attach_kb(segments)

    def test_inflated_record_length(self, segments):
        self.corrupt(segments / "edge_2.clauses", lambda b: b.__setitem__(
            slice(0, 2), b"\xff\xff"))
        with pytest.raises(SegmentError, match="edge_2.clauses"):
            attach_kb(segments)

    @pytest.mark.parametrize("edit", [
        lambda image: image.__delitem__(slice(len(image) - 1, len(image))),
        lambda image: image.extend(b"\x00"),
        lambda image: image.clear(),
    ], ids=["short", "long", "empty"])
    def test_column_file_must_be_the_size_the_rows_imply(self, segments, edit):
        self.corrupt(segments / "edge_2.cols", edit)
        with pytest.raises(SegmentError, match="edge_2.cols"):
            attach_kb(segments)

    def test_missing_files(self, segments, tmp_path):
        with pytest.raises(SegmentError, match="manifest"):
            attach_kb(tmp_path / "nowhere")
        (segments / "edge_2.clauses").unlink()
        with pytest.raises(SegmentError, match="edge_2.clauses"):
            attach_kb(segments)


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
