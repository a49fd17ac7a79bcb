"""Tests for knowledge-base persistence (save/load directories)."""

import pytest

from repro.engine import PrologMachine
from repro.obs import Instrumentation
from repro.storage import (
    KnowledgeBase,
    PersistenceError,
    Residency,
    load_kb,
    save_kb,
)
from repro.scw import CodewordScheme
from repro.terms import read_term, term_to_string

PROGRAM = """
parent(tom, bob). parent(bob, ann).
grand(X, Z) :- parent(X, Y), parent(Y, Z).
likes(tom, [fishing, 'real ale', f(1, 2.5)]).
"""


@pytest.fixture
def saved_dir(tmp_path):
    kb = KnowledgeBase(scheme=CodewordScheme(width=64, bits_per_key=2))
    kb.consult_text(PROGRAM, module="family")
    kb.module("family").pin(Residency.DISK)
    save_kb(kb, tmp_path / "kbdir")
    return tmp_path / "kbdir"


class TestSave:
    def test_files_written(self, saved_dir):
        names = {p.name for p in saved_dir.iterdir()}
        assert "manifest.txt" in names
        assert "symbols.bin" in names
        assert "parent_2.clauses" in names
        assert "parent_2.index" in names
        assert "grand_2.clauses" in names

    def test_clause_file_bytes_identical(self, saved_dir):
        kb = KnowledgeBase(scheme=CodewordScheme(width=64, bits_per_key=2))
        kb.consult_text(PROGRAM, module="family")
        expected = kb.store(("parent", 2)).clause_file.to_bytes()
        assert (saved_dir / "parent_2.clauses").read_bytes() == expected

    def test_odd_predicate_names(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("'my pred!'(1). 'my pred!'(2).")
        save_kb(kb, tmp_path / "odd")
        restored = load_kb(tmp_path / "odd")
        assert len(restored.clauses(("my pred!", 1))) == 2


class TestLoad:
    def test_roundtrip_clauses(self, saved_dir):
        kb = load_kb(saved_dir)
        assert set(kb.predicates()) == {
            ("parent", 2),
            ("grand", 2),
            ("likes", 2),
        }
        heads = [str(c.head) for c in kb.clauses(("parent", 2))]
        assert heads == ["parent(tom,bob)", "parent(bob,ann)"]
        rule = kb.clauses(("grand", 2))[0]
        assert not rule.is_fact
        assert len(rule.body) == 2

    def test_roundtrip_modules_and_pins(self, saved_dir):
        kb = load_kb(saved_dir)
        assert kb.store(("parent", 2)).module_name == "family"
        assert kb.module("family").pinned_residency == Residency.DISK
        assert kb.residency(("parent", 2)) == Residency.DISK

    def test_roundtrip_scheme(self, saved_dir):
        kb = load_kb(saved_dir)
        assert kb.scheme == CodewordScheme(width=64, bits_per_key=2)

    def test_queries_after_load(self, saved_dir):
        kb = load_kb(saved_dir)
        kb.sync_to_disk()
        machine = PrologMachine(kb)
        answers = [
            term_to_string(s["Z"]) for s in machine.solve_text("grand(tom, Z)")
        ]
        assert answers == ["ann"]

    def test_complex_terms_survive(self, saved_dir):
        kb = load_kb(saved_dir)
        clause = kb.clauses(("likes", 2))[0]
        assert str(clause.head) == "likes(tom,[fishing,'real ale',f(1,2.5)])"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_kb(tmp_path)

    def test_missing_clause_file(self, saved_dir):
        (saved_dir / "parent_2.clauses").unlink()
        with pytest.raises(PersistenceError):
            load_kb(saved_dir)

    def test_save_load_save_stable(self, saved_dir, tmp_path):
        kb = load_kb(saved_dir)
        save_kb(kb, tmp_path / "again")
        first = (saved_dir / "parent_2.clauses").read_bytes()
        second = (tmp_path / "again" / "parent_2.clauses").read_bytes()
        assert first == second

    def test_updates_after_load(self, saved_dir):
        kb = load_kb(saved_dir)
        kb.assertz(read_term("parent(ann, joe)"))
        assert len(kb.clauses(("parent", 2))) == 3


class TestStemCollisions:
    """File-stem collisions must disambiguate, not silently overwrite."""

    def test_case_only_names_get_distinct_stems(self, tmp_path):
        # p/1 vs 'P'/1 escape to stems differing only by case — a real
        # collision on case-insensitive filesystems.  The writer must
        # assign distinct stems and the manifest must round-trip both.
        kb = KnowledgeBase()
        kb.consult_text("p(1). p(2). 'P'(a). 'P'(b). 'P'(c).")
        save_kb(kb, tmp_path / "kb")
        manifest = (tmp_path / "kb" / "manifest.txt").read_text()
        stems = [
            line.split("\t")[4]
            for line in manifest.splitlines()
            if line.startswith("predicate\t")
        ]
        assert len(stems) == len(set(stems)) == 2
        assert len({stem.casefold() for stem in stems}) == 2

        restored = load_kb(tmp_path / "kb")
        assert len(restored.clauses(("p", 1))) == 2
        assert len(restored.clauses(("P", 1))) == 3
        heads = [str(c.head) for c in restored.clauses(("P", 1))]
        assert heads == ["'P'(a)", "'P'(b)", "'P'(c)"]

    def test_suffixed_stem_files_exist(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("p(1). 'P'(a).")
        written = save_kb(kb, tmp_path / "kb")
        clause_files = sorted(
            name for name in written if name.endswith(".clauses")
        )
        assert clause_files == ["P_1__2.clauses", "p_1.clauses"]
        for name in clause_files:
            assert (tmp_path / "kb" / name).exists()

    def test_same_name_different_arity_never_collides(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("p(1). p(1, 2). p(1, 2, 3).")
        save_kb(kb, tmp_path / "kb")
        restored = load_kb(tmp_path / "kb")
        assert set(restored.predicates()) == {("p", 1), ("p", 2), ("p", 3)}

    def test_duplicate_stem_manifest_rejected(self, tmp_path):
        # A directory written by a pre-collision-check saver: two
        # predicates point at one clause file.  Loading either image as
        # both would corrupt the KB, so the loader must refuse.
        kb = KnowledgeBase()
        kb.consult_text("p(1). q(2).")
        save_kb(kb, tmp_path / "kb")
        manifest_path = tmp_path / "kb" / "manifest.txt"
        lines = manifest_path.read_text().splitlines()
        rewritten = [
            line.replace("\tq_1", "\tp_1")
            if line.startswith("predicate\tq") else line
            for line in lines
        ]
        manifest_path.write_text("\n".join(rewritten) + "\n")
        with pytest.raises(PersistenceError, match="stem"):
            load_kb(tmp_path / "kb")

    def test_collision_roundtrip_preserves_clause_bytes(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("p(1). p(2). 'P'(a).")
        save_kb(kb, tmp_path / "kb")
        expected_p = kb.store(("p", 1)).clause_file.to_bytes()
        expected_upper = kb.store(("P", 1)).clause_file.to_bytes()
        assert (tmp_path / "kb" / "p_1.clauses").read_bytes() == expected_p
        assert (
            tmp_path / "kb" / "P_1__2.clauses"
        ).read_bytes() == expected_upper


def rec_kb(count: int = 300) -> KnowledgeBase:
    """Big enough that the planner leaves software mode on disk."""
    kb = KnowledgeBase()
    kb.consult_text(
        " ".join(f"rec(k{i % 40}, v{i % 7}, {i})." for i in range(count))
        + " rec(X, shared, X) :- other(X). rec(-0.0, 0.0, f(-0.0))."
    )
    kb.module("user").pin(Residency.DISK)
    return kb


class TestMalformedClauseImages:
    """A hostile ``.clauses`` image raises :class:`PersistenceError` —
    at the parent a zero length looped forever, a cut header raised a
    bare ``IndexError`` and an inflated length was silently accepted."""

    def corrupt(self, path, edit):
        image = bytearray(path.read_bytes())
        edit(image)
        path.write_bytes(bytes(image))

    def test_zero_length_record_does_not_hang(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("flag. flag.")  # arity 0: the record never advances
        save_kb(kb, tmp_path / "kb")
        self.corrupt(
            tmp_path / "kb" / "flag_0.clauses",
            lambda image: image.__setitem__(slice(0, 2), b"\x00\x00"),
        )
        with pytest.raises(PersistenceError, match="flag_0.clauses"):
            load_kb(tmp_path / "kb")

    def test_truncated_trailing_header(self, saved_dir):
        self.corrupt(
            saved_dir / "parent_2.clauses", lambda image: image.extend(b"\x00")
        )
        with pytest.raises(PersistenceError, match="parent_2.clauses"):
            load_kb(saved_dir)

    def test_inflated_length_on_a_header_only_record(self, tmp_path):
        kb = KnowledgeBase()
        kb.consult_text("flag.")
        save_kb(kb, tmp_path / "kb")
        path = tmp_path / "kb" / "flag_0.clauses"
        assert len(path.read_bytes()) == 9
        self.corrupt(
            path, lambda image: image.__setitem__(slice(0, 2), b"\xff\xff")
        )
        with pytest.raises(PersistenceError, match="flag_0.clauses"):
            load_kb(tmp_path / "kb")


class TestIndexAdoption:
    """``load_kb`` adopts the ``.index`` image ``save_kb`` wrote."""

    def test_loaded_store_equals_saved_store(self, tmp_path):
        from repro.crs import ClauseRetrievalServer, SearchMode

        kb = rec_kb()
        save_kb(kb, tmp_path / "kb")
        loaded = load_kb(tmp_path / "kb")
        ours, theirs = loaded.store(("rec", 3)), kb.store(("rec", 3))
        assert ours.clause_file.to_bytes() == theirs.clause_file.to_bytes()
        assert ours.index.to_bytes() == theirs.index.to_bytes()
        assert (
            ours.index.bitsliced.packed_columns()
            == theirs.index.bitsliced.packed_columns()
        )
        assert ours.fact_count == theirs.fact_count
        for target in (kb, loaded):
            target.sync_to_disk()
        original = ClauseRetrievalServer(kb, cache_size=0)
        restored = ClauseRetrievalServer(loaded, cache_size=0)
        for text in ("rec(k3, V, N)", "rec(K, v2, 9)", "rec(S, T, S)",
                     "rec(0.0, A, B)"):
            goal = read_term(text)
            for mode in SearchMode:
                expected = original.retrieve(goal, mode=mode)
                got = restored.retrieve(goal, mode=mode)
                assert [str(c) for c in got.candidates] == [
                    str(c) for c in expected.candidates
                ], (text, mode)
                assert got.stats == expected.stats, (text, mode)

    def test_adoption_decodes_and_hashes_nothing(self, tmp_path, monkeypatch):
        import repro.pif.clausefile as clausefile

        save_kb(rec_kb(), tmp_path / "kb")

        def forbidden(*args, **kwargs):
            raise AssertionError("load_kb must adopt the images as they are")

        monkeypatch.setattr(clausefile, "decode_compiled", forbidden)
        monkeypatch.setattr(clausefile, "compile_clause", forbidden)
        monkeypatch.setattr(clausefile, "clause_record", forbidden)
        monkeypatch.setattr(CodewordScheme, "_hash_key", forbidden)
        obs = Instrumentation()
        loaded = load_kb(tmp_path / "kb", obs=obs)
        assert len(loaded.store(("rec", 3))) == 302
        assert obs.registry.total("storage.index_rebuilds") == 0

    @pytest.mark.parametrize(
        "damage",
        ["missing", "short", "stale_addresses"],
    )
    def test_unusable_index_falls_back_and_says_so(self, tmp_path, damage):
        kb = rec_kb(60)
        save_kb(kb, tmp_path / "kb")
        path = tmp_path / "kb" / "rec_3.index"
        if damage == "missing":
            path.unlink()
        elif damage == "short":
            path.write_bytes(path.read_bytes()[:-18])
        else:  # an index written for a different clause file
            other = rec_kb(60)
            other.asserta(read_term("rec(front, f(longer, record), 0)"))
            other.retract(read_term("rec(k1, v1, 1)"))
            assert len(other.store(("rec", 3))) == len(kb.store(("rec", 3)))
            path.write_bytes(other.store(("rec", 3)).index.to_bytes())
        obs = Instrumentation()
        loaded = load_kb(tmp_path / "kb", obs=obs)
        assert obs.registry.total("storage.index_rebuilds") == 1
        assert (
            loaded.store(("rec", 3)).index.to_bytes()
            == kb.store(("rec", 3)).index.to_bytes()
        )

    def test_footprint_gauges_are_published_at_load(self, tmp_path):
        kb = rec_kb(60)
        save_kb(kb, tmp_path / "kb")
        obs = Instrumentation()
        loaded = load_kb(tmp_path / "kb", obs=obs)
        assert obs.registry.total("kb.image_bytes") == loaded.size_bytes()
        assert obs.registry.total("kb.index_bytes") == sum(
            store.index.size_bytes() for store in loaded
        )


def edge_kb(scheme: CodewordScheme, count: int = 400) -> KnowledgeBase:
    """``edge/2`` with out-degree 4: one-bound goals are FS1's case."""
    kb = KnowledgeBase(scheme=scheme)
    kb.consult_text(
        " ".join(f"edge(n{i // 4}, n{(i * 37) % count})." for i in range(count))
    )
    return kb


class TestManifestScheme:
    """The manifest's ``scheme`` line is required and validated: a KB is
    queried under the scheme it was indexed with, or not at all.  A KB
    indexed at k = 2 and queried at another k drops true unifiers."""

    @pytest.fixture(params=["load_kb", "attach_kb"])
    def reader(self, request):
        from repro.parallel import SegmentError, attach_kb

        if request.param == "load_kb":
            return load_kb, PersistenceError
        return attach_kb, SegmentError

    @pytest.fixture
    def segments(self, tmp_path):
        from repro.parallel import write_segments

        write_segments(edge_kb(CodewordScheme(bits_per_key=2)), tmp_path / "kb")
        return tmp_path / "kb"

    def rewrite_scheme(self, directory, line):
        manifest = directory / "manifest.txt"
        lines = [
            candidate
            for candidate in manifest.read_text().splitlines()
            if not candidate.startswith("scheme\t")
        ]
        if line is not None:
            lines.insert(0, line)
        manifest.write_text("\n".join(lines) + "\n")

    def test_a_k2_kb_reloads_at_k2_with_identical_fs1_candidates(
        self, segments, reader
    ):
        from repro.scw import FirstStageFilter

        read, _ = reader
        original = edge_kb(CodewordScheme(bits_per_key=2))
        restored = read(segments)
        try:
            assert restored.scheme == CodewordScheme(bits_per_key=2)
            ours = restored.store(("edge", 2)).index
            theirs = original.store(("edge", 2)).index
            for text in ("edge(n3, Z)", "edge(Z, n37)", "edge(n7, n111)"):
                goal = read_term(text)
                assert (
                    FirstStageFilter(restored.scheme)
                    .search(ours, goal)
                    .candidate_addresses
                    == FirstStageFilter(original.scheme)
                    .search(theirs, goal)
                    .candidate_addresses
                ), text
        finally:
            getattr(restored, "close", lambda: None)()

    def test_missing_scheme_line_is_rejected(self, segments, reader):
        read, error = reader
        self.rewrite_scheme(segments, None)
        with pytest.raises(error, match="no scheme line"):
            read(segments)

    @pytest.mark.parametrize(
        "line",
        [
            "scheme\t96\ttwo\t12\t4",
            "scheme\t96\t2\t12",
            "scheme\t96\t2\t12\t4\t0",
            "scheme\t4\t2\t12\t4",
            "scheme\t96\t0\t12\t4",
            "scheme\t96\t97\t12\t4",
            "scheme\t96\t2\t0\t4",
            "scheme\t96\t2\t12\t-1",
        ],
        ids=[
            "non_integer", "short", "long", "narrow", "k_zero", "k_past_width",
            "no_args", "negative_depth",
        ],
    )
    def test_malformed_scheme_line_is_a_typed_error(self, segments, reader, line):
        read, error = reader
        self.rewrite_scheme(segments, line)
        with pytest.raises(error, match="manifest.txt:1: bad scheme line"):
            read(segments)

    @pytest.mark.parametrize(
        "line",
        ["module\tuser\tlarge\t-", "module\tuser", "predicate\tedge\ttwo\tuser\tx",
         "predicate\tedge\t2"],
        ids=["module_non_integer", "module_short", "predicate_non_integer",
             "predicate_short"],
    )
    def test_malformed_entry_line_is_a_typed_error(self, segments, reader, line):
        read, error = reader
        manifest = segments / "manifest.txt"
        manifest.write_text(manifest.read_text() + line + "\n")
        with pytest.raises(error, match="bad (module|predicate) line"):
            read(segments)
