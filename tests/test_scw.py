"""Tests for the SCW+MB codeword scheme and the FS1 filter model."""

import hashlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pif import ClauseFile, PIFError, SymbolTable
from repro.scw import (
    DEFAULT_SCHEME,
    CodewordScheme,
    FirstStageFilter,
    SecondaryIndexFile,
    optimal_bits_per_key,
)
from repro.terms import Clause, clause_from_term, read_term, rename_apart
from repro.unify import unifiable
from tests.strategies import clause_heads

SCHEME = CodewordScheme(width=64, bits_per_key=2, max_args=12)


def cw_match(query_text: str, head_text: str, scheme: CodewordScheme = SCHEME) -> bool:
    query = scheme.query_codeword(read_term(query_text))
    clause = scheme.clause_codeword(read_term(head_text))
    return scheme.matches(query, clause)


class TestSchemeValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            CodewordScheme(width=4)
        with pytest.raises(ValueError):
            CodewordScheme(bits_per_key=0)
        with pytest.raises(ValueError):
            CodewordScheme(max_args=0)

    def test_equality_by_parameters(self):
        assert CodewordScheme(width=64) == CodewordScheme(width=64)
        assert CodewordScheme(width=64) != CodewordScheme(width=96)

    def test_entry_size(self):
        scheme = CodewordScheme(width=96, max_args=12)
        assert scheme.codeword_bytes == 12
        assert scheme.mask_bytes == 2
        assert scheme.entry_bytes() == 12 + 2 + 4


class TestCodewordGeneration:
    def test_deterministic(self):
        a = SCHEME.clause_codeword(read_term("p(a, b, c)"))
        b = SCHEME.clause_codeword(read_term("p(a, b, c)"))
        assert a == b

    def test_bits_per_key_respected(self):
        cw = SCHEME.clause_codeword(read_term("p(a)"))
        assert bin(cw.bits).count("1") == SCHEME.bits_per_key

    def test_variable_argument_sets_mask(self):
        cw = SCHEME.clause_codeword(read_term("p(X, b)"))
        assert cw.mask & 1
        assert not (cw.mask & 2)

    def test_variable_inside_structure_sets_mask(self):
        cw = SCHEME.clause_codeword(read_term("p(f(X))"))
        assert cw.mask & 1

    def test_tail_variable_sets_mask(self):
        cw = SCHEME.clause_codeword(read_term("p([a, b | T])"))
        assert cw.mask & 1

    def test_ground_clause_no_mask(self):
        cw = SCHEME.clause_codeword(read_term("p(a, f(b), [1, 2])"))
        assert cw.mask == 0

    def test_atom_head_empty(self):
        cw = SCHEME.clause_codeword(read_term("p"))
        assert cw.bits == 0 and cw.arg_bits == ()

    def test_saturation(self):
        empty = SCHEME.clause_codeword(read_term("p"))
        assert SCHEME.saturation(empty) == 0.0
        dense = SCHEME.clause_codeword(
            read_term("p(f(a1, a2, a3, a4), g(b1, b2, b3, b4))")
        )
        assert 0 < SCHEME.saturation(dense) <= 1


class TestMatching:
    def test_exact_ground_match(self):
        assert cw_match("p(a, b)", "p(a, b)")

    def test_distinct_constants_usually_reject(self):
        assert not cw_match("p(aaa, bbb)", "p(ccc, ddd)")

    def test_query_variable_unconstrained(self):
        assert cw_match("p(X, b)", "p(anything, b)")

    def test_clause_variable_masked(self):
        assert cw_match("p(a)", "p(X)")
        assert cw_match("p(f(g(1)))", "p(X)")

    def test_shared_variables_invisible(self):
        # The paper's married_couple example: SCW retrieves everything.
        assert cw_match("married_couple(S, S)", "married_couple(a, b)")
        assert cw_match("married_couple(S, S)", "married_couple(x, y)")

    def test_structure_functor_constrains(self):
        assert cw_match("p(f(a))", "p(f(a))")
        assert not cw_match("p(f(a))", "p(g(b))")

    def test_partial_structure(self):
        assert cw_match("p(f(X))", "p(f(anything))")

    def test_truncation_beyond_max_args(self):
        scheme = CodewordScheme(width=64, max_args=2)
        args_match = ", ".join(["a", "b", "zzz"])
        args_clause = ", ".join(["a", "b", "qqq"])
        # The third argument is not encoded: mismatch goes unseen.
        q = scheme.query_codeword(read_term(f"p({args_match})"))
        c = scheme.clause_codeword(read_term(f"p({args_clause})"))
        assert scheme.matches(q, c)

    def test_atom_query_matches_atom_clause(self):
        assert cw_match("p", "p")


class TestSoundnessProperty:
    @settings(max_examples=300)
    @given(clause_heads(), clause_heads())
    def test_no_false_negatives(self, query, head):
        """FS1 must pass every clause that fully unifies with the query."""
        if unifiable(query, rename_apart(head)):
            q = SCHEME.query_codeword(query)
            c = SCHEME.clause_codeword(head)
            assert SCHEME.matches(q, c), "FS1 dropped a true unifier"

    @settings(max_examples=150)
    @given(clause_heads(), clause_heads())
    def test_soundness_various_parameters(self, query, head):
        for scheme in (
            CodewordScheme(width=32, bits_per_key=1, max_args=2, max_depth=1),
            CodewordScheme(width=128, bits_per_key=3, max_args=12, max_depth=6),
        ):
            if unifiable(query, rename_apart(head)):
                q = scheme.query_codeword(query)
                c = scheme.clause_codeword(head)
                assert scheme.matches(q, c)


def build_index(clause_texts, indicator):
    symbols = SymbolTable()
    cf = ClauseFile(indicator, symbols)
    for text in clause_texts:
        cf.append(clause_from_term(read_term(text)))
    return cf, SecondaryIndexFile.build(cf, SCHEME)


class TestSecondaryIndex:
    def test_build_indexes_every_clause(self):
        cf, index = build_index(["p(a)", "p(b)", "p(X) :- q(X)"], ("p", 1))
        assert len(index) == 3

    def test_scan_filters(self):
        cf, index = build_index(
            ["p(apple)", "p(banana)", "p(cherry)"], ("p", 1)
        )
        addresses = index.scan(SCHEME.query_codeword(read_term("p(banana)")))
        expected = cf.record_addresses()[1]
        assert expected in addresses
        assert len(addresses) < 3  # at least some filtering

    def test_rule_heads_indexed(self):
        cf, index = build_index(
            ["anc(X, Y) :- parent(X, Y)", "anc(a, b)"], ("anc", 2)
        )
        addresses = index.scan(SCHEME.query_codeword(read_term("anc(a, b)")))
        assert set(addresses) == set(cf.record_addresses())  # rule head masked

    def test_size_accounting(self):
        cf, index = build_index(["p(a)", "p(b)"], ("p", 1))
        assert index.size_bytes() == 2 * SCHEME.entry_bytes()
        assert len(index.to_bytes()) == index.size_bytes()

    def test_index_much_smaller_than_clause_file(self):
        texts = [f"p(atom{i}, f(atom{i}, {i}), [{i}, {i + 1}])" for i in range(50)]
        cf, index = build_index(texts, ("p", 3))
        assert index.size_bytes() < cf.size_bytes()


def _rows(index) -> list[tuple[int, int, int]]:
    return [(e.codeword.bits, e.codeword.mask, e.address) for e in index]


_INDEX_SCHEMES = [
    CodewordScheme(),
    CodewordScheme(width=96, bits_per_key=2, max_args=12, max_depth=4),
    SCHEME,
    CodewordScheme(width=32, bits_per_key=1, max_args=2, max_depth=0),
    CodewordScheme(width=128, bits_per_key=3, max_args=16, max_depth=4),
]

#: Heads the random strategy reaches rarely or never: both zeros, more
#: arguments than any scheme encodes, variables shared across (and
#: inside) arguments, partial lists.
_INDEX_EDGE_HEADS = [
    "p(-0.0, 0.0, f(-0.0))",
    "p(" + ", ".join(f"a{i}" for i in range(14)) + ")",
    "p(" + ", ".join("X" if i % 2 else f"g({i}, Y)" for i in range(14)) + ")",
    "p(X, X, f(X, _, [X | T]), T)",
    "p(_, _, _)",
    "p",
]


class TestIndexBuiltFromSources:
    """A live index hashes each head as it is appended, from the clause
    in hand; ``SecondaryIndexFile.build`` — decompile every record to
    recover its head — is the reference it must equal, row for row."""

    @staticmethod
    def _files(heads, scheme, first_body=()):
        """(clause file, live index) per indicator among ``heads``, in
        order; the first clause is a rule with ``first_body``, the rest
        are facts."""
        symbols = SymbolTable()
        files: dict[tuple[str, int], tuple] = {}
        for position, head in enumerate(heads):
            clause = Clause(head, first_body if position == 0 else ())
            cf, live = files.setdefault(
                clause.indicator,
                (
                    ClauseFile(clause.indicator, symbols),
                    SecondaryIndexFile(scheme, clause.indicator),
                ),
            )
            try:
                cf.append(clause)
            except PIFError:
                continue  # wider than a Result Memory slot: not storable
            live.add(clause.head, cf.last_address())
        return list(files.values())

    @pytest.mark.parametrize("scheme", _INDEX_SCHEMES, ids=repr)
    def test_edge_heads(self, scheme):
        heads = [read_term(text) for text in _INDEX_EDGE_HEADS]
        for cf, live in self._files(heads, scheme, (read_term("q(X)"),)):
            reference = SecondaryIndexFile.build(cf, scheme)
            assert _rows(live) == _rows(reference)
            assert live.to_bytes() == reference.to_bytes()
            assert live.record_addresses() == cf.record_addresses()
            assert (
                live.bitsliced.packed_columns()
                == reference.bitsliced.packed_columns()
            )

    @settings(max_examples=60, deadline=None)
    @given(
        heads=st.lists(
            st.one_of(clause_heads(arity=3), clause_heads(arity=14)),
            min_size=1, max_size=12,
        ),
        scheme=st.sampled_from(_INDEX_SCHEMES),
    )
    def test_equals_decode_back_build(self, heads, scheme):
        for cf, live in self._files(heads, scheme):
            reference = SecondaryIndexFile.build(cf, scheme)
            assert list(live) == list(reference)
            assert live.to_bytes() == reference.to_bytes()

    @settings(max_examples=15, deadline=None)
    @given(
        heads=st.lists(clause_heads(arity=3), min_size=1, max_size=8),
        scheme=st.sampled_from(_INDEX_SCHEMES),
    )
    def test_segment_attached_files_agree(self, heads, scheme):
        """Built over the original file or over its segment-attached
        twin, the decode-back index is the same — and equals both the
        live index and the image the segment shipped."""
        from repro.parallel.segments import attach_kb, write_segments
        from repro.storage import KnowledgeBase

        kb = KnowledgeBase(scheme=scheme)
        edge = [read_term(text) for text in _INDEX_EDGE_HEADS[:2]]
        for head in edge + heads:
            try:
                kb.add_clause(Clause(head))
            except PIFError:
                pass
        with tempfile.TemporaryDirectory() as directory:
            write_segments(kb, directory)
            shared = attach_kb(directory)
            try:
                for store in kb:
                    attached = shared.store(store.indicator)
                    for clause_file in (store.clause_file,
                                        attached.clause_file):
                        built = SecondaryIndexFile.build(clause_file, scheme)
                        assert list(built) == list(store.index)
                    assert attached.index.to_bytes() == store.index.to_bytes()
            finally:
                shared.close()


class TestKeyBitsMemo:
    """``CodewordScheme._key_bits`` memoises the component hash; the
    memo must be invisible in every codeword it serves."""

    @settings(max_examples=60, deadline=None)
    @given(
        heads=st.lists(
            st.one_of(clause_heads(arity=3), clause_heads(arity=14)),
            min_size=1, max_size=10,
        ),
        scheme=st.sampled_from(_INDEX_SCHEMES),
    )
    def test_memoised_equals_unmemoised(self, heads, scheme):
        class Unmemoised(CodewordScheme):
            _key_bits = CodewordScheme._hash_key

        memoised = CodewordScheme(
            scheme.width, scheme.bits_per_key, scheme.max_args, scheme.max_depth
        )
        class Forgetful(dict):
            def __setitem__(self, key, value):
                pass

        reference = Unmemoised(
            scheme.width, scheme.bits_per_key, scheme.max_args, scheme.max_depth
        )
        reference._atomic_memo = Forgetful()
        for head in heads + heads:  # second pass is served from the memo
            assert memoised.clause_codeword(head) == reference.clause_codeword(
                head
            )
            assert memoised.query_codeword(head) == reference.query_codeword(
                head
            )
        assert not reference._key_bits_memo and not reference._atomic_memo

    def test_memo_is_bounded_and_dropped_whole(self, monkeypatch):
        from repro.scw import codeword

        monkeypatch.setattr(codeword, "KEY_BITS_MEMO_SIZE", 8)
        scheme = CodewordScheme()
        expected = {}
        for i in range(30):
            head = read_term(f"p(k{i}, v{i % 3})")
            expected[i] = scheme.clause_codeword(head)
            assert len(scheme._key_bits_memo) <= 8
            assert len(scheme._atomic_memo) <= 8
        for i in range(30):  # across several drops, same codewords
            assert scheme.clause_codeword(
                read_term(f"p(k{i}, v{i % 3})")
            ) == expected[i]


def reference_hash_key(scheme: CodewordScheme, position: int, key: str) -> int:
    """The component hash as first written: a salted BLAKE2 built per
    digest and a popcount per bit position.  Every saved index was
    hashed by it, so the kernel must stay bit-identical."""
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=16, salt=position.to_bytes(8, "big")
    ).digest()
    bits = 0
    stretch = digest
    counter = 0
    while bin(bits).count("1") < scheme.bits_per_key:
        for index in range(0, len(stretch) - 1, 2):
            value = int.from_bytes(stretch[index : index + 2], "big")
            bits |= 1 << (value % scheme.width)
            if bin(bits).count("1") >= scheme.bits_per_key:
                break
        else:
            counter += 1
            stretch = hashlib.blake2b(
                key.encode("utf-8") + counter.to_bytes(4, "big"),
                digest_size=16,
                salt=position.to_bytes(8, "big"),
            ).digest()
            continue
        break
    return bits


KERNEL_CASES = dict(
    data=st.data(),
    width=st.sampled_from((16, 32, 64, 96)),
    position=st.integers(0, 11),
    key=st.text(),
)


def check_kernel_equals_reference(data, width, position, key):
    bits_per_key = data.draw(st.integers(1, min(33, width)), label="k")
    scheme = CodewordScheme(width=width, bits_per_key=bits_per_key)
    assert scheme._hash_key(position, key) == reference_hash_key(
        scheme, position, key
    )


class TestHashKernel:
    """The slow-marked variant reruns the identity at ten times the
    example budget."""

    @settings(max_examples=400, deadline=None)
    @given(**KERNEL_CASES)
    def test_kernel_equals_reference(self, data, width, position, key):
        check_kernel_equals_reference(data, width, position, key)

    @pytest.mark.slow
    @settings(max_examples=4000, deadline=None)
    @given(**KERNEL_CASES)
    def test_kernel_equals_reference_large_budget(
        self, data, width, position, key
    ):
        check_kernel_equals_reference(data, width, position, key)

    def test_a_scheme_pickles_to_an_equal_hasher(self):
        import pickle

        scheme = CodewordScheme(width=64, bits_per_key=5)
        copy = pickle.loads(pickle.dumps(scheme))
        assert copy == scheme
        assert copy._hash_key(3, "a:x") == scheme._hash_key(3, "a:x")


class TestDefaultBitsPerKey:
    """k is the half-saturation optimum of ref [11] for the scheme's own
    width and argument count, not the prototype's fixed 2."""

    def test_default_scheme_is_six_bits_per_key(self):
        assert DEFAULT_SCHEME.bits_per_key == optimal_bits_per_key(96, 12) == 6

    def test_default_follows_width_and_max_args(self):
        for width, max_args in ((64, 12), (128, 4), (16, 12)):
            assert CodewordScheme(
                width=width, max_args=max_args
            ).bits_per_key == optimal_bits_per_key(width, max_args)
        assert CodewordScheme(bits_per_key=2).bits_per_key == 2

    def test_one_bound_edge_goals_rarely_false_drop(self):
        """5 000 ``edge/2`` facts, out-degree 4, 200 one-bound goals:
        at k = 2 FS1 passes ~6 ghosts per goal, at k = 6 almost none."""
        nodes = 1250
        rng = random.Random(2024)
        edges = [(i // 4, rng.randrange(nodes)) for i in range(4 * nodes)]
        symbols = SymbolTable()
        clause_file = ClauseFile(("edge", 2), symbols)
        for source, target in edges:
            clause_file.append(
                clause_from_term(read_term(f"edge(n{source}, n{target})"))
            )
        index = SecondaryIndexFile.build(clause_file, DEFAULT_SCHEME)
        goals, true_counts = [], []
        for i in range(200):
            node = rng.randrange(nodes)
            if i % 2:
                goals.append(read_term(f"edge(n{node}, Z)"))
                true_counts.append(sum(s == node for s, _ in edges))
            else:
                goals.append(read_term(f"edge(Z, n{node})"))
                true_counts.append(sum(t == node for _, t in edges))
        results = FirstStageFilter(DEFAULT_SCHEME).search_batch(index, goals)
        false_drops = [
            len(result.candidate_addresses) - true
            for result, true in zip(results, true_counts)
        ]
        assert min(false_drops) >= 0  # soundness: no true unifier dropped
        assert sum(false_drops) / len(goals) < 0.1


class TestFirstStageFilter:
    def test_search_returns_candidates_and_stats(self):
        cf, index = build_index(["p(a)", "p(b)", "p(X)"], ("p", 1))
        fs1 = FirstStageFilter(SCHEME)
        result = fs1.search(index, read_term("p(a)"))
        addresses = cf.record_addresses()
        assert addresses[0] in result.candidate_addresses
        assert addresses[2] in result.candidate_addresses  # variable clause
        assert result.entries_scanned == 3
        assert result.bytes_scanned == index.size_bytes()
        assert result.scan_time_s == pytest.approx(
            index.size_bytes() / 4_500_000
        )

    def test_scheme_mismatch_rejected(self):
        cf, index = build_index(["p(a)"], ("p", 1))
        fs1 = FirstStageFilter(CodewordScheme(width=128))
        with pytest.raises(ValueError):
            fs1.search(index, read_term("p(a)"))

    def test_bad_scan_rate(self):
        with pytest.raises(ValueError):
            FirstStageFilter(SCHEME, scan_rate_bytes_per_sec=0)

    def test_scan_time_scales_with_index_size(self):
        _, small = build_index(["p(a)"], ("p", 1))
        _, large = build_index([f"p(a{i})" for i in range(100)], ("p", 1))
        fs1 = FirstStageFilter(SCHEME)
        t_small = fs1.search(small, read_term("p(a)")).scan_time_s
        t_large = fs1.search(large, read_term("p(a)")).scan_time_s
        assert t_large > t_small * 50
