"""The vector (word-array) FS1 engine against bigint and naive scans.

:class:`repro.scw.VectorSlicedIndex` is a pure representation change on
top of a representation change: the same columns the big-int engine
packs into arbitrary-precision integers, stored as little-endian
``uint64`` word arrays (numpy when importable, ``array('Q')`` when
not).  Everything observable — addresses, order, batch results, the
columns-touched accounting, the packed segment image — must be
element-wise identical across all three engines and both backends.

The ``backend`` fixture runs every property twice: once on the numpy
fast path and once with ``vector._np`` monkeypatched away, so the
fallback is proven by the same assertions (and the suite still passes
on an interpreter with no numpy at all — the numpy parameterisation
just skips).
"""

import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Instrumentation
from repro.scw import (
    BitSlicedIndex,
    CodewordScheme,
    FirstStageFilter,
    SecondaryIndexFile,
    VectorSlicedIndex,
)
from repro.scw import vector as vector_module
from repro.terms import read_term
from tests.strategies import clause_heads

SCHEME = CodewordScheme(width=64, bits_per_key=2, max_args=12)

# Hypothesis redraws examples against the function-scoped backend
# fixture; that is exactly what we want here (same examples, both
# backends), so the health check is suppressed suite-wide.
BOTH_BACKENDS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(params=["numpy", "array"])
def backend(request, monkeypatch):
    """Run the test under each word-array backend that can load."""
    if request.param == "numpy":
        if vector_module._np is None:
            pytest.skip("numpy not importable")
    else:
        monkeypatch.setattr(vector_module, "_np", None)
    return request.param


def build_index(
    heads, scheme: CodewordScheme = SCHEME, indicator=("p", 3)
) -> SecondaryIndexFile:
    index = SecondaryIndexFile(scheme, indicator)
    for position, head in enumerate(heads):
        index.add(head, position * 32)
    return index


class TestScanEquivalence:
    @BOTH_BACKENDS
    @given(
        st.lists(clause_heads(arity=3), min_size=0, max_size=20),
        st.lists(clause_heads(arity=3), min_size=1, max_size=6),
    )
    def test_vector_equals_bigint_equals_naive(self, backend, heads, queries):
        index = build_index(heads)
        assert index.vector.backend == backend
        for query in queries:
            codeword = SCHEME.query_codeword(query)
            naive = index.scan(codeword)
            assert index.vector.scan(codeword) == naive
            assert index.bitsliced.scan(codeword) == naive

    @BOTH_BACKENDS
    @given(
        st.lists(clause_heads(arity=3), min_size=0, max_size=20),
        st.lists(clause_heads(arity=3), min_size=1, max_size=6),
    )
    def test_scan_info_accounting_matches_bigint(self, backend, heads, queries):
        """Same survivors AND the same columns-touched count."""
        index = build_index(heads)
        for query in queries:
            codeword = SCHEME.query_codeword(query)
            assert index.vector.scan_info(codeword) == (
                index.bitsliced.scan_info(codeword)
            )

    @BOTH_BACKENDS
    @given(
        st.lists(clause_heads(arity=3), min_size=0, max_size=16),
        st.lists(clause_heads(arity=3), min_size=1, max_size=8),
    )
    def test_batch_equals_bigint_batch(self, backend, heads, queries):
        index = build_index(heads)
        codewords = [SCHEME.query_codeword(q) for q in queries]
        assert index.vector.scan_batch(codewords) == (
            index.bitsliced.scan_batch(codewords)
        )

    @BOTH_BACKENDS
    @given(
        st.lists(clause_heads(arity=2), min_size=1, max_size=10),
        st.lists(clause_heads(arity=2), min_size=1, max_size=10),
        clause_heads(arity=2),
    )
    def test_incremental_add_stays_in_sync(
        self, backend, first, second, query
    ):
        """The lazily-built view must track subsequent index appends."""
        index = build_index(first, indicator=("p", 2))
        assert index.vector is index.vector  # built once
        for position, head in enumerate(second):
            index.add(head, (len(first) + position) * 32)
        codeword = SCHEME.query_codeword(query)
        assert index.vector.scan(codeword) == index.scan(codeword)

    @BOTH_BACKENDS
    @given(
        st.integers(min_value=8, max_value=128),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=14),
        st.lists(clause_heads(arity=3), min_size=0, max_size=12),
        clause_heads(arity=3),
    )
    def test_scheme_parameter_sweep(
        self, backend, width, bits_per_key, max_args, heads, query
    ):
        scheme = CodewordScheme(
            width=width, bits_per_key=bits_per_key, max_args=max_args
        )
        index = build_index(heads, scheme=scheme)
        codeword = scheme.query_codeword(query)
        assert index.vector.scan(codeword) == index.scan(codeword)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.filter_too_much,
        ],
    )
    @given(
        st.lists(clause_heads(functor="wide", arity=14), min_size=0, max_size=8),
        clause_heads(functor="wide", arity=14),
    )
    def test_truncation_property(self, backend, heads, query):
        """Mask planes past ``max_args`` stay faithful on both engines."""
        index = build_index(heads, indicator=("wide", 14))
        codeword = SCHEME.query_codeword(query)
        assert index.vector.scan(codeword) == index.scan(codeword)
        assert index.vector.scan(codeword) == index.bitsliced.scan(codeword)


class TestStructuralEdges:
    HEADS = [
        "p(a, 1, x)",
        "p(b, 2, y)",
        "p(X, X, z)",
        "p(A, B, C)",
        "p([1, 2], [], f(g))",
    ]

    def edge_index(self):
        return build_index([read_term(t) for t in self.HEADS])

    @pytest.mark.parametrize(
        "query",
        [
            "p(X, Y, Z)",  # all-variable: every entry survives
            "p(_, _, _)",
            "p(X, X, Y)",  # shared variable: invisible to the codewords
            "p(a, 1, x)",
            "p(b, W, y)",
            "p([1, 2], E, F)",
        ],
    )
    def test_edge_queries(self, backend, query):
        index = self.edge_index()
        codeword = SCHEME.query_codeword(read_term(query))
        assert index.vector.scan(codeword) == index.scan(codeword)

    def test_all_variable_query_returns_everything_untouched(self, backend):
        index = self.edge_index()
        codeword = SCHEME.query_codeword(read_term("p(X, Y, Z)"))
        addresses, columns_touched = index.vector.scan_info(codeword)
        assert addresses == [e.address for e in index]
        assert columns_touched == 0

    def test_empty_index(self, backend):
        sliced = VectorSlicedIndex(SCHEME)
        assert len(sliced) == 0
        query = SCHEME.query_codeword(read_term("p(a, b, c)"))
        assert sliced.scan(query) == []
        # Accounting on the empty index matches the bigint engine too
        # (it breaks after the first constrained position).
        assert sliced.scan_info(query) == (
            BitSlicedIndex(SCHEME).scan_info(query)
        )

    def test_addresses_come_back_in_entry_order(self, backend):
        index = build_index([read_term("p(a, 1, x)") for _ in range(5)])
        codeword = SCHEME.query_codeword(read_term("p(a, 1, x)"))
        assert index.vector.scan(codeword) == [0, 32, 64, 96, 128]

    def test_iter_scan_is_lazy_and_complete(self, backend):
        index = build_index(
            [read_term("p(a, 1, x)") for _ in range(80)]
        ).vector
        codeword = SCHEME.query_codeword(read_term("p(a, Y, Z)"))
        lazy = index.iter_scan(codeword)
        assert isinstance(lazy, types.GeneratorType)
        assert next(lazy) == 0  # partial consumption is fine
        assert [0, *lazy] == index.scan(codeword)

    def test_word_boundary_populations(self, backend):
        """63/64/65 entries: the partial-word occupancy edge."""
        for count in (63, 64, 65, 128, 129):
            index = build_index(
                [read_term(f"p(a{i % 7}, {i}, x)") for i in range(count)]
            )
            for text in ("p(a1, Y, Z)", "p(X, Y, Z)", "p(a3, 3, x)"):
                codeword = SCHEME.query_codeword(read_term(text))
                assert index.vector.scan(codeword) == index.scan(codeword)


class TestPackedImages:
    def test_packed_round_trip(self, backend):
        index = build_index(
            [read_term(f"p(a{i}, {i}, x)") for i in range(9)]
        ).vector
        column_bytes, columns, planes = index.packed_columns()
        assert column_bytes % 8 == 0
        rebuilt = VectorSlicedIndex.from_packed(
            SCHEME, [i * 32 for i in range(9)], column_bytes, columns, planes
        )
        for text in ("p(a1, Y, Z)", "p(X, Y, Z)", "p(a2, 2, x)"):
            codeword = SCHEME.query_codeword(read_term(text))
            assert rebuilt.scan(codeword) == index.scan(codeword)

    def test_packed_image_matches_bigint_engine_bytes(self, backend):
        """One image, two engines: the segment layout is shared."""
        index = build_index(
            [read_term(f"p(a{i}, {i}, x)") for i in range(70)]
        )
        assert index.vector.packed_columns() == (
            index.bitsliced.packed_columns()
        )

    def test_legacy_unaligned_image_attaches(self, backend):
        """Pre-word-alignment segments (ceil(N/8)-byte columns) decode."""
        source = build_index(
            [read_term(f"p(a{i}, {i}, x)") for i in range(9)]
        )
        sliced = source.bitsliced
        # Pack the old way: 2 bytes per 9-entry column, no padding.
        nbytes = (len(source) + 7) // 8
        columns = b"".join(
            c.to_bytes(nbytes, "little") for c in sliced._columns
        )
        planes = b"".join(
            p.to_bytes(nbytes, "little") for p in sliced._planes
        )
        rebuilt = VectorSlicedIndex.from_packed(
            SCHEME, [i * 32 for i in range(9)], nbytes, columns, planes
        )
        for text in ("p(a1, Y, Z)", "p(X, Y, Z)", "p(a2, 2, x)"):
            codeword = SCHEME.query_codeword(read_term(text))
            assert rebuilt.scan(codeword) == source.scan(codeword)

    def test_attached_index_thaws_on_append(self, backend):
        index = build_index([read_term(f"p(a{i}, {i}, x)") for i in range(5)])
        column_bytes, columns, planes = index.vector.packed_columns()
        attached = VectorSlicedIndex.from_packed(
            SCHEME, [i * 32 for i in range(5)], column_bytes, columns, planes
        )
        head = read_term("p(fresh, 99, x)")
        attached.add(SCHEME.clause_codeword(head), 160)
        index.add(head, 160)
        codeword = SCHEME.query_codeword(read_term("p(fresh, Y, Z)"))
        assert attached.scan(codeword) == index.scan(codeword)
        assert 160 in attached.scan(codeword)


class TestFirstStageFilterVectorMode:
    def filters(self):
        obs_v = Instrumentation()
        obs_b = Instrumentation()
        return (
            FirstStageFilter(SCHEME, mode="vector", obs=obs_v),
            FirstStageFilter(SCHEME, mode="bitsliced", obs=obs_b),
            FirstStageFilter(SCHEME, mode="naive", obs=Instrumentation()),
            obs_v,
            obs_b,
        )

    def test_modes_agree_and_share_the_timing_model(self, backend):
        index = build_index([read_term(t) for t in TestStructuralEdges.HEADS])
        vector, bitsliced, naive, _, _ = self.filters()
        for text in ("p(a, 1, x)", "p(X, 2, Y)", "p(U, V, W)"):
            query = read_term(text)
            fast = vector.search(index, query)
            assert fast == bitsliced.search(index, query)
            assert fast == naive.search(index, query)

    def test_search_batch_equals_search(self, backend):
        index = build_index([read_term(t) for t in TestStructuralEdges.HEADS])
        vector, _, _, _, _ = self.filters()
        queries = [
            read_term(t)
            for t in ("p(a, 1, x)", "p(b, Q, R)", "p(S, T, z)", "p(a, 1, x)")
        ]
        batched = vector.search_batch(index, queries)
        assert batched == [vector.search(index, q) for q in queries]

    def test_vector_counters_mirror_bitsliced(self, backend):
        index = build_index([read_term(t) for t in TestStructuralEdges.HEADS])
        vector, bitsliced, _, obs_v, obs_b = self.filters()
        queries = [read_term(t) for t in ("p(a, 1, x)", "p(X, 2, Y)")]
        for query in queries:
            vector.search(index, query)
            bitsliced.search(index, query)
        vector.search_batch(index, queries)
        bitsliced.search_batch(index, queries)
        assert obs_v.registry.total("fs1.vector.scans") == (
            obs_b.registry.total("fs1.bitsliced.scans")
        )
        assert obs_v.registry.total("fs1.vector.columns_touched") == (
            obs_b.registry.total("fs1.bitsliced.columns_touched")
        )
        assert obs_v.registry.total("fs1.vector.scans") == 4

    def test_vector_mode_accepted_by_validation(self):
        FirstStageFilter(SCHEME, mode="vector")
        with pytest.raises(ValueError):
            FirstStageFilter(SCHEME, mode="vectorised")


class TestNumpyIsLoadedLazily:
    """The accelerator is paid for by the engine that uses it, only."""

    SCRIPT = """
import sys
import repro.cluster, repro.net, repro.storage, repro.obs, repro.parallel
from repro.cluster import ShardedRetrievalServer
from repro.storage import Residency
from repro.terms import read_term

server = ShardedRetrievalServer(4, "first_arg")
server.consult_text(" ".join(f"rec(k{i}, g{i % 4})." for i in range(200)))
server.pin_module("user", Residency.DISK)
assert len(server.retrieve(read_term("rec(K, g1)")).candidates) == 50
print("numpy" in sys.modules)
from repro.scw import have_numpy
print(have_numpy() == ("numpy" in sys.modules))
"""

    def test_default_serving_stack_never_imports_numpy(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(vector_module.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # bitsliced FS1 served the goal without numpy; asking for the
        # accelerator afterwards is what loads it (when installed).
        assert done.stdout.split() == ["False", "True"]


class TestSegmentRoundTrip:
    def shared_store(self, tmp_path, heads):
        from repro.parallel.segments import attach_kb, write_segments
        from repro.storage import KnowledgeBase
        from repro.terms import Clause

        kb = KnowledgeBase(scheme=SCHEME)
        for head in heads:
            kb.add_clause(Clause(head, ()))
        write_segments(kb, tmp_path)
        return kb, attach_kb(tmp_path)

    def test_attached_vector_scans_match(self, backend, tmp_path):
        heads = [read_term(f"p(a{i % 5}, {i}, x)") for i in range(70)]
        kb, shared = self.shared_store(tmp_path, heads)
        store = shared.store(("p", 3))
        parent = kb.store(("p", 3))
        assert store.index.vector.backend == backend
        for text in ("p(a1, Y, Z)", "p(X, Y, Z)", "p(a2, 2, x)"):
            codeword = SCHEME.query_codeword(read_term(text))
            expected = parent.index.scan(codeword)
            assert store.index.vector.scan(codeword) == expected
            assert store.index.bitsliced.scan(codeword) == expected
        shared.close()

    def test_numpy_attach_is_zero_copy(self, tmp_path):
        np = pytest.importorskip("numpy")
        heads = [read_term(f"p(a{i % 5}, {i}, x)") for i in range(70)]
        _, shared = self.shared_store(tmp_path, heads)
        vec = shared.store(("p", 3)).index.vector
        # An attached index wraps the mmap directly: read-only, unowned.
        assert not vec._cols.flags.owndata
        assert not vec._cols.flags.writeable
        shared.close()
