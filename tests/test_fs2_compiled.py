"""Differential suite: the compiled FS2 fast path vs the microcoded engine.

The compiled matcher must be *observationally identical* to the
cycle-stepped microcode sequencer — same satisfier sets in the same
Result Memory slots, same ``op_counts`` and ``op_time_ns`` (it drives
the same TUE through the same operation sequence), and the same
``micro_cycles`` (reproduced from the cycle-cost table derived
mechanically from the assembled search program).  Everything here holds
the two modes against each other: hypothesis-generated heads and goals,
the known-nasty corners (shared variables, open lists, in-line integer
boundaries, Result Memory overflow), and the full sharded
``retrieve_batch`` pipeline.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import ClauseRetrievalServer, SearchMode
from repro.fs2 import (
    FS2_MODES,
    FS2ProtocolError,
    MAX_SATISFIERS,
    ResultMemoryFull,
    SecondStageFilter,
    assemble_search_program,
    derive_cycle_costs,
)
from repro.obs import Instrumentation
from repro.pif import SymbolTable, clause_record
from repro.terms import Clause, Int, Struct, Var, functor_indicator, read_term

from .strategies import PIF_INT_MAX, PIF_INT_MIN, clause_heads

CHUNK = 64  # the Double Buffer / Result Memory natural batch size


def build_fs2(mode, heads, obs=None, **kwargs):
    """One filter per mode: each gets its own symbol table and records."""
    symbols = SymbolTable()
    records = [
        bytes(clause_record(Clause(head=head), symbols)) for head in heads
    ]
    fs2 = SecondStageFilter(symbols, mode=mode, obs=obs, **kwargs)
    fs2.load_microprogram()
    return fs2, records


def run_mode(mode, goal, heads):
    """Search the heads in 64-record chunks; collect per-chunk outcomes."""
    fs2, records = build_fs2(mode, heads)
    fs2.set_query(goal)
    outcomes = []
    for start in range(0, len(records), CHUNK):
        stats = fs2.search(records[start : start + CHUNK])
        outcomes.append(
            (
                stats.clauses_examined,
                stats.satisfiers,
                stats.bytes_streamed,
                stats.micro_cycles,
                dict(stats.op_counts),
                stats.op_time_ns,
                fs2.read_results(),
                fs2.result.satisfier_positions(),
            )
        )
        fs2.rearm()
    return outcomes


def assert_differential(goal, heads):
    micro = run_mode("microcoded", goal, heads)
    fast = run_mode("compiled", goal, heads)
    assert fast == micro, f"modes diverge for goal {goal}"


class TestDifferentialProperty:
    """Random heads and goals: every stat and every satisfier agrees."""

    @given(
        heads=st.lists(
            clause_heads(functor="p", arity=3), min_size=1, max_size=20
        ),
        goal=clause_heads(functor="p", arity=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_outcomes(self, heads, goal):
        assert_differential(goal, heads)

    @given(
        heads=st.lists(
            clause_heads(functor="q", arity=1), min_size=1, max_size=12
        ),
        goal=clause_heads(functor="q", arity=1),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_outcomes_unary(self, heads, goal):
        assert_differential(goal, heads)

    # The same properties at the budget the CI stress job runs.

    @pytest.mark.slow
    @given(
        heads=st.lists(
            clause_heads(functor="p", arity=3), min_size=1, max_size=20
        ),
        goal=clause_heads(functor="p", arity=3),
    )
    @settings(max_examples=1000, deadline=None)
    def test_same_outcomes_full_budget(self, heads, goal):
        assert_differential(goal, heads)

    @pytest.mark.slow
    @given(
        heads=st.lists(
            clause_heads(functor="q", arity=1), min_size=1, max_size=12
        ),
        goal=clause_heads(functor="q", arity=1),
    )
    @settings(max_examples=500, deadline=None)
    def test_same_outcomes_unary_full_budget(self, heads, goal):
        assert_differential(goal, heads)


class TestKnownCorners:
    """Hand-picked shapes that stress specific datapath branches."""

    def heads(self, *texts):
        return [read_term(text) for text in texts]

    def test_shared_query_variables(self):
        heads = self.heads(
            "p(a, a, a)", "p(a, a, b)", "p(X, X, Y)", "p(X, Y, X)",
            "p(f(Z), f(Z), g(Z))", "p(1, 1, 1)",
        )
        for goal_text in ("p(A, A, B)", "p(A, A, A)", "p(A, B, A)"):
            assert_differential(read_term(goal_text), heads)

    def test_db_side_variable_aliases(self):
        heads = self.heads(
            "p(V, V, V)", "p(V, W, V)", "p(f(V, V), V, g(V))",
            "p(_, _, _)", "p(V, g(V, W), W)",
        )
        for goal_text in ("p(a, a, a)", "p(f(k, k), k, g(k))", "p(X, g(X, b), b)"):
            assert_differential(read_term(goal_text), heads)

    def test_open_lists(self):
        heads = self.heads(
            "p([1, 2, 3])", "p([1, 2 | T])", "p([])", "p([X | T])",
            "p([a, [b, c] | T])", "p([[1], [2, 3], []])", "p([a | b])",
        )
        for goal_text in (
            "p([1, 2 | Rest])", "p([H | T])", "p([])",
            "p([a, [b | M] | T])", "p(L)",
        ):
            assert_differential(read_term(goal_text), heads)

    def test_inline_integer_boundaries(self):
        edges = [PIF_INT_MIN, PIF_INT_MIN + 1, -1, 0, 1, PIF_INT_MAX - 1, PIF_INT_MAX]
        heads = [Struct("p", (Int(n),)) for n in edges]
        for n in (PIF_INT_MIN, -1, 0, PIF_INT_MAX):
            assert_differential(Struct("p", (Int(n),)), heads)
        assert_differential(Struct("p", (Var("N"),)), heads)

    def test_nested_structs_and_floats(self):
        heads = self.heads(
            "p(f(g(h(a)), 3.5))", "p(f(g(h(b)), 3.5))", "p(f(X, -2.25))",
            "p(f(g(Y), Z))",
        )
        for goal_text in ("p(f(g(h(a)), 3.5))", "p(f(g(W), V))", "p(f(A, 3.5))"):
            assert_differential(read_term(goal_text), heads)

    def test_result_memory_overflow_is_identical(self):
        """>64 satisfiers must overflow the RM at the same record."""
        heads = [read_term(f"p(a, {i})") for i in range(MAX_SATISFIERS + 6)]
        goal = read_term("p(a, N)")
        states = {}
        for mode in FS2_MODES:
            fs2, records = build_fs2(mode, heads)
            fs2.set_query(goal)
            with pytest.raises(ResultMemoryFull):
                fs2.search(records)
            states[mode] = (
                fs2.result.satisfier_count,
                fs2.result.satisfier_positions(),
                fs2.read_results(),
            )
        assert states["compiled"] == states["microcoded"]
        assert states["compiled"][0] == MAX_SATISFIERS


class TestHostProtocol:
    """The compiled mode keeps the exact host-visible mode protocol."""

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown FS2 mode"):
            SecondStageFilter(SymbolTable(), mode="vectorised")

    def test_rearm_requires_a_query(self):
        fs2, _ = build_fs2("compiled", [read_term("p(a)")])
        with pytest.raises(FS2ProtocolError):
            fs2.rearm()

    def test_rearm_equals_set_query(self):
        """rearm() between chunks reproduces a full set_query flush."""
        heads = [read_term(f"p(x{i % 3}, {i})") for i in range(10)]
        goal = read_term("p(x1, N)")
        for mode in FS2_MODES:
            fs2, records = build_fs2(mode, heads)
            fs2.set_query(goal)
            first = (fs2.search(records).satisfiers, fs2.read_results())
            fs2.rearm()
            again = (fs2.search(records).satisfiers, fs2.read_results())
            assert again == first

    def test_satisfier_positions_index_the_call(self):
        heads = [read_term(f"p({'a' if i % 4 == 0 else 'b'}, {i})") for i in range(12)]
        fs2, records = build_fs2("compiled", heads)
        fs2.set_query(read_term("p(a, N)"))
        stats = fs2.search(records)
        positions = fs2.result.satisfier_positions()
        assert positions == [0, 4, 8]
        assert stats.satisfiers == len(positions)
        fs2.rearm()
        fs2.search(records[4:])
        assert fs2.result.satisfier_positions() == [0, 4]

    def test_plan_cache_hits_and_evictions(self):
        obs = Instrumentation()
        heads = [read_term("p(a, 1)"), read_term("p(b, 2)")]
        fs2, records = build_fs2("compiled", heads, obs=obs, plan_cache_size=2)
        total = obs.registry.total
        fs2.set_query(read_term("p(X, N)"))
        fs2.search(records)
        assert (total("fs2.plan_cache.misses"), total("fs2.plan_cache.hits")) == (1, 0)
        # A renamed-variable alias canonicalises to the same plan key.
        fs2.set_query(read_term("p(Foo, Bar)"))
        assert (total("fs2.plan_cache.misses"), total("fs2.plan_cache.hits")) == (1, 1)
        fs2.set_query(read_term("p(a, N)"))
        fs2.set_query(read_term("p(b, N)"))
        assert total("fs2.plan_cache.misses") == 3
        assert total("fs2.plan_cache.evictions") == 1
        # The evicted original re-plans, and still searches identically.
        fs2.set_query(read_term("p(X, N)"))
        assert total("fs2.plan_cache.misses") == 4
        assert fs2.search(records).satisfiers == 2

    def test_cycle_costs_derivation_is_complete(self):
        program = assemble_search_program()
        costs = derive_cycle_costs(program)
        scalars = (
            costs.entry, costs.arg_header, costs.hit_exit, costs.next_to_arg,
            costs.next_to_elem, costs.elem_header, costs.finish_hit,
            costs.finish_miss,
        )
        assert all(isinstance(c, int) and c > 0 for c in scalars)
        # Every map-ROM (db class, query class) pair is costed for the
        # three reachable (hit, entered) machine states.
        assert len(costs.dispatch) == 36 * 3
        assert all(cycles > 0 for cycles in costs.dispatch.values())


class TestShardedDifferential:
    """Every shard of a cluster agrees with its microcoded oracle."""

    PROGRAM = "\n".join(
        [f"edge(n{i % 9}, n{(i * 7) % 11}, {i})." for i in range(40)]
        + ["edge(X, X, 0).", "edge(n1, Y, cost(Y))."]
        + [f"fact(f(k{i % 5}), [v{i % 3} | T])." for i in range(12)]
    )
    GOALS = [
        read_term("edge(n1, X, C)"),
        read_term("edge(A, A, C)"),
        read_term("fact(f(k2), [v0, v9])"),
        read_term("fact(F, L)"),
    ]

    @pytest.mark.parametrize("search_mode", [SearchMode.FS2_ONLY, SearchMode.BOTH])
    def test_retrieve_batch_agrees(self, search_mode):
        cluster = ShardedRetrievalServer(
            3, ShardingPolicy.FIRST_ARG, cache_size=0
        )
        cluster.consult_text(self.PROGRAM)
        compared = 0
        for shard in cluster.shards:
            oracle = ClauseRetrievalServer(shard.kb, fs2_mode="microcoded")
            goals = [
                goal
                for goal in self.GOALS
                if shard.kb.has_predicate(functor_indicator(goal))
            ]
            fast = shard.server.retrieve_batch(goals, mode=search_mode)
            micro = oracle.retrieve_batch(goals, mode=search_mode)
            assert [
                ([str(c) for c in r.candidates], r.stats) for r in fast
            ] == [([str(c) for c in r.candidates], r.stats) for r in micro]
            compared += len(goals)
        assert compared > len(self.GOALS)  # the clauses did spread out
