"""Tests for the ZIP-style compiled-clause machine.

The headline invariant: the compiled machine and the tree-walking oracle
(``tests/oracle.py``) produce identical solution sequences, control
constructs and all-solutions builtins included.
"""

import random

import pytest

from repro.engine import PrologError, PrologMachine
from repro.engine.zipvm import (
    COMPILE_CACHE_SIZE,
    CompileError,
    ZipMachine,
    compile_clause_code,
)
from repro.storage import KnowledgeBase
from repro.terms import (
    clause_from_term,
    functor_indicator,
    read_term,
    term_to_string,
    variables,
)
from tests.oracle import oracle_answers


def make_vm(program: str):
    kb = KnowledgeBase()
    kb.consult_text(program)

    def retriever(goal):
        indicator = functor_indicator(goal)
        if not kb.has_predicate(indicator):
            return []
        return kb.clauses(indicator)

    return ZipMachine(retriever), kb


def vm_answers(vm: ZipMachine, goal_text: str):
    goal = read_term(goal_text)
    names = [v for v in variables(goal) if not v.is_anonymous()]
    out = []
    for bindings in vm.solve(goal):
        out.append(
            tuple(term_to_string(bindings.resolve(v)) for v in names)
        )
    return out


class TestCompilation:
    def test_fact_listing(self):
        code = compile_clause_code(clause_from_term(read_term("p(a, X)")))
        assert code.listing() == ["GET A0, a", "GET A1, Y0", "NECK", "PROCEED"]
        assert code.slots == 1

    def test_rule_listing(self):
        code = compile_clause_code(
            clause_from_term(read_term("p(X) :- q(X), X > 1"))
        )
        listing = code.listing()
        assert listing[0] == "GET A0, Y0"
        assert any(line.startswith("CALL q(") for line in listing)
        assert any(line.startswith("BUILTIN") for line in listing)

    def test_cut_compiles(self):
        code = compile_clause_code(
            clause_from_term(read_term("p(X) :- q(X), !"))
        )
        assert "CUT" in code.listing()

    def test_structures_in_head(self):
        code = compile_clause_code(
            clause_from_term(read_term("p(f(X, [1 | X]))"))
        )
        assert code.slots == 1
        assert code.listing()[0].startswith("GET A0, f(")

    def test_unsupported_constructs_rejected(self):
        # Control constructs, all-solutions and database builtins
        # compile: the machine runs them on its own stacks.
        for text in [
            "p(X) :- (q(X) ; r(X))",
            "p(X) :- \\+ q(X)",
            "p(X) :- findall(Y, q(Y), X)",
            "p(X) :- assertz(q(X))",
        ]:
            listing = compile_clause_code(clause_from_term(read_term(text))).listing()
            assert listing[-2].startswith("BUILTIN"), text
        # A body goal that can never be called is rejected when the
        # body reaches it, not when the clause compiles.
        vm, _ = make_vm("p(X) :- q(X), 3. q(1).")
        with pytest.raises(CompileError, match="not callable"):
            list(vm.solve(read_term("p(X)")))

    def test_compilation_memoised(self):
        clause = clause_from_term(read_term("memo_test(a, b)"))
        assert compile_clause_code(clause) is compile_clause_code(clause)

    def test_compile_cache_stays_bounded_across_mutation_rounds(self):
        # Assert 2 000 facts, solve over them and retract them, three
        # times on a 2-shard cluster: every round compiles 2 000 new
        # clauses, and the cache never holds more than its bound.
        from repro.cluster import ShardedRetrievalServer
        from repro.engine import SolveEngine
        from repro.engine.zipvm import _COMPILE_CACHE

        cluster = ShardedRetrievalServer(2)
        cluster.consult_text("seen(X) :- item(X, _).")
        for round_number in range(3):
            facts = [
                read_term(f"item(r{round_number}_{i}, {i})") for i in range(2000)
            ]
            for fact in facts:
                cluster.assertz(fact)
            answers = list(SolveEngine(cluster).solve(read_term("seen(X)")))
            assert len(answers) == 2000
            for fact in facts:
                cluster.retract(fact)
            assert len(_COMPILE_CACHE) <= COMPILE_CACHE_SIZE
        assert len(_COMPILE_CACHE) == COMPILE_CACHE_SIZE


class TestExecution:
    def test_facts_and_order(self):
        vm, _ = make_vm("p(c). p(a). p(b).")
        assert vm_answers(vm, "p(X)") == [("c",), ("a",), ("b",)]

    def test_conjunctive_rule(self):
        vm, _ = make_vm(
            "parent(tom, bob). parent(bob, ann). "
            "grand(X, Z) :- parent(X, Y), parent(Y, Z)."
        )
        assert vm_answers(vm, "grand(tom, Z)") == [("ann",)]

    def test_recursion(self):
        vm, _ = make_vm(
            "nat(z). nat(s(X)) :- nat(X)."
        )
        goal = read_term("nat(N)")
        first_four = []
        for bindings in vm.solve(goal):
            first_four.append(term_to_string(bindings.resolve(read_term("N"))))
            if len(first_four) == 4:
                break
        assert first_four == ["z", "s(z)", "s(s(z))", "s(s(s(z)))"]

    def test_append_generation(self):
        vm, _ = make_vm(
            "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R)."
        )
        assert len(vm_answers(vm, "app(A, B, [1, 2, 3])")) == 4

    def test_cut_commits(self):
        vm, _ = make_vm("q(1). q(2). p(X) :- q(X), !. p(99).")
        assert vm_answers(vm, "p(X)") == [("1",)]

    def test_cut_in_max(self):
        vm, _ = make_vm("max(X, Y, X) :- X >= Y, !. max(_, Y, Y).")
        assert vm_answers(vm, "max(3, 2, M)") == [("3",)]
        assert vm_answers(vm, "max(2, 7, M)") == [("7",)]

    def test_inline_arithmetic(self):
        vm, _ = make_vm(
            "fact(0, 1). "
            "fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G."
        )
        assert vm_answers(vm, "fact(5, F)") == [("120",)]

    def test_inline_type_tests(self):
        vm, _ = make_vm(
            "classify(X, number) :- number(X), !. "
            "classify(X, atom) :- atom(X), !. "
            "classify(_, other)."
        )
        assert vm_answers(vm, "classify(3, C)") == [("number",)]
        assert vm_answers(vm, "classify(foo, C)") == [("atom",)]
        assert vm_answers(vm, "classify(f(x), C)") == [("other",)]

    def test_failure_yields_nothing(self):
        vm, _ = make_vm("p(a).")
        assert vm_answers(vm, "p(zzz)") == []

    def test_counters(self):
        vm, _ = make_vm("p(1). p(2). q(X) :- p(X), p(X).")
        list(vm.solve(read_term("q(X)")))
        assert vm.calls > 0
        assert vm.backtracks > 0

    def test_unbound_goal_raises(self):
        vm, _ = make_vm("p(a).")
        with pytest.raises(PrologError):
            list(vm.solve(read_term("X")))


FAMILY = """
parent(tom, bob). parent(tom, liz). parent(bob, ann).
parent(bob, pat). parent(pat, jim). parent(liz, joe).
male(tom). male(bob). male(jim). male(joe).
female(liz). female(ann). female(pat).
father(X, Y) :- parent(X, Y), male(X).
sibling(X, Y) :- parent(P, X), parent(P, Y), X \\== Y.
anc(X, Y) :- parent(X, Y).
anc(X, Z) :- parent(X, Y), anc(Y, Z).
pick(X) :- parent(tom, X), !.
len([], 0).
len([_|T], N) :- len(T, M), N is M + 1.
"""

DIFFERENTIAL_GOALS = [
    "parent(tom, X)",
    "parent(X, jim)",
    "father(F, C)",
    "sibling(A, B)",
    "anc(tom, D)",
    "anc(A, jim)",
    "pick(X)",
    "len([a, b, c, d], N)",
    "parent(nobody, X)",
    "anc(X, Y), male(X), female(Y)",
    # Every inline builtin, from the one builtin table; the last rows
    # end in errors both engines must share.
    "true, parent(tom, X)",
    "parent(tom, X), fail",
    "parent(pat, X), false",
    "parent(tom, X), X = bob",
    "parent(tom, X), X \\= bob",
    "parent(P, C), P == bob",
    "parent(P, C), P \\== bob",
    "len([a, b], N), M is N * 3 + 1",
    "len([a], N), N < 2, N > 0, N =< 1, N >= 1",
    "len([a], N), N =:= 1.0, N =\\= 2",
    "parent(tom, X), X @< c",
    "parent(tom, X), X @> bob",
    "parent(X, Y), X @=< bob, Y @>= joe",
    "var(X), X = a, nonvar(X), atom(X), atomic(X)",
    "N is 7, number(N), integer(N)",
    "F is 2.5 * 2, float(F), atomic(F)",
    "T = f(a), compound(T), \\+ atom(T)",
    "parent(tom, X), X == Y",
    "X is Y + 1",
    "parent(tom, X), N is X + 1",
    "len([a], N), M is N / 0",
    "parent(tom, X), X < 3",
    # Control constructs and all-solutions builtins, including a cut
    # inside a disjunction at the query's top level.
    "(parent(tom, X) ; parent(bob, X))",
    "(parent(tom, X), ! ; parent(bob, X))",
    "parent(P, C), (male(C) -> S = m ; S = f)",
    "(parent(zzz, _) -> S = yes ; S = no)",
    "parent(tom, X), \\+ male(X)",
    "female(X), not(parent(X, _))",
    "call((parent(P, C), !))",
    "once(anc(tom, D))",
    "forall(parent(bob, C), anc(tom, C))",
    "findall(C, parent(bob, C), L)",
    "findall(P-C, (parent(P, C), \\+ male(C)), L)",
    "bagof(C, parent(P, C), L)",
    "setof(P, C^parent(P, C), L)",
    "bagof(C, parent(zzz, C), L)",
    "between(1, 4, N), N mod 2 =:= 0",
    "clause(parent(tom, C), true)",
    "clause(father(F, C), Body), F = tom, C = bob",
    "parent(tom, X), findall(Y, anc(X, Y), L), length(L, N)",
]


def outcome(run):
    """The run's answers in order, or the error that ended it."""
    try:
        return run()
    except PrologError as exc:
        return type(exc).__name__, str(exc)


class TestDifferentialEquivalence:
    """Compiled machine == oracle on every goal, answers in order."""

    @pytest.mark.parametrize("goal_text", DIFFERENTIAL_GOALS)
    def test_same_solution_sequences(self, goal_text):
        vm, kb = make_vm(FAMILY)
        machine = PrologMachine(kb, unknown_predicates="fail")
        goal = read_term(goal_text)
        names = [v.name for v in variables(goal) if not v.is_anonymous()]
        interpreted = outcome(lambda: [
            tuple(term_to_string(s[n]) for n in names)
            for s in oracle_answers(machine, goal)
        ])
        compiled = outcome(lambda: vm_answers(vm, goal_text))
        assert compiled == interpreted, goal_text

    def test_random_ground_queries(self):
        vm, kb = make_vm(FAMILY)
        machine = PrologMachine(kb, unknown_predicates="fail")
        rng = random.Random(5)
        people = ["tom", "bob", "liz", "ann", "pat", "jim", "joe", "zzz"]
        for _ in range(60):
            a, b = rng.choice(people), rng.choice(people)
            predicate = rng.choice(["parent", "father", "sibling", "anc"])
            goal_text = f"{predicate}({a}, {b})"
            compiled = bool(vm_answers(vm, goal_text))
            interpreted = bool(list(oracle_answers(machine, read_term(goal_text))))
            assert compiled == interpreted, goal_text


class TestWatchdog:
    def test_step_limit_on_runaway_recursion(self):
        vm, _ = make_vm("loop(X) :- loop(X).")
        vm.max_steps = 1000
        with pytest.raises(PrologError, match="steps"):
            list(vm.solve(read_term("loop(1)")))


class TestCompiledEngineOverDisk:
    def test_compiled_solve_through_clare(self):
        """The ZIP machine retrieving through the full CLARE pipeline."""
        from repro.storage import Residency

        kb = KnowledgeBase()
        kb.consult_text(
            " ".join(f"stock(item{i}, {i * 3})." for i in range(120))
            + " cheap(I) :- stock(I, N), N < 30.",
            module="data",
        )
        kb.module("data").pin(Residency.DISK)
        kb.sync_to_disk()
        machine = PrologMachine(kb, unknown_predicates="fail")
        compiled = sorted(
            term_to_string(s["I"]) for s in machine.solve_text("cheap(I)")
        )
        interpreted = sorted(
            term_to_string(s["I"])
            for s in oracle_answers(machine, read_term("cheap(I)"))
        )
        assert compiled == interpreted
        assert len(compiled) == 10  # 0..27 by threes
        assert machine.stats.retrievals > 0  # the CRS did the fetching
