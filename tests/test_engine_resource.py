"""Regression tests: deep recursion budgets and cyclic (rational-tree) bindings.

Two resolution-engine failure modes fixed in the same sweep:

* deep conjunctive recursion used to die with a raw ``RecursionError``
  (the tree-walking interpreter, now the test oracle, nests one
  generator chain per proof level, so a ~160-deep proof blew the
  default Python stack budget — e.g. ``nrev`` on a 300-element list, or
  a long ``path/2`` chain); the oracle cases below hold its typed
  ``ResourceError``, and the ZIP machine needs no Python stack at all;
* cyclic bindings (``X = f(X)``, legal under no-occurs-check
  unification) used to hang or overflow when resolved, printed, tested
  for groundness, or unified against another cycle.
"""

import pytest

from repro.engine import PrologMachine, PrologError, ResourceError
from repro.engine.zipvm import ZipMachine
from repro.storage import KnowledgeBase
from repro.terms import (
    Atom,
    Struct,
    Var,
    clause_from_term,
    functor_indicator,
    read_program,
    read_term,
    term_to_string,
    variables,
)
from repro.workloads import chain_program, nrev_goal, nrev_program
from tests.oracle import Solver


def indexed_retriever(text: str):
    """A first-argument-indexed in-memory retriever.

    Deep-chain tests need thousands of inferences; without first-arg
    indexing every ``edge/2`` call would scan the whole fact base and
    the test would measure unification throughput instead of recursion
    depth.  This mirrors what the CRS provides (a sound candidate
    superset, much smaller than the procedure).
    """
    by_indicator: dict = {}
    for term in read_program(text):
        clause = clause_from_term(term)
        by_indicator.setdefault(clause.indicator, []).append(clause)

    def retrieve(goal):
        clauses = by_indicator.get(functor_indicator(goal), [])
        if isinstance(goal, Struct) and goal.args:
            first = goal.args[0]
            if isinstance(first, Atom):
                return [
                    c for c in clauses
                    if not (
                        isinstance(c.head.args[0], Atom)
                        and c.head.args[0] != first
                    )
                ]
        return list(clauses)

    return retrieve


class TestDeepRecursion:
    def test_deep_chain_resolves_past_the_default_python_stack(self):
        # 2000 proof levels is far beyond the ~160 the interpreter
        # could field before it sized the stack budget explicitly.
        depth = 2000
        solver = Solver(indexed_retriever(chain_program(depth)))
        goal = read_term(f"path(n0, n{depth})")
        assert len(list(solver.solve(goal))) == 1

    def test_depth_beyond_the_stack_ceiling_raises_resource_error(self):
        # A proof too deep for any safe Python stack must surface as
        # the typed ResourceError, never a raw RecursionError.
        depth = 6000
        solver = Solver(indexed_retriever(chain_program(depth)))
        goal = read_term(f"path(n0, n{depth})")
        with pytest.raises(ResourceError, match="stack|depth"):
            list(solver.solve(goal))

    def test_configured_depth_limit_raises_resource_error(self):
        solver = Solver(
            indexed_retriever(chain_program(100)), max_depth=20
        )
        with pytest.raises(ResourceError, match="depth"):
            list(solver.solve(read_term("path(n0, n100)")))

    def test_resource_error_is_a_prolog_error(self):
        # Callers that already catch PrologError keep working.
        assert issubclass(ResourceError, PrologError)

    def test_zip_machine_is_stackless_on_deep_chains(self):
        # The VM drives explicit goal/choice-point stacks, so the same
        # proof depth needs no Python stack headroom at all.
        depth = 2500
        vm = ZipMachine(indexed_retriever(chain_program(depth)))
        goal = read_term(f"path(n0, n{depth})")
        assert len(list(vm.solve(goal))) == 1

    def test_nrev_answer_is_correct(self):
        # The workload from the original failure report, scaled to a
        # size the simulator interprets quickly; the recursion-depth
        # coverage above goes far deeper than nrev-300 ever did.
        solver = Solver(indexed_retriever(nrev_program()))
        n = 60
        goal = read_term(nrev_goal(n))
        result_var = next(v for v in variables(goal) if v.name == "R")
        # The solver yields live bindings: snapshot before advancing.
        rendered = [
            term_to_string(b.resolve(result_var)) for b in solver.solve(goal)
        ]
        expected = "[" + ",".join(str(i) for i in reversed(range(n))) + "]"
        assert rendered == [expected]


class TestCyclicBindings:
    def setup_method(self):
        self.kb = KnowledgeBase()
        self.kb.consult_text("mark(done).")
        self.machine = PrologMachine(self.kb, unknown_predicates="fail")

    def test_cyclic_binding_can_be_created_and_printed(self):
        solutions = list(self.machine.solve_text("X = f(X)"))
        assert len(solutions) == 1
        # Printing must terminate; the cycle variable appears unexpanded.
        rendered = term_to_string(solutions[0]["X"])
        assert rendered.startswith("f(")

    def test_cyclic_binding_is_backtracked_over(self):
        solutions = list(
            self.machine.solve_text("(X = f(X), mark(X) ; X = done)")
        )
        assert [term_to_string(s["X"]) for s in solutions] == ["done"]

    def test_two_cycles_unify(self):
        # Coinductive struct-struct unification: both sides are the
        # rational tree f(f(f(...))), so X = Y must succeed.
        solutions = list(
            self.machine.solve_text("X = f(X), Y = f(Y), X = Y")
        )
        assert len(solutions) == 1

    def test_cycle_against_mismatched_functor_fails(self):
        assert not list(
            self.machine.solve_text("X = f(X), Y = g(Y), X = Y")
        )

    def test_ground_on_cyclic_term(self):
        # A rational tree with no free leaves is ground (SWI semantics).
        assert len(list(self.machine.solve_text("X = f(X), ground(X)"))) == 1
        assert not list(self.machine.solve_text("X = f(X, Z), ground(X)"))

    def test_nested_cycle_inside_structure(self):
        solutions = list(
            self.machine.solve_text("X = g(a, X), X = g(A, B)")
        )
        assert len(solutions) == 1
        assert term_to_string(solutions[0]["A"]) == "a"


DEEP_PROGRAMS = {
    "plain": "p(0). p(N) :- N > 0, M is N - 1, p(M).",
    "if_then_else": "p(0). p(N) :- N > 0, M is N - 1, ( M < 0 -> fail ; p(M) ).",
    "findall": "p(0). p(N) :- N > 0, M is N - 1, findall(x, p(M), _).",
}


class TestTenThousandLevels:
    """10 000 proof levels on the one engine, through every path.

    Far deeper than a Python-stack interpreter reaches (the oracle's
    ceiling is ~3 000 levels): recursion through ``->``/``;`` and
    through ``findall/3`` must stay on the machine's own stacks.
    """

    DEPTH = 10_000

    @pytest.mark.parametrize("shape", sorted(DEEP_PROGRAMS))
    def test_prolog_machine(self, shape):
        kb = KnowledgeBase()
        kb.consult_text(DEEP_PROGRAMS[shape])
        machine = PrologMachine(kb)
        assert machine.count_solutions(f"p({self.DEPTH})") == 1

    @pytest.mark.parametrize("shape", sorted(DEEP_PROGRAMS))
    def test_solve_engine_on_two_shards(self, shape):
        from repro.cluster import ShardedRetrievalServer
        from repro.engine import SolveEngine

        cluster = ShardedRetrievalServer(2)
        cluster.consult_text(DEEP_PROGRAMS[shape])
        engine = SolveEngine(cluster)
        assert len(list(engine.solve(read_term(f"p({self.DEPTH})")))) == 1


class TestLongListsAtTheDefaultRecursionLimit:
    """Answers holding 5 000-element lists, in a fresh interpreter.

    Nothing in the engine raises the recursion limit, so these run at
    CPython's default of 1 000 frames: resolving an answer, unifying,
    comparing, sorting and keying a long list must all be iterative.
    The test process's own limit is raised by the oracle, so the goals
    run in a subprocess.
    """

    SCRIPT = """
import sys
sys.setrecursionlimit(1000)
from repro.cluster import ShardedRetrievalServer
from repro.engine import PrologMachine, SolveEngine
from repro.storage import KnowledgeBase
from repro.terms import Int, Var, list_parts, read_term

N = 5000
NUMBERS = [Int(i) for i in range(1, N + 1)]
PROGRAM = "mylen([], 0). mylen([_|T], N) :- mylen(T, M), N is M + 1."
GOALS = {
    f"findall(X, between(1, {N}, X), L)": "numbers",
    f"length(L, {N})": "fresh",
    f"findall(X, between(1, {N}, X), L), findall(Y, between(1, {N}, Y), M),"
    f" L == M, L = M, compare(=, L, M), msort([M, L], [_, _]),"
    f" sort([M, L], [S]), S == L": "numbers",
    f"findall(X, between(2, {N}, X), M), findall(X, between(1, {N}, X), L),"
    f" L @< M, setof(X, between(1, {N}, X), S), S == L": "numbers",
}
# A user predicate walking a list: each call's goal (keyed by the
# cluster cache) holds the rest of the list.
SHORT = "findall(X, between(1, 600, X), L), mylen(L, 600)"


def check(kind, answer):
    items, tail = list_parts(answer["L"])
    assert str(tail) == "[]", tail
    if kind == "numbers":
        assert items == NUMBERS
    else:
        assert len(set(items)) == N and all(isinstance(v, Var) for v in items)


kb = KnowledgeBase()
kb.consult_text(PROGRAM)
machine = PrologMachine(kb)
cluster = ShardedRetrievalServer(2)
cluster.consult_text(PROGRAM)
engine = SolveEngine(cluster)
for solve in (machine.solve_text, lambda text: engine.solve(read_term(text))):
    for goal, kind in GOALS.items():
        answers = list(solve(goal))
        assert len(answers) == 1, goal
        check(kind, answers[0])
    assert len(list(solve(SHORT))) == 1
assert sys.getrecursionlimit() == 1000
"""

    def test_long_list_answers_need_no_recursion_headroom(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-3000:]
