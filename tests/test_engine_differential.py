"""Randomised differential testing: the ZIP machine vs the tree-walking oracle.

Random stratified Datalog-style programs (guaranteed terminating) are run
on both; solution sequences must be identical, goal by goal.  The
machine runs every construct on its own stacks (negation and cut
included), so nothing here reaches the oracle from the machine.
"""

import random

import pytest

from repro.engine.zipvm import ZipMachine
from repro.storage import KnowledgeBase
from repro.terms import (
    Atom,
    Clause,
    Struct,
    Var,
    functor_indicator,
    term_to_string,
    variables,
)
from tests.oracle import Solver


def random_program(rng: random.Random) -> tuple[KnowledgeBase, list[Struct]]:
    """A stratified program: layer-n rules only call layer-(n-1) predicates.

    Stratification guarantees termination without occurs-style loops, so
    both engines can enumerate every solution.
    """
    kb = KnowledgeBase()
    constants = [Atom(f"c{i}") for i in range(rng.randint(3, 6))]
    layers: list[list[tuple[str, int]]] = [[]]
    # Layer 0: fact predicates.
    for p in range(rng.randint(2, 3)):
        name = f"f{p}"
        arity = rng.randint(1, 2)
        layers[0].append((name, arity))
        for _ in range(rng.randint(1, 6)):
            args = tuple(rng.choice(constants) for _ in range(arity))
            kb.add_clause(Clause(Struct(name, args)))
    # Layers 1..2: rules over the previous layer.
    for layer_number in (1, 2):
        layer: list[tuple[str, int]] = []
        for p in range(rng.randint(1, 2)):
            name = f"r{layer_number}_{p}"
            arity = rng.randint(1, 2)
            layer.append((name, arity))
            for _ in range(rng.randint(1, 3)):
                head_vars = [Var(f"X{i}") for i in range(arity)]
                body = []
                pool = list(head_vars)
                for _ in range(rng.randint(1, 2)):
                    target, target_arity = rng.choice(layers[layer_number - 1])
                    args = []
                    for _ in range(target_arity):
                        if pool and rng.random() < 0.7:
                            args.append(rng.choice(pool))
                        elif rng.random() < 0.5:
                            fresh = Var(f"Y{len(pool)}")
                            pool.append(fresh)
                            args.append(fresh)
                        else:
                            args.append(rng.choice(constants))
                    body.append(Struct(target, tuple(args)))
                kb.add_clause(Clause(Struct(name, tuple(head_vars)), tuple(body)))
        layers.append(layer)
    # Goals: one per predicate, fully open.
    goals = []
    for layer in layers:
        for name, arity in layer:
            goals.append(Struct(name, tuple(Var(f"Q{i}") for i in range(arity))))
    return kb, goals


def canonical(terms: tuple) -> tuple:
    """Render a solution tuple with unbound variables renamed positionally.

    Fresh-variable names differ between engines (``_Z8`` vs ``_X0_6``);
    only the *pattern* of unbound variables is semantically meaningful.
    """

    mapping: dict[str, str] = {}

    def rename(term):
        if isinstance(term, Var):
            if term.name not in mapping:
                mapping[term.name] = f"_G{len(mapping)}"
            return Var(mapping[term.name])
        if isinstance(term, Struct):
            return Struct(term.functor, tuple(rename(a) for a in term.args))
        return term

    return tuple(term_to_string(rename(t)) for t in terms)


def kb_retriever(kb: KnowledgeBase):
    def retriever(g):
        indicator = functor_indicator(g)
        return kb.clauses(indicator) if kb.has_predicate(indicator) else []

    return retriever


def solutions_of(engine, goal: Struct) -> list[tuple]:
    goal_vars = list(variables(goal))
    return [
        canonical(tuple(bindings.resolve(v) for v in goal_vars))
        for bindings in engine.solve(goal)
    ]


def interpreter_solutions(kb: KnowledgeBase, goal: Struct) -> list[tuple]:
    return solutions_of(Solver(kb_retriever(kb)), goal)


def compiled_solutions(kb: KnowledgeBase, goal: Struct) -> list[tuple]:
    return solutions_of(ZipMachine(kb_retriever(kb)), goal)


@pytest.mark.parametrize("seed", range(25))
def test_engines_agree_on_random_programs(seed):
    rng = random.Random(seed)
    kb, goals = random_program(rng)
    assert_engines_agree(seed, kb, goals)


def add_negated_clauses(rng: random.Random, kb: KnowledgeBase) -> int:
    """Append a clause with a ``\\+`` goal to some rule predicates."""
    facts = [ind for ind in kb.predicates() if ind[0].startswith("f")]
    poisoned = 0
    for indicator in list(kb.predicates()):
        if not indicator[0].startswith("r") or rng.random() >= 0.6:
            continue
        name, arity = indicator
        pos_name, pos_arity = rng.choice(facts)
        neg_name, neg_arity = rng.choice(facts)
        head_vars = [Var(f"X{i}") for i in range(arity)]
        pool = list(head_vars)
        pos_args = tuple(pool[i % len(pool)] for i in range(pos_arity))
        neg_args = tuple(pool[i % len(pool)] for i in range(neg_arity))
        kb.add_clause(
            Clause(
                Struct(name, tuple(head_vars)),
                (
                    Struct(pos_name, pos_args),
                    Struct("\\+", (Struct(neg_name, neg_args),)),
                ),
            )
        )
        poisoned += 1
    return poisoned


def add_cuts(rng: random.Random, kb: KnowledgeBase) -> None:
    """Append a cut to the first clause of some rule predicates."""
    for indicator in list(kb.predicates()):
        clauses = kb.clauses(indicator)
        if any(not c.is_fact for c in clauses) and rng.random() < 0.7:
            first = clauses[0]
            if not first.is_fact:
                modified = Clause(first.head, first.body + (Atom("!"),))
                kb.retract(first)
                kb.asserta(modified)


def assert_engines_agree(seed: int, kb: KnowledgeBase, goals) -> None:
    for goal in goals:
        interpreted = interpreter_solutions(kb, goal)
        compiled = compiled_solutions(kb, goal)
        assert compiled == interpreted, (
            f"seed {seed}, goal {term_to_string(goal)}"
        )


@pytest.mark.parametrize("seed", range(35, 45))
def test_engines_agree_with_uncompilable_clauses(seed):
    """Programs where some predicates hold a clause with negation.

    The machine runs ``\\+`` on its own stacks, next to the compiled
    callers and siblings; the answer sequence must match the oracle
    exactly.
    """
    rng = random.Random(seed)
    kb, goals = random_program(rng)
    if not add_negated_clauses(rng, kb):
        pytest.skip("seed produced no rule predicates to poison")
    assert_engines_agree(seed, kb, goals)


def test_per_predicate_fallback_keeps_siblings_compiled():
    """A predicate with negation in its body and its caller, on one machine.

    The machine runs ``odd/1`` (negation in the body) and its caller
    ``classify/2`` itself, with the oracle's answers.
    """
    kb = KnowledgeBase()
    kb.consult_text(
        """
        num(1). num(2). num(3). num(4).
        even(2). even(4).
        odd(X) :- num(X), \\+ even(X).
        classify(X, odd) :- odd(X).
        classify(X, even) :- even(X).
        """
    )

    def retriever(g):
        indicator = functor_indicator(g)
        return kb.clauses(indicator) if kb.has_predicate(indicator) else []

    goal = Struct("classify", (Var("N"), Var("K")))
    vm = ZipMachine(retriever)
    got = solutions_of(vm, goal)
    assert got == interpreter_solutions(kb, goal)
    assert got == [("1", "odd"), ("3", "odd"), ("2", "even"), ("4", "even")]
    assert not hasattr(vm, "escapes")
    # Every call ran on the machine: classify/2, odd/1 and num/1 once,
    # even/1 once per number under \+ and once for classify/2's second
    # clause.
    assert vm.calls == 3 + 4 + 1


@pytest.mark.parametrize(
    "goal_text, answers",
    [("p(2)", 1), ("p(3)", 1), ("p(5)", 0), ("q(X)", 2), ("p(1)", None)],
)
def test_engines_agree_around_a_non_callable_goal(goal_text, answers):
    """A clause whose body holds a number only fails a call that reaches it.

    ``p(1) :- 3.`` must not spoil ``p(2)`` (its head does not match) and
    ``p(X) :- fail, 3.`` never reaches the number; ``p(1)`` does, and
    both engines raise a ``PrologError`` there (``None`` below).
    """
    from repro.engine import PrologError
    from repro.terms import read_term

    kb = KnowledgeBase()
    kb.consult_text("p(1) :- 3. p(2). p(X) :- fail, 3. p(3). q(a). q(X) :- X = 3, p(X).")
    goal = read_term(goal_text)
    if answers is None:
        for solve in (interpreter_solutions, compiled_solutions):
            with pytest.raises(PrologError, match="not callable"):
                solve(kb, goal)
        return
    got = compiled_solutions(kb, goal)
    assert got == interpreter_solutions(kb, goal)
    assert len(got) == answers


@pytest.mark.parametrize("seed", range(25, 35))
def test_engines_agree_with_cuts(seed):
    """Random programs with a cut appended to some rules."""
    rng = random.Random(seed)
    kb, goals = random_program(rng)
    add_cuts(rng, kb)
    assert_engines_agree(seed, kb, goals)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100, 400))
def test_engines_agree_with_cuts_and_negation_at_scale(seed):
    """The random-program differential over many more seeds.

    Each program gets cuts and ``\\+`` clauses, the two constructs that
    used to leave the machine; the sequences must match the oracle.
    """
    rng = random.Random(seed)
    kb, goals = random_program(rng)
    add_negated_clauses(rng, kb)
    add_cuts(rng, kb)
    assert_engines_agree(seed, kb, goals)
