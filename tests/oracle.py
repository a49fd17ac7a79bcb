"""The tree-walking SLD interpreter: the differential oracle for the ZIP machine.

A generator-based depth-first solver over a clause retriever, with its
own control constructs (conjunction, disjunction, if-then-else, cut,
negation as failure, ``call``/``once``/``forall``) and its own
``findall``/``bagof``/``setof``, nested as Python generators.  It runs the
same builtin table as :class:`repro.engine.zipvm.ZipMachine`
(:mod:`repro.engine.builtins`), so a disagreement between the two is a
disagreement about resolution, not about what a builtin does.

Each proof level nests a few Python frames, so the solver raises the
recursion limit toward its depth budget and turns a ``RecursionError``
into :class:`repro.engine.ResourceError` past a per-version ceiling.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator

from repro.engine import PrologMachine
from repro.engine.builtins import (
    BUILTINS,
    Database,
    PrologError,
    ResourceError,
    bagof_answers,
    bagof_witness,
    split_clause,
    unify_answer,
)
from repro.terms import (
    Clause,
    Struct,
    Term,
    Var,
    freshen_anonymous,
    functor_indicator,
    make_list,
    rename_apart,
    term_to_string,
    variables,
)
from repro.unify import Bindings, unify

__all__ = ["Solver", "machine_oracle", "oracle_answers"]

Retriever = Callable[[Term], list[Clause]]

#: Python frames one resolution level costs in the generator-based DFS
#: (``_solve_goal`` -> ``_call_user_predicate`` -> ``_solve_conjunction``
#: plus a control frame or two).  Used to translate a depth budget into
#: a recursion-limit request.
_FRAMES_PER_DEPTH = 6

#: Never ask CPython for more frames than the C stack of this build can
#: actually resume through: deep ``yield from`` chains re-enter one C
#: frame per level.  On 3.11+ an 8 MiB stack segfaults somewhere beyond
#: ~40k resumed generator frames, so 20k keeps a 2x margin (~4 500
#: levels of a ``path/2`` chain).  Before 3.11 every Python call also
#: recursed in C, and the same stack died near 19k frames (a 5 000-level
#: chain under 3.10.13), so those interpreters stop at 12k (~2 700
#: levels); past the ceiling, ``RecursionError`` becomes
#: ``ResourceError``.
_RECURSION_LIMIT_CEILING = 20_000 if sys.version_info >= (3, 11) else 12_000


def _ensure_stack_headroom(max_depth: int) -> None:
    """Raise the interpreter recursion limit toward the depth budget.

    Monotonic (never lowers the limit) so concurrent solver threads can
    not yank frames out from under each other; capped by the C-stack
    ceiling, beyond which the RecursionError -> ResourceError translation
    in :meth:`Solver.solve` takes over.
    """
    needed = min(1000 + max_depth * _FRAMES_PER_DEPTH, _RECURSION_LIMIT_CEILING)
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)


class _CutSignal:
    """Per-call cut barrier: '!' sets it; the clause loop honours it."""

    __slots__ = ("cut",)

    def __init__(self) -> None:
        self.cut = False


class Solver:
    """Resolution by recursive generators over a clause retriever."""

    def __init__(
        self,
        retriever: Retriever,
        assertz: Callable[[Clause], None] | None = None,
        asserta: Callable[[Clause], None] | None = None,
        retract: Callable[[Clause], object] | None = None,
        max_depth: int = 100_000,
        output=None,
    ):
        self.db = Database(
            retriever, assertz=assertz, asserta=asserta, retract=retract, output=output
        )
        self.max_depth = max_depth

    def solve(self, goal: Term, bindings: Bindings | None = None) -> Iterator[Bindings]:
        """All solutions of ``goal``, each yielded as the live bindings.

        A proof that out-nests the frame ceiling raises
        :class:`ResourceError`, never a raw :class:`RecursionError`.
        """
        if bindings is None:
            bindings = Bindings()
        _ensure_stack_headroom(self.max_depth)
        solutions = self._solve_goal(goal, bindings, 0, _CutSignal())
        while True:
            try:
                value = next(solutions)
            except StopIteration:
                return
            except RecursionError:
                raise ResourceError(
                    "resolution depth exhausted the Python stack budget "
                    f"(max_depth={self.max_depth}); the program recurses "
                    "too deeply"
                ) from None
            yield value

    def _solve_goal(self, goal, bindings, depth, signal) -> Iterator[Bindings]:
        if depth > self.max_depth:
            raise ResourceError(f"depth limit {self.max_depth} exceeded")
        goal = bindings.walk(goal)
        if isinstance(goal, Var):
            raise PrologError("unbound goal (instantiation error)")
        if not goal.is_callable():
            raise PrologError(f"goal is not callable: {term_to_string(goal)}")
        indicator = functor_indicator(goal)
        control = _CONTROL.get(indicator)
        if control is not None:
            yield from control(self, goal, bindings, depth, signal)
            return
        builtin = BUILTINS.get(indicator)
        if builtin is not None:
            yield from builtin(self.db, goal, bindings)
            return
        yield from self._call_user_predicate(goal, bindings, depth)

    def _call_user_predicate(self, goal, bindings, depth) -> Iterator[Bindings]:
        clauses = self.db.retrieve(bindings.resolve(goal))
        local_signal = _CutSignal()
        for clause in clauses:
            head, body = split_clause(rename_apart(clause.to_term()))
            mark = bindings.mark()
            if unify(goal, head, bindings) is not None:
                yield from self._solve_conjunction(
                    body, 0, bindings, depth + 1, local_signal
                )
            bindings.undo_to(mark)
            if local_signal.cut:
                return

    def _solve_conjunction(self, goals, index, bindings, depth, signal):
        if index >= len(goals):
            yield bindings
            return
        solutions = self._solve_goal(goals[index], bindings, depth, signal)
        for _ in solutions:
            yield from self._solve_conjunction(
                goals, index + 1, bindings, depth, signal
            )
            if signal.cut:
                solutions.close()
                return


# ---------------------------------------------------------------------------
# Control constructs (receive the caller's cut signal).
# ---------------------------------------------------------------------------


def _ctl_true(solver, goal, bindings, depth, signal):
    yield bindings


def _ctl_fail(solver, goal, bindings, depth, signal):
    return
    yield  # pragma: no cover


def _ctl_cut(solver, goal, bindings, depth, signal):
    yield bindings
    signal.cut = True


def _ctl_and(solver, goal, bindings, depth, signal):
    left, right = goal.args
    for _ in solver._solve_goal(left, bindings, depth, signal):
        yield from solver._solve_goal(right, bindings, depth, signal)
        if signal.cut:
            return


def _ctl_or(solver, goal, bindings, depth, signal):
    left, right = goal.args
    left_walked = bindings.walk(left)
    if isinstance(left_walked, Struct) and left_walked.indicator == ("->", 2):
        condition, then_goal = left_walked.args
        mark = bindings.mark()
        for _ in solver._solve_goal(condition, bindings, depth, _CutSignal()):
            yield from solver._solve_goal(then_goal, bindings, depth, signal)
            return  # the condition is committed to its first solution
        bindings.undo_to(mark)
        yield from solver._solve_goal(right, bindings, depth, signal)
        return
    mark = bindings.mark()
    yield from solver._solve_goal(left, bindings, depth, signal)
    if signal.cut:
        return
    bindings.undo_to(mark)
    yield from solver._solve_goal(right, bindings, depth, signal)


def _ctl_if_then(solver, goal, bindings, depth, signal):
    condition, then_goal = goal.args
    for _ in solver._solve_goal(condition, bindings, depth, _CutSignal()):
        yield from solver._solve_goal(then_goal, bindings, depth, signal)
        return


def _ctl_negation(solver, goal, bindings, depth, signal):
    (negated,) = goal.args
    mark = bindings.mark()
    for _ in solver._solve_goal(negated, bindings, depth, _CutSignal()):
        bindings.undo_to(mark)
        return
    bindings.undo_to(mark)
    yield bindings


def _ctl_call(solver, goal, bindings, depth, signal):
    # call/1 is transparent to solutions but opaque to cut.
    yield from solver._solve_goal(goal.args[0], bindings, depth, _CutSignal())


def _ctl_once(solver, goal, bindings, depth, signal):
    for _ in solver._solve_goal(goal.args[0], bindings, depth, _CutSignal()):
        yield bindings
        return


def _ctl_forall(solver, goal, bindings, depth, signal):
    condition, action = goal.args
    mark = bindings.mark()
    for _ in solver._solve_goal(condition, bindings, depth, _CutSignal()):
        for _ in solver._solve_goal(action, bindings, depth, _CutSignal()):
            break
        else:
            bindings.undo_to(mark)
            return
    bindings.undo_to(mark)
    yield bindings


def _ctl_findall(solver, goal, bindings, depth, signal):
    template, subgoal, result = goal.args
    collected = []
    mark = bindings.mark()
    for _ in solver._solve_goal(subgoal, bindings, depth, _CutSignal()):
        collected.append(bindings.resolve(template))
    bindings.undo_to(mark)
    yield from unify_answer(result, make_list(collected), bindings)


def _bagof_like(dedupe: bool):
    def control(solver, goal, bindings, depth, signal):
        template, subgoal, result = goal.args
        witness, inner = bagof_witness(template, subgoal, bindings)
        pairs = []
        mark = bindings.mark()
        for _ in solver._solve_goal(inner, bindings, depth, _CutSignal()):
            pairs.append((bindings.resolve(witness), bindings.resolve(template)))
        bindings.undo_to(mark)
        yield from bagof_answers(witness, result, pairs, dedupe, bindings)

    return control


_CONTROL = {
    ("true", 0): _ctl_true,
    ("fail", 0): _ctl_fail,
    ("false", 0): _ctl_fail,
    ("!", 0): _ctl_cut,
    (",", 2): _ctl_and,
    (";", 2): _ctl_or,
    ("->", 2): _ctl_if_then,
    ("\\+", 1): _ctl_negation,
    ("not", 1): _ctl_negation,
    ("call", 1): _ctl_call,
    ("once", 1): _ctl_once,
    ("forall", 2): _ctl_forall,
    ("findall", 3): _ctl_findall,
    ("bagof", 3): _bagof_like(dedupe=False),
    ("setof", 3): _bagof_like(dedupe=True),
}


# ---------------------------------------------------------------------------
# Oracle runs over a PrologMachine's knowledge base.
# ---------------------------------------------------------------------------


def machine_oracle(machine: PrologMachine) -> Solver:
    """A Solver over ``machine``'s retrieval path and knowledge base."""
    return Solver(
        machine._retrieve_clauses,
        assertz=machine.kb.assertz,
        asserta=machine.kb.asserta,
        retract=machine.kb.retract_matching,
        output=machine.output,
    )


def oracle_answers(machine: PrologMachine, goal: Term) -> Iterator[dict[str, Term]]:
    """The oracle's answers to ``goal``, shaped like ``PrologMachine.solve``."""
    goal_vars = [v for v in variables(goal) if not v.is_anonymous()]
    goal = freshen_anonymous(goal)
    for bindings in machine_oracle(machine).solve(goal):
        yield {v.name: bindings.resolve(v) for v in goal_vars}
