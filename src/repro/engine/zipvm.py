"""A ZIP-style compiled-clause abstract machine: the one resolution engine.

The PDBM software component "is based on a C version of Prolog-X ...
a Prolog compiler originally developed by Clocksin" — clauses are
*compiled*, not interpreted (paper section 2).  This module provides that
execution model: clauses compile once into instruction sequences, and an
explicit-stack abstract machine (continuation, choice-point stack, trail)
runs them — Clocksin's ZIP machine in miniature.

Instruction set::

    GET     slot-pattern, argument-index   head-argument unification
    NECK                                   head done, body begins
    CALL    goal-pattern                   push a user-predicate goal
    BUILTIN goal-pattern                   push a builtin or control goal
    CUT                                    discard choice points of this call
    PROCEED                                clause solved

Patterns are clause terms with variables replaced by frame-slot
references; each activation allocates fresh variables for its slots, so
standardisation-apart is a frame allocation, not a term copy.

The machine runs the whole language on its own stacks, so no program
depth is bounded by the Python stack:

* The continuation is a linked list of goal cells, each carrying its
  *cut barrier* — the choice-point height at the owning call's entry.
  ``!`` truncates the choice-point stack to that height.  Choice points
  share the continuation they resume instead of copying it.
* ``;`` pushes an alternative choice point holding the other branch;
  ``->`` runs its condition under a fresh barrier followed by a cut back
  to the height before it (so the else branch goes too).  ``\\+``,
  ``call/1``, ``once/1`` and ``forall/2`` are built the same way; cut is
  transparent in ``;``/``->`` branches and opaque in conditions and in
  those four.
* ``findall/3``, ``bagof/3`` and ``setof/3`` push a *collector* choice
  point and run the inner goal above it, followed by a collect cell that
  records the solution and fails.  Backtracking into the collector means
  the inner goal is exhausted; the answers then continue.
* Builtins come from :mod:`repro.engine.builtins`; the nondeterministic
  ones (``between/3``, ``clause/2``) run as generator choice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..cache import LruCache
from ..terms import (
    Atom,
    Clause,
    Struct,
    Term,
    Var,
    body_goals,
    fresh_var,
    functor_indicator,
    is_ground,
    make_list,
    term_to_string,
)
from ..unify import Bindings, unify
from .builtins import (
    BUILTINS,
    NONDETERMINISTIC,
    Database,
    PrologError,
    ResourceError,
    bagof_answers,
    bagof_witness,
    unify_answer,
)

__all__ = ["CompileError", "CompiledProcedureClause", "ZipMachine", "compile_clause_code"]


class CompileError(PrologError):
    """A goal that can never be called (a number) was reached."""


# -- instructions -------------------------------------------------------------


@dataclass(frozen=True)
class SlotRef:
    """A clause-local variable: resolved to a fresh Var per activation."""

    slot: int

    def __repr__(self) -> str:
        return f"Y{self.slot}"


def _pretty(pattern) -> str:
    """Readable rendering of an instruction's slot pattern."""
    if isinstance(pattern, (SlotRef, _PatternStruct)):
        return repr(pattern)
    return term_to_string(pattern)


@dataclass(frozen=True)
class Get:
    pattern: object  # Term with SlotRefs
    argument: int

    def __repr__(self) -> str:
        return f"GET A{self.argument}, {_pretty(self.pattern)}"


@dataclass(frozen=True)
class Neck:
    def __repr__(self) -> str:
        return "NECK"


@dataclass(frozen=True)
class Call:
    pattern: object

    def __repr__(self) -> str:
        return f"CALL {_pretty(self.pattern)}"


@dataclass(frozen=True)
class Builtin:
    pattern: object

    def __repr__(self) -> str:
        return f"BUILTIN {_pretty(self.pattern)}"


@dataclass(frozen=True)
class Cut:
    def __repr__(self) -> str:
        return "CUT"


@dataclass(frozen=True)
class Proceed:
    def __repr__(self) -> str:
        return "PROCEED"


@dataclass(frozen=True)
class CompiledProcedureClause:
    """One clause's code: instructions plus its frame size."""

    indicator: tuple[str, int]
    instructions: tuple
    slots: int

    def listing(self) -> list[str]:
        return [repr(i) for i in self.instructions]


# -- compilation ------------------------------------------------------------------

#: Compiled clauses kept for reuse.  Keyed by the (immutable) clause; an
#: LRU bound, so the code of retracted clauses ages out.
COMPILE_CACHE_SIZE = 4096

_COMPILE_CACHE = LruCache(COMPILE_CACHE_SIZE)


def compile_clause_code(clause: Clause) -> CompiledProcedureClause:
    """Compile one clause (memoised: clauses are immutable)."""
    cached = _COMPILE_CACHE.get(clause)
    if cached is not None:
        return cached
    slots: dict[Var, SlotRef] = {}

    def pattern_of(term: Term):
        if isinstance(term, Var):
            if term.is_anonymous():
                term = Var(f"_anon{len(slots)}")
            if term not in slots:
                slots[term] = SlotRef(len(slots))
            return slots[term]
        if isinstance(term, Struct):
            return _PatternStruct(
                term.functor, tuple(pattern_of(a) for a in term.args)
            )
        return term

    instructions: list = []
    head = clause.head
    if isinstance(head, Struct):
        for index, argument in enumerate(head.args):
            instructions.append(Get(pattern_of(argument), index))
    instructions.append(Neck())
    for goal in clause.body:
        if not goal.is_callable():
            # A variable is bound at run time and the machine walks it
            # like any goal; a number raises CompileError only if the
            # body ever reaches it.
            instructions.append(Call(pattern_of(goal)))
            continue
        indicator = functor_indicator(goal)
        if indicator == ("!", 0):
            instructions.append(Cut())
        elif indicator in _CONTROL or indicator in BUILTINS:
            instructions.append(Builtin(pattern_of(goal)))
        else:
            instructions.append(Call(pattern_of(goal)))
    instructions.append(Proceed())
    compiled = CompiledProcedureClause(
        indicator=clause.indicator,
        instructions=tuple(instructions),
        slots=len(slots),
    )
    _COMPILE_CACHE.put(clause, compiled)
    return compiled


@dataclass(frozen=True)
class _PatternStruct:
    functor: str
    args: tuple

    def __repr__(self) -> str:
        inner = ",".join(_pretty(a) for a in self.args)
        return f"{self.functor}({inner})"


def _instantiate(pattern, frame: list[Var]) -> Term:
    """Build the runtime term of a pattern against an activation frame."""
    if isinstance(pattern, SlotRef):
        return frame[pattern.slot]
    if isinstance(pattern, _PatternStruct):
        return Struct(
            pattern.functor, tuple(_instantiate(a, frame) for a in pattern.args)
        )
    return pattern


# -- the machine's stacks ------------------------------------------------------------


@dataclass(slots=True)
class _Cont:
    """One continuation cell: a goal, its cut barrier, and what follows.

    Cells are never mutated, so a choice point shares the continuation
    it resumes.  ``None`` is the empty continuation: the query solved.
    """

    goal: object
    barrier: int
    next: "_Cont | None"


#: What a step returns when its goal failed.
_FAILED = object()

_CUT = Atom("!")
_FAIL = Atom("fail")


@dataclass(slots=True)
class _Alternative:
    """Resume ``cont``: the other branch of ``;``, or ``\\+`` succeeding."""

    trail_mark: int
    cont: _Cont | None


@dataclass(slots=True)
class _Clauses:
    """The untried candidate clauses of one call."""

    trail_mark: int
    cont: _Cont | None
    goal: Term
    clauses: list[Clause]
    next_clause: int


@dataclass(slots=True)
class _Solutions:
    """A generator's remaining solutions; each one resumes ``cont``."""

    trail_mark: int
    cont: _Cont | None
    solutions: Iterator[Bindings]


@dataclass(slots=True)
class _Collector:
    """An all-solutions call: records solutions of its inner goal.

    Also the goal of the collect cell that follows the inner goal:
    running it appends ``pattern`` resolved and fails.  ``answers`` turns
    the recorded list into the call's solutions once the inner goal is
    exhausted.
    """

    trail_mark: int
    cont: _Cont | None
    pattern: Term
    answers: Callable[[list[Term]], Iterator[Bindings]]
    results: list[Term] = field(default_factory=list)


def _generate(solutions: Iterator[Bindings], cont, choice_points, bindings):
    """Continue with the first solution, parking the rest as a choice point."""
    mark = bindings.mark()
    if next(solutions, None) is None:
        return _FAILED
    choice_points.append(_Solutions(mark, cont, solutions))
    return cont


# -- control constructs: each returns the continuation to run, or _FAILED ---------


def _ctl_true(goal, barrier, cont, choice_points, bindings):
    return cont


def _ctl_fail(goal, barrier, cont, choice_points, bindings):
    return _FAILED


def _ctl_cut(goal, barrier, cont, choice_points, bindings):
    del choice_points[barrier:]
    return cont


def _ctl_and(goal, barrier, cont, choice_points, bindings):
    left, right = goal.args
    return _Cont(left, barrier, _Cont(right, barrier, cont))


def _ctl_or(goal, barrier, cont, choice_points, bindings):
    left, right = goal.args
    height = len(choice_points)
    choice_points.append(_Alternative(bindings.mark(), _Cont(right, barrier, cont)))
    left = bindings.walk(left)
    if isinstance(left, Struct) and left.indicator == ("->", 2):
        # If-then-else: the first solution of the condition cuts back
        # to ``height``, discarding the else branch with the rest.
        condition, then = left.args
        return _Cont(
            condition, height + 1, _Cont(_CUT, height, _Cont(then, barrier, cont))
        )
    return _Cont(left, barrier, cont)


def _ctl_if_then(goal, barrier, cont, choice_points, bindings):
    condition, then = goal.args
    height = len(choice_points)
    return _Cont(condition, height, _Cont(_CUT, height, _Cont(then, barrier, cont)))


def _ctl_not(goal, barrier, cont, choice_points, bindings):
    # A solution of the negated goal cuts away the alternative that
    # would resume ``cont`` and fails; exhausting it resumes ``cont``.
    height = len(choice_points)
    choice_points.append(_Alternative(bindings.mark(), cont))
    return _Cont(goal.args[0], height + 1, _Cont(_CUT, height, _Cont(_FAIL, 0, None)))


def _ctl_call(goal, barrier, cont, choice_points, bindings):
    return _Cont(goal.args[0], len(choice_points), cont)


def _ctl_once(goal, barrier, cont, choice_points, bindings):
    height = len(choice_points)
    return _Cont(goal.args[0], height, _Cont(_CUT, height, cont))


def _ctl_forall(goal, barrier, cont, choice_points, bindings):
    condition, action = goal.args
    negated = Struct(",", (condition, Struct("\\+", (action,))))
    return _ctl_not(Struct("\\+", (negated,)), barrier, cont, choice_points, bindings)


def _collect(inner, pattern, answers, cont, choice_points, bindings):
    height = len(choice_points)
    collector = _Collector(bindings.mark(), cont, pattern, answers)
    choice_points.append(collector)
    return _Cont(inner, height + 1, _Cont(collector, 0, None))


def _ctl_findall(goal, barrier, cont, choice_points, bindings):
    template, inner, result = goal.args

    def answers(found):
        return unify_answer(result, make_list(found), bindings)

    return _collect(inner, template, answers, cont, choice_points, bindings)


def _bagof_like(dedupe: bool):
    def control(goal, barrier, cont, choice_points, bindings):
        template, subgoal, result = goal.args
        witness, inner = bagof_witness(template, subgoal, bindings)

        def answers(found):
            pairs = [(pair.args[0], pair.args[1]) for pair in found]
            return bagof_answers(witness, result, pairs, dedupe, bindings)

        pattern = Struct("-", (witness, template))
        return _collect(inner, pattern, answers, cont, choice_points, bindings)

    return control


_CONTROL = {
    ("true", 0): _ctl_true,
    ("fail", 0): _ctl_fail,
    ("false", 0): _ctl_fail,
    ("!", 0): _ctl_cut,
    (",", 2): _ctl_and,
    (";", 2): _ctl_or,
    ("->", 2): _ctl_if_then,
    ("\\+", 1): _ctl_not,
    ("not", 1): _ctl_not,
    ("call", 1): _ctl_call,
    ("once", 1): _ctl_once,
    ("forall", 2): _ctl_forall,
    ("findall", 3): _ctl_findall,
    ("bagof", 3): _bagof_like(dedupe=False),
    ("setof", 3): _bagof_like(dedupe=True),
}


# -- the machine -----------------------------------------------------------------

#: Steps a compiled execution may take before the watchdog fires.
MAX_STEPS = 5_000_000


class ZipMachine:
    """Explicit-stack execution of compiled clauses.

    ``retriever`` returns a goal's candidate clauses; the
    ``assertz``/``asserta``/``retract`` hooks and ``output`` serve the
    builtins (see :class:`repro.engine.builtins.Database`).
    """

    def __init__(
        self,
        retriever: Callable[[Term], list[Clause]],
        assertz: Callable[[Clause], None] | None = None,
        asserta: Callable[[Clause], None] | None = None,
        retract: Callable[[Clause], object] | None = None,
        output=None,
    ):
        self.db = Database(
            retriever,
            assertz=assertz,
            asserta=asserta,
            retract=retract,
            output=output,
        )
        #: the runaway watchdog; callers and tests set it per instance.
        self.max_steps = MAX_STEPS
        self.calls = 0
        self.backtracks = 0
        self._steps = 0

    def solve(self, query: Term) -> Iterator[Bindings]:
        """All solutions; yields the live bindings per solution.

        Proof depth lives on the machine's stacks and the term walks
        that matter (unification, resolution, the standard order) are
        iterative; a term nested past the Python stack anywhere else
        (a very deep arithmetic expression, say) raises ResourceError.
        """
        bindings = Bindings()
        choice_points: list = []
        cont = _Cont(query, 0, None)
        while cont is not _FAILED:
            try:
                if self._run(cont, choice_points, bindings):
                    yield bindings
                cont = self._backtrack(choice_points, bindings)
            except RecursionError:
                raise ResourceError("term nesting exceeds the Python stack") from None

    # -- inner execution -------------------------------------------------------

    def _run(self, cont, choice_points: list, bindings: Bindings) -> bool:
        """Run to a solution (True) or until every alternative failed."""
        while cont is not None:
            self._steps += 1
            if self._steps > self.max_steps:
                raise ResourceError(
                    f"compiled execution exceeded {self.max_steps} steps"
                )
            cont = self._step(cont, choice_points, bindings)
            if cont is _FAILED:
                cont = self._backtrack(choice_points, bindings)
                if cont is _FAILED:
                    return False
        return True

    def _step(self, cell: _Cont, choice_points: list, bindings: Bindings):
        """Run the goal of ``cell``; the continuation that follows, or _FAILED."""
        goal = bindings.walk(cell.goal)
        if isinstance(goal, Var):
            raise PrologError("unbound goal (instantiation error)")
        if isinstance(goal, _Collector):
            goal.results.append(bindings.resolve(goal.pattern))
            return _FAILED
        if not goal.is_callable():
            raise CompileError(f"goal is not callable: {term_to_string(goal)}")
        indicator = functor_indicator(goal)
        control = _CONTROL.get(indicator)
        if control is not None:
            return control(goal, cell.barrier, cell.next, choice_points, bindings)
        builtin = BUILTINS.get(indicator)
        if builtin is not None:
            solutions = builtin(self.db, goal, bindings)
            if indicator in NONDETERMINISTIC:
                return _generate(solutions, cell.next, choice_points, bindings)
            return cell.next if next(solutions, None) is not None else _FAILED
        clauses = self._fetch_candidates(goal, cell.next, bindings)
        self.calls += 1
        return self._try_clauses(goal, clauses, 0, cell.next, choice_points, bindings)

    #: how far down the continuation sibling-goal prefetch looks.
    _PREFETCH_WINDOW = 8

    def _fetch_candidates(self, goal: Term, cont, bindings: Bindings) -> list[Clause]:
        """Pull candidates for ``goal``, prefetching sibling goals.

        Retrievers exposing a ``prefetch(goal, siblings)`` method (the
        cluster-backed :class:`repro.engine.solve.ClusterRetriever`) get
        the *ground* user-predicate goals next in the continuation —
        typically the remaining body goals of the clause just activated
        — so one batched retrieval warms the cache for the choice points
        about to be created.  Only ground siblings qualify: their
        resolved form cannot change when the current goal binds
        variables, so the prefetched candidate sets stay exact.
        """
        resolved = bindings.resolve(goal)
        prefetch = getattr(self.db.retrieve, "prefetch", None)
        if prefetch is None:
            return self.db.retrieve(resolved)
        siblings: list[Term] = []
        for _ in range(self._PREFETCH_WINDOW):
            if cont is None:
                break
            term = bindings.resolve(cont.goal)
            cont = cont.next
            if not isinstance(term, (Atom, Struct)):
                continue
            # A cell may hold an unexpanded conjunction (queries push
            # them whole): flatten so its conjuncts count as siblings.
            for conjunct in body_goals(term):
                if not isinstance(conjunct, (Atom, Struct)):
                    continue
                indicator = functor_indicator(conjunct)
                if indicator in _CONTROL or indicator in BUILTINS:
                    continue
                if is_ground(conjunct):
                    siblings.append(conjunct)
            if len(siblings) >= self._PREFETCH_WINDOW:
                break
        return prefetch(resolved, tuple(siblings))

    def _backtrack(self, choice_points: list, bindings: Bindings):
        """Resume the most recent alternative; _FAILED when none is left."""
        while choice_points:
            self.backtracks += 1
            point = choice_points[-1]
            bindings.undo_to(point.trail_mark)
            kind = type(point)
            if kind is _Clauses:
                cont = self._try_clauses(
                    point.goal,
                    point.clauses,
                    point.next_clause,
                    point.cont,
                    choice_points,
                    bindings,
                    point,
                )
                if cont is not _FAILED:
                    return cont
                continue
            if kind is _Solutions:
                if next(point.solutions, None) is not None:
                    return point.cont
                choice_points.pop()
                continue
            choice_points.pop()
            if kind is _Alternative:
                return point.cont
            # A collector: its inner goal is exhausted.
            cont = _generate(
                point.answers(point.results), point.cont, choice_points, bindings
            )
            if cont is not _FAILED:
                return cont
        return _FAILED

    def _try_clauses(
        self,
        goal: Term,
        clauses: list[Clause],
        start: int,
        cont,
        choice_points: list,
        bindings: Bindings,
        point: _Clauses | None = None,
    ):
        """Activate the first matching clause from ``start`` onward.

        A cut in the activated clause discards this call's remaining
        alternatives: when retrying through ``point`` (the top of the
        stack) the barrier is the height below it.  The point is popped
        before the last candidate runs, so a deterministic tail leaves
        no choice point behind.
        """
        barrier = len(choice_points) - (1 if point is not None else 0)
        args = goal.args if isinstance(goal, Struct) else ()
        for position in range(start, len(clauses)):
            code = compile_clause_code(clauses[position])
            trail_mark = bindings.mark()
            body = _activate(code, args, barrier, cont, bindings)
            if body is _FAILED:
                bindings.undo_to(trail_mark)
                continue
            if position + 1 < len(clauses):
                if point is None:
                    choice_points.append(
                        _Clauses(trail_mark, cont, goal, clauses, position + 1)
                    )
                else:
                    point.next_clause = position + 1
            elif point is not None:
                choice_points.pop()
            return body
        if point is not None:
            choice_points.pop()
        return _FAILED


def _activate(code: CompiledProcedureClause, args: tuple, barrier: int, cont, bindings):
    """Run head GETs against ``args``; on success, the body ahead of ``cont``."""
    frame = [fresh_var("_Z") for _ in range(code.slots)]
    body: list[Term] = []
    for instruction in code.instructions:
        kind = type(instruction)
        if kind is Get:
            head_term = _instantiate(instruction.pattern, frame)
            if unify(args[instruction.argument], head_term, bindings) is None:
                return _FAILED
        elif kind is Call or kind is Builtin:
            body.append(_instantiate(instruction.pattern, frame))
        elif kind is Cut:
            body.append(_CUT)
    for goal_term in reversed(body):
        cont = _Cont(goal_term, barrier, cont)
    return cont
