"""A ZIP-style compiled-clause abstract machine.

The PDBM software component "is based on a C version of Prolog-X ...
a Prolog compiler originally developed by Clocksin" — clauses are
*compiled*, not interpreted (paper section 2).  This module provides that
execution model: clauses compile once into instruction sequences, and an
explicit-stack abstract machine (goal stack, choice-point stack, trail)
runs them — Clocksin's ZIP machine in miniature.

Instruction set::

    GET     slot-pattern, argument-index   head-argument unification
    NECK                                   head done, body begins
    CALL    goal-pattern                   push a user-predicate goal
    BUILTIN goal-pattern                   run an inline (semi-det) builtin
    CUT                                    discard choice points of this call
    PROCEED                                clause solved

Patterns are clause terms with variables replaced by frame-slot
references; each activation allocates fresh variables for its slots, so
standardisation-apart is a frame allocation, not a term copy.

The machine runs the deterministic builtin core (unification, type
tests, arithmetic, comparison) inline through the interpreter's own
builtin table, implements cut, and *escapes* to the tree-walking
interpreter for everything else — per **predicate**, never
per clause.  When any clause of a procedure uses constructs the
compiler rejects (``;``, ``->``, ``\\+``, ``findall`` ...), the whole
call runs under the interpreter as one choice point, so clause order —
and therefore the answer *sequence* — is exactly what a pure
interpreter run produces.  (A per-clause fallback would interleave
compiled and interpreted activations of the same procedure and could
reorder solutions; the differential suite in
``tests/test_engine_differential.py`` holds the two engines to
identical sequences, not just sets.)  Non-inline builtins reached as
goals (``between/3``, ``findall/3``, assert/retract ...) escape the
same way, one goal at a time, which gives the compiled engine the full
builtin surface of :mod:`repro.engine.interp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..terms import (
    Atom,
    Clause,
    Struct,
    Term,
    Var,
    fresh_var,
    functor_indicator,
    is_ground,
    variables,
)
from ..unify import Bindings, unify
from .interp import PrologError, ResourceError, Solver, _CutSignal

__all__ = ["CompileError", "CompiledProcedureClause", "ZipMachine", "compile_clause_code"]


class CompileError(PrologError):
    """The clause uses constructs the compiled engine does not support."""


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
    from ..terms import term_to_string

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

#: Builtins the compiled engine executes inline (all semi-deterministic),
#: through the interpreter's dispatch tables.
_INLINE_BUILTINS = {
    ("true", 0),
    ("fail", 0),
    ("false", 0),
    ("=", 2),
    ("\\=", 2),
    ("==", 2),
    ("\\==", 2),
    ("is", 2),
    ("<", 2),
    (">", 2),
    ("=<", 2),
    (">=", 2),
    ("=:=", 2),
    ("=\\=", 2),
    ("@<", 2),
    ("@>", 2),
    ("@=<", 2),
    ("@>=", 2),
    ("var", 1),
    ("nonvar", 1),
    ("atom", 1),
    ("number", 1),
    ("integer", 1),
    ("float", 1),
    ("atomic", 1),
    ("compound", 1),
}

#: The cut signal the inline builtins run under: none of them is a cut.
_NO_CUT = _CutSignal()

_UNSUPPORTED = {
    (";", 2),
    ("->", 2),
    ("\\+", 1),
    ("not", 1),
    ("call", 1),
    ("findall", 3),
    ("bagof", 3),
    ("setof", 3),
    ("assert", 1),
    ("assertz", 1),
    ("asserta", 1),
    ("retract", 1),
}

def _escaped_goal_indicators() -> frozenset:
    """Goal indicators the machine hands to the interpreter.

    Derived from the interpreter's own dispatch tables so the two
    engines can never disagree about what a goal *is*: everything interp
    treats as a control construct or builtin, minus what the machine
    runs inline and the two control forms (conjunction, cut) it
    implements natively.
    """
    from .interp import _BUILTINS, _CONTROL

    native = set(_INLINE_BUILTINS) | {(",", 2), ("!", 0)}
    return frozenset((set(_CONTROL) | set(_BUILTINS)) - native)


_ESCAPED_GOALS = _escaped_goal_indicators()

#: Control constructs that are cut-*transparent* in the interpreter: a
#: ``!`` inside their branches cuts the surrounding clause (or query).
#: A query containing one of these as a conjunct is delegated whole to
#: the interpreter — a per-goal escape would run it under a fresh cut
#: barrier and could prune differently.
_CUT_TRANSPARENT = frozenset({(";", 2), ("->", 2)})

_COMPILE_CACHE: dict[Clause, CompiledProcedureClause] = {}
_COMPILABLE_CACHE: dict[Clause, bool] = {}


def clause_compilable(clause: Clause) -> bool:
    """True if the clause compiles (memoised, including the negative)."""
    cached = _COMPILABLE_CACHE.get(clause)
    if cached is None:
        try:
            compile_clause_code(clause)
            cached = True
        except CompileError:
            cached = False
        _COMPILABLE_CACHE[clause] = cached
    return cached


def compile_clause_code(clause: Clause) -> CompiledProcedureClause:
    """Compile one clause (memoised: clauses are immutable)."""
    cached = _COMPILE_CACHE.get(clause)
    if cached is not None:
        return cached
    slots: dict[Var, SlotRef] = {}

    def pattern_of(term: Term):
        if isinstance(term, Var):
            if term.is_anonymous():
                return SlotRef(_allocate(slots, Var(f"_anon{len(slots)}")))
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
        indicator = functor_indicator(goal)
        if indicator == ("!", 0):
            instructions.append(Cut())
            continue
        if indicator in _UNSUPPORTED or indicator == (",", 2):
            raise CompileError(
                f"{indicator[0]}/{indicator[1]} is not compilable; "
                "use the interpreter"
            )
        if indicator in _INLINE_BUILTINS:
            instructions.append(Builtin(pattern_of(goal)))
        else:
            instructions.append(Call(pattern_of(goal)))
    instructions.append(Proceed())
    compiled = CompiledProcedureClause(
        indicator=clause.indicator,
        instructions=tuple(instructions),
        slots=len(slots),
    )
    _COMPILE_CACHE[clause] = compiled
    return compiled


def _allocate(slots: dict, key: Var) -> int:
    slots[key] = SlotRef(len(slots))
    return slots[key].slot


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


# -- the machine -----------------------------------------------------------------


@dataclass
class _Goal:
    term: Term
    cut_barrier: int  # choice-point height at the owning call's entry


@dataclass
class _ChoicePoint:
    goal_stack: list
    goal: Term
    clauses: list[Clause]
    next_clause: int
    trail_mark: int


@dataclass
class _EscapePoint:
    """A choice point whose alternatives live in an interpreter generator.

    ``entry_mark`` is the trail height before the escaped goal ran at
    all; ``resume_mark`` is the height at its most recent solution.
    Backtracking into the point undoes to ``resume_mark`` (never to
    ``entry_mark`` while the generator is live — its suspended frames
    hold absolute marks above it) and advances the generator; exhaustion
    undoes to ``entry_mark`` and pops.
    """

    goal_stack: list
    solutions: Iterator[Bindings]
    entry_mark: int
    resume_mark: int


#: Steps a compiled execution may take before the watchdog fires.
MAX_STEPS = 5_000_000


class ZipMachine:
    """Explicit-stack execution of compiled clauses.

    ``assertz``/``asserta``/``retract`` hooks (and ``output``) are
    forwarded to the embedded interpreter that serves escaped goals, so
    database mutation during compiled resolution routes through the same
    store as an interpreter run would.
    """

    def __init__(
        self,
        retriever: Callable[[Term], list[Clause]],
        assertz: Callable[[Clause], None] | None = None,
        asserta: Callable[[Clause], None] | None = None,
        retract: Callable[[Clause], object] | None = None,
        output=None,
    ):
        self._retrieve = retriever
        #: the runaway watchdog; tests lower it on the instance.
        self.max_steps = MAX_STEPS
        self.calls = 0
        self.backtracks = 0
        #: goals handed to the interpreter (escapes), including whole
        #: predicate-level fallbacks.
        self.escapes = 0
        self._steps = 0
        self._interp = Solver(
            retriever,
            assertz=assertz,
            asserta=asserta,
            retract=retract,
            output=output,
        )

    def solve(self, query: Term) -> Iterator[Bindings]:
        """All solutions; yields the live bindings per solution."""
        bindings = Bindings()
        if self._query_needs_interpreter(query, bindings):
            # A cut-transparent control construct at the query's top
            # level: only the interpreter threads the query-level cut
            # signal through it correctly, so the whole query escapes.
            self.escapes += 1
            yield from self._interp.solve(query, bindings)
            return
        goal_stack: list[_Goal] | None = [_Goal(query, 0)]
        choice_points: list[_ChoicePoint | _EscapePoint] = []
        while goal_stack is not None:
            if self._execute(goal_stack, choice_points, bindings):
                yield bindings
            goal_stack = self._backtrack(choice_points, bindings)

    @staticmethod
    def _query_needs_interpreter(query: Term, bindings: Bindings) -> bool:
        from ..terms import body_goals

        walked = bindings.walk(query)
        if isinstance(walked, Var):
            return False  # let the machine raise its own error
        for conjunct in body_goals(walked):
            conjunct = bindings.walk(conjunct)
            if (
                isinstance(conjunct, Struct)
                and conjunct.indicator in _CUT_TRANSPARENT
            ):
                return True
        return False

    # -- inner execution -------------------------------------------------------

    def _execute(
        self,
        goal_stack: list[_Goal],
        choice_points: list[_ChoicePoint],
        bindings: Bindings,
    ) -> bool:
        """Run this branch to a solution (True) or total failure (False)."""
        while goal_stack:
            self._steps += 1
            if self._steps > self.max_steps:
                raise ResourceError(
                    f"compiled execution exceeded {self.max_steps} steps"
                )
            goal_entry = goal_stack.pop()
            goal = bindings.walk(goal_entry.term)
            if isinstance(goal, Var):
                raise PrologError("unbound goal in compiled code")
            indicator = functor_indicator(goal)
            if indicator == (",", 2):
                # Conjunction goals (e.g. a compound query): unfold inline.
                assert isinstance(goal, Struct)
                goal_stack.append(_Goal(goal.args[1], goal_entry.cut_barrier))
                goal_stack.append(_Goal(goal.args[0], goal_entry.cut_barrier))
                continue
            if indicator == ("!", 0):
                del choice_points[goal_entry.cut_barrier :]
                continue
            if indicator in _INLINE_BUILTINS:
                # The interpreter's own entry on this machine's bindings;
                # its first answer (or none) is the builtin's outcome.
                answer = self._interp._solve_goal(goal, bindings, 0, _NO_CUT)
                if next(answer, None) is not None:
                    continue
            elif indicator in _ESCAPED_GOALS:
                # Control construct / non-inline builtin: interpreter
                # escape (cut-opaque forms only; transparent ones divert
                # the whole query in solve()).
                if self._start_escape(goal, goal_stack, choice_points, bindings):
                    continue
            else:
                # User predicate: try its clauses.
                clauses = self._fetch_candidates(goal, goal_stack, bindings)
                self.calls += 1
                if any(not clause_compilable(c) for c in clauses):
                    # Per-predicate fallback: one uncompilable clause
                    # sends the *whole call* to the interpreter, so the
                    # procedure's clause order (and thus the solution
                    # sequence) is preserved exactly.
                    if self._start_escape(
                        goal, goal_stack, choice_points, bindings
                    ):
                        continue
                elif self._try_clauses(
                    goal, clauses, 0, goal_stack, choice_points, bindings
                ):
                    continue
            # The current goal failed: backtrack within this execution.
            replacement = self._backtrack(choice_points, bindings)
            if replacement is None:
                return False
            goal_stack[:] = replacement
        return True

    #: how far down the goal stack sibling-goal prefetch looks.
    _PREFETCH_WINDOW = 8

    def _fetch_candidates(
        self, goal: Term, goal_stack: list[_Goal], bindings: Bindings
    ) -> list[Clause]:
        """Pull candidates for ``goal``, prefetching sibling goals.

        Retrievers exposing a ``prefetch(goal, siblings)`` method (the
        cluster-backed :class:`repro.engine.solve.ClusterRetriever`) get
        the *ground* user-predicate goals next on the goal stack —
        typically the remaining body goals of the clause just activated
        — so one batched retrieval warms the cache for the choice points
        about to be created.  Only ground siblings qualify: their
        resolved form cannot change when the current goal binds
        variables, so the prefetched candidate sets stay exact.
        """
        from ..terms import body_goals

        resolved = bindings.resolve(goal)
        prefetch = getattr(self._retrieve, "prefetch", None)
        if prefetch is None:
            return self._retrieve(resolved)
        siblings: list[Term] = []
        for entry in reversed(goal_stack[-self._PREFETCH_WINDOW :]):
            term = bindings.resolve(entry.term)
            if not isinstance(term, (Atom, Struct)):
                continue
            # A stack entry may itself be an unexpanded conjunction
            # (queries push them whole): flatten so its conjuncts count
            # as siblings too.
            for conjunct in body_goals(term):
                if not isinstance(conjunct, (Atom, Struct)):
                    continue
                indicator = functor_indicator(conjunct)
                if (
                    indicator in _INLINE_BUILTINS
                    or indicator in _ESCAPED_GOALS
                    or indicator == ("!", 0)
                ):
                    continue
                if is_ground(conjunct):
                    siblings.append(conjunct)
            if len(siblings) >= self._PREFETCH_WINDOW:
                break
        return prefetch(resolved, tuple(siblings))

    def _start_escape(
        self,
        goal: Term,
        goal_stack: list[_Goal],
        choice_points: list,
        bindings: Bindings,
    ) -> bool:
        """Run ``goal`` under the interpreter as one choice point.

        The interpreter generator shares this machine's ``bindings`` (and
        therefore its trail), so solutions it produces are visible to the
        compiled continuation and undone by the normal backtracking
        discipline.  Returns True when the goal produced a first
        solution; the generator is parked as an :class:`_EscapePoint`
        for the remaining ones.
        """
        self.escapes += 1
        continuation = [_Goal(g.term, g.cut_barrier) for g in goal_stack]
        entry_mark = bindings.mark()
        solutions = self._interp.solve(goal, bindings)
        try:
            next(solutions)
        except StopIteration:
            bindings.undo_to(entry_mark)
            return False
        choice_points.append(
            _EscapePoint(
                goal_stack=continuation,
                solutions=solutions,
                entry_mark=entry_mark,
                resume_mark=bindings.mark(),
            )
        )
        return True

    def _backtrack(
        self, choice_points: list, bindings: Bindings
    ) -> list[_Goal] | None:
        """Restore the most recent alternative; None when exhausted."""
        while choice_points:
            self.backtracks += 1
            point = choice_points[-1]
            if isinstance(point, _EscapePoint):
                bindings.undo_to(point.resume_mark)
                try:
                    next(point.solutions)
                except StopIteration:
                    bindings.undo_to(point.entry_mark)
                    choice_points.pop()
                    continue
                point.resume_mark = bindings.mark()
                return [
                    _Goal(g.term, g.cut_barrier) for g in point.goal_stack
                ]
            bindings.undo_to(point.trail_mark)
            if point.next_clause >= len(point.clauses):
                choice_points.pop()
                continue
            goal_stack = [_Goal(g.term, g.cut_barrier) for g in point.goal_stack]
            if self._try_clauses(
                point.goal,
                point.clauses,
                point.next_clause,
                goal_stack,
                choice_points,
                bindings,
                existing_point=point,
            ):
                return goal_stack
            choice_points.pop()
        return None

    def _try_clauses(
        self,
        goal: Term,
        clauses: list[Clause],
        start: int,
        goal_stack: list[_Goal],
        choice_points: list[_ChoicePoint],
        bindings: Bindings,
        existing_point: _ChoicePoint | None = None,
    ) -> bool:
        """Activate the first matching clause from ``start`` onward."""
        continuation = [_Goal(g.term, g.cut_barrier) for g in goal_stack]
        # A cut in the activated clause must discard this call's remaining
        # alternatives: when retrying through an existing choice point the
        # point itself sits at the top of the stack and is inside the
        # barrier; a fresh point is appended at the current height.
        barrier = len(choice_points)
        if existing_point is not None:
            barrier = len(choice_points) - 1
        for position in range(start, len(clauses)):
            clause = clauses[position]
            code = compile_clause_code(clause)
            trail_mark = bindings.mark()
            frame = [fresh_var("_Z") for _ in range(code.slots)]
            if self._activate(
                code, goal, frame, goal_stack, bindings, barrier
            ):
                if position + 1 < len(clauses):
                    if existing_point is not None:
                        existing_point.next_clause = position + 1
                        existing_point.trail_mark = trail_mark
                    else:
                        choice_points.append(
                            _ChoicePoint(
                                goal_stack=continuation,
                                goal=goal,
                                clauses=clauses,
                                next_clause=position + 1,
                                trail_mark=trail_mark,
                            )
                        )
                elif existing_point is not None:
                    existing_point.next_clause = len(clauses)
                return True
            bindings.undo_to(trail_mark)
        return False

    def _activate(
        self,
        code: CompiledProcedureClause,
        goal: Term,
        frame: list[Var],
        goal_stack: list[_Goal],
        bindings: Bindings,
        cut_barrier: int,
    ) -> bool:
        """Run head GETs; on success push body goals."""
        goal_args: tuple[Term, ...] = ()
        if isinstance(goal, Struct):
            goal_args = goal.args
        body: list[Term] = []
        for instruction in code.instructions:
            if isinstance(instruction, Get):
                head_term = _instantiate(instruction.pattern, frame)
                if unify(goal_args[instruction.argument], head_term, bindings) is None:
                    return False
            elif isinstance(instruction, Neck):
                continue
            elif isinstance(instruction, (Call, Builtin)):
                body.append(_instantiate(instruction.pattern, frame))
            elif isinstance(instruction, Cut):
                body.append(Atom("!"))
            elif isinstance(instruction, Proceed):
                break
        for goal_term in reversed(body):
            goal_stack.append(_Goal(goal_term, cut_barrier))
        return True
