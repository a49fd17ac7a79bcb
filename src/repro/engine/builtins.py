"""The builtin predicates, arithmetic, the standard order and the errors.

One table serves every resolution run: :class:`repro.engine.zipvm.ZipMachine`
calls it directly, and the test suite's tree-walking oracle runs the same
entries.  A builtin is a generator ``fn(db, goal, bindings)`` over a
:class:`Database` (clause lookup, mutation hooks, output stream): each
yield is one solution with its bindings applied.  Most builtins yield at
most once; those in :data:`NONDETERMINISTIC` may yield again when resumed
and run as generator choice points.

The control constructs (conjunction, disjunction, if-then-else, cut,
negation, ``call/1``, ``once/1``, ``forall/2``) and the all-solutions
builtins (``findall/3``, ``bagof/3``, ``setof/3``) are not entries here:
they need the engine's own goal and choice-point stacks.
:func:`bagof_witness` and :func:`bagof_answers` are the parts of
``bagof``/``setof`` that do not.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Iterator, TextIO

from ..terms import (
    NIL,
    Atom,
    Clause,
    Float,
    Int,
    Struct,
    Term,
    Var,
    body_goals,
    clause_from_term,
    fresh_var,
    list_parts,
    make_list,
    rename_apart,
    term_to_string,
    variables,
)
from ..unify import Bindings, unify

__all__ = [
    "BUILTINS",
    "Database",
    "ExistenceError",
    "NONDETERMINISTIC",
    "PrologError",
    "ResourceError",
    "bagof_answers",
    "bagof_witness",
    "split_clause",
    "term_order_key",
    "unify_answer",
]


class PrologError(RuntimeError):
    """A runtime error raised by evaluation (type errors, bad goals...)."""


class ExistenceError(PrologError):
    """Call to a predicate with no clauses and no builtin."""


class ResourceError(PrologError):
    """A resource budget was exhausted during resolution.

    The machine raises it when its step watchdog fires, so a runaway
    program fails with a typed, catchable Prolog error.
    """


@dataclass
class Database:
    """What a builtin reaches beyond the bindings.

    ``retrieve`` returns the candidate clauses of a goal (``clause/2``);
    the mutation hooks are ``None`` when no database is attached, and
    ``output`` (``None`` means ``sys.stdout``) receives ``write/1`` and
    friends.
    """

    retrieve: Callable[[Term], list[Clause]]
    assertz: Callable[[Clause], None] | None = None
    asserta: Callable[[Clause], None] | None = None
    retract: Callable[[Clause], object] | None = None
    output: TextIO | None = None

    def write(self, text: str) -> None:
        """Write ``text`` to the output stream."""
        (self.output if self.output is not None else sys.stdout).write(text)


def split_clause(term: Term) -> tuple[Term, tuple[Term, ...]]:
    """A clause term's head and body goals."""
    if isinstance(term, Struct) and term.indicator == (":-", 2):
        return term.args[0], body_goals(term.args[1])
    return term, ()


def unify_answer(left: Term, right: Term, bindings: Bindings) -> Iterator[Bindings]:
    """Yield once if ``left`` and ``right`` unify, undoing on resumption."""
    mark = bindings.mark()
    if unify(left, right, bindings) is not None:
        yield bindings
    bindings.undo_to(mark)


# ---------------------------------------------------------------------------
# Built-in predicates.
# ---------------------------------------------------------------------------


def _bi_unify(db, goal, bindings):
    return unify_answer(goal.args[0], goal.args[1], bindings)


def _bi_not_unify(db, goal, bindings):
    left, right = goal.args
    mark = bindings.mark()
    unifies = unify(left, right, bindings) is not None
    bindings.undo_to(mark)
    if not unifies:
        yield bindings


def _bi_equal(db, goal, bindings):
    if bindings.resolve(goal.args[0]) == bindings.resolve(goal.args[1]):
        yield bindings


def _bi_not_equal(db, goal, bindings):
    if bindings.resolve(goal.args[0]) != bindings.resolve(goal.args[1]):
        yield bindings


def _type_test(predicate):
    def test(db, goal, bindings):
        if predicate(bindings.walk(goal.args[0])):
            yield bindings

    return test


def _bi_ground(db, goal, bindings):
    # ground/1 must look *through* the substitution (a shallow walk sees
    # bound variables inside structures as unbound) and terminate on
    # cyclic bindings; Bindings.is_ground does both.
    if bindings.is_ground(goal.args[0]):
        yield bindings


def _bi_is(db, goal, bindings):
    target, expression = goal.args
    return unify_answer(target, _evaluate(expression, bindings), bindings)


def _arith_compare(op):
    def compare(db, goal, bindings):
        left = _numeric(_evaluate(goal.args[0], bindings))
        right = _numeric(_evaluate(goal.args[1], bindings))
        if op(left, right):
            yield bindings

    return compare


def _bi_functor(db, goal, bindings):
    term, name, arity = (bindings.walk(a) for a in goal.args)
    mark = bindings.mark()
    if not isinstance(term, Var):
        if isinstance(term, Struct):
            got_name: Term = Atom(term.functor)
            got_arity: Term = Int(term.arity)
        else:
            got_name, got_arity = term, Int(0)
        if (
            unify(name, got_name, bindings) is not None
            and unify(arity, got_arity, bindings) is not None
        ):
            yield bindings
        bindings.undo_to(mark)
        return
    if isinstance(arity, Int) and arity.value == 0:
        yield from unify_answer(term, name, bindings)
        return
    if isinstance(name, Atom) and isinstance(arity, Int) and arity.value > 0:
        built = Struct(name.name, tuple(fresh_var() for _ in range(arity.value)))
        yield from unify_answer(term, built, bindings)
        return
    raise PrologError("functor/3: insufficiently instantiated")


def _bi_arg(db, goal, bindings):
    index, term, argument = (bindings.walk(a) for a in goal.args)
    if not isinstance(index, Int) or not isinstance(term, Struct):
        raise PrologError("arg/3: bad arguments")
    if 1 <= index.value <= term.arity:
        yield from unify_answer(argument, term.args[index.value - 1], bindings)


def _bi_univ(db, goal, bindings):
    term, spec = (bindings.walk(a) for a in goal.args)
    if not isinstance(term, Var):
        if isinstance(term, Struct):
            items: list[Term] = [Atom(term.functor), *term.args]
        else:
            items = [term]
        return unify_answer(spec, make_list(items), bindings)
    items, tail = list_parts(bindings.resolve(spec))
    if tail != NIL or not items:
        raise PrologError("=../2: needs a proper non-empty list")
    first = items[0]
    if len(items) == 1:
        built: Term = first
    elif isinstance(first, Atom):
        built = Struct(first.name, tuple(items[1:]))
    else:
        raise PrologError("=../2: functor must be an atom")
    return unify_answer(term, built, bindings)


def _bi_between(db, goal, bindings):
    low, high, value = (bindings.walk(a) for a in goal.args)
    if not isinstance(low, Int) or not isinstance(high, Int):
        raise PrologError("between/3: bounds must be integers")
    if isinstance(value, Int):
        if low.value <= value.value <= high.value:
            yield bindings
        return
    for candidate in range(low.value, high.value + 1):
        yield from unify_answer(value, Int(candidate), bindings)


def _bi_length(db, goal, bindings):
    lst, length = (bindings.walk(a) for a in goal.args)
    if not isinstance(lst, Var):
        items, tail = list_parts(bindings.resolve(lst))
        if tail != NIL:
            raise PrologError("length/2: not a proper list")
        return unify_answer(length, Int(len(items)), bindings)
    if isinstance(length, Int):
        built = make_list([fresh_var() for _ in range(length.value)])
        return unify_answer(lst, built, bindings)
    raise PrologError("length/2: insufficiently instantiated")


def _bi_clause(db, goal, bindings):
    head, body = goal.args
    head_walked = bindings.walk(head)
    if isinstance(head_walked, Var):
        raise PrologError("clause/2: head must be at least partly known")
    if not head_walked.is_callable():
        raise PrologError("clause/2: head must be callable")
    for stored in db.retrieve(bindings.resolve(head_walked)):
        stored_head, stored_goals = split_clause(rename_apart(stored.to_term()))
        stored_body: Term
        if not stored_goals:
            stored_body = Atom("true")
        else:
            stored_body = stored_goals[-1]
            for goal_term in reversed(stored_goals[:-1]):
                stored_body = Struct(",", (goal_term, stored_body))
        mark = bindings.mark()
        if (
            unify(head, stored_head, bindings) is not None
            and unify(body, stored_body, bindings) is not None
        ):
            yield bindings
        bindings.undo_to(mark)


def _bi_assertz(db, goal, bindings):
    if db.assertz is None:
        raise PrologError("assertz/1: no database attached")
    db.assertz(_clause_argument(goal, bindings))
    yield bindings


def _bi_asserta(db, goal, bindings):
    if db.asserta is None:
        raise PrologError("asserta/1: no database attached")
    db.asserta(_clause_argument(goal, bindings))
    yield bindings


def _bi_retract(db, goal, bindings):
    if db.retract is None:
        raise PrologError("retract/1: no database attached")
    removed = db.retract(_clause_argument(goal, bindings))
    if isinstance(removed, bool):  # legacy equality-only retractors
        if removed:
            yield bindings
        return
    if removed is None:
        return
    # Bind the template against the clause actually removed.
    yield from unify_answer(goal.args[0], rename_apart(removed.to_term()), bindings)


def _clause_argument(goal: Term, bindings: Bindings) -> Clause:
    return clause_from_term(bindings.resolve(goal.args[0]))


def _order_compare(op):
    def compare(db, goal, bindings):
        left = term_order_key(bindings.resolve(goal.args[0]))
        right = term_order_key(bindings.resolve(goal.args[1]))
        if op(left, right):
            yield bindings

    return compare


def _proper_list_items(term: Term, bindings: Bindings, context: str) -> list[Term]:
    items, tail = list_parts(bindings.resolve(term))
    if tail != NIL:
        raise PrologError(f"{context}: not a proper list")
    return items


def _sorted_unique(items: list[Term]) -> list[Term]:
    deduped: list[Term] = []
    for item in sorted(items, key=term_order_key):
        if not deduped or deduped[-1] != item:
            deduped.append(item)
    return deduped


def _bi_msort(db, goal, bindings):
    items = _proper_list_items(goal.args[0], bindings, "msort/2")
    ordered = sorted(items, key=term_order_key)
    return unify_answer(goal.args[1], make_list(ordered), bindings)


def _bi_sort(db, goal, bindings):
    items = _proper_list_items(goal.args[0], bindings, "sort/2")
    return unify_answer(goal.args[1], make_list(_sorted_unique(items)), bindings)


def _bi_write(db, goal, bindings):
    db.write(term_to_string(bindings.resolve(goal.args[0])))
    yield bindings


def _bi_writeln(db, goal, bindings):
    db.write(term_to_string(bindings.resolve(goal.args[0])) + "\n")
    yield bindings


def _bi_nl(db, goal, bindings):
    db.write("\n")
    yield bindings


def _bi_tab(db, goal, bindings):
    count = bindings.walk(goal.args[0])
    if not isinstance(count, Int) or count.value < 0:
        raise PrologError("tab/1: needs a non-negative integer")
    db.write(" " * count.value)
    yield bindings


def _bi_atom_codes(db, goal, bindings):
    atom, codes = (bindings.walk(a) for a in goal.args)
    if isinstance(atom, Atom):
        built = make_list([Int(ord(c)) for c in atom.name])
        return unify_answer(codes, built, bindings)
    if isinstance(atom, (Int, Float)):
        built = make_list([Int(ord(c)) for c in term_to_string(atom)])
        return unify_answer(codes, built, bindings)
    items = _proper_list_items(codes, bindings, "atom_codes/2")
    chars = []
    for item in items:
        if not isinstance(item, Int):
            raise PrologError("atom_codes/2: code list must hold integers")
        chars.append(chr(item.value))
    return unify_answer(atom, Atom("".join(chars)), bindings)


def _bi_atom_length(db, goal, bindings):
    atom = bindings.walk(goal.args[0])
    if not isinstance(atom, Atom):
        raise PrologError("atom_length/2: first argument must be an atom")
    return unify_answer(goal.args[1], Int(len(atom.name)), bindings)


def _bi_succ(db, goal, bindings):
    smaller, larger = (bindings.walk(a) for a in goal.args)
    if isinstance(smaller, Int):
        if smaller.value < 0:
            raise PrologError("succ/2: negative argument")
        return unify_answer(larger, Int(smaller.value + 1), bindings)
    if isinstance(larger, Int):
        if larger.value <= 0:
            return iter(())
        return unify_answer(smaller, Int(larger.value - 1), bindings)
    raise PrologError("succ/2: insufficiently instantiated")


def _bi_compare(db, goal, bindings):
    order, left, right = goal.args
    left_key = term_order_key(bindings.resolve(left))
    right_key = term_order_key(bindings.resolve(right))
    if left_key < right_key:
        verdict = Atom("<")
    elif left_key > right_key:
        verdict = Atom(">")
    else:
        verdict = Atom("=")
    return unify_answer(order, verdict, bindings)


#: indicator -> ``fn(db, goal, bindings)`` generator of solutions.
BUILTINS: dict[tuple[str, int], Callable[[Database, Term, Bindings], Iterator[Bindings]]] = {
    ("=", 2): _bi_unify,
    ("\\=", 2): _bi_not_unify,
    ("==", 2): _bi_equal,
    ("\\==", 2): _bi_not_equal,
    ("var", 1): _type_test(lambda t: isinstance(t, Var)),
    ("nonvar", 1): _type_test(lambda t: not isinstance(t, Var)),
    ("atom", 1): _type_test(lambda t: isinstance(t, Atom)),
    ("number", 1): _type_test(lambda t: isinstance(t, (Int, Float))),
    ("integer", 1): _type_test(lambda t: isinstance(t, Int)),
    ("float", 1): _type_test(lambda t: isinstance(t, Float)),
    ("atomic", 1): _type_test(lambda t: isinstance(t, (Atom, Int, Float))),
    ("compound", 1): _type_test(lambda t: isinstance(t, Struct)),
    ("ground", 1): _bi_ground,
    ("is", 2): _bi_is,
    ("=:=", 2): _arith_compare(lambda a, b: a == b),
    ("=\\=", 2): _arith_compare(lambda a, b: a != b),
    ("<", 2): _arith_compare(lambda a, b: a < b),
    (">", 2): _arith_compare(lambda a, b: a > b),
    ("=<", 2): _arith_compare(lambda a, b: a <= b),
    (">=", 2): _arith_compare(lambda a, b: a >= b),
    ("@<", 2): _order_compare(lambda a, b: a < b),
    ("@>", 2): _order_compare(lambda a, b: a > b),
    ("@=<", 2): _order_compare(lambda a, b: a <= b),
    ("@>=", 2): _order_compare(lambda a, b: a >= b),
    ("functor", 3): _bi_functor,
    ("arg", 3): _bi_arg,
    ("=..", 2): _bi_univ,
    ("between", 3): _bi_between,
    ("length", 2): _bi_length,
    ("assert", 1): _bi_assertz,
    ("assertz", 1): _bi_assertz,
    ("asserta", 1): _bi_asserta,
    ("retract", 1): _bi_retract,
    ("msort", 2): _bi_msort,
    ("sort", 2): _bi_sort,
    ("compare", 3): _bi_compare,
    ("write", 1): _bi_write,
    ("print", 1): _bi_write,
    ("writeln", 1): _bi_writeln,
    ("nl", 0): _bi_nl,
    ("tab", 1): _bi_tab,
    ("atom_codes", 2): _bi_atom_codes,
    ("atom_length", 2): _bi_atom_length,
    ("succ", 2): _bi_succ,
    ("clause", 2): _bi_clause,
}

#: The builtins that can yield more than once; every other entry yields
#: at most once and leaves no choice point behind.
NONDETERMINISTIC = frozenset({("between", 3), ("clause", 2)})


# ---------------------------------------------------------------------------
# bagof/3 and setof/3: free-variable grouping.
# ---------------------------------------------------------------------------


def bagof_witness(template: Term, subgoal: Term, bindings: Bindings) -> tuple[Term, Term]:
    """The witness of a ``bagof``/``setof`` call and the goal to run.

    ``Var ^ Goal`` wrappers are peeled off, their variables made
    existential.  The witness holds the goal's *free* variables (in
    neither the template nor a ``^`` prefix); solutions are grouped by
    its bindings.
    """
    existential: list[Var] = []
    inner = bindings.walk(subgoal)
    while isinstance(inner, Struct) and inner.indicator == ("^", 2):
        existential.extend(variables(bindings.resolve(inner.args[0])))
        inner = bindings.walk(inner.args[1])
    template_vars = set(variables(bindings.resolve(template)))
    free = [
        v
        for v in variables(bindings.resolve(inner))
        if v not in template_vars and v not in existential and not v.is_anonymous()
    ]
    witness = Struct("$w", tuple(free)) if free else Atom("$w")
    return witness, inner


def bagof_answers(
    witness: Term,
    result: Term,
    pairs: list[tuple[Term, Term]],
    dedupe: bool,
    bindings: Bindings,
) -> Iterator[Bindings]:
    """One answer per witness group of the resolved (witness, value) pairs.

    Groups come in order of first appearance; ``dedupe`` (``setof``)
    sorts each group and drops duplicates.  No pairs, no answer.
    """
    groups: list[tuple[Term, list[Term]]] = []
    for key, value in pairs:
        for existing_key, values in groups:
            if existing_key == key:
                values.append(value)
                break
        else:
            groups.append((key, [value]))
    for key, values in groups:
        if dedupe:
            values = _sorted_unique(values)
        mark = bindings.mark()
        if (
            unify(witness, key, bindings) is not None
            and unify(result, make_list(values), bindings) is not None
        ):
            yield bindings
        bindings.undo_to(mark)


# ---------------------------------------------------------------------------
# Arithmetic evaluation and the standard order of terms.
# ---------------------------------------------------------------------------

_ARITH_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) or a % b else a // b,
    "//": lambda a, b: int(a // b),
    "mod": lambda a, b: a % b,
    "min": min,
    "max": max,
    "**": lambda a, b: a**b,
    "^": lambda a, b: a**b,
}

_ARITH_UNARY = {
    "-": lambda a: -a,
    "+": lambda a: a,
    "abs": abs,
    "sign": lambda a: (a > 0) - (a < 0),
}


def _evaluate(expression: Term, bindings: Bindings) -> Term:
    """Evaluate an arithmetic expression to an Int or Float term."""
    expression = bindings.walk(expression)
    if isinstance(expression, (Int, Float)):
        return expression
    if isinstance(expression, Var):
        raise PrologError("arithmetic: unbound variable")
    if isinstance(expression, Struct):
        if expression.arity == 2 and expression.functor in _ARITH_BINARY:
            left = _numeric(_evaluate(expression.args[0], bindings))
            right = _numeric(_evaluate(expression.args[1], bindings))
            try:
                result = _ARITH_BINARY[expression.functor](left, right)
            except ZeroDivisionError:
                raise PrologError("arithmetic: division by zero") from None
            return _to_number(result)
        if expression.arity == 1 and expression.functor in _ARITH_UNARY:
            value = _numeric(_evaluate(expression.args[0], bindings))
            return _to_number(_ARITH_UNARY[expression.functor](value))
    raise PrologError(
        f"arithmetic: cannot evaluate {term_to_string(expression)}"
    )


def _numeric(term: Term) -> int | float:
    if isinstance(term, (Int, Float)):
        return term.value
    raise PrologError(f"arithmetic: {term_to_string(term)} is not a number")


def _to_number(value: int | float) -> Term:
    if isinstance(value, bool):
        raise PrologError("arithmetic produced a boolean")
    if isinstance(value, int):
        return Int(value)
    return Float(value)


def term_order_key(term: Term):
    """A sort key realising the standard order: Var < Number < Atom < Compound.

    Compounds order by arity, then name, then arguments left to right.
    The key is flat — one entry per node in pre-order, a compound's
    entry holding its arity and name — so comparing two keys never
    recurses, however long the lists they hold.  Pre-order with
    arities is prefix-free, so the first differing entry always sits at
    the same node of both terms and decides the order there.
    """
    key: list[tuple] = []
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            key.append((0, current.name))
        elif isinstance(current, (Int, Float)):
            key.append((1, current.value, 0 if isinstance(current, Float) else 1))
        elif isinstance(current, Atom):
            key.append((2, current.name))
        else:
            assert isinstance(current, Struct)
            key.append((3, current.arity, current.functor))
            stack.extend(reversed(current.args))
    return tuple(key)
