"""Full unification.

This is the *final* stage of clause retrieval in the PDBM system: CLARE's
two filter stages only identify *potential* unifiers; every candidate clause
is subjected to full unification by the host Prolog system.  It is also the
ground-truth oracle for the filter-soundness property: a filter must never
reject a clause that ``unify`` accepts.
"""

from __future__ import annotations

from ..terms import Struct, Term, Var
from .bindings import Bindings

__all__ = ["unify", "unifiable", "occurs_in"]


def occurs_in(var: Var, term: Term, bindings: Bindings) -> bool:
    """True if ``var`` occurs in ``term`` under ``bindings`` (occurs check)."""
    stack = [term]
    while stack:
        current = bindings.walk(stack.pop())
        if isinstance(current, Var):
            if current == var:
                return True
        elif isinstance(current, Struct):
            stack.extend(current.args)
    return False


def unify(
    left: Term,
    right: Term,
    bindings: Bindings | None = None,
    occurs_check: bool = False,
) -> Bindings | None:
    """Unify two terms; return the extended bindings, or None on failure.

    When ``bindings`` is given it is extended *in place* on success and
    rolled back to its entry state on failure (standard trail behaviour).
    Without ``occurs_check`` the behaviour matches normal Prolog (a
    variable may capture a term containing itself is prevented only for
    the direct ``X = X`` case by the identical-variable shortcut).
    """
    if bindings is None:
        bindings = Bindings()
    mark = bindings.mark()
    stack: list[tuple[Term, Term]] = [(left, right)]
    # Coinductive guard for rational trees: without an occurs check a
    # variable may be bound to a term containing itself, and unifying two
    # such cyclic terms (X = f(X) against Y = f(Y)) would re-derive the
    # same pair forever.  ``walk`` returns the stored term objects, so an
    # identity pair that comes around again is already being proved and
    # can be assumed (greatest-fixpoint semantics, as in SWI/YAP).
    in_progress: set[tuple[int, int]] | None = None
    while stack:
        a, b = stack.pop()
        a = bindings.walk(a)
        b = bindings.walk(b)
        # Compounds are compared argument by argument below, never with
        # a deep ``==``: a long list must not cost a recursion per cell.
        if a is b or (a.__class__ is not Struct and a == b):
            continue
        if isinstance(a, Var):
            if occurs_check and occurs_in(a, b, bindings):
                bindings.undo_to(mark)
                return None
            bindings.bind(a, b)
            continue
        if isinstance(b, Var):
            if occurs_check and occurs_in(b, a, bindings):
                bindings.undo_to(mark)
                return None
            bindings.bind(b, a)
            continue
        if isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or a.arity != b.arity:
                bindings.undo_to(mark)
                return None
            pair = (id(a), id(b))
            if in_progress is None:
                in_progress = set()
            elif pair in in_progress:
                continue
            in_progress.add(pair)
            stack.extend(zip(a.args, b.args))
            continue
        # Distinct constants (or constant vs compound).
        bindings.undo_to(mark)
        return None
    return bindings


def unifiable(left: Term, right: Term, occurs_check: bool = False) -> bool:
    """True if the two terms unify (bindings are discarded)."""
    return unify(left, right, occurs_check=occurs_check) is not None
