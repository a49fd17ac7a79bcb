"""Canonical goal keys shared by the caches and shard routing.

A leaf module (it imports only :mod:`repro.terms` and
:mod:`repro.unify.match`), so the filters below the CRS can key their
caches with it; :mod:`repro.crs.keys` and :mod:`repro.crs` re-export it.

Two retrievals are the same retrieval exactly when their goals have the
same constants and the same variable-sharing pattern: the candidate set
of ``p(_G1, a)`` equals that of ``p(_G7, a)``, while ``p(X, X)`` and
``p(X, Y)`` are different retrievals (the shared variable constrains
both arguments).  :func:`canonical_goal_key` captures precisely that
equivalence as a hashable structural value.

The same canonicalisation drives shard routing
(:mod:`repro.cluster.routing`): a ground goal's routing key is derived
from the identical canonical encoding its cache key uses, so a cluster
front-end can never cache under one identity and route under another.

The keys are *structural* (tuples of type-tagged entries), not rendered
strings — a quoted atom spelled like a renamed variable, or an integer
spelled like a float, can never collide with one.  Numeric edge case:
``-0.0 == 0.0`` for unification (and the FS1 codeword hash normalises
them identically), so both canonicalise to ``0.0``; ``1`` and ``1.0``
do *not* unify and keep distinct type tags.
"""

from __future__ import annotations

from .pif.tags import INLINE_ARITY_LIMIT
from .terms import CONS, NIL, Atom, Float, Int, Struct, Term, Var

__all__ = [
    "canonical_goal_key",
    "constant_index_key",
    "first_arg_index_key",
]

GoalKey = tuple


def canonical_goal_key(goal: Term) -> GoalKey:
    """A hashable key equal for goals that are the same retrieval.

    Variables are numbered in first-occurrence order; each anonymous
    ``_`` occurrence is a fresh singleton (a variable that never recurs
    always passes partial matching regardless of its name, so ``p(_, a)``
    and ``p(X, a)`` with X a singleton canonicalise identically, while
    ``p(X, X)`` keeps its sharing pattern distinct from ``p(X, Y)``).

    The key is flat: one entry per node in pre-order, a compound's entry
    carrying its functor and arity, so a goal holding a long list keys,
    hashes and compares without recursion.  Pre-order with arities
    decodes uniquely, so equal keys still mean equal goal shapes.
    """
    mapping: dict[str, int] = {}
    counter = 0
    key: list[GoalKey] = []
    stack = [goal]
    while stack:
        term = stack.pop()
        if isinstance(term, Var):
            if term.is_anonymous():
                key.append(("v", counter))
                counter += 1
                continue
            if term.name not in mapping:
                mapping[term.name] = counter
                counter += 1
            key.append(("v", mapping[term.name]))
        elif isinstance(term, Struct):
            key.append(("s", term.functor, len(term.args)))
            stack.extend(reversed(term.args))
        else:
            key.append(constant_index_key(term))
    return tuple(key)


def constant_index_key(term: Term) -> GoalKey:
    """The canonical encoding of one non-variable constant.

    Shared by the cache key (leaf encoding) and the first-argument
    routing key, so the two always agree on what a ground argument *is*.
    """
    if isinstance(term, Atom):
        return ("a", term.name)
    if isinstance(term, Int):
        return ("i", term.value)
    if isinstance(term, Float):
        # -0.0 == 0.0 must key identically (they unify, and the FS1
        # codeword already normalises them to one hash).
        value = 0.0 if term.value == 0 else term.value
        return ("f", repr(value))
    raise TypeError(f"not an indexable constant: {term!r}")


def first_arg_index_key(callable_term: Term) -> GoalKey | None:
    """The principal-functor key of a callable term's first argument.

    This is the classic first-argument index key (B-Prolog style): an
    atomic first argument keys on its value, a compound one on its
    ``functor/arity`` alone (``f(a)`` and ``f(X)`` share a key — they
    may unify).  Returns ``None`` when no index key exists: a variable
    first argument, or an arity-0 goal.

    Routing soundness must hold against *level-3 partial matching*, not
    just unification: a shard skipped by the key must hold no clause the
    FS2/software filter would accept, or the sharded candidate set would
    shrink below the single engine's.  Level 3 accepts strictly more
    than unification does, and the key mirrors its two conservative
    spots (:mod:`repro.unify.match`):

    * every list-category term — ``[]`` included — shares one ``("l",)``
      key, because the hardware's repetitive list matching lets an open
      list absorb any length difference (``[]`` passes ``[[]|X]``);
    * structure arities saturate at the 5-bit tag limit: two
      pointer-represented structures of the same functor are
      tag-indistinguishable whatever their true arities.

    The guarantee: if a clause head's first argument can *pass the
    filter* against the goal's, their keys are equal or one is ``None``.
    """
    if not isinstance(callable_term, Struct):
        return None
    first = callable_term.args[0]
    if isinstance(first, Var):
        return None
    if isinstance(first, Struct):
        if first.functor == CONS and first.arity == 2:
            return ("l",)
        return ("s", first.functor, min(first.arity, INLINE_ARITY_LIMIT + 1))
    if isinstance(first, Atom) and first == NIL:
        return ("l",)
    return constant_index_key(first)
