"""The "Warren medium-size knowledge base", scaled.

D.H.D. Warren's envisaged medium-size knowledge base is "of the order of
3000 predicates, 30000 rules, 3000000 facts, and 30 Mbytes total size"
(paper section 1).  A full-size instance is impractical inside a unit
test, so :func:`warren_kb_spec` scales every dimension by one factor and
:func:`build_warren_kb` materialises it with the synthetic generators —
preserving the ratios (10 rules per predicate, 1000 facts per predicate,
~10 bytes per fact) that make it a faithful miniature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..storage import KnowledgeBase
from ..terms import Atom, Clause, Struct, Var

__all__ = ["WarrenSpec", "warren_kb_spec", "build_warren_kb", "WARREN_FULL"]


@dataclass(frozen=True)
class WarrenSpec:
    """Scaled dimensions of Warren's medium-size knowledge base."""

    predicates: int
    rules: int
    facts: int
    scale: float

    @property
    def rules_per_predicate(self) -> int:
        return max(self.rules // max(self.predicates, 1), 0)

    @property
    def facts_per_predicate(self) -> int:
        return max(self.facts // max(self.predicates, 1), 1)


#: Warren's full-size figures.
WARREN_FULL = WarrenSpec(predicates=3000, rules=30_000, facts=3_000_000, scale=1.0)


def warren_kb_spec(scale: float) -> WarrenSpec:
    """Warren's knowledge base scaled down by ``scale`` (0 < scale <= 1)."""
    if not (0 < scale <= 1):
        raise ValueError("scale must be in (0, 1]")
    return WarrenSpec(
        predicates=max(int(WARREN_FULL.predicates * scale), 1),
        rules=max(int(WARREN_FULL.rules * scale), 0),
        facts=max(int(WARREN_FULL.facts * scale), 1),
        scale=scale,
    )


def build_warren_kb(spec: WarrenSpec, seed: int = 0) -> KnowledgeBase:
    """Materialise a scaled Warren KB: mixed fact+rule predicates."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    arities = [rng.choice((2, 2, 3, 3, 4)) for _ in range(spec.predicates)]
    for p in range(spec.predicates):
        functor = f"pred{p}"
        arity = arities[p]
        domain = max(spec.facts_per_predicate // 10, 8)
        clauses: list[Clause] = []
        for _ in range(spec.facts_per_predicate):
            args = tuple(
                Atom(f"k{position}_{rng.randrange(domain)}")
                for position in range(arity)
            )
            clauses.append(Clause(Struct(functor, args)))
        for _ in range(spec.rules_per_predicate):
            head_vars = tuple(Var(f"X{i}") for i in range(arity))
            if p == 0:
                # The first predicate has no earlier sibling to call; its
                # "rules" degenerate to universal facts.
                clauses.append(Clause(Struct(functor, head_vars)))
                continue
            # Rule bodies call a strictly-earlier predicate (no recursion)
            # with the right arity, giving the engine real
            # multi-predicate work.
            target = rng.randrange(p)
            target_args = (head_vars[0],) * arities[target]
            body = Struct(f"pred{target}", target_args)
            clauses.append(Clause(Struct(functor, head_vars), (body,)))
        # Mixed relation: shuffle facts and rules into one user order.
        rng.shuffle(clauses)
        kb.consult_clauses(clauses, module=f"mod{p % 10}")
    return kb
