"""Substitutions and trails for unification.

:class:`Bindings` is a mutable variable->term store with dereferencing
(``walk``), deep application (``resolve``) and a trail so the engine
can undo bindings on backtracking.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..terms import Struct, Term, Var

__all__ = ["Bindings"]


class Bindings:
    """A mutable substitution with an undo trail.

    Bindings map variables to terms.  ``walk`` follows variable chains to
    the representative term; ``resolve`` applies the substitution deeply.
    ``mark``/``undo_to`` implement the trail used for backtracking.
    """

    __slots__ = ("_map", "_trail")

    def __init__(self, initial: Mapping[Var, Term] | None = None):
        self._map: dict[Var, Term] = dict(initial) if initial else {}
        self._trail: list[Var] = []

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, var: Var) -> bool:
        return var in self._map

    def __iter__(self) -> Iterator[Var]:
        return iter(self._map)

    def copy(self) -> "Bindings":
        """An independent copy (the trail is not copied)."""
        return Bindings(self._map)

    def bind(self, var: Var, term: Term) -> None:
        """Bind an unbound ``var`` to ``term``, recording it on the trail."""
        if var in self._map:
            raise ValueError(f"variable {var.name} is already bound")
        self._map[var] = term
        self._trail.append(var)

    def walk(self, term: Term) -> Term:
        """Dereference ``term``: follow bound-variable chains to the end.

        Returns either a non-variable term or an unbound variable.
        """
        while isinstance(term, Var):
            bound = self._map.get(term)
            if bound is None:
                return term
            term = bound
        return term

    def resolve(self, term: Term) -> Term:
        """Apply the substitution deeply to ``term``.

        Cyclic bindings (``X = f(X)``, legal without occurs check) are
        handled coinductively: re-entering a variable that is already
        being expanded stops the expansion and leaves the variable in
        place, so the result is always a finite term — ``X = f(X)``
        resolves to ``f(X)``, which prints and compares finitely.

        The walk keeps its own stack of open compound terms, so the
        depth of ``term`` (a long list, say) is not bounded by Python's
        recursion limit.  A compound whose arguments all resolve to
        themselves is returned as is.
        """
        bindings = self._map
        # Variables whose binding is being expanded (the cycle guard).
        active: set[Var] | None = None
        # Open compounds: [term, variable expanded into it, done args,
        # whether any argument changed].
        frames: list[list] = []
        current = term
        while True:
            via = None
            if isinstance(current, Var):
                chain: set[Var] | None = None
                while isinstance(current, Var):
                    if active is not None and current in active:
                        break
                    bound = bindings.get(current)
                    if bound is None:
                        break
                    if isinstance(bound, Struct):
                        via = current
                        if active is None:
                            active = set()
                        active.add(current)
                        current = bound
                        break
                    if isinstance(bound, Var):
                        # Var-to-var chains can only cycle through direct
                        # bind() misuse, but a wedged resolve is worse
                        # than a set probe.
                        if chain is None:
                            chain = set()
                        if current in chain:
                            break
                        chain.add(current)
                    current = bound
            if isinstance(current, Struct):
                frames.append([current, via, [], False])
                current = current.args[0]
                continue
            result = current
            while frames:
                frame = frames[-1]
                struct, _, done, changed = frame
                args = struct.args
                if result is not args[len(done)]:
                    frame[3] = changed = True
                done.append(result)
                if len(done) < len(args):
                    current = args[len(done)]
                    break
                frames.pop()
                if frame[1] is not None:
                    active.discard(frame[1])
                result = Struct(struct.functor, tuple(done)) if changed else struct
            else:
                return result

    def is_ground(self, term: Term) -> bool:
        """True if ``term`` contains no unbound variable under this store.

        Cycle-safe: a variable reached again while its own binding is
        being expanded contributes nothing new (every variable on a
        binding cycle is bound by construction), so ``X = f(X)`` is
        ground, matching systems that support rational trees.
        """
        seen: set[Var] = set()
        stack = [term]
        while stack:
            current = stack.pop()
            while isinstance(current, Var):
                if current in seen:
                    break
                bound = self._map.get(current)
                if bound is None:
                    return False
                seen.add(current)
                current = bound
            if isinstance(current, Struct):
                stack.extend(current.args)
        return True

    def mark(self) -> int:
        """A trail checkpoint for later :meth:`undo_to`."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Remove every binding made since ``mark``."""
        while len(self._trail) > mark:
            var = self._trail.pop()
            del self._map[var]

    def as_dict(self) -> dict[Var, Term]:
        """A snapshot of the raw variable->term map."""
        return dict(self._map)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}={t}" for v, t in self._map.items())
        return f"Bindings({inner})"
