"""The integrated knowledge base.

One Prolog system manages everything: facts and rules of a predicate live
together, in the user-specified order, in one compiled clause file per
``functor/arity`` (mixed relations are a design goal of the PDBM project,
paper section 1).  Each clause file gets an SCW+MB secondary index; both
can be placed on the simulated disk for predicates whose module is
disk resident.

Both files are byte images and the knowledge base keeps them in step:
an append compiles the clause into the one and hashes its head into the
other; ``asserta``, ``retract`` and ``remove_exact`` find their clause
through the index the way a retrieval would, then splice its record and
its row into or out of both images under a fresh clause-file generation
— byte-identical to rebuilding both from the surviving clauses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..disk import DiskSim
from ..obs import Instrumentation
from ..pif import ClauseFile, SymbolTable
from ..scw import CodewordScheme, DEFAULT_SCHEME, SecondaryIndexFile
from ..terms import (
    Clause,
    Term,
    as_clause,
    clause_from_term,
    functor_indicator,
    read_program,
)
from .module import Module, Residency

__all__ = ["KnowledgeBase", "PredicateStore", "UnknownPredicateError"]


class UnknownPredicateError(KeyError):
    """Query against a predicate with no clauses."""


@dataclass
class PredicateStore:
    """One predicate: its clause file, index, and module membership.

    The SCW+MB index is live from the first append: the knowledge base
    mirrors every mutation of the clause file into it as it happens.
    """

    indicator: tuple[str, int]
    clause_file: ClauseFile
    module_name: str
    scheme: CodewordScheme
    index: SecondaryIndexFile

    def __len__(self) -> int:
        return len(self.clause_file)

    @property
    def fact_count(self) -> int:
        """How many of the predicate's clauses are facts (running count)."""
        return self.clause_file.fact_count

    def clauses(self) -> list[Clause]:
        """All clauses, decoded, in user order."""
        return [
            self.clause_file.decode_clause(i) for i in range(len(self.clause_file))
        ]

    def compiled_bytes(self) -> int:
        return self.clause_file.size_bytes()

    def extent_name(self) -> str:
        name, arity = self.indicator
        return f"clauses:{name}/{arity}"

    def index_extent_name(self) -> str:
        name, arity = self.indicator
        return f"index:{name}/{arity}"


class KnowledgeBase:
    """The single Prolog view over all modules, predicates and clauses."""

    def __init__(
        self,
        scheme: CodewordScheme = DEFAULT_SCHEME,
        disk: DiskSim | None = None,
        obs: Instrumentation | None = None,
    ):
        self.symbols = SymbolTable()
        self.scheme = scheme
        self.disk = disk if disk is not None else DiskSim(obs=obs)
        self._predicates: dict[tuple[str, int], PredicateStore] = {}
        self._modules: dict[str, Module] = {"user": Module("user")}
        #: bumped on every clause addition/removal; caches key on it.
        self.version = 0
        #: the record the last retract cut out: the replication log keeps
        #: it in place of the decoded clause, and nothing can read it back.
        self.last_cut = b""
        #: per-predicate (generation, clause count) as of the last disk
        #: write, so retrieval paths can tell a fresh extent from one
        #: that predates an assert/retract.  Appends keep the clause
        #: file's generation but grow the count; every other mutation
        #: splices the file and takes a new generation — either way the
        #: key changes and the extent must be rewritten before its bytes
        #: are trusted again.
        self._disk_synced: dict[tuple[str, int], tuple[int, int]] = {}

    def replica(self) -> "KnowledgeBase":
        """A knowledge base of its own over this one's images.

        Symbol table, modules and stores are new objects.  Each clause
        file and index adopts this one's image as a read-only buffer
        (:meth:`ClauseFile.shared_image`, copy-on-write), so every
        replica and this knowledge base share the bytes until each one's
        first mutation copies them, and no mutation reaches another.
        This knowledge base's state was checked when it was built or
        loaded, so the symbol entries and address tables are copied as
        they stand; nothing is parsed, compiled or hashed.  The codeword
        scheme is shared, as by every KB built with it.
        """
        copy = KnowledgeBase(self.scheme, obs=self.disk.obs)
        copy.symbols = self.symbols.copy()
        for name, module in self._modules.items():
            copy._modules[name] = Module(
                name, module.large_threshold_bytes, module.pinned_residency,
                set(module.indicators),
            )
        for indicator, store in self._predicates.items():
            copy._predicates[indicator] = PredicateStore(
                indicator=indicator,
                clause_file=store.clause_file.replica(copy.symbols),
                module_name=store.module_name,
                scheme=self.scheme,
                index=SecondaryIndexFile.from_image(
                    self.scheme, indicator, store.index.shared_rows()
                ),
            )
        return copy

    # -- modules --------------------------------------------------------------

    def module(self, name: str) -> Module:
        if name not in self._modules:
            self._modules[name] = Module(name)
        return self._modules[name]

    def modules(self) -> list[Module]:
        return list(self._modules.values())

    def residency(self, indicator: tuple[str, int]) -> str:
        """Where this predicate's clauses live (memory or disk)."""
        store = self._store(indicator)
        return self.module(store.module_name).residency(store.compiled_bytes())

    # -- loading clauses --------------------------------------------------------

    def consult_text(self, text: str, module: str = "user") -> int:
        """Load ``.``-terminated clauses from source text."""
        count = 0
        for term in read_program(text):
            self.add_clause(clause_from_term(term), module=module)
            count += 1
        return count

    def consult_clauses(self, clauses: Iterable[Clause], module: str = "user") -> int:
        count = 0
        for clause in clauses:
            self.add_clause(clause, module=module)
            count += 1
        return count

    def add_clause(self, clause: Clause, module: str = "user") -> None:
        """Append a clause (``assertz`` order: end of its procedure)."""
        store = self._store_or_create(clause.indicator, module)
        store.clause_file.append(clause)
        store.index.add(clause.head, store.clause_file.last_address())
        self.version += 1
        self.publish_footprint()

    def assertz(self, clause_or_term: Clause | Term, module: str = "user") -> None:
        self.add_clause(as_clause(clause_or_term), module=module)

    def asserta(self, clause_or_term: Clause | Term, module: str = "user") -> None:
        """Prepend a clause, preserving the ordering semantics of Prolog."""
        clause = as_clause(clause_or_term)
        store = self._store_or_create(clause.indicator, module)
        length = store.clause_file.prepend(clause)
        store.index.insert_front(clause.head, length)
        self._spliced()

    def retract(self, clause_or_term: Clause | Term) -> bool:
        """Remove the first clause *unifying* with the given template.

        Standard Prolog semantics: the template's head and body unify
        against each stored clause (standardised apart); the first match
        is removed.
        """
        return self.retract_matching(clause_or_term) is not None

    def retract_matching(self, clause_or_term: Clause | Term) -> Clause | None:
        """Like :meth:`retract` but returns the removed clause."""
        from ..terms import rename_apart
        from ..unify import unify

        clause = as_clause(clause_or_term)
        template = clause.to_term()
        for store, position, candidate in self._shortlist(clause.head):
            if unify(template, rename_apart(candidate.to_term())) is not None:
                self._cut(store, position)
                return candidate
        return None

    def remove_exact(self, clause: Clause) -> bool:
        """Remove the first *structurally identical* clause, if present.

        Replication replay needs this instead of :meth:`retract`: a
        retract template unifies, so replaying it on a replica could
        remove a *different* (more general) clause than the primary
        removed.  Shipping the clause the primary actually removed and
        matching it by structural equality keeps replicas byte-identical.
        """
        for store, position, candidate in self._shortlist(clause.head):
            if candidate == clause:
                self._cut(store, position)
                return True
        return False

    def _shortlist(
        self, head: Term
    ) -> Iterator[tuple[PredicateStore, int, Clause]]:
        """(store, position, decoded clause) of possible matches of ``head``.

        Found the way retrieval finds them: the FS1 scan never drops a
        clause whose head unifies with the probe (the filter-soundness
        invariant), and enumerates survivors in clause order, so the
        first match among them is the first match in the file and only
        the shortlisted records are ever decoded.
        """
        store = self._predicates.get(functor_indicator(head))
        if store is None:
            return
        clause_file = store.clause_file
        probe = self.scheme.query_codeword(head)
        for address in store.index.bitsliced.scan(probe):
            position, _ = clause_file.record_span(address)
            yield store, position, clause_file.decode_clause(position)

    def _cut(self, store: PredicateStore, position: int) -> None:
        """Splice one clause out of a store's file and index."""
        self.last_cut = bytes(store.clause_file.record_bytes(position))
        length = store.clause_file.delete(position)
        store.index.delete(position, length)
        self._spliced()

    def _spliced(self) -> None:
        self.version += 1
        self.disk.obs.counter("storage.splices").inc()
        self.publish_footprint()

    def publish_footprint(self) -> None:
        """Set the ``kb.image_bytes`` / ``kb.index_bytes`` gauges.

        Bytes stored, to hold against the process's resident size from
        outside it.  Skipped while instrumentation is off: the sums walk
        every predicate.
        """
        obs = self.disk.obs
        if obs.enabled:
            obs.gauge("kb.image_bytes").set(self.size_bytes())
            obs.gauge("kb.index_bytes").set(
                sum(s.index.size_bytes() for s in self._predicates.values())
            )

    # -- access -----------------------------------------------------------------

    def predicates(self) -> list[tuple[str, int]]:
        return list(self._predicates)

    def has_predicate(self, indicator: tuple[str, int]) -> bool:
        return indicator in self._predicates

    def store(self, indicator: tuple[str, int]) -> PredicateStore:
        return self._store(indicator)

    def store_for_goal(self, goal: Term) -> PredicateStore:
        return self._store(functor_indicator(goal))

    def clauses(self, indicator: tuple[str, int]) -> list[Clause]:
        return self._store(indicator).clauses()

    def clause_count(self) -> int:
        return sum(len(s) for s in self._predicates.values())

    def size_bytes(self) -> int:
        """Total compiled clause file volume."""
        return sum(s.compiled_bytes() for s in self._predicates.values())

    def __iter__(self) -> Iterator[PredicateStore]:
        return iter(self._predicates.values())

    # -- disk placement ---------------------------------------------------------

    def sync_to_disk(self) -> list[str]:
        """Write disk-resident predicates' files and indexes to the disk.

        Returns the extent names written.  Memory-resident predicates are
        not written — they are consulted directly.
        """
        written = []
        for store in self._predicates.values():
            if self.residency(store.indicator) != Residency.DISK:
                continue
            # Clause files start on track boundaries so per-track FS2
            # search calls line up with the physical layout.
            self.disk.write_extent(
                store.extent_name(), store.clause_file.to_bytes(), align_track=True
            )
            self.disk.write_extent(store.index_extent_name(), store.index.to_bytes())
            self.mark_disk_synced(store.indicator)
            written.extend([store.extent_name(), store.index_extent_name()])
        return written

    def disk_sync_key(self, indicator: tuple[str, int]) -> tuple[int, int]:
        """The freshness key the on-disk extents of a predicate must match."""
        store = self._store(indicator)
        return (store.clause_file.generation, len(store.clause_file))

    def disk_synced_key(self, indicator: tuple[str, int]) -> tuple[int, int] | None:
        """The freshness key recorded at the last extent write, if any."""
        return self._disk_synced.get(indicator)

    def mark_disk_synced(self, indicator: tuple[str, int]) -> None:
        """Record that the predicate's extents match its current clauses."""
        self._disk_synced[indicator] = self.disk_sync_key(indicator)

    # -- internals ----------------------------------------------------------------

    def _store(self, indicator: tuple[str, int]) -> PredicateStore:
        try:
            return self._predicates[indicator]
        except KeyError:
            name, arity = indicator
            raise UnknownPredicateError(f"unknown predicate {name}/{arity}") from None

    def _store_or_create(
        self, indicator: tuple[str, int], module: str
    ) -> PredicateStore:
        store = self._predicates.get(indicator)
        if store is None:
            store = PredicateStore(
                indicator=indicator,
                clause_file=ClauseFile(indicator, self.symbols),
                module_name=module,
                scheme=self.scheme,
                index=SecondaryIndexFile(self.scheme, indicator),
            )
            self._predicates[indicator] = store
            self.module(module).add_procedure(indicator)
        return store
