"""The Clause Retrieval Server (CRS).

"An independent software module, the Clause Retrieval Server, is being
developed which links CLARE with the PDBM Prolog system.  In practice,
there will be four searching modes during a clause retrieval:

  (a) By software only — the CRS performs all the search operations itself.
  (b) Using FS1 only — the superimposed codeword hardware.
  (c) Using FS2 only — the partial test unification hardware.
  (d) Using both FS1 and FS2 — a two-stage hardware filter."

The CRS returns *candidate clauses*; the host Prolog system applies full
unification.  Every mode is sound, so all four return supersets of the
true resolvent set and identical final answers — they differ in candidate
volume and in where the time goes, which :class:`RetrievalStats` itemises
using the disk model, the FS1 scan rate, the FS2 Table 1 times, and a
host cost model for the software path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

from ..cache import LruCache
from ..disk import TransferStats
from ..fs2 import SecondStageFilter
from ..keys import canonical_goal_key
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..pif import CompiledClause, SymbolTable
from ..pif.clausefile import decode_compiled
from ..scw import FS1Result, FirstStageFilter
from ..storage import KnowledgeBase, PredicateStore, Residency
from ..terms import Clause, Term, functor_indicator, rename_apart
from ..unify import Bindings, PartialMatcher, unify
from ..fs2.result import MAX_SATISFIERS

__all__ = [
    "SearchMode",
    "HostCostModel",
    "RetrievalStats",
    "RetrievalResult",
    "RetrievalTimeout",
    "StoredCandidates",
    "ClauseRetrievalServer",
]


class RetrievalTimeout(TimeoutError):
    """A retrieval exceeded its deadline before completing.

    Raised by the cluster fan-out
    (:meth:`repro.cluster.ShardedRetrievalServer.retrieve_batch` and
    everything that enters through it) when a shard cannot be acquired
    within the caller's budget, and by a single engine handed a budget
    already spent.  The network service layer maps it to a
    ``DEADLINE_EXPIRED`` error frame.
    """


class SearchMode(Enum):
    """The four CRS searching modes (paper section 2.2)."""

    SOFTWARE = "software"
    FS1_ONLY = "fs1"
    FS2_ONLY = "fs2"
    BOTH = "fs1+fs2"


#: The modes whose goals of one predicate share one FS1 scan.
_FS1_MODES = frozenset((SearchMode.FS1_ONLY, SearchMode.BOTH))


@dataclass(frozen=True)
class HostCostModel:
    """Modelled software costs on the M68020 host.

    The paper gives no host-side figures; these defaults assume a few
    microseconds per interpreted matching step on a mid-1980s 16 MHz
    68020, which is the right order for the shape-level mode comparison
    (the hardware's advantage is orders of magnitude, not percentages).
    """

    software_match_op_ns: int = 5_000
    clause_decode_ns: int = 20_000
    unify_per_candidate_ns: int = 50_000
    memory_scan_per_clause_ns: int = 25_000


@dataclass
class RetrievalStats:
    """Where the time went during one retrieval."""

    mode: SearchMode
    residency: str
    clauses_total: int = 0
    fs1_candidates: int | None = None
    final_candidates: int = 0
    disk_time_s: float = 0.0
    fs1_time_s: float = 0.0
    fs2_time_s: float = 0.0
    fs2_search_calls: int = 0
    software_time_s: float = 0.0
    bytes_from_disk: int = 0

    @property
    def filter_time_s(self) -> float:
        """Retrieval time up to (not including) full unification.

        Hardware filtering overlaps the disk transfer feeding it, so the
        overlapped portion counts once at the slower rate.
        """
        return (
            max(self.disk_time_s, self.fs1_time_s + self.fs2_time_s)
            + self.software_time_s
        )

    @property
    def selectivity(self) -> float:
        """Fraction of the predicate that survived filtering."""
        if self.clauses_total == 0:
            return 0.0
        return self.final_candidates / self.clauses_total

    def without_cost(self) -> RetrievalStats:
        """What a cache hit reports: the logical volumes, no physical work."""
        return replace(
            self, disk_time_s=0.0, fs1_time_s=0.0, fs2_time_s=0.0,
            fs2_search_calls=0, software_time_s=0.0, bytes_from_disk=0,
        )


@dataclass(frozen=True, eq=False)
class StoredCandidates:
    """One engine's candidates for one goal, as the PIF records it stores.

    The records are immutable bytes taken under the shard's lock — a
    copy, a slice of an adopted image or a Result Memory read-out — so
    they stay what the retrieval saw however the predicate is spliced
    afterwards.  ``generation`` is the clause file's at that moment;
    with an address it names one record forever, which is the key of
    the engine's decoded-clause cache.  Software mode decoded every
    clause to match it and hands its candidates' ``clauses`` along.
    """

    symbols: SymbolTable
    indicator: tuple[str, int]
    generation: int
    addresses: list[int]
    records: list[bytes]
    decode_cache: LruCache
    clauses: list[Clause] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def decode(self) -> list[Clause]:
        """The candidates as clauses, each through the decode cache."""
        if self.clauses is not None:
            return list(self.clauses)
        cache = self.decode_cache
        cacheable = cache.max_entries > 0
        clauses = []
        for address, record in zip(self.addresses, self.records):
            key = (self.generation, address)
            clause = cache.get(key) if cacheable else None
            if clause is None:
                compiled, _ = CompiledClause.from_bytes(record, self.indicator)
                clause = decode_compiled(compiled, self.symbols)
                if cacheable:
                    cache.put(key, clause)
            clauses.append(clause)
        return clauses


@dataclass(init=False, eq=False, repr=False)
class RetrievalResult:
    """Candidates plus accounting for one goal retrieval.

    An engine's result carries its candidates as ``sources``, the
    stored records of every engine that answered (one per shard after a
    merge), and the wire sends those records as they are.
    :attr:`candidates` is the ``list[Clause]`` in-process callers read:
    decoded on first access, or given outright (``sources`` is then
    ``None``), as a client's decoded answer is.
    """

    __slots__ = ("goal", "stats", "sources", "_candidates")
    goal: Term
    stats: RetrievalStats | None
    sources: tuple[StoredCandidates, ...] | None
    _candidates: list[Clause] | None

    def __init__(
        self,
        goal: Term,
        candidates: list[Clause] | None = None,
        stats: RetrievalStats | None = None,
        sources: tuple[StoredCandidates, ...] | None = None,
    ):
        self.goal = goal
        self.stats = stats
        self.sources = sources
        if candidates is None and sources is None:
            candidates = []
        self._candidates = candidates

    @property
    def candidates(self) -> list[Clause]:
        if self._candidates is None:
            self._candidates = [
                clause for source in self.sources for clause in source.decode()
            ]
        return self._candidates

    def __len__(self) -> int:
        if self._candidates is None:
            return sum(len(source) for source in self.sources)
        return len(self._candidates)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RetrievalResult:
            return NotImplemented
        return (self.goal, self.candidates, self.stats) == (
            other.goal, other.candidates, other.stats
        )

    def __repr__(self) -> str:
        return (
            f"RetrievalResult(goal={self.goal!r}, "
            f"candidates={self.candidates!r}, stats={self.stats!r})"
        )

    def __reduce__(self):
        # Across a pipe the records' symbol table and decode cache stay
        # behind: a result pickles as its decoded candidates.
        return (RetrievalResult, (self.goal, self.candidates, self.stats))

    def hit_view(self) -> RetrievalResult:
        """A cached result as served: a copy, at no physical cost."""
        return RetrievalResult(
            self.goal,
            None if self._candidates is None else list(self._candidates),
            None if self.stats is None else self.stats.without_cost(),
            self.sources,
        )


class CachedFrontDoor:
    """What the single engine and the sharded cluster share above ``retrieve``.

    Both present one contract, so its host-side parts are written once:
    the result cache and :meth:`solutions`.  A subclass supplies
    ``retrieve``, ``_account_retrieval``, ``obs``, the counter family
    ``_family`` (``crs`` / ``cluster``) and ``version`` — the generation
    the cached results are keyed by (:class:`repro.cache.LruCache` holds
    the argument for why that is the whole invalidation rule).
    """

    _family: str

    def _init_result_cache(self, cache_size: int) -> None:
        self.cache_size = cache_size
        self._cache = LruCache(
            cache_size, obs=self.obs, prefix=f"{self._family}.cache"
        )

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        return self._cache.misses

    def _cache_probe(
        self, goal: Term, mode: SearchMode | None
    ) -> tuple[tuple | None, RetrievalResult | None]:
        """``(key, hit)`` for one goal; ``(None, None)`` with caching off.

        The key carries the generation as read *now*, before any work,
        and is what the caller stores the computed result under.  A hit
        is already accounted: hits count as retrievals (as in
        QueryStats), and the view's zeroed times keep the sim counters
        honest.
        """
        if self.cache_size <= 0:
            return None, None
        key = (self.version, canonical_goal_key(goal), mode)
        cached = self._cache.get(key)
        if cached is None:
            return key, None
        hit = cached.hit_view()
        self._account_retrieval(hit)
        return key, hit

    def solutions(
        self, goal: Term, mode: SearchMode | None = None
    ) -> list[tuple[Clause, Bindings]]:
        """Full unification over the candidates: the true resolvent set."""
        result = self.retrieve(goal, mode=mode)
        matches = []
        for clause in result.candidates:
            renamed_head = rename_apart(clause.head, keep_anonymous=False)
            bindings = unify(goal, renamed_head)
            if bindings is not None:
                matches.append((clause, bindings))
        # Ground truth is available here: candidates that failed full
        # unification are the pipeline's end-to-end false drops.
        self.obs.counter(f"{self._family}.true_matches").inc(len(matches))
        self.obs.counter(f"{self._family}.false_drops").inc(
            len(result) - len(matches)
        )
        return matches


class ClauseRetrievalServer(CachedFrontDoor):
    """Retrieve candidate clauses for goals through one of four modes."""

    _family = "crs"

    def __init__(
        self,
        kb: KnowledgeBase,
        cost_model: HostCostModel | None = None,
        cross_binding: bool = True,
        cache_size: int = 0,
        obs: Instrumentation | None = None,
        fs2_mode: str = "compiled",
        decode_cache_size: int = 4096,
    ):
        self.kb = kb
        self.cost_model = cost_model or HostCostModel()
        self.cross_binding = cross_binding
        self.obs = obs if obs is not None else _default_obs()
        self.fs1 = FirstStageFilter(kb.scheme, obs=self.obs)
        self.fs2 = SecondStageFilter(
            kb.symbols, cross_binding=cross_binding, obs=self.obs, mode=fs2_mode
        )
        self.fs2.load_microprogram()
        # Optional retrieval cache, keyed by ``kb.version``.  The server
        # itself is stateful (FS1/FS2 are one piece of simulated
        # hardware) and callers serialise whole retrievals; the cache
        # keeps its own bookkeeping consistent when a front-end probes
        # it from several client threads.
        self._init_result_cache(cache_size)
        # Decoded-clause cache, keyed by (clause-file generation, record
        # address).  Appends never move a record and every mutation that
        # does (a splice) takes a fresh generation, so entries never go
        # stale.  FS2 re-runs over recurring candidate sets skip the PIF
        # re-decode entirely.  Bounded by entries only: a record is at
        # most ``MAX_RECORD_BYTES``, so the entry cap is the memory cap.
        self._decode_cache = LruCache(
            decode_cache_size, obs=self.obs, prefix="crs.decode_cache"
        )

    @property
    def version(self) -> int:
        """The result cache's generation: the knowledge base's version."""
        return self.kb.version

    # -- public API --------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> RetrievalResult:
        """All candidate clauses for ``goal``: a batch of one."""
        return self.retrieve_batch([goal], mode, timeout)[0]

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        timeout: float | None = None,
    ) -> list[RetrievalResult]:
        """Candidates for every goal under the chosen (or planned) mode.

        Results come back in input order.  With ``cache_size > 0``,
        repeats are served from an LRU cache until the knowledge base
        changes; cache hits report zero filter time (no physical work
        happened).  Goals of one predicate whose mode involves FS1 share
        one bit-sliced scan (:meth:`FirstStageFilter.search_batch`);
        candidate sets and per-goal simulated accounting are those of
        the goals retrieved one by one.

        ``timeout`` (host seconds) is the cluster front door's deadline
        contract on one engine: a budget already spent raises
        :class:`RetrievalTimeout` before any work, and a retrieval that
        has started is not pre-empted.
        """
        from ..terms import term_to_string
        from .planner import select_mode  # local import avoids a cycle

        if timeout is not None and timeout <= 0:
            raise RetrievalTimeout("retrieval deadline expired before any work")
        results: list[RetrievalResult | None] = [None] * len(goals)
        # One FS1 scan per FS1-involving (predicate, mode), however many
        # goals it holds; every other plan is a group of its own.
        # Members are (position, goal, store, residency, mode, cache_key).
        groups: dict[object, list[tuple]] = {}
        with self.obs.span("crs.retrieve_batch", goals=len(goals)):
            for position, goal in enumerate(goals):
                cache_key, hit = self._cache_probe(goal, mode)
                if hit is not None:
                    results[position] = hit
                    continue
                indicator = functor_indicator(goal)
                store = self.kb.store(indicator)
                residency = self.kb.residency(indicator)
                effective = (
                    mode if mode is not None
                    else select_mode(goal, store, residency)
                )
                group = (
                    (indicator, effective) if effective in _FS1_MODES
                    else position
                )
                groups.setdefault(group, []).append(
                    (position, goal, store, residency, effective, cache_key)
                )
            for members in groups.values():
                fs1_results: list[FS1Result | None] = [None] * len(members)
                if members[0][4] in _FS1_MODES:
                    fs1_results = self.fs1.search_batch(
                        members[0][2].index, [plan[1] for plan in members]
                    )
                for plan, fs1_result in zip(members, fs1_results):
                    position, goal, store, residency, effective, cache_key = plan
                    with self.obs.span(
                        "crs.retrieve", goal=term_to_string(goal)
                    ) as span:
                        result = self._dispatch(
                            goal, store, residency, effective, fs1_result
                        )
                        span.set(
                            mode=effective.value,
                            residency=residency,
                            clauses=(
                                result.stats.clauses_total
                                if result.stats else 0
                            ),
                            candidates=len(result),
                        )
                    if cache_key is not None:
                        self._cache.put(cache_key, result)
                    self._account_retrieval(result)
                    results[position] = result
        return results  # type: ignore[return-value]

    def _dispatch(
        self,
        goal: Term,
        store: PredicateStore,
        residency: str,
        mode: SearchMode,
        fs1_result: FS1Result | None,
    ) -> RetrievalResult:
        """Run one retrieval; ``fs1_result`` is ``None`` outside the FS1 modes."""
        if mode is SearchMode.FS1_ONLY:
            return self._retrieve_fs1(goal, store, residency, fs1_result)
        if mode is SearchMode.BOTH:
            return self._retrieve_both(goal, store, residency, fs1_result)
        if mode is SearchMode.FS2_ONLY:
            return self._retrieve_fs2(goal, store, residency)
        return self._retrieve_software(goal, store, residency)

    def _account_retrieval(self, result: RetrievalResult) -> None:
        stats = result.stats
        if stats is None:
            return
        obs = self.obs
        obs.counter("crs.retrievals", mode=stats.mode.value).inc()
        obs.counter("crs.clauses_scanned").inc(stats.clauses_total)
        obs.counter("crs.candidates_returned").inc(stats.final_candidates)
        obs.counter("crs.fs2_search_calls").inc(stats.fs2_search_calls)
        obs.counter("crs.sim_filter_time_s").inc(stats.filter_time_s)
        obs.histogram("crs.candidates").observe(stats.final_candidates)
        obs.histogram(
            "crs.selectivity",
            buckets=(0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
        ).observe(stats.selectivity)

    # -- mode (a): software only ----------------------------------------------

    def _retrieve_software(
        self, goal: Term, store: PredicateStore, residency: str
    ) -> RetrievalResult:
        stats = RetrievalStats(mode=SearchMode.SOFTWARE, residency=residency)
        stats.clauses_total = len(store)
        if residency == Residency.DISK:
            _, transfer = self._read_clause_extent(store)
            stats.disk_time_s = transfer.total_time_s
            stats.bytes_from_disk = transfer.bytes_transferred
        with self.obs.span(
            "software.scan", indicator=f"{store.indicator[0]}/{store.indicator[1]}"
        ) as span:
            matcher = PartialMatcher(goal, cross_binding=self.cross_binding)
            candidates = []
            hits = []
            total_ops = 0
            clause_file = store.clause_file
            for position in range(len(store)):
                clause = clause_file.decode_clause(position)
                outcome = matcher.match_head(clause.head)
                total_ops += outcome.op_count()
                if outcome.hit:
                    candidates.append(clause)
                    hits.append(position)
            model = self.cost_model
            stats.software_time_s = (
                stats.clauses_total * model.clause_decode_ns
                + total_ops * model.software_match_op_ns
            ) / 1e9
            span.set(
                clauses=stats.clauses_total,
                candidates=len(candidates),
                match_ops=total_ops,
                sim_time_s=stats.software_time_s,
            )
        self.obs.counter("software.scans").inc()
        self.obs.counter("software.clauses_matched").inc(stats.clauses_total)
        self.obs.counter("software.match_ops").inc(total_ops)
        self.obs.counter("software.sim_time_s").inc(stats.software_time_s)
        stats.final_candidates = len(candidates)
        addresses = clause_file.record_addresses()
        source = self._stored(
            store,
            [addresses[position] for position in hits],
            [clause_file.record_bytes(position) for position in hits],
            candidates,
        )
        return RetrievalResult(goal, stats=stats, sources=(source,))

    # -- mode (b): FS1 only -----------------------------------------------------

    def _retrieve_fs1(
        self,
        goal: Term,
        store: PredicateStore,
        residency: str,
        fs1_result: FS1Result,
    ) -> RetrievalResult:
        stats, records = self._fs1_stage(
            SearchMode.FS1_ONLY, store, residency, fs1_result
        )
        source = self._stored(
            store, list(fs1_result.candidate_addresses), list(records)
        )
        stats.final_candidates = len(source)
        return RetrievalResult(goal, stats=stats, sources=(source,))

    # -- mode (c): FS2 only -------------------------------------------------------

    def _retrieve_fs2(
        self, goal: Term, store: PredicateStore, residency: str
    ) -> RetrievalResult:
        stats = RetrievalStats(mode=SearchMode.FS2_ONLY, residency=residency)
        stats.clauses_total = len(store)
        # Lazy feed: records stream into the FS2 chunker one at a time
        # (slices of the clause image; zero-copy when it is an mmap'd
        # segment), so a full-predicate scan never materialises the
        # record list.
        records = (
            store.clause_file.record_bytes(i) for i in range(len(store))
        )
        addresses = store.clause_file.record_addresses()
        if residency == Residency.DISK:
            _, transfer = self._read_clause_extent(store)
            stats.disk_time_s = transfer.total_time_s
            stats.bytes_from_disk = transfer.bytes_transferred
        source = self._stream_through_fs2(goal, store, records, stats, addresses)
        stats.final_candidates = len(source)
        return RetrievalResult(goal, stats=stats, sources=(source,))

    # -- mode (d): FS1 + FS2 -------------------------------------------------------

    def _retrieve_both(
        self,
        goal: Term,
        store: PredicateStore,
        residency: str,
        fs1_result: FS1Result,
    ) -> RetrievalResult:
        stats, records = self._fs1_stage(
            SearchMode.BOTH, store, residency, fs1_result
        )
        source = self._stream_through_fs2(
            goal, store, records, stats, fs1_result.candidate_addresses
        )
        stats.final_candidates = len(source)
        # FS2 refined FS1's candidate set: the difference is FS1's false
        # drops relative to level-3 partial unification.
        self.obs.counter("fs1.false_drops").inc(
            fs1_result.candidate_count - stats.final_candidates
        )
        return RetrievalResult(goal, stats=stats, sources=(source,))

    # -- shared plumbing -------------------------------------------------------------

    def _fs1_stage(
        self,
        mode: SearchMode,
        store: PredicateStore,
        residency: str,
        fs1_result: FS1Result,
    ) -> "tuple[RetrievalStats, Iterable[bytes]]":
        """Stats and candidate records for one goal's FS1 scan result.

        The index itself streams from disk when the predicate is disk
        resident; the FS1 matches on the fly, so the scan is bounded by
        the slower of the index transfer and the FS1 rate.
        """
        stats = RetrievalStats(mode=mode, residency=residency)
        stats.clauses_total = len(store)
        stats.fs1_time_s = fs1_result.scan_time_s
        stats.fs1_candidates = fs1_result.candidate_count
        records, transfer = self._fetch_records(
            store, fs1_result.candidate_addresses, residency
        )
        stats.disk_time_s = transfer.total_time_s
        stats.bytes_from_disk = transfer.bytes_transferred
        if residency == Residency.DISK:
            index_bytes = store.index.size_bytes()
            index_transfer = self.kb.disk.drive.read_time_s(index_bytes)
            stats.disk_time_s += max(0.0, index_transfer - stats.fs1_time_s)
            stats.bytes_from_disk += index_bytes
        return stats, records

    def _stream_through_fs2(
        self,
        goal: Term,
        store: PredicateStore,
        records: "Iterable[bytes]",
        stats: RetrievalStats,
        addresses: "Iterable[int]",
    ) -> StoredCandidates:
        """Run records through FS2 in track-sized search calls.

        ``records`` may be any iterable (lazy generators from the FS1
        survivor enumeration or a segment-backed clause file stream
        straight through without an intermediate list).  ``addresses``
        is parallel to ``records``.  The Result Memory records the
        in-call stream position of every captured slot, so each result
        record maps back to its address by a direct index — O(results)
        per call, not O(call x results).  Returns the satisfiers as read
        out of the Result Memory, with their addresses.
        """
        self.fs2.set_query(goal)
        track_bytes = self.kb.disk.drive.geometry.track_bytes
        found: list[bytes] = []
        found_addresses: list[int] = []
        call: list[bytes] = []
        call_addresses: list[int] = []
        call_bytes = 0

        def flush() -> None:
            nonlocal call, call_addresses, call_bytes
            if not call:
                return
            search_stats = self.fs2.search(call, indicator=store.indicator)
            stats.fs2_time_s += search_stats.op_time_ns / 1e9
            stats.fs2_search_calls += 1
            found.extend(self.fs2.read_results())
            found_addresses.extend(
                call_addresses[position]
                for position in self.fs2.result.satisfier_positions()
            )
            call = []
            call_addresses = []
            call_bytes = 0
            self.fs2.rearm()  # reset the Result Memory, keep the query

        for record, address in zip(records, addresses):
            if call and (
                call_bytes + len(record) > track_bytes
                or len(call) >= MAX_SATISFIERS
            ):
                flush()
            call.append(record)
            call_addresses.append(address)
            call_bytes += len(record)
        flush()
        return self._stored(store, found_addresses, found)

    def _read_clause_extent(
        self, store: PredicateStore
    ) -> tuple[bytes, TransferStats]:
        self._ensure_on_disk(store)
        return self.kb.disk.read_extent(store.extent_name())

    def _fetch_records(
        self,
        store: PredicateStore,
        addresses: tuple[int, ...],
        residency: str,
    ) -> "tuple[Iterable[bytes], TransferStats]":
        """Fetch candidate records by address (selective disk reads).

        Record spans come from the clause file's address table, so the
        cost is O(candidates).  ``addresses`` arrive ascending (FS1 enumerates
        survivors in clause-file order), which is what lets the disk
        driver serve them as one sweep (:meth:`DiskSim.stream_records`):
        the modelled cost is at most one access plus the transfer of the
        first-to-last candidate span, never one seek per candidate.
        Only the candidate records themselves are returned and counted
        in ``bytes_transferred``.  The memory-resident path yields
        records lazily (zero-copy memoryviews for segment-backed clause
        files) so the FS1→FS2 hand-off never builds an intermediate
        record list.
        """
        spans = [store.clause_file.record_span(a) for a in addresses]
        if residency == Residency.DISK:
            self._ensure_on_disk(store)
            offsets = [
                (address, length)
                for address, (_, length) in zip(addresses, spans)
            ]
            record_iter, transfer = self.kb.disk.stream_records(
                store.extent_name(), offsets
            )
            return list(record_iter), transfer
        records = (
            store.clause_file.record_bytes(position) for position, _ in spans
        )
        return records, TransferStats()

    def _ensure_on_disk(self, store: PredicateStore) -> None:
        """Write (or *re*write) the predicate's extents when stale.

        Staleness is judged by the knowledge base's per-predicate
        freshness key — (clause-file generation, clause count) at the
        last extent write.  An assert or retract during resolution
        changes the key, so the next disk-path retrieval rewrites the
        extents before slicing candidate records out of them; without
        this, the current address table would be applied to the *old*
        extent bytes and later choice points could be fed stale or
        corrupt candidates.
        """
        current = self.kb.disk_sync_key(store.indicator)
        if (
            self.kb.disk_synced_key(store.indicator) == current
            and store.extent_name() in self.kb.disk
            and store.index_extent_name() in self.kb.disk
        ):
            return
        self.kb.disk.write_extent(store.extent_name(), store.clause_file.to_bytes())
        self.kb.disk.write_extent(
            store.index_extent_name(), store.index.to_bytes()
        )
        self.kb.mark_disk_synced(store.indicator)

    def _stored(
        self,
        store: PredicateStore,
        addresses: list[int],
        records: list[bytes],
        clauses: list[Clause] | None = None,
    ) -> StoredCandidates:
        """Candidate records of ``store`` as they stand now, decodable later
        through this engine's decoded-clause cache.

        The key is (clause-file generation, record address): addresses
        are stable under append and every other mutation splices the
        file under a fresh generation, so a cached decode can never be
        served for changed bytes.
        """
        return StoredCandidates(
            self.kb.symbols, store.indicator, store.clause_file.generation,
            addresses, records, self._decode_cache, clauses,
        )
