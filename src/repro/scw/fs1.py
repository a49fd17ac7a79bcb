"""The first stage filter (FS1) hardware model.

The prototype FS1 matches codewords "in parallel, using standard PLAs and
MSI components" while the secondary file streams past at up to 4.5 MB/s
(paper section 4).  Functionally it computes the SCW+MB inclusion test for
every index entry; the model also accounts the scan volume and wall time
so mode benchmarks can compare against software scanning and FS2.

The host executes the scan on the columnar
:class:`~repro.scw.bitsliced.BitSlicedIndex`, whose big-integer column
ANDs model the PLA matcher's data-parallelism in real wall clock.  The
per-entry loop over the horizontal records
(:meth:`~repro.scw.index.SecondaryIndexFile.scan`) and the byte-level
:class:`~repro.scw.hardware.FS1Hardware` are the references the
differential suites hold it against; neither is a serving mode.

The simulated SCW+MB scan time is a function of the index size alone
(the whole secondary file streams past the matcher whatever the host
does).  :meth:`FirstStageFilter.search_batch` is the one scan: it
evaluates K query codewords against one pass over the columns, and
:meth:`FirstStageFilter.search` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache import LruCache
from ..keys import canonical_goal_key
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..terms import Term
from .codeword import Codeword, CodewordScheme
from .index import SecondaryIndexFile

__all__ = [
    "FS1Result",
    "FirstStageFilter",
    "SchemeMismatchError",
    "FS1_SCAN_RATE_BYTES_PER_SEC",
    "QUERY_CODEWORD_CACHE_SIZE",
]

#: "It can search data at a rate of up to 4.5Mbyte/sec" (paper section 4).
FS1_SCAN_RATE_BYTES_PER_SEC = 4_500_000

#: Query codewords are cached per canonical goal key; repeated and
#: batched retrievals of equivalent goals skip the BLAKE2 hashing.
QUERY_CODEWORD_CACHE_SIZE = 1024


class SchemeMismatchError(ValueError):
    """An index probed with a filter built for a different codeword scheme."""


@dataclass(frozen=True)
class FS1Result:
    """Outcome of one FS1 search over a secondary index file."""

    candidate_addresses: tuple[int, ...]
    entries_scanned: int
    bytes_scanned: int
    scan_time_s: float

    @property
    def candidate_count(self) -> int:
        return len(self.candidate_addresses)


class FirstStageFilter:
    """Scan a secondary index file with the SCW+MB match condition."""

    def __init__(
        self,
        scheme: CodewordScheme,
        scan_rate_bytes_per_sec: float = FS1_SCAN_RATE_BYTES_PER_SEC,
        obs: Instrumentation | None = None,
    ):
        if scan_rate_bytes_per_sec <= 0:
            raise ValueError("scan rate must be positive")
        self.scheme = scheme
        self.scan_rate = scan_rate_bytes_per_sec
        self.obs = obs if obs is not None else _default_obs()
        # Key: the canonical goal key alone — a codeword is a pure
        # function of the goal under this filter's fixed scheme.
        self._codeword_cache = LruCache(
            QUERY_CODEWORD_CACHE_SIZE, obs=self.obs,
            prefix="fs1.codeword_cache",
        )

    def query_codeword(self, query: Term) -> Codeword:
        """``scheme.query_codeword`` behind a canonical-goal-key LRU.

        Goals that are the same retrieval (``p(_, a)`` and ``p(X, a)``
        with ``X`` a singleton) produce identical codewords, so repeated
        and batched queries re-hash nothing.
        """
        key = canonical_goal_key(query)
        codeword = self._codeword_cache.get(key)
        if codeword is None:
            codeword = self.scheme.query_codeword(query)
            self._codeword_cache.put(key, codeword)
        return codeword

    def search(self, index: SecondaryIndexFile, query: Term) -> FS1Result:
        """All candidate clause addresses for ``query``: a batch of one."""
        return self.search_batch(index, [query])[0]

    def search_batch(
        self, index: SecondaryIndexFile, queries: list[Term]
    ) -> list[FS1Result]:
        """One FS1 result per query, from one bit-sliced evaluator pass.

        The span's ``bytes`` and ``sim_time_s`` are one query's modelled
        pass over the secondary file.
        """
        if index.scheme != self.scheme:
            raise SchemeMismatchError(
                "index was built with a different codeword scheme: "
                f"{index.scheme!r} != {self.scheme!r}"
            )
        with self.obs.span(
            "fs1.scan", indicator=_render(index.indicator), queries=len(queries)
        ) as span:
            codewords = [self.query_codeword(query) for query in queries]
            address_lists, columns_touched = index.bitsliced.scan_batch(
                codewords
            )
            # Every query streams the whole secondary file past the
            # matcher, so its volume and time are the index's alone.
            entries = len(index)
            bytes_scanned = index.size_bytes()
            scan_time_s = bytes_scanned / self.scan_rate
            results = [
                FS1Result(tuple(addresses), entries, bytes_scanned, scan_time_s)
                for addresses in address_lists
            ]
            candidates = sum(map(len, address_lists))
            span.set(
                entries=entries,
                candidates=candidates,
                bytes=bytes_scanned,
                sim_time_s=scan_time_s,
            )
        # One lookup per counter; the float time is added per query so
        # its total does not depend on how the goals were batched.
        obs, count = self.obs, len(queries)
        obs.counter("fs1.bitsliced.scans").inc(count)
        obs.counter("fs1.bitsliced.columns_touched").inc(columns_touched)
        obs.counter("fs1.batch.scans").inc()
        obs.counter("fs1.searches").inc(count)
        obs.counter("fs1.entries_scanned").inc(entries * count)
        obs.counter("fs1.bytes_scanned").inc(bytes_scanned * count)
        obs.counter("fs1.candidates").inc(candidates)
        sim_time = obs.counter("fs1.sim_time_s")
        for _ in results:
            sim_time.inc(scan_time_s)
        return results


def _render(indicator: tuple[str, int]) -> str:
    name, arity = indicator
    return f"{name}/{arity}"
