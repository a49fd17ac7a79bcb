"""The simulated disk: named extents, streaming reads, DMA accounting.

Clause files and secondary index files live as *extents* — contiguous byte
ranges on the simulated drive.  A streaming read models the paper's setup:
"the DMA begin and end addresses of the disk transfer command block ...
is specified to be the FS2 address space", i.e. the disk controller feeds
the filter directly, so the filter sees records at disk transfer rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from .drive import DriveModel, FUJITSU_M2351A

__all__ = ["DiskSim", "Extent", "TransferStats", "DiskFullError"]


class DiskFullError(RuntimeError):
    """No space left for a new extent."""


@dataclass(frozen=True)
class Extent:
    """A contiguous allocation on the drive."""

    name: str
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass
class TransferStats:
    """Timing breakdown of one streaming read.

    ``seeks`` counts head repositionings, i.e. the read-through *runs* a
    selective fetch was scheduled as.  ``bytes_skipped`` is gap data that
    passed under the head inside a run: the DMA list discards it, so it
    is never delivered and not part of ``bytes_transferred``, but the
    platter still had to turn past it and ``transfer_time_s`` covers it.
    """

    bytes_transferred: int = 0
    bytes_skipped: int = 0
    seeks: int = 0
    seek_time_s: float = 0.0
    transfer_time_s: float = 0.0

    @property
    def total_time_s(self) -> float:
        return self.seek_time_s + self.transfer_time_s


class DiskSim:
    """A drive holding named extents with modelled access timing."""

    def __init__(
        self,
        drive: DriveModel = FUJITSU_M2351A,
        obs: Instrumentation | None = None,
    ):
        self.drive = drive
        self.obs = obs if obs is not None else _default_obs()
        self._extents: dict[str, Extent] = {}
        self._data: dict[str, bytes] = {}
        self._next_free = 0

    # -- allocation ---------------------------------------------------------

    def write_extent(
        self, name: str, data: bytes, align_track: bool = False
    ) -> Extent:
        """Store (or replace) a named extent.

        With ``align_track`` a *new* allocation starts on a track boundary,
        so per-track FS2 search calls line up with physical tracks (the
        Result Memory is sized to one track, paper section 3.2).
        """
        existing = self._extents.get(name)
        if existing is not None and len(data) <= existing.length:
            self._data[name] = data
            extent = Extent(name, existing.start, len(data))
            self._extents[name] = extent
            return extent
        start = self._next_free
        if align_track:
            track_bytes = self.drive.geometry.track_bytes
            remainder = start % track_bytes
            if remainder:
                start += track_bytes - remainder
        if start + len(data) > self.drive.geometry.capacity_bytes:
            raise DiskFullError(
                f"no room for {len(data)} bytes of {name!r} on {self.drive.name}"
            )
        extent = Extent(name, start, len(data))
        self._next_free = start + len(data)
        self._extents[name] = extent
        self._data[name] = data
        return extent

    def extent(self, name: str) -> Extent:
        try:
            return self._extents[name]
        except KeyError:
            raise KeyError(f"no extent named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._extents

    def used_bytes(self) -> int:
        return self._next_free

    # -- reads ---------------------------------------------------------------

    def read_extent(self, name: str) -> tuple[bytes, TransferStats]:
        """One contiguous read of a whole extent."""
        with self.obs.span("disk.read", extent=name, kind="extent") as span:
            data = self._data[self.extent(name).name]
            stats = TransferStats(
                bytes_transferred=len(data),
                seeks=1,
                seek_time_s=self.drive.access_time_s(),
                transfer_time_s=self.drive.transfer_time_s(len(data)),
            )
            span.set(bytes=len(data), seeks=1, sim_time_s=stats.total_time_s)
        self._account(stats)
        return data, stats

    def stream_records(
        self, name: str, offsets: Iterable[tuple[int, int]] | None = None
    ) -> tuple[Iterator[bytes], TransferStats]:
        """Stream records of an extent, as the DMA would feed CLARE.

        ``offsets`` is an iterable of (start, length) pairs *within* the
        extent; None streams the whole extent as one record.  A
        selective read (an FS1 candidate fetch) is scheduled as one
        sweep over the offsets in the order given: the first record
        costs one positioning, and each forward gap to the next record
        costs the cheaper of repositioning (``drive.access_time_s()``)
        and keeping the head on the stream while the gap passes under
        it (``drive.transfer_time_s(gap)``) — break-even is the access
        time times the transfer rate, ~51 KB on the M2351A.  Each gap's
        cost is independent of every other choice, so the per-gap
        minimum is the optimal schedule.  A backwards or overlapping
        offset cannot be read through and always repositions.  Gap bytes
        are dropped by the DMA list, not delivered: only the requested
        records come back, in the order asked for.  So a fetch of
        ascending offsets never costs more than one access plus the
        transfer of the first-to-last span, and a full scan (or any
        contiguous run) pays a single seek.
        """
        with self.obs.span("disk.read", extent=name, kind="stream") as span:
            data = self._data[self.extent(name).name]
            drive = self.drive
            access_s = drive.access_time_s()
            stats = TransferStats()
            if offsets is None:
                pairs: list[tuple[int, int]] = [(0, len(data))]
            else:
                pairs = list(offsets)
            records: list[bytes] = []
            head: int | None = None  # where the last delivered record ended
            for start, length in pairs:
                # No head position yet, or a record behind it: must seek.
                gap = start - head if head is not None else -1
                if gap >= 0 and (gap_s := drive.transfer_time_s(gap)) <= access_s:
                    stats.bytes_skipped += gap
                    stats.transfer_time_s += gap_s
                else:
                    stats.seeks += 1
                    stats.seek_time_s += access_s
                records.append(data[start : start + length])
                stats.bytes_transferred += length
                stats.transfer_time_s += drive.transfer_time_s(length)
                head = start + length
            span.set(
                records=len(records),
                bytes=stats.bytes_transferred,
                bytes_skipped=stats.bytes_skipped,
                seeks=stats.seeks,
                sim_time_s=stats.total_time_s,
            )
        self._account(stats)
        return iter(records), stats

    def _account(self, stats: TransferStats) -> None:
        obs = self.obs
        obs.counter("disk.reads").inc()
        obs.counter("disk.bytes_read").inc(stats.bytes_transferred)
        obs.counter("disk.bytes_skipped").inc(stats.bytes_skipped)
        obs.counter("disk.seeks").inc(stats.seeks)
        obs.counter("disk.sim_time_s").inc(stats.total_time_s)

    def track_of(self, name: str, offset_in_extent: int = 0) -> tuple[int, int]:
        """(cylinder, track) holding a byte of the extent."""
        extent = self.extent(name)
        cylinder, track, _ = self.drive.geometry.locate(extent.start + offset_in_extent)
        return cylinder, track
