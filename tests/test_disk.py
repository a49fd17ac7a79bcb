"""Tests for the simulated disk subsystem."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import (
    FUJITSU_M2351A,
    MICROPOLIS_1325,
    DiskFullError,
    DiskGeometry,
    DiskSim,
    DriveModel,
    TransferStats,
)
from repro.obs import Instrumentation

DRIVES = (FUJITSU_M2351A, MICROPOLIS_1325)


class TestGeometry:
    def test_capacities(self):
        geometry = DiskGeometry(
            bytes_per_sector=512,
            sectors_per_track=17,
            tracks_per_cylinder=8,
            cylinders=1024,
        )
        assert geometry.track_bytes == 512 * 17
        assert geometry.cylinder_bytes == 512 * 17 * 8
        assert geometry.capacity_bytes == 512 * 17 * 8 * 1024
        assert geometry.total_tracks == 8 * 1024

    def test_locate(self):
        geometry = DiskGeometry(512, 10, 4, 100)
        assert geometry.locate(0) == (0, 0, 0)
        assert geometry.locate(geometry.track_bytes) == (0, 1, 0)
        assert geometry.locate(geometry.cylinder_bytes + 5) == (1, 0, 5)
        with pytest.raises(ValueError):
            geometry.locate(geometry.capacity_bytes)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGeometry(0, 10, 4, 100)


class TestDriveModels:
    def test_fujitsu_is_the_fast_2mb_case(self):
        assert FUJITSU_M2351A.transfer_rate_bytes_per_sec == pytest.approx(
            2_000_000
        )

    def test_micropolis_slower(self):
        assert (
            MICROPOLIS_1325.transfer_rate_bytes_per_sec
            < FUJITSU_M2351A.transfer_rate_bytes_per_sec
        )

    def test_rm_covers_one_track(self):
        """The 32 KB Result Memory must hold a full track of either drive."""
        for drive in (FUJITSU_M2351A, MICROPOLIS_1325):
            assert drive.geometry.track_bytes <= 32 * 1024

    def test_timing_model(self):
        drive = FUJITSU_M2351A
        assert drive.rotation_s == pytest.approx(60 / 3961)
        one_mb = drive.transfer_time_s(1_000_000)
        assert one_mb == pytest.approx(0.5)
        assert drive.read_time_s(1_000_000) > one_mb  # positioning added

    def test_validation(self):
        with pytest.raises(ValueError):
            DriveModel(
                name="bad",
                geometry=FUJITSU_M2351A.geometry,
                transfer_rate_bytes_per_sec=0,
                average_seek_s=0.01,
                rpm=3600,
            )


class TestDiskSim:
    def test_write_and_read_extent(self):
        disk = DiskSim()
        disk.write_extent("blob", b"hello world")
        data, stats = disk.read_extent("blob")
        assert data == b"hello world"
        assert stats.bytes_transferred == 11
        assert stats.total_time_s > 0

    def test_extent_replacement_in_place(self):
        disk = DiskSim()
        first = disk.write_extent("blob", b"0123456789")
        second = disk.write_extent("blob", b"01234")
        assert second.start == first.start
        data, _ = disk.read_extent("blob")
        assert data == b"01234"

    def test_growing_extent_reallocates(self):
        disk = DiskSim()
        disk.write_extent("a", b"xx")
        disk.write_extent("b", b"yy")
        grown = disk.write_extent("a", b"x" * 100)
        assert grown.length == 100
        data, _ = disk.read_extent("a")
        assert data == b"x" * 100

    def test_missing_extent(self):
        disk = DiskSim()
        with pytest.raises(KeyError):
            disk.extent("nope")
        assert "nope" not in disk

    def test_disk_full(self):
        disk = DiskSim()
        with pytest.raises(DiskFullError):
            disk.write_extent(
                "huge", b"\0" * (disk.drive.geometry.capacity_bytes + 1)
            )

    def test_stream_whole_extent(self):
        disk = DiskSim()
        disk.write_extent("blob", b"abcdef")
        records, stats = disk.stream_records("blob")
        assert list(records) == [b"abcdef"]
        assert stats.seeks == 1

    def test_stream_selected_records(self):
        disk = DiskSim()
        disk.write_extent("blob", b"AAABBBCCCDDD")
        records, stats = disk.stream_records("blob", [(0, 3), (6, 3)])
        assert list(records) == [b"AAA", b"CCC"]
        # A 3-byte gap is read through, not repositioned over: one run.
        assert stats.seeks == 1
        assert stats.bytes_transferred == 6  # only the records are delivered
        assert stats.bytes_skipped == 3
        assert stats.transfer_time_s == pytest.approx(
            disk.drive.transfer_time_s(9)
        )

    def test_contiguous_records_single_seek(self):
        disk = DiskSim()
        disk.write_extent("blob", b"AAABBBCCC")
        _, stats = disk.stream_records("blob", [(0, 3), (3, 3), (6, 3)])
        assert stats.seeks == 1

    def test_selective_vs_full_timing(self):
        """A selective fetch never loses to streaming the span it covers."""
        disk = DiskSim()
        record = b"r" * 64
        disk.write_extent("blob", record * 1000)
        _, full = disk.stream_records("blob")
        _, few = disk.stream_records("blob", [(0, 64)])
        assert few.total_time_s < full.total_time_s
        scattered = [(i * 128, 64) for i in range(400)]
        _, many = disk.stream_records("blob", scattered)
        # 400 scattered candidates inside 51 KB are one read-through run,
        # not 400 average seeks (which would cost ~10 s here).
        assert many.seeks == 1
        assert many.bytes_skipped == 399 * 64
        assert many.total_time_s < full.total_time_s
        assert many.total_time_s == pytest.approx(
            disk.drive.read_time_s(399 * 128 + 64)
        )

    @pytest.mark.parametrize("drive", DRIVES, ids=lambda d: d.name)
    def test_gap_past_break_even_repositions(self, drive):
        """The schedule falls out of the drive's own numbers."""
        break_even = int(
            drive.access_time_s() * drive.transfer_rate_bytes_per_sec
        )
        disk = DiskSim(drive)
        disk.write_extent("blob", b"\0" * (2 * break_even + 1024))
        _, near = disk.stream_records(
            "blob", [(0, 64), (64 + break_even - 1, 64)]
        )
        assert (near.seeks, near.bytes_skipped) == (1, break_even - 1)
        _, far = disk.stream_records(
            "blob", [(0, 64), (64 + break_even + 512, 64)]
        )
        assert (far.seeks, far.bytes_skipped) == (2, 0)

    def test_backwards_offset_repositions(self):
        disk = DiskSim()
        disk.write_extent("blob", b"AAABBBCCC")
        records, stats = disk.stream_records("blob", [(6, 3), (0, 3), (1, 3)])
        assert list(records) == [b"CCC", b"AAA", b"AAB"]
        assert stats.seeks == 3  # backwards, then overlapping
        assert stats.bytes_skipped == 0

    def test_skipped_bytes_are_counted(self):
        obs = Instrumentation()
        disk = DiskSim(obs=obs)
        disk.write_extent("blob", b"AAABBBCCCDDD")
        disk.stream_records("blob", [(0, 3), (6, 3)])
        assert obs.registry.total("disk.seeks") == 1
        assert obs.registry.total("disk.bytes_read") == 6
        assert obs.registry.total("disk.bytes_skipped") == 3

    def test_track_alignment(self):
        disk = DiskSim()
        track = disk.drive.geometry.track_bytes
        disk.write_extent("small", b"x" * 100)
        aligned = disk.write_extent("aligned", b"y" * 50, align_track=True)
        assert aligned.start % track == 0
        assert aligned.start >= 100

    def test_alignment_noop_at_boundary(self):
        disk = DiskSim()
        first = disk.write_extent("a", b"z", align_track=True)
        assert first.start == 0

    def test_track_of(self):
        disk = DiskSim()
        disk.write_extent("blob", b"\0" * disk.drive.geometry.track_bytes * 2)
        cylinder0, track0 = disk.track_of("blob", 0)
        cylinder1, track1 = disk.track_of(
            "blob", disk.drive.geometry.track_bytes
        )
        assert (cylinder0, track0) != (cylinder1, track1)


# -- the sweep schedule, as a property ----------------------------------------

#: Big enough that gaps land on both sides of either drive's break-even
#: (~51 KB on the M2351A, ~36 KB on the Micropolis).
EXTENT_BYTES = 400_000
EXTENT = bytes(i % 251 for i in range(EXTENT_BYTES))

offset_lists = st.lists(
    st.tuples(
        st.integers(0, EXTENT_BYTES - 1), st.integers(1, 4096)
    ).map(lambda pair: (pair[0], min(pair[1], EXTENT_BYTES - pair[0]))),
    min_size=1,
    max_size=12,
)


class PerRecordSeekDisk(DiskSim):
    """The pre-sweep driver, kept as the oracle: one access per
    non-contiguous record, nothing ever read through."""

    def stream_records(self, name, offsets=None):
        data = self._data[self.extent(name).name]
        pairs = [(0, len(data))] if offsets is None else list(offsets)
        stats = TransferStats()
        records = []
        previous_end = None
        for start, length in pairs:
            if start != previous_end:
                stats.seeks += 1
                stats.seek_time_s += self.drive.access_time_s()
            records.append(data[start : start + length])
            stats.bytes_transferred += length
            stats.transfer_time_s += self.drive.transfer_time_s(length)
            previous_end = start + length
        return iter(records), stats


def brute_force_minimum(drive: DriveModel, offsets) -> float:
    """Cheapest of all 2^(n-1) seek / read-through choices."""
    delivered = sum(drive.transfer_time_s(length) for _, length in offsets)
    gaps = [
        following[0] - (start + length)
        for (start, length), following in zip(offsets, offsets[1:])
    ]
    best = None
    for choice in itertools.product((False, True), repeat=len(gaps)):
        if any(read and gap < 0 for read, gap in zip(choice, gaps)):
            continue  # the platter does not turn backwards
        cost = drive.access_time_s() + delivered
        for read_through, gap in zip(choice, gaps):
            if read_through:
                cost += drive.transfer_time_s(gap)
            else:
                cost += drive.access_time_s()
        best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize("drive", DRIVES, ids=lambda d: d.name)
class TestSweepSchedule:
    def stream(self, drive, offsets, disk_class=DiskSim):
        disk = disk_class(drive)
        disk.write_extent("blob", EXTENT)
        records, stats = disk.stream_records("blob", offsets)
        return list(records), stats

    @settings(max_examples=150, deadline=None)
    @given(offsets=offset_lists, ascending=st.booleans())
    def test_schedule_properties(self, drive, offsets, ascending):
        if ascending:
            offsets = sorted(offsets)
        records, stats = self.stream(drive, offsets)
        # Delivery: exactly the requested slices, in the order asked for.
        assert records == [EXTENT[s : s + n] for s, n in offsets]
        assert stats.bytes_transferred == sum(n for _, n in offsets)
        # Ledger: transfer time covers delivered + skipped bytes.
        assert stats.seek_time_s == pytest.approx(
            stats.seeks * drive.access_time_s()
        )
        assert stats.transfer_time_s == pytest.approx(
            drive.transfer_time_s(stats.bytes_transferred + stats.bytes_skipped)
        )
        # Never worse than the old one-access-per-jump cost.
        slack = 1e-12
        old_records, old = self.stream(drive, offsets, PerRecordSeekDisk)
        assert records == old_records
        assert stats.total_time_s <= old.total_time_s + slack
        # A backwards or overlapping offset is always a reposition.
        backwards = sum(
            1
            for (start, length), following in zip(offsets, offsets[1:])
            if following[0] < start + length
        )
        assert stats.seeks >= 1 + backwards
        if backwards == 0:
            first, (last_start, last_length) = offsets[0][0], offsets[-1]
            span = last_start + last_length - first
            assert stats.total_time_s <= drive.read_time_s(span) + slack
        if len(offsets) <= 8:
            assert stats.total_time_s == pytest.approx(
                brute_force_minimum(drive, offsets), rel=1e-12
            )

    @settings(max_examples=50, deadline=None)
    @given(
        start=st.integers(0, 100_000),
        lengths=st.lists(st.integers(1, 4096), min_size=1, max_size=12),
    )
    def test_contiguous_offsets_are_one_seek(self, drive, start, lengths):
        offsets = []
        for length in lengths:
            offsets.append((start, length))
            start += length
        _, stats = self.stream(drive, offsets)
        assert stats.seeks == 1
        assert stats.bytes_skipped == 0
        assert stats.total_time_s == pytest.approx(
            drive.read_time_s(sum(lengths))
        )
