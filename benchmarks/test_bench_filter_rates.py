"""[R1] Filter rates vs disk rates (section 4's headline numbers).

The paper argues CLARE always outruns the disk feeding it: FS1 searches at
up to 4.5 MB/s, FS2's worst case is 1 op / 235 ns ~= 4.25 MB/s, and even
the fast SMD disk peaks around 2 MB/s.  This bench regenerates those
numbers and sweeps the FS2 rate across operation mixes (the figure-style
series: rate as the share of worst-case operations grows).
"""

import pytest

from repro.disk import FUJITSU_M2351A, MICROPOLIS_1325
from repro.fs2.timing import execution_time_ns, worst_case_rate_bytes_per_sec
from repro.scw import FS1_SCAN_RATE_BYTES_PER_SEC
from repro.unify import HardwareOp
from tables import record_table


def _mixed_rate(worst_fraction: float) -> float:
    """FS2 byte rate when a fraction of ops are worst-case fetches."""
    best = execution_time_ns(HardwareOp.MATCH)
    worst = execution_time_ns(HardwareOp.QUERY_CROSS_BOUND_FETCH)
    mean_ns = worst_fraction * worst + (1 - worst_fraction) * best
    return 1e9 / mean_ns


def test_bench_headline_rates():
    rates = {
        "FS1 scan": FS1_SCAN_RATE_BYTES_PER_SEC,
        "FS2 worst case": worst_case_rate_bytes_per_sec(),
        "FS2 best case (all MATCH)": _mixed_rate(0.0),
        "disk peak (Fujitsu M2351A SMD)": FUJITSU_M2351A.transfer_rate_bytes_per_sec,
        "disk (Micropolis 1325 SCSI)": MICROPOLIS_1325.transfer_rate_bytes_per_sec,
    }
    assert rates["FS2 worst case"] == pytest.approx(4.25e6, rel=0.01)
    assert rates["FS1 scan"] == 4.5e6
    assert rates["FS2 worst case"] > rates["disk peak (Fujitsu M2351A SMD)"]
    assert rates["FS1 scan"] > rates["disk peak (Fujitsu M2351A SMD)"]
    record_table(
        "R1",
        "Section 4 rates: the filters always outrun the disk",
        ("component", "MB/s"),
        [(name, value / 1e6) for name, value in rates.items()],
        notes="paper: FS1 4.5 MB/s, FS2 worst 4.25 MB/s, disk circa 2 MB/s",
    )


def test_bench_rate_vs_op_mix():
    fractions = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    series = [(f, _mixed_rate(f) / 1e6) for f in fractions]
    # Monotone decreasing, bounded by best/worst cases.
    rates = [rate for _, rate in series]
    assert rates == sorted(rates, reverse=True)
    assert rates[0] == pytest.approx(1e3 / 105, rel=0.01)
    assert rates[-1] == pytest.approx(4.25, rel=0.01)
    disk = FUJITSU_M2351A.transfer_rate_bytes_per_sec / 1e6
    record_table(
        "R1b",
        "FS2 filter rate vs share of worst-case operations (figure series)",
        ("worst-op fraction", "FS2 MB/s", "above 2 MB/s disk?"),
        [(f, rate, "yes" if rate > disk else "NO") for f, rate in series],
        notes="the filter never becomes the bottleneck at any mix",
    )
    assert all(rate > disk for _, rate in series)
