"""[TM] Regenerate the FS2 operational-mode table (section 3).

The control-register bit encodings (b0/b1 selecting the four operational
modes, b2 selecting FS1/FS2, b7 as match-found status) are verified and
printed after a full host-protocol mode cycle.
"""

from repro.fs2 import (
    ControlRegister,
    FilterSelect,
    OperationalMode,
)
from tables import record_table


def test_bench_mode_table():
    register = ControlRegister()
    register.select_filter(FilterSelect.FS2)
    observed = []
    for mode in (
        OperationalMode.MICROPROGRAMMING,
        OperationalMode.SET_QUERY,
        OperationalMode.SEARCH,
        OperationalMode.READ_RESULT,
    ):
        register.set_mode(mode)
        observed.append((mode, register.value & 1, (register.value >> 1) & 1))
    expected = {
        OperationalMode.READ_RESULT: (0, 0),
        OperationalMode.SEARCH: (0, 1),
        OperationalMode.MICROPROGRAMMING: (1, 0),
        OperationalMode.SET_QUERY: (1, 1),
    }
    for mode, b0, b1 in observed:
        assert expected[mode] == (b0, b1)
    record_table(
        "TM",
        "FS2 operational modes (control register b0, b1)",
        ("operational mode", "b0", "b1"),
        [
            ("Read Result", 0, 0),
            ("Search", 0, 1),
            ("Microprogramming", 1, 0),
            ("Set Query", 1, 1),
        ],
    )


def test_bench_filter_select():
    register = ControlRegister()
    states = []
    for which in (FilterSelect.FS1, FilterSelect.FS2, FilterSelect.FS1):
        register.select_filter(which)
        states.append((which, register.filter_select, (register.value >> 2) & 1))
    for requested, observed, b2 in states:
        assert requested == observed
        assert b2 == (1 if requested == FilterSelect.FS2 else 0)
    record_table(
        "TMb",
        "Filter selection (control register b2) and status (b7)",
        ("bit", "meaning"),
        [
            ("b2 = 0", "FS1 selected (SCW+MB index search)"),
            ("b2 = 1", "FS2 selected (partial test unification)"),
            ("b7 = 1", "a match was found during the last search"),
            ("window", "0xffff7e00-0xffff7fff shared by FS1 and FS2"),
        ],
    )
