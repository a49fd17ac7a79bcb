"""Benchmark-suite plumbing: collect reproduced tables and print them.

Each benchmark registers the table/figure rows it regenerates via
:func:`benchmarks.tables.record_table`; this conftest prints every
registered table in the terminal summary (uncaptured).  A full, passing
run (every ``test_*.py`` here collected, nothing deselected) also writes
them to ``benchmarks/results.txt``, the checked-in record that CI diffs;
a partial run leaves that file alone.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
# E7 runs the test suite's tree-walking oracle (``tests.oracle``).
sys.path.insert(0, str(pathlib.Path(__file__).parents[1]))

from tables import format_tables, registered_tables  # noqa: E402

HERE = pathlib.Path(__file__).parent
RESULTS_PATH = HERE / "results.txt"
COLLECTED_FILES = pytest.StashKey[set]()


def pytest_collection_finish(session):
    session.config.stash[COLLECTED_FILES] = {item.path for item in session.items}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tables = registered_tables()
    if not tables:
        return
    text = format_tables(tables)
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("REPRODUCED TABLES AND FIGURES")
    terminalreporter.write_line("=" * 70)
    for line in text.splitlines():
        terminalreporter.write_line(line)
    full_run = (
        exitstatus == 0
        and not terminalreporter.stats.get("deselected")
        and config.stash.get(COLLECTED_FILES, set()) == set(HERE.glob("test_*.py"))
    )
    if full_run:
        RESULTS_PATH.write_text(text)
        terminalreporter.write_line(f"(also written to {RESULTS_PATH})")
    else:
        terminalreporter.write_line(
            f"(partial or failing run: {RESULTS_PATH} left unchanged)"
        )
