"""The result record, its append-only history, and the like-for-like gate.

:data:`END_TO_END` is the benchmark's one table of end-to-end metrics:
unit, direction, where each applies and the bound by which it may get
worse before it counts as a regression.  ``"exact"`` marks the modelled
1989 ledger, which must repeat to the last digit for a seed.
BENCHMARK.json is written from this table and from the two lists of
metrics its ``end_to_end`` cannot hold.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import socket
import subprocess

from bench import ROOT

__all__ = [
    "END_TO_END", "UNREPEATABLE", "UNLISTABLE", "RUN_SECONDS", "benchmark_spec",
    "stamp", "append_history", "compare", "HISTORY",
]

HISTORY = ROOT / "bench" / "history.ndjson"

_ALL = ("point_lookup", "wide_result", "scan_fs2", "mixed_rw", "graph_solve")

#: name -> (unit, better, bound, workloads that report it)
END_TO_END: dict[str, tuple[str, str, float | str, tuple[str, ...]]] = {
    "throughput_ops_s": ("ops/s", "higher", 0.10, _ALL),
    "latency_p50_ms": ("ms", "lower", 0.10, _ALL),
    "latency_p95_ms": ("ms", "lower", 0.10, _ALL),
    "write_latency_p50_ms": ("ms", "lower", 0.10, ("mixed_rw",)),
    "write_latency_p95_ms": ("ms", "lower", 0.10, ("mixed_rw",)),
    "retract_latency_p50_ms": ("ms", "lower", 0.10, ("mixed_rw",)),
    "first_answer_p50_ms": ("ms", "lower", 0.10, ("graph_solve",)),
    "failed_fraction": ("ratio", "lower", 0.0, _ALL),
    "modelled_filter_ms": ("ms", "lower", "exact", _ALL),
    "false_drop_ratio": ("ratio", "lower", "exact", _ALL),
    "setup_s": ("s", "lower", 0.10, _ALL),
    "peak_rss_mb": ("MB", "lower", 0.10, _ALL),
}

#: Wall-clock metrics that do not repeat within their 10 % on this host:
#: name -> the widest quartile spread (share of the median) a workload
#: showed over ten seeds x 18 s of windows, measured twice.  The host's
#: speed drifts for minutes at a time (scan_fs2, whose two goals and KB
#: size are the same for every seed, read 26.8, 26.7, 26.7 ops/s, later
#: 20.8 and 15.0), the windows already fill the driver's time cap, and
#: the bound is not to be widened; so BENCHMARK.json lists these under
#: ``per_layer`` and ``--compare`` reports them without gating on them.
#: ``setup_s`` is one of them (one sample a run: 6.5 s, then 9.5 s on
#: ``mixed_rw`` for the same seed), but the driver requires it among
#: ``end_to_end``; there it compares medians of ten runs, which moved
#: by at most 6.3 % between the two sets.
UNREPEATABLE = {
    "throughput_ops_s": 0.23,
    "latency_p50_ms": 0.24,
    "latency_p95_ms": 0.31,
    "write_latency_p50_ms": 0.16,
    "write_latency_p95_ms": 0.22,
    "retract_latency_p50_ms": 0.16,
    "first_answer_p50_ms": 0.16,
    "setup_s": 0.22,
}

#: Gated by ``--compare``, but the driver's ``end_to_end`` takes only
#: metrics that are never 0: these read 0 on a healthy run (the driver's
#: own ``attempted`` / ``failed`` / ``correct`` carry the first).
UNLISTABLE = ("failed_fraction", "false_drop_ratio")

#: length of the timed windows in a driver run: three windows of 6 s.
#: 114 runs share 3420 s and spend 5.4 s each outside the windows, so
#: the command of record's 3 x 8 s would leave no time to spare.
RUN_SECONDS = 18


def benchmark_spec() -> dict:
    """The content of BENCHMARK.json, from this package's own tables."""
    from bench import kbs, layers

    # The driver never repeats a seed, so there "exact" can only be the
    # 10 % of every other metric; ``--compare`` still demands equality.
    listed = {
        name: 0.10 if bound == "exact" else bound
        for name, (_, _, bound, _) in END_TO_END.items()
        if name == "setup_s"
        or name not in UNREPEATABLE and name not in UNLISTABLE
    }
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in kbs.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": END_TO_END[name][0],
             "better": END_TO_END[name][1], "bound": bound}
            for name, bound in listed.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in END_TO_END.items()
            if name not in listed
        ] + [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in layers.PER_LAYER.items()
        ],
    }


def stamp() -> dict:
    """Where and on what this run was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the checkout is not a git repository
    return {
        "host": socket.gethostname(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "time_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def append_history(record: dict) -> None:
    """One line per run, end-to-end values only; never rewritten."""
    line = {
        "stamp": record["stamp"], "seed": record["seed"], "plan": record["plan"],
        "workloads": {
            name: {
                metric: [entry["value"], entry["samples"], entry["spread"]]
                for metric, entry in result["end_to_end"].items()
            }
            for name, result in record["workloads"].items()
        },
    }
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# -- the like-for-like gate ---------------------------------------------------


def _host_class(stamp_: dict) -> tuple:
    """What must match for two timings to be comparable at all."""
    python = ".".join(stamp_["python"].split(".")[:2])
    return (
        stamp_["machine"], stamp_["nproc"], python, stamp_["numpy"] != "absent",
    )


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    """Verdicts of record ``b`` against baseline ``a``.

    Returns ``(rows, errors)``; a row is ``(workload, metric, a, b,
    verdict)`` with verdict ``better | same | worse | unresolved``.
    Errors are reasons the comparison is not like for like, or exact
    metrics that differ; any error makes the gate fail, and so does a
    ``worse`` on any metric outside :data:`UNREPEATABLE`.
    """
    errors = []
    if _host_class(a["stamp"]) != _host_class(b["stamp"]):
        errors.append(
            f"host class differs: {_host_class(a['stamp'])} vs "
            f"{_host_class(b['stamp'])}"
        )
    for key in ("seed", "plan"):
        if a[key] != b[key]:
            errors.append(f"{key} differs: {a[key]} vs {b[key]}")
    if errors:
        return [], errors
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        if a["workloads"][name]["ledger"] != b["workloads"][name]["ledger"]:
            errors.append(
                f"{name}: ledger-pass counts must repeat exactly: "
                f"{a['workloads'][name]['ledger']} vs "
                f"{b['workloads'][name]['ledger']}"
            )
        ours = a["workloads"][name]["end_to_end"]
        theirs = b["workloads"][name]["end_to_end"]
        for metric, (_, better, bound, _) in END_TO_END.items():
            if metric not in ours or metric not in theirs:
                continue
            old, new = ours[metric], theirs[metric]
            verdict = _verdict(old, new, better, bound)
            if verdict == "mismatch":
                errors.append(
                    f"{name}.{metric} must repeat exactly: "
                    f"{old['value']!r} vs {new['value']!r}"
                )
            rows.append((name, metric, old["value"], new["value"], verdict))
    return rows, errors


def _verdict(old: dict, new: dict, better: str, bound) -> str:
    a, b = old["value"], new["value"]
    if bound == "exact":
        return "same" if a == b else "mismatch"
    if a == b:
        return "same"
    worsening = (b - a) if better == "lower" else (a - b)
    if bound == 0.0:
        return "worse" if worsening > 0 else "better"
    if max(old["spread"], new["spread"]) > bound:
        return "unresolved"
    relative = worsening / abs(a) if a else float("inf")
    if relative > bound:
        return "worse"
    return "better" if relative < -bound else "same"


def print_comparison(rows, errors) -> None:
    for name, metric, a, b, verdict in rows:
        note = "  (not gated)" if metric in UNREPEATABLE else ""
        print(f"{name:<13} {metric:<24} {a:>14.6g} {b:>14.6g}  {verdict}{note}")
    for error in errors:
        print(f"ERROR: {error}")
