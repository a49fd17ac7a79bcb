"""The benchmark of record: ``python3 bench/run.py`` (or ``-m bench.run``).

With no arguments it runs all five workloads — set-up, verified ledger
pass, three timed windows of 8 s, untraced baseline and traced pass on
one server each — prints every metric by name with its unit, writes the
result record and appends it to ``bench/history.ndjson``.

``--workload W --seed N --seconds S --trace 0|1`` is the single-run
form the regression driver calls: set-up, ledger pass and the windows
(``S`` seconds in all), then one JSON object on the last line of
standard output.  ``--trace 0`` prints the ``end_to_end`` metrics of
BENCHMARK.json; ``--trace 1`` also runs the baseline and traced passes
and prints its ``per_layer`` metrics.

``--compare A.json B.json`` is the like-for-like gate over two records.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import statistics
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

try:
    from bench import drive, kbs, layers, record  # noqa: E402
except ModuleNotFoundError as missing:
    if (missing.name or "").split(".")[0] != "repro":
        raise
    sys.exit("bench: src/repro is not here; there is nothing to measure")
from bench.serving import OUT_DIR, Server  # noqa: E402
from bench.tracing import Tracer  # noqa: E402

WINDOWS = 3
CONNECTIONS = 2
_READS = ("retrieve", "solve")


def run_workload(
    name: str, seed: int, seconds: float, *, traced: bool = True,
    sizes: kbs.Sizes | None = None,
) -> dict:
    """One workload against one server; returns its part of the record."""
    from repro.obs import Instrumentation

    sizes = sizes or kbs.Sizes()
    began = time.perf_counter()
    workload = kbs.build(name, seed, sizes)
    if isinstance(workload, kbs.GraphSolve):
        workload.crosscheck()
    oracle_s = time.perf_counter() - began

    server = Server(workload.deployment, workload.clauses)
    conns: list[drive.Connection] = []
    try:
        drive.ping(server.address)
        setup_s = time.perf_counter() - server.started
        obs = Instrumentation(enabled=False)
        conns = [
            drive.Connection(workload, server.address, obs)
            for _ in range(CONNECTIONS)
        ]
        done: list[tuple[kbs.Op, drive.Sample]] = []
        end_to_end: dict[str, dict] = {}
        per_layer: dict[str, float] = {}

        ledger = drive.run_pass(
            workload, conns[0], "ledger", workload.ledger_ops, verify_fully=True
        )
        done += ledger
        untraced = [sample for _, sample in ledger]
        counts, modelled_ms = _ledger_counts(ledger)
        _put(end_to_end, "modelled_filter_ms", modelled_ms, counts["retrievals"])
        _put(
            end_to_end, "false_drop_ratio",
            (counts["candidates"] - counts["true_unifiers"]) / counts["candidates"]
            if counts["candidates"] else 0.0,
            counts["retrievals"],
        )
        _put(end_to_end, "setup_s", setup_s, 1)

        # The driver holds the whole KB and its oracle; keep the
        # collector from walking them in the middle of a window.
        gc.collect()
        gc.freeze()
        try:
            by_window = drive.run_windows(
                workload, conns, WINDOWS, seconds / WINDOWS
            )
        finally:
            gc.unfreeze()
        in_windows = [s for window in by_window for s in window]
        _put(end_to_end, "peak_rss_mb", server.call("rss_mb"), 1)

        if traced:
            baseline = drive.run_pass(
                workload, conns[0], "baseline", workload.traced_ops
            )
            done += baseline
            untraced += [sample for _, sample in baseline]
            per_layer = _traced_pass(workload, server, conns, obs, baseline, done)
            per_layer["bench.oracle_s"] = oracle_s
        _window_metrics(end_to_end, by_window, seconds / WINDOWS, untraced)

        everything = [s for _, s in done] + in_windows
        attempted = len(everything)
        errors = [s.error for s in everything if not s.ok]
        failed = len(errors)
        _put(end_to_end, "failed_fraction", failed / attempted, attempted)
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    return {
        "end_to_end": end_to_end,
        "per_layer": {
            key: {"value": per_layer[key], "unit": layers.PER_LAYER[key][0]}
            for key in layers.PER_LAYER if key in per_layer
        },
        "ledger": counts,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
    }


def _put(table, name, value, samples, spread=0.0) -> None:
    table[name] = {
        "value": value, "unit": record.END_TO_END[name][0],
        "samples": samples, "spread": spread,
    }


def _spread(values: list[float]) -> float:
    """(max - min) / median: how far repeats of one number disagree."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def _ledger_counts(ledger) -> tuple[dict, float]:
    """Counts of the ledger pass and its mean modelled filter time (ms).

    Every one of them repeats exactly for a seed.
    """
    retrievals = [(op, s) for op, s in ledger if s.kind == "retrieve" and s.ok]
    stats = [s.stats for _, s in retrievals]
    counts = {
        "ops": len(ledger),
        "retrievals": len(retrievals),
        "candidates": sum(len(s.answers) for _, s in retrievals),
        "true_unifiers": sum(op.expect for op, _ in retrievals),
        "solutions": sum(len(s.answers) for _, s in ledger if s.kind == "solve"),
        "clauses_scanned": sum(st.clauses_total for st in stats),
        "bytes_from_disk": sum(st.bytes_from_disk for st in stats),
        "fs2_search_calls": sum(st.fs2_search_calls for st in stats),
    }
    modelled_ms = (
        sum(st.filter_time_s for st in stats) * 1e3 / len(stats) if stats else 0.0
    )
    for _, sample in ledger:
        sample.answers = []  # verified and counted: free the clauses
    return counts, modelled_ms


def _window_metrics(table, by_window, window_s, untraced) -> None:
    """Throughput is the median window's; latencies are pooled."""
    rates = [sum(1 for s in w if s.ok) / window_s for w in by_window]
    _put(table, "throughput_ops_s", statistics.median(rates),
         sum(len(w) for w in by_window), _spread(rates))
    _percentiles(table, by_window, _READS, "latency_s",
                 (("latency_p50_ms", 50), ("latency_p95_ms", 95)))
    _percentiles(table, by_window, ("assertz",), "latency_s",
                 (("write_latency_p50_ms", 50), ("write_latency_p95_ms", 95)))
    _percentiles(table, by_window, ("solve",), "first_s",
                 (("first_answer_p50_ms", 50),))
    # Retracts run only in the tail of a pass; the traced one is not timed.
    retracts = [s.latency_s * 1e3 for s in untraced if s.ok and s.kind == "retract"]
    if retracts:
        _put(table, "retract_latency_p50_ms", statistics.median(retracts),
             len(retracts))


def _percentiles(table, by_window, kinds, attr, metrics) -> None:
    """Percentiles pooled over all windows, for the ops of ``kinds``.

    ``spread`` is the min-max of each window's own percentile.
    """
    per_window = [
        [getattr(s, attr) * 1e3 for s in w if s.ok and s.kind in kinds]
        for w in by_window
    ]
    pooled = [value for w in per_window for value in w]
    for name, q in metrics if pooled else ():
        _put(table, name, drive.percentile(pooled, q), len(pooled),
             _spread([drive.percentile(w, q) for w in per_window if w]))


def _traced_pass(workload, server, conns, obs, baseline, done) -> dict:
    """Switch tracing on in both processes, replay the baseline's ops."""
    tracer = Tracer()
    server.call("trace_on")
    client_before = obs.registry.snapshot()
    obs.enable()
    tracer.install()
    try:
        traced = drive.run_pass(
            workload, conns[0], "traced", workload.traced_ops, tracer=tracer
        )
    finally:
        tracer.uninstall()
        obs.disable()
    server_spans, server_before, server_after = server.call("trace_off")
    done += traced
    ops, unplaced = layers.build_ops(tracer.drain(), server_spans)
    samples = [sample for _, sample in traced]
    stale = (
        len(conns[0].client.stale_addresses)
        if workload.deployment == "fleet" else 0
    )
    metrics = layers.per_layer_metrics(
        ops, unplaced, (server_before, server_after),
        (client_before, obs.registry.snapshot()), samples, stale,
    )
    untraced = statistics.fmean(s.latency_s for _, s in baseline)
    metrics["bench.trace_overhead_frac"] = (
        statistics.fmean(s.latency_s for s in samples) / untraced - 1.0
    )
    layers.write_ndjson(OUT_DIR / f"trace-{workload.name}.ndjson", ops, unplaced)
    return metrics


# -- reporting ----------------------------------------------------------------


def _print_workload(name: str, result: dict) -> None:
    print(f"\n== {name}: {kbs.WORKLOADS[name]}")
    for metric, entry in result["end_to_end"].items():
        print(
            f"  {metric:<26} {entry['value']:>14.6g} {entry['unit']:<6}"
            f" samples={entry['samples']:<6} spread={entry['spread']:.3f}"
        )
    for metric, entry in result["per_layer"].items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for error in result["errors"]:
        print(f"  FAILED OP: {error}")


def _driver_line(result: dict, trace: bool, spec: dict) -> str:
    """The one JSON object the regression driver reads."""
    flat = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for table in (result["end_to_end"], result["per_layer"])
        for name, entry in table.items()
    }
    # A metric this workload has no op for reads 0 (layer bypassed).
    metrics = {
        metric["name"]: flat.get(
            metric["name"], {"value": 0.0, "unit": metric["unit"]}
        )
        for metric in spec["per_layer" if trace else "end_to_end"]
    }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(kbs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="total length of the timed windows")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single-run form for the regression driver")
    parser.add_argument("--out", type=pathlib.Path,
                        help="where to write the result record")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        type=pathlib.Path)
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        rows, errors = record.compare(a, b)
        record.print_comparison(rows, errors)
        worse = [
            row for row in rows
            if row[4] == "worse" and row[1] not in record.UNREPEATABLE
        ]
        return 1 if errors or worse else 0

    driver = args.trace is not None
    if driver and not args.workload:
        parser.error("--trace needs --workload")
    names = [args.workload] if args.workload else list(kbs.WORKLOADS)
    traced = not driver or bool(args.trace)
    result_record = {
        "schema": 1,
        "stamp": record.stamp(),
        "seed": args.seed,
        "plan": {
            "windows": WINDOWS, "window_s": args.seconds / WINDOWS,
            "connections": CONNECTIONS, "traced": traced,
        },
        "workloads": {},
    }
    for name in names:
        result = run_workload(name, args.seed, args.seconds, traced=traced)
        result_record["workloads"][name] = result
        _print_workload(name, result)
    out = args.out or OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result_record, indent=1, sort_keys=True))
    print(f"\nrecord: {out}")
    if not driver:
        # The trajectory is of whole runs of the command of record only.
        record.append_history(result_record)
    else:
        spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
        print(_driver_line(result, bool(args.trace), spec))
    failed = sum(r["failed"] for r in result_record["workloads"].values())
    return 1 if failed and not driver else 0


if __name__ == "__main__":
    sys.exit(main())
