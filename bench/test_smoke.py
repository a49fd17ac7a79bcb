"""Smoke test of the benchmark itself.  Run explicitly::

    python -m pytest bench/test_smoke.py

(``testpaths`` keeps tier-1 on ``tests/``.)  Sizes are passed through
the Python API; the command of record has no ``--quick`` flag.
"""

from __future__ import annotations

import copy
import json

import pytest

from bench import ROOT, kbs, layers, record, run
from bench.serving import OUT_DIR
from bench.tracing import TARGETS, Tracer

TINY = kbs.Sizes(
    facts=600, fact_domains=(60, 6, 6), point_goals=32, couples=200,
    mixed_facts=300, graph_nodes=300, graph_span=12, path_cap=10,
    retract_tail=2,
    ledger_ops=(
        ("point_lookup", 24), ("wide_result", 6), ("scan_fs2", 4),
        ("mixed_rw", 40), ("graph_solve", 9),
    ),
    traced_ops=(
        ("point_lookup", 16), ("wide_result", 6), ("scan_fs2", 4),
        ("mixed_rw", 40), ("graph_solve", 9),
    ),
    graph_crosscheck=3,
)


@pytest.fixture(scope="module")
def results():
    return {
        name: run.run_workload(name, seed=7, seconds=1.5, sizes=TINY)
        for name in kbs.WORKLOADS
    }


def _resolve(path: str):
    """(owner, attribute) of one tracing target, as install() sees it."""
    import importlib

    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def test_every_metric_is_emitted_with_a_unit(results):
    for name, result in results.items():
        assert result["failed"] == 0, result["errors"]
        for metric, (unit, _, _, where) in record.END_TO_END.items():
            if name in where:
                assert result["end_to_end"][metric]["unit"] == unit, (name, metric)
        for metric, (unit, _) in layers.PER_LAYER.items():
            assert result["per_layer"][metric]["unit"] == unit, (name, metric)
        coverage = result["per_layer"]["bench.budget_coverage"]["value"]
        assert 0.9 <= coverage <= 1.1, (name, coverage)
    # A bypassed layer reads zero; the layer a workload targets does not.
    assert results["scan_fs2"]["per_layer"]["scw.search_ms"]["value"] == 0
    assert results["scan_fs2"]["per_layer"]["fs2.search_ms"]["value"] > 0
    assert results["point_lookup"]["per_layer"]["engine.solve_ms"]["value"] == 0
    assert results["graph_solve"]["per_layer"]["engine.solve_ms"]["value"] > 0
    assert results["mixed_rw"]["per_layer"]["storage.wal_fsyncs_per_write"]["value"] > 0


def test_driver_line_has_exactly_the_benchmark_json_metrics(results):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == record.benchmark_spec()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run._driver_line(results["mixed_rw"], trace, spec))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[section]]
        for metric in spec[section]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    # What the driver gates is reported by every workload and never 0,
    # at the bound of the one table; nothing was demoted without cause.
    for metric in spec["end_to_end"]:
        assert metric["bound"] in (0.10, record.END_TO_END[metric["name"]][2])
        for name, result in results.items():
            assert result["end_to_end"][metric["name"]]["value"] > 0, (name, metric)
    assert all(spread > 0.10 for spread in record.UNREPEATABLE.values())
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert set(record.END_TO_END) <= set(listed)


def test_a_dropped_candidate_raises_failed_fraction(monkeypatch):
    from repro.net import RetrievalClient

    genuine = RetrievalClient.retrieve
    calls = 0

    def dropping(self, goal, *args, **kwargs):
        nonlocal calls
        result = genuine(self, goal, *args, **kwargs)
        calls += 1
        if calls % 5 == 0 and result.candidates:
            result.candidates.pop()
        return result

    monkeypatch.setattr(RetrievalClient, "retrieve", dropping)
    result = run.run_workload(
        "point_lookup", seed=7, seconds=0.6, sizes=TINY, traced=False
    )
    assert result["failed"] > 0
    assert result["end_to_end"]["failed_fraction"]["value"] > 0


def test_a_bug_in_a_window_thread_is_raised():
    from bench import drive

    class Workload:
        def sequence(self, conn, phase):
            yield kbs.Op("retrieve", None)

    class Conn:
        def execute(self, op):
            raise KeyError("not an op error")

    with pytest.raises(KeyError):
        drive.run_windows(Workload(), [Conn(), Conn()], 1, 0.1)


def test_self_times_sum_to_the_parent(results):
    # Exactly, on a hand-made tree with cross-process children and an
    # aggregated child ...
    client = [
        (1, 0, "bench.op", 0, 1000, 1, False),
        (2, 1, "net.client.retrieve", 100, 900, 1, False),
    ]
    server = [
        (1, 0, "cluster.retrieve", 300, 700, 1, False),
        (2, 1, "crs.retrieve", 350, 650, 1, False),
        (3, 2, "pif.decode", 350, 450, 40, True),
        (4, 0, "net.encode_response", 710, 800, 1, False),
    ]
    (op,), unplaced = layers.build_ops(client, server)
    assert not unplaced
    selfs = {s.name: s.self_ns for s in op.walk()}
    assert selfs == {
        "bench.op": 200, "net.client.retrieve": 310, "cluster.retrieve": 100,
        "crs.retrieve": 200, "pif.decode": 100, "net.encode_response": 90,
    }
    assert sum(selfs.values()) == op.duration
    # ... and on a real trace, where one request is in flight at a time.
    by_op: dict[int, list[dict]] = {}
    with open(OUT_DIR / "trace-point_lookup.ndjson", encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            by_op.setdefault(span["op"], []).append(span)
    assert len(by_op) == dict(TINY.traced_ops)["point_lookup"]
    for spans in by_op.values():
        root = next(s for s in spans if s["name"] == "bench.op")
        assert {"client", "server"} <= {s["process"] for s in spans}
        assert sum(s["self_ns"] for s in spans) == pytest.approx(
            root["dur_ns"], rel=0.01
        )


def test_wrappers_are_fully_removed(results):
    owners = [_resolve(path) for _, _, path in TARGETS]
    before = [vars(owner)[attr] for owner, attr in owners]
    # ``results`` already ran five traced passes in this process.
    assert not any(
        hasattr(getattr(value, "__func__", value), "traced_as") for value in before
    )
    tracer = Tracer()
    tracer.install()
    assert all(
        hasattr(getattr(vars(owner)[attr], "__func__", vars(owner)[attr]), "traced_as")
        for owner, attr in owners
    )
    tracer.uninstall()
    assert not tracer.installed
    assert all(
        vars(owner)[attr] is original
        for (owner, attr), original in zip(owners, before)
    )
    # ... including the copies ``from x import f`` left in importers.
    import repro.crs.server
    import repro.pif.clausefile

    assert repro.crs.server.decode_compiled is repro.pif.clausefile.decode_compiled


def test_compare_is_like_for_like(results, tmp_path):
    stamp = record.stamp()
    base = {
        "stamp": stamp, "seed": 7, "plan": {"windows": 3, "window_s": 0.5},
        "workloads": copy.deepcopy(results),
    }
    for result in base["workloads"].values():
        for entry in result["end_to_end"].values():
            entry["spread"] = 0.01
    rows, errors = record.compare(base, copy.deepcopy(base))
    assert not errors and {row[4] for row in rows} == {"same"}

    slower = copy.deepcopy(base)
    slower["workloads"]["scan_fs2"]["end_to_end"]["latency_p50_ms"]["value"] *= 1.2
    slower["workloads"]["wide_result"]["end_to_end"]["throughput_ops_s"]["value"] *= 1.2
    noisy = slower["workloads"]["mixed_rw"]["end_to_end"]["latency_p95_ms"]
    noisy["value"] *= 1.05
    noisy["spread"] = 0.3
    rows, errors = record.compare(base, slower)
    verdicts = {(row[0], row[1]): row[4] for row in rows}
    assert not errors
    assert verdicts["scan_fs2", "latency_p50_ms"] == "worse"
    assert verdicts["wide_result", "throughput_ops_s"] == "better"
    assert verdicts["mixed_rw", "latency_p95_ms"] == "unresolved"
    # A timing that does not repeat on this host is reported, not gated.
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(slower))
    compare = ["--compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert run.main(compare) == 0
    slower["workloads"]["scan_fs2"]["end_to_end"]["peak_rss_mb"]["value"] *= 1.2
    (tmp_path / "b.json").write_text(json.dumps(slower))
    assert run.main(compare) == 1

    drifted = copy.deepcopy(base)
    drifted["workloads"]["scan_fs2"]["end_to_end"]["modelled_filter_ms"]["value"] += 1e-9
    assert record.compare(base, drifted)[1]
    recount = copy.deepcopy(base)
    recount["workloads"]["wide_result"]["ledger"]["candidates"] += 1
    assert record.compare(base, recount)[1]
    other_seed = copy.deepcopy(base)
    other_seed["seed"] = 8
    assert record.compare(base, other_seed) == (
        [], ["seed differs: 7 vs 8"]
    )
    other_host = copy.deepcopy(base)
    other_host["stamp"]["nproc"] = stamp["nproc"] + 2
    assert record.compare(base, other_host)[1]
