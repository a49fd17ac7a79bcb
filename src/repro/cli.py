"""A small command-line driver for the PDBM system.

Usage::

    python -m repro.cli consult FILE.pl --goal "parent(tom, X)"
    python -m repro.cli stats FILE.pl --goal "parent(tom, X)" --disk
    python -m repro.cli goal "X is 1 + 2"
    python -m repro.cli table1
    python -m repro.cli microcode

``consult`` loads a Prolog source file (optionally pinning it to the
simulated disk) and runs goals against it, reporting which CRS search
modes the planner chose.  ``stats`` is ``consult`` with the
observability layer switched on: it dumps the full metrics registry
(cache hits/misses, shard-lock waits, FS2 search calls, stage sim times) and
``--trace-json FILE`` exports the span trace as NDJSON — one JSON object
per pipeline stage (disk, FS1, FS2, software) per retrieval.  ``table1``
prints the reproduced Table 1 and ``microcode`` disassembles the FS2
search program.
"""

from __future__ import annotations

import argparse
import sys

from .cluster import BatchExecutor, ShardedRetrievalServer, ShardingPolicy
from .crs import ClauseRetrievalServer, SearchMode
from .engine import PrologMachine
from .fs2 import assemble_search_program, table1, worst_case_rate_bytes_per_sec
from .fs2.microcode import disassemble
from .obs import Instrumentation
from .storage import KnowledgeBase, Residency, UnknownPredicateError
from .terms import ReaderError, read_term, term_to_string

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="CLARE / PDBM reproduction command-line driver",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    consult = commands.add_parser("consult", help="load a .pl file and run goals")
    stats = commands.add_parser(
        "stats",
        help="like consult, with the observability layer on: dump the "
        "metrics registry and optionally an NDJSON span trace",
    )
    for sub in (consult, stats):
        sub.add_argument("file", help="Prolog source file")
        sub.add_argument(
            "--goal", action="append", default=[], help="goal to solve (repeatable)"
        )
        sub.add_argument(
            "--disk",
            action="store_true",
            help="pin the program to the simulated disk",
        )
        sub.add_argument(
            "--mode",
            choices=[m.value for m in SearchMode],
            help="force one CRS search mode (default: planner)",
        )
        sub.add_argument(
            "--max-solutions", type=int, default=10, help="solutions per goal"
        )
        sub.add_argument(
            "--library", action="store_true", help="load the list library"
        )
        sub.add_argument(
            "--trace-json",
            metavar="FILE",
            help="write the span trace as NDJSON to FILE",
        )
        sub.add_argument(
            "--shards",
            type=int,
            default=1,
            help="partition the KB across N CLARE engine instances",
        )
        sub.add_argument(
            "--shard-by",
            choices=[p.value for p in ShardingPolicy],
            default=ShardingPolicy.PREDICATE.value,
            help="shard routing policy (default: predicate)",
        )
    stats.add_argument(
        "--cache", type=int, default=0, help="CRS retrieval cache size (entries)"
    )

    serve = commands.add_parser(
        "serve",
        help="load a .pl file into a shard cluster and serve retrievals "
        "over TCP (see repro.net for the wire protocol)",
    )
    serve.add_argument("file", help="Prolog source file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--disk", action="store_true",
        help="pin the program to the simulated disk",
    )
    serve.add_argument("--shards", type=int, default=1)
    serve.add_argument(
        "--shard-by",
        choices=[p.value for p in ShardingPolicy],
        default=ShardingPolicy.PREDICATE.value,
    )
    serve.add_argument(
        "--workers", type=_workers_arg, default="threads",
        help="shard execution backend: 'threads' (default) or "
        "'processes[:N]' to host each shard in a worker process over "
        "shared mmap segments (N overrides --shards)",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=4,
        help="concurrent retrievals executing (worker threads)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="requests allowed to wait for a worker before SERVER_BUSY",
    )
    serve.add_argument(
        "--default-deadline-ms", type=int, default=0,
        help="deadline applied to requests that do not carry one (0 = none)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=None,
        help="drain and exit after handling N requests (default: serve "
        "until interrupted)",
    )
    serve.add_argument(
        "--durability", metavar="DIR", default=None,
        help="make mutations durable: write-ahead log + snapshots under "
        "DIR; on restart the KB recovers from DIR and the source file "
        "is only consulted into an empty store",
    )
    serve.add_argument(
        "--durability-flush",
        choices=["fsync", "os", "none"],
        default="fsync",
        help="WAL flush policy before acking a write: group-committed "
        "fsync (default), flush to the OS only, or fully buffered",
    )

    client = commands.add_parser(
        "client", help="query a running `serve` instance over TCP"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument(
        "--goal", action="append", default=[], help="goal to retrieve (repeatable)"
    )
    client.add_argument(
        "--assert", action="append", default=[], dest="assert_clauses",
        metavar="CLAUSE", help="assertz a clause on the server (repeatable)",
    )
    client.add_argument(
        "--retract", action="append", default=[], metavar="TEMPLATE",
        help="retract the first server clause unifying with TEMPLATE "
        "(repeatable)",
    )
    client.add_argument(
        "--manifest", action="store_true",
        help="fetch and print the server's cluster manifest (JSON)",
    )
    client.add_argument(
        "--batch", action="store_true",
        help="send all goals as one REQ_RETRIEVE_BATCH frame",
    )
    client.add_argument(
        "--solve", action="append", default=[], metavar="GOAL",
        help="resolve a (possibly multi-goal) query server-side, "
        "streaming one solution frame per answer (repeatable)",
    )
    client.add_argument(
        "--max-solutions", type=int, default=0,
        help="per --solve query solution cap (0 = all)",
    )
    client.add_argument(
        "--deadline-ms", type=int, default=0,
        help="per-request deadline (0 = none)",
    )
    client.add_argument(
        "--mode", choices=[m.value for m in SearchMode],
        help="force one CRS search mode",
    )
    client.add_argument(
        "--server-stats", action="store_true",
        help="also fetch and print the server's stats snapshot",
    )

    goal =commands.add_parser("goal", help="solve a goal with an empty KB")
    goal.add_argument("text", help="the goal")
    goal.add_argument("--max-solutions", type=int, default=10)

    commands.add_parser("table1", help="print the reproduced Table 1")
    commands.add_parser("microcode", help="disassemble the FS2 search program")

    dump = commands.add_parser(
        "dump", help="compile a clause and dump its PIF encoding"
    )
    dump.add_argument("clause", help="one clause, e.g. 'p(X, f(a)) :- q(X)'")

    wal_dump = commands.add_parser(
        "wal-dump",
        help="print a durable store's on-disk state: snapshots, WAL "
        "segments and the logged mutation records",
    )
    wal_dump.add_argument("directory", help="a `serve --durability` directory")

    compact = commands.add_parser(
        "compact",
        help="fold a durable store's WAL tail into a fresh snapshot "
        "offline (the store must not be open in a server)",
    )
    compact.add_argument("directory", help="a `serve --durability` directory")
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, out)
    except (OSError, ReaderError) as exc:
        # A missing/unreadable FILE or malformed Prolog text (ReaderError
        # carries line and column) is the user's input, not a crash.
        sys.stderr.write(f"repro: error: {exc}\n")
        return 2


def _dispatch(args: argparse.Namespace, out) -> int:
    if args.command == "table1":
        return _cmd_table1(out)
    if args.command == "microcode":
        return _cmd_microcode(out)
    if args.command == "dump":
        return _cmd_dump(args, out)
    if args.command == "wal-dump":
        return _cmd_wal_dump(args, out)
    if args.command == "compact":
        return _cmd_compact(args, out)
    if args.command == "goal":
        machine = PrologMachine(
            KnowledgeBase(), unknown_predicates="fail", output=out
        )
        _print_answers(
            args.text, machine.solve_text(args.text), args.max_solutions, out
        )
        return 0
    if args.command == "stats":
        return _cmd_stats(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "client":
        return _cmd_client(args, out)
    return _cmd_consult(args, out)


def _cmd_table1(out) -> int:
    out.write("Table 1: Execution Times of the FS2 Hardware Functions\n")
    for figure, op_name, time_ns in table1():
        out.write(f"  figure {figure:>2}  {op_name:<24} {time_ns:>4} ns\n")
    rate = worst_case_rate_bytes_per_sec() / 1e6
    out.write(f"worst-case filter rate: {rate:.2f} Mbytes/second\n")
    return 0


def _cmd_microcode(out) -> int:
    program = assemble_search_program()
    out.write(f"FS2 search microprogram ({len(program)} words):\n")
    for line in disassemble(program):
        out.write(line + "\n")
    return 0


def _cmd_dump(args, out) -> int:
    from .pif import CompiledClause, PIFError, SymbolTable, clause_record
    from .pif.dump import dump_record
    from .terms import clause_from_term

    symbols = SymbolTable()
    clause = clause_from_term(read_term(args.clause))
    try:
        data = clause_record(clause, symbols)
    except PIFError as exc:  # the clause does not fit a PIF record
        sys.stderr.write(f"repro: error: {exc}\n")
        return 2
    record, _ = CompiledClause.from_bytes(data, clause.indicator)
    for line in dump_record(record, symbols):
        out.write(line + "\n")
    out.write(f"record size: {len(data)} bytes\n")
    return 0


def _cmd_wal_dump(args, out) -> int:
    import pathlib

    from .storage import wal_dump

    if not pathlib.Path(args.directory).is_dir():
        out.write(f"error: {args.directory} is not a directory\n")
        return 1
    out.write(wal_dump(args.directory) + "\n")
    return 0


def _cmd_compact(args, out) -> int:
    """Offline compaction: recover the store, snapshot it, purge the WAL.

    The shard layout comes from the store's own ``store.json`` (written
    when the store was first opened), so the engine rebuilt here matches
    the one that wrote the log.
    """
    import json
    import pathlib

    from .storage import DurabilityOptions

    root = pathlib.Path(args.directory)
    meta_path = root / "store.json"
    if not meta_path.exists():
        out.write(f"error: {meta_path} not found (not a durable store?)\n")
        return 1
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    engine = ShardedRetrievalServer(
        int(meta.get("num_shards", 1)),
        meta.get("policy", ShardingPolicy.PREDICATE.value),
        durability=DurabilityOptions(directory=root, auto_compact=False),
    )
    try:
        recovered = engine.recovered
        replayed = len(recovered.records) if recovered is not None else 0
        seq = engine.compact()
        out.write(
            f"compacted {engine.clause_count()} clauses at seq {seq} "
            f"({replayed} WAL records folded in)\n"
        )
    finally:
        engine.close()
    return 0


def _cmd_consult(args, out) -> int:
    obs = None
    if getattr(args, "trace_json", None):
        obs = Instrumentation()
    if args.shards > 1:
        return _cmd_sharded(args, out, obs)
    machine = _load_machine(args, out, obs)
    for goal_text in args.goal:
        _print_answers(
            goal_text, machine.solve_text(goal_text), args.max_solutions, out
        )
    if args.goal:
        stats = machine.stats
        modes = ", ".join(
            f"{m.value}x{n}" for m, n in sorted(
                stats.mode_uses.items(), key=lambda kv: kv[0].value
            )
        )
        out.write(
            f"[stats] retrievals={stats.retrievals} "
            f"scanned={stats.clauses_scanned} candidates={stats.candidates} "
            f"modes: {modes}\n"
        )
    _write_trace(args, obs, out)
    return 0


def _cmd_stats(args, out) -> int:
    from .report import format_metrics, format_shard_report

    obs = Instrumentation()
    if args.shards > 1:
        code = _cmd_sharded(args, out, obs, cache_size=args.cache)
        out.write(format_metrics(obs) + "\n")
        out.write(format_shard_report(obs.registry) + "\n")
        return code
    machine = _load_machine(args, out, obs, cache_size=args.cache)
    for goal_text in args.goal:
        _print_answers(
            goal_text, machine.solve_text(goal_text), args.max_solutions, out
        )
    out.write(format_metrics(obs) + "\n")
    _write_trace(args, obs, out)
    return 0


def _cmd_sharded(args, out, obs: Instrumentation | None, cache_size: int = 0) -> int:
    """Consult a program into an N-shard cluster and run the goals.

    A goal means what it means at ``--shards 1``: it is *resolved* (the
    solve engine over the cluster's merged candidates).  The goal list
    also runs once as one retrieval batch, so per-shard busy time and
    the parallel-disk speedup can be reported.
    """
    from .engine.solve import SolveEngine

    server = ShardedRetrievalServer(
        args.shards,
        args.shard_by,
        cache_size=cache_size,
        **({"obs": obs} if obs is not None else {}),
    )
    with open(args.file, encoding="utf-8") as handle:
        count = server.consult_text(handle.read())
    balance = " ".join(
        f"s{k}={n}" for k, n in sorted(server.shard_clause_counts().items())
    )
    out.write(
        f"consulted {count} clauses into {args.shards} shards "
        f"(policy={server.policy.value}): {balance}\n"
    )
    if args.disk:
        server.pin_module("user", Residency.DISK)
        out.write("shard programs pinned to the simulated disks\n")
    mode = SearchMode(args.mode) if args.mode else None
    goals = [read_term(text) for text in args.goal]
    solver = SolveEngine(server, mode=mode)
    for goal_text, goal in zip(args.goal, goals):
        _print_answers(goal_text, solver.solve(goal), args.max_solutions, out)
    if goals:
        _print_batch(server, goals, mode, out)
    _write_trace(args, obs, out)
    return 0


def _print_batch(server, goals, mode, out) -> None:
    """The ``[batch]`` accounting lines: the goals as one retrieval batch."""
    try:
        # The batch goes through the per-shard batched-FS1 path: each
        # shard amortises its sub-queries over one columnar index pass.
        stats = BatchExecutor(server).run(goals, mode=mode).stats
    except UnknownPredicateError as exc:
        # A conjunction or a builtin resolves (above) but is not a
        # retrieval of one stored predicate: there is nothing to batch.
        out.write(f"[batch] skipped: {exc.args[0]}\n")
        return
    busy = " ".join(
        f"s{k}={v * 1e3:.3f}ms" for k, v in sorted(stats.shard_busy_s.items())
    )
    out.write(
        f"[batch] goals={stats.goals} "
        f"wall={stats.wall_clock_s * 1e3:.3f}ms "
        f"serial={stats.serial_time_s * 1e3:.3f}ms "
        f"speedup={stats.speedup:.2f}x\n"
    )
    if busy:
        out.write(f"[batch] shard busy: {busy}\n")


def _cmd_serve(args, out) -> int:
    """Load a program into a cluster and serve it over TCP until drained."""
    from .net import RetrievalService
    from .report import format_net_report

    obs = Instrumentation()
    backend, num_shards = args.workers
    num_shards = num_shards or max(1, args.shards)
    durability = None
    if args.durability is not None:
        from .storage import DurabilityOptions

        durability = DurabilityOptions(
            directory=args.durability, flush=args.durability_flush
        )
    extra = {} if durability is None else {"durability": durability}
    if backend == "processes":
        from .parallel import ProcessShardedRetrievalServer

        server = ProcessShardedRetrievalServer(
            num_shards,
            args.shard_by,
            obs=obs,
            **extra,
        )
    else:
        server = ShardedRetrievalServer(
            num_shards,
            args.shard_by,
            obs=obs,
            **extra,
        )
    recovered = getattr(server, "recovered", None)
    if recovered is not None and not recovered.empty:
        # The durable store already holds the KB: the snapshot + WAL
        # tail are authoritative, re-consulting the source would
        # duplicate every clause.
        out.write(
            f"recovered {server.clause_count()} clauses from "
            f"{args.durability} (snapshot seq {recovered.snapshot_seq}, "
            f"{len(recovered.records)} WAL records replayed)\n"
        )
    else:
        with open(args.file, encoding="utf-8") as handle:
            count = server.consult_text(handle.read())
        out.write(f"consulted {count} clauses into {num_shards} shard(s)\n")
    if durability is not None:
        out.write(
            f"[wal] durability on: dir={args.durability} "
            f"flush={args.durability_flush}\n"
        )
    if args.disk:
        server.pin_module("user", Residency.DISK)
        out.write("shard programs pinned to the simulated disks\n")
    if backend == "processes":
        server.start()
        out.write(f"[parallel] {num_shards} shard worker process(es) up\n")
    service = RetrievalService(
        server,
        args.host,
        args.port,
        max_in_flight=args.max_in_flight,
        queue_limit=args.queue_limit,
        default_deadline_s=(
            args.default_deadline_ms / 1000.0
            if args.default_deadline_ms > 0 else None
        ),
        obs=obs,
    )
    try:
        host, port = service.start()
        # Publish a one-node manifest: this instance is a complete
        # single-replica cluster, so `client --manifest` answers and
        # versioned mutations are stale-checkable against it.
        from .cluster import ClusterManifest, ManifestHolder

        service.manifest_holder = ManifestHolder(
            ClusterManifest(
                num_shards=1,
                policy=args.shard_by,
                version=1,
                replicas={0: (f"{host}:{port}",)},
            )
        )
        out.write(f"[net] serving on {host}:{port}\n")
        if hasattr(out, "flush"):
            out.flush()
        service.serve(args.max_requests)
    except KeyboardInterrupt:
        service.drain()  # a no-op once serve() has drained
    finally:
        if backend == "processes" or durability is not None:
            server.close()
    out.write(format_net_report(obs.registry) + "\n")
    return 0


def _workers_arg(spec: str) -> tuple[str, int | None]:
    """``--workers threads | processes | processes:N`` as (backend,
    shards), shards ``None`` unless N overrides ``--shards``."""
    if spec in ("threads", "processes"):
        return spec, None
    backend, _, count = spec.partition(":")
    if backend == "processes" and count.isdecimal() and int(count) >= 1:
        return backend, int(count)
    raise argparse.ArgumentTypeError(
        f"expected threads, processes or processes:N with N >= 1, "
        f"not {spec!r}"
    )


def _cmd_client(args, out) -> int:
    """One-shot client: retrieve goals from a running `serve` instance."""
    from .net import DeadlineExceeded, NetError, RetrievalClient
    from .report import format_retrieval

    mode = SearchMode(args.mode) if args.mode else None
    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None
    goals = [read_term(text) for text in args.goal]
    try:
        with RetrievalClient(args.host, args.port) as client:
            for query_text in args.solve:
                # The server applies the cap; a solution frame carries
                # its bindings sorted by name.
                _print_answers(
                    query_text,
                    client.solve(
                        read_term(query_text),
                        mode=mode,
                        deadline_s=deadline_s,
                        max_solutions=args.max_solutions,
                    ),
                    None, out,
                )
            for text in args.assert_clauses:
                version, _, _ = client.mutate(
                    "assertz", read_term(text), deadline_s=deadline_s
                )
                out.write(f"asserted {text.strip()} (version {version})\n")
            for text in args.retract:
                version, _, removed = client.mutate(
                    "retract", read_term(text), deadline_s=deadline_s
                )
                if removed is None:
                    out.write(f"retract {text.strip()}: false\n")
                else:
                    out.write(f"retracted {removed} (version {version})\n")
            if args.manifest:
                out.write(client.manifest().to_json() + "\n")
            wrote = (
                args.assert_clauses or args.retract or args.manifest
            )
            if not goals and not args.solve and not wrote:
                client.ping()
                out.write("pong\n")
            elif args.batch:
                results = client.retrieve_batch(
                    goals, mode=mode, deadline_s=deadline_s
                )
            else:
                results = [
                    client.retrieve(goal, mode=mode, deadline_s=deadline_s)
                    for goal in goals
                ]
            if goals:
                for result in results:
                    out.write(format_retrieval(result.goal, result.stats) + "\n")
                    for clause in result.candidates:
                        out.write(f"   {clause}\n")
            if args.server_stats:
                snap = client.stats()
                out.write(
                    f"[server] address={snap['address']} "
                    f"handled={snap['handled']} "
                    f"admitted_now={snap['admitted_now']} "
                    f"engine_clauses={snap['engine_clauses']}\n"
                )
    except (DeadlineExceeded, NetError, ConnectionError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return 1
    return 0


def _load_machine(
    args, out, obs: Instrumentation | None, cache_size: int = 0
) -> PrologMachine:
    kb = KnowledgeBase(obs=obs)
    with open(args.file, encoding="utf-8") as handle:
        count = kb.consult_text(handle.read())
    out.write(f"consulted {count} clauses from {args.file}\n")
    if args.disk:
        kb.module("user").pin(Residency.DISK)
        kb.sync_to_disk()
        out.write("program pinned to the simulated disk\n")
    mode = SearchMode(args.mode) if args.mode else None
    crs = ClauseRetrievalServer(
        kb,
        cache_size=cache_size,
        **({"obs": obs} if obs is not None else {}),
    )
    return PrologMachine(
        kb,
        crs=crs,
        mode=mode,
        unknown_predicates="fail",
        load_library=args.library,
        output=out,
        **({"obs": obs} if obs is not None else {}),
    )


def _write_trace(args, obs: Instrumentation | None, out) -> None:
    path = getattr(args, "trace_json", None)
    if not path or obs is None:
        return
    count = obs.recorder.write_ndjson(path)
    out.write(f"wrote {count} spans to {path}\n")


def _print_answers(goal_text: str, solutions, limit: int | None, out) -> None:
    """Render a goal and its answers; ``limit`` caps how many are shown."""
    out.write(f"?- {goal_text}.\n")
    shown = 0
    for solution in solutions:
        if not solution:
            out.write("   true\n")
        else:
            rendered = ", ".join(
                f"{name} = {term_to_string(value)}"
                for name, value in solution.items()
            )
            out.write(f"   {rendered}\n")
        shown += 1
        if limit is not None and shown >= limit:
            out.write("   ... (solution limit reached)\n")
            break
    if shown == 0:
        out.write("   false\n")


if __name__ == "__main__":
    raise SystemExit(main())
