"""Tests for the command-line driver."""

import io

import pytest

from repro.cli import main


def run(argv) -> str:
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "family.pl"
    path.write_text(
        "parent(tom, bob). parent(bob, ann).\n"
        "grand(X, Z) :- parent(X, Y), parent(Y, Z).\n"
    )
    return str(path)


class TestTable1Command:
    def test_prints_all_rows(self):
        output = run(["table1"])
        for op in (
            "MATCH",
            "DB_STORE",
            "QUERY_STORE",
            "DB_FETCH",
            "QUERY_FETCH",
            "DB_CROSS_BOUND_FETCH",
            "QUERY_CROSS_BOUND_FETCH",
        ):
            assert op in output
        assert "235 ns" in output
        assert "4.26 Mbytes" in output


class TestMicrocodeCommand:
    def test_disassembly(self):
        output = run(["microcode"])
        assert "POLL" in output
        assert "JMAP" in output
        assert "SIGNAL_HIT" in output
        assert "CJP !HIT -> FAIL_EXIT" in output


class TestGoalCommand:
    def test_arithmetic(self):
        assert "X = 42" in run(["goal", "X is 6 * 7"])

    def test_failure(self):
        assert "false" in run(["goal", "1 = 2"])

    def test_no_variables_prints_true(self):
        assert "true" in run(["goal", "atom(foo)"])

    def test_solution_limit(self):
        output = run(["goal", "between(1, 100, X)", "--max-solutions", "3"])
        assert output.count("X = ") == 3
        assert "limit reached" in output


class TestConsultCommand:
    def test_consult_and_query(self, program_file):
        output = run(["consult", program_file, "--goal", "grand(tom, W)"])
        assert "consulted 3 clauses" in output
        assert "W = ann" in output
        assert "[stats]" in output

    def test_disk_pinning(self, program_file):
        output = run(
            ["consult", program_file, "--disk", "--goal", "parent(tom, X)"]
        )
        assert "pinned to the simulated disk" in output
        assert "X = bob" in output

    def test_forced_mode(self, program_file):
        output = run(
            [
                "consult",
                program_file,
                "--disk",
                "--mode",
                "fs2",
                "--goal",
                "parent(X, Y)",
            ]
        )
        assert "fs2" in output

    def test_library_flag(self, program_file):
        output = run(
            [
                "consult",
                program_file,
                "--library",
                "--goal",
                "append([1], [2], L)",
            ]
        )
        assert "L = [1,2]" in output

    def test_no_goals(self, program_file):
        output = run(["consult", program_file])
        assert "consulted" in output
        assert "[stats]" not in output


class TestStatsCommand:
    def test_prints_registry(self, program_file):
        output = run(
            ["stats", program_file, "--goal", "parent(tom, X)", "--disk"]
        )
        assert "pipeline metrics" in output
        assert "retrievals=" in output
        assert "cache hits/misses=" in output
        assert "lock waits=" in output
        assert "fs2 search calls=" in output
        assert "stage sim time (s):" in output
        assert "registry:" in output
        assert "crs.retrievals" in output

    def test_cache_flag_counts_hits(self, program_file):
        output = run(
            [
                "stats",
                program_file,
                "--goal",
                "grand(tom, Z)",
                "--goal",
                "grand(tom, Z)",
                "--cache",
                "16",
            ]
        )
        assert "crs.cache.hits" in output

    def test_trace_json_export(self, program_file, tmp_path):
        import json

        trace = tmp_path / "trace.ndjson"
        output = run(
            [
                "stats",
                program_file,
                "--goal",
                "parent(tom, X)",
                "--disk",
                "--trace-json",
                str(trace),
            ]
        )
        assert f"spans to {trace}" in output
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        assert spans
        names = {span["name"] for span in spans}
        assert "crs.retrieve" in names
        assert "engine.retrieve" in names

    def test_consult_trace_json(self, program_file, tmp_path):
        # --trace-json alone turns instrumentation on for plain consult.
        trace = tmp_path / "trace.ndjson"
        output = run(
            [
                "consult",
                program_file,
                "--goal",
                "parent(tom, X)",
                "--trace-json",
                str(trace),
            ]
        )
        assert "wrote" in output and "spans" in output
        assert trace.exists()


    def test_prints_sweep_seeks_and_skipped_bytes(self, tmp_path):
        path = tmp_path / "recs.pl"
        path.write_text(
            "".join(f"rec(k{i}, g{i % 8}).\n" for i in range(400))
        )
        output = run(
            ["stats", str(path), "--goal", "rec(K, g3)", "--disk",
             "--mode", "fs1+fs2"]
        )
        # 50 scattered FS1 candidates come off the disk as one run.
        assert "disk seeks=1  bytes delivered/skipped=" in output
        assert "disk.bytes_skipped" in output


class TestUserErrors:
    """Bad input is reported, not dumped as a traceback (exit code 2)."""

    @pytest.mark.parametrize("command", ["consult", "stats", "serve"])
    def test_missing_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nope.pl")
        assert main([command, missing], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "nope.pl" in err
        assert "Traceback" not in err

    def test_unreadable_file(self, tmp_path, capsys):
        # A directory is the portable "exists but cannot be read".
        assert main(["consult", str(tmp_path)], out=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("repro: error: ")

    @pytest.mark.parametrize("command", ["consult", "stats"])
    def test_goal_syntax_error(self, command, program_file, capsys):
        code = main(
            [command, program_file, "--goal", "edge(X"], out=io.StringIO()
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "line 1, column 7" in err

    def test_program_syntax_error_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.pl"
        path.write_text("edge(a, b).\nedge(a,\n")
        assert main(["consult", str(path)], out=io.StringIO()) == 2
        assert "line 3, column 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["processes:two", "processes:0", "process"])
    def test_malformed_workers_is_a_usage_error(self, spec, program_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", program_file, "--workers", spec], out=io.StringIO())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "argument --workers: expected threads, processes or " in err
        assert repr(spec) in err
        assert "Traceback" not in err


class TestDumpCommand:
    def test_dump_fact(self):
        output = run(["dump", "p(a, X, [1, 2])"])
        assert "clause p/3 (fact)" in output
        assert "Atom Pointer" in output
        assert "First DB Var" in output
        assert "Terminated List In-line" in output
        assert "record size:" in output

    def test_dump_rule(self):
        output = run(["dump", "q(X) :- p(X)"])
        assert "clause q/1 (rule)" in output
        assert "body:" in output

    def test_a_clause_too_big_for_a_record_is_a_user_error(self, capsys):
        args = ", ".join(f"a{i}" for i in range(150))  # a 621-byte record
        out = io.StringIO()
        assert main(["dump", f"p(f({args}))"], out=out) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro: error: clause record is 621 bytes; "
            "the Result Memory slot limit is 512\n"
        )
        assert out.getvalue() == ""


class TestShardedCommands:
    @pytest.fixture
    def facts_file(self, tmp_path):
        path = tmp_path / "facts.pl"
        path.write_text(
            " ".join(f"parent(p{i}, c{i})." for i in range(20))
            + "\nparent(X, orphan).\n"
        )
        return str(path)

    def test_consult_with_shards_reports_balance(self, facts_file):
        output = run(
            ["consult", facts_file, "--shards", "3", "--goal", "parent(p3, X)"]
        )
        assert "into 3 shards (policy=predicate)" in output
        assert "X = c3" in output
        assert "[batch] goals=1" in output

    def test_shard_by_first_arg_broadcast_goal(self, facts_file):
        output = run(
            [
                "consult", facts_file,
                "--shards", "4", "--shard-by", "first_arg",
                "--goal", "parent(W, W)",
            ]
        )
        # Only the catch-all parent(X, orphan) head unifies with W=W... the
        # shared-variable goal must broadcast and still find it.
        assert "W = orphan" in output

    def test_sharded_goal_with_no_solutions_prints_false(self, facts_file):
        output = run(
            ["consult", facts_file, "--shards", "2", "--goal", "parent(zz, yy)"]
        )
        assert "false" in output

    def test_sharded_stats_prints_shard_breakdown(self, facts_file):
        output = run(
            [
                "stats", facts_file,
                "--shards", "3", "--shard-by", "round_robin",
                "--goal", "parent(p1, X)", "--goal", "parent(p1, X)",
                "--cache", "8",
            ]
        )
        assert "shard breakdown" in output
        assert "pipeline metrics" in output
        assert "[batch]" in output
        # Round-robin broadcasts: the routing summary line must show it.
        assert "broadcast" in output

    def test_sharded_disk_pinning(self, facts_file):
        output = run(
            [
                "consult", facts_file, "--shards", "2", "--disk",
                "--goal", "parent(p7, X)",
            ]
        )
        assert "pinned to the simulated disks" in output
        assert "X = c7" in output

    def test_sharded_forced_mode(self, facts_file):
        output = run(
            [
                "consult", facts_file, "--shards", "2",
                "--mode", "fs1", "--goal", "parent(p2, X)",
            ]
        )
        assert "X = c2" in output


    @staticmethod
    def answer_lines(output: str) -> list[str]:
        return [line for line in output.splitlines() if line.startswith("   ")]

    def test_a_goal_means_the_same_at_any_shard_count(self):
        # `--shards N` used to head-unify the goal against the merged
        # candidates and print the rule heads (X = _Y_6, X = _Z_8).
        from pathlib import Path

        graph = str(Path(__file__).resolve().parents[1] / "examples" / "graph.pl")
        goal = ["--goal", "path(a, X)", "--max-solutions", "3"]
        single = run(["consult", graph, "--shards", "1", *goal])
        sharded = run(
            ["consult", graph, "--shards", "2", "--shard-by", "predicate", *goal]
        )
        assert self.answer_lines(single) == self.answer_lines(sharded) == [
            "   X = b", "   X = e", "   X = c",
            "   ... (solution limit reached)",
        ]
        assert "[batch] goals=1" in sharded

    def test_control_constructs_answer_the_same_at_any_shard_count(self, tmp_path):
        # Both shard counts run the one engine: negation, if-then-else,
        # findall and 5 000 levels of recursion through `->` / `;`,
        # deeper than a Python-stack interpreter reaches.
        kb = tmp_path / "kb.pl"
        kb.write_text(
            "count(0).\n"
            "count(N) :- N > 0, M is N - 1, ( M < 0 -> fail ; count(M) ).\n"
            "node(a). node(b). node(c).\n"
            "edge(a, b).\n"
            "sink(X) :- node(X), \\+ edge(X, _).\n"
        )
        goals = [
            "--goal", "count(5000)",
            "--goal", "findall(X, sink(X), L)",
            "--goal", "node(X), (edge(X, _) -> K = source ; K = sink)",
        ]
        single = run(["consult", str(kb), "--shards", "1", *goals])
        sharded = run(
            ["consult", str(kb), "--shards", "2", "--shard-by", "predicate", *goals]
        )
        assert self.answer_lines(single) == self.answer_lines(sharded) == [
            "   true",
            "   X = X, L = [b,c]",
            "   X = a, K = source",
            "   X = b, K = sink",
            "   X = c, K = sink",
        ]

    def test_a_conjunction_resolves_and_skips_the_batch_line(self, facts_file):
        # A conjunction is not one clause retrieval: it is answered, and
        # the batch accounting says why it has nothing to report.
        output = run(
            [
                "consult", facts_file, "--shards", "2",
                "--goal", "parent(p3, X), X \\= orphan",
            ]
        )
        assert self.answer_lines(output) == ["   X = c3"]
        assert "[batch] skipped: unknown predicate ,/2" in output


class TestNetCommands:
    """`serve` and `client` wired together over loopback."""

    def serve_in_background(self, program_file, extra_args=()):
        import re
        import threading
        import time

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(
                ["serve", program_file, "--shards", "2", *extra_args],
            ),
            kwargs={"out": out},
            daemon=True,
        )
        thread.start()
        port = None
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            match = re.search(r"serving on 127\.0\.0\.1:(\d+)", out.getvalue())
            if match:
                port = int(match.group(1))
                break
            time.sleep(0.02)
        assert port is not None, out.getvalue()
        return out, thread, port

    def test_serve_client_roundtrip_and_net_counters(self, program_file):
        out, thread, port = self.serve_in_background(
            program_file, extra_args=["--max-requests", "3"]
        )
        client_out = io.StringIO()
        code = main(
            ["client", "--port", str(port), "--goal", "parent(tom, X)",
             "--goal", "grand(A, B)", "--server-stats"],
            out=client_out,
        )
        assert code == 0
        text = client_out.getvalue()
        assert "parent(tom,bob)." in text
        assert "mode=" in text
        assert "[server]" in text and "engine_clauses=3" in text

        # One more request reaches --max-requests and drains the server.
        main(["client", "--port", str(port), "--goal", "parent(bob, X)"],
             out=io.StringIO())
        thread.join(timeout=20)
        assert not thread.is_alive(), "serve did not drain at --max-requests"
        served = out.getvalue()
        assert "net serving" in served
        assert "accepted=3" in served
        assert "busy_rejected=0" in served
        assert "drains=1" in served

    def test_client_ping_without_goals(self, program_file):
        out, thread, port = self.serve_in_background(
            program_file, extra_args=["--max-requests", "2"]
        )
        ping_out = io.StringIO()
        assert main(["client", "--port", str(port)], out=ping_out) == 0
        assert ping_out.getvalue() == "pong\n"
        # Pings are not admitted requests; finish the server off.
        main(["client", "--port", str(port), "--goal", "parent(tom, X)"],
             out=io.StringIO())
        main(["client", "--port", str(port), "--goal", "parent(tom, X)"],
             out=io.StringIO())
        thread.join(timeout=20)
        assert not thread.is_alive()

    def test_client_error_exit_code(self):
        import socket

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        out = io.StringIO()
        code = main(
            ["client", "--port", str(port), "--goal", "p(X)"], out=out
        )
        assert code == 1
        assert out.getvalue().startswith("error:")

    def test_client_assert_retract_and_manifest(self, program_file):
        out, thread, port = self.serve_in_background(
            program_file, extra_args=["--max-requests", "4"]
        )
        mutate_out = io.StringIO()
        code = main(
            ["client", "--port", str(port),
             "--assert", "parent(zeus, ares)", "--manifest"],
            out=mutate_out,
        )
        assert code == 0
        text = mutate_out.getvalue()
        assert "asserted parent(zeus, ares) (version" in text
        # The serve instance publishes itself as a one-node cluster.
        assert '"num_shards": 1' in text
        assert f"127.0.0.1:{port}" in text

        read_out = io.StringIO()
        main(["client", "--port", str(port), "--goal", "parent(zeus, X)"],
             out=read_out)
        assert "parent(zeus,ares)." in read_out.getvalue()

        retract_out = io.StringIO()
        main(["client", "--port", str(port),
              "--retract", "parent(zeus, ares)"], out=retract_out)
        assert "retracted parent(zeus,ares). (version" in retract_out.getvalue()

        again = io.StringIO()
        main(["client", "--port", str(port),
              "--retract", "parent(zeus, ares)"], out=again)
        assert "retract parent(zeus, ares): false" in again.getvalue()
        thread.join(timeout=20)
        assert not thread.is_alive()
