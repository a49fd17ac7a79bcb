"""The ``solve`` verb on the wire: framing, streaming, deadlines, drain.

The distinguishing property of ``REQ_SOLVE`` is *incremental* delivery:
every answer crosses the socket as its own self-contained frame the
moment resolution finds it.  The infinite-stream tests below only
terminate because of that — a response that buffered the full solution
set first would never come back.
"""

import threading
import time

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import SearchMode
from repro.engine import PrologError, ResourceError
from repro.net import (
    BackgroundService,
    DeadlineExceeded,
    ErrorCode,
    FrameType,
    RetrievalClient,
    RetrievalService,
)
from repro.net import protocol
from repro.obs import Instrumentation
from repro.terms import read_term, term_to_string

GRAPH = """
edge(a, b). edge(b, c). edge(c, d).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""

#: Infinitely many answers: nat(z), nat(s(z)), nat(s(s(z))), ...
NATS = """
nat(z).
nat(s(X)) :- nat(X).
"""


def make_service(text: str, **kwargs) -> RetrievalService:
    cluster = ShardedRetrievalServer(2, policy=ShardingPolicy.PREDICATE)
    cluster.consult_text(text)
    kwargs.setdefault("max_in_flight", 2)
    kwargs.setdefault("queue_limit", 4)
    return RetrievalService(cluster, **kwargs)


class TestProtocolRoundTrip:
    def test_solve_request_codec(self):
        goal = read_term("path(a, X)")
        payload = protocol.encode_solve_request(
            goal, mode=SearchMode.BOTH, deadline_ms=1500, max_solutions=7,
        )
        decoded, mode, deadline_ms, max_solutions = (
            protocol.decode_solve_request(payload)
        )
        assert term_to_string(decoded) == term_to_string(goal)
        assert mode is SearchMode.BOTH
        assert deadline_ms == 1500
        assert max_solutions == 7

    def test_solution_frame_codec(self):
        bindings = {
            "X": read_term("f(a, [1, 2 | T])"),
            "Rest": read_term("Zs"),
        }
        index, decoded = protocol.decode_solution(
            protocol.encode_solution(3, bindings)
        )
        assert index == 3
        assert set(decoded) == {"X", "Rest"}
        assert term_to_string(decoded["X"]) == term_to_string(bindings["X"])

    def test_done_frame_codec(self):
        count, completed, reason = protocol.decode_solve_done(
            protocol.encode_solve_done(41, False, "solution cap reached")
        )
        assert (count, completed, reason) == (41, False, "solution cap reached")

    def test_engine_selector_is_gone_and_its_byte_reserved(self):
        # A remote caller cannot opt a request into another engine: the
        # encoder takes no selector, and the byte that carried it must
        # stay zero (index 1 was ``interp``).
        with pytest.raises(TypeError):
            protocol.encode_solve_request(read_term("p(X)"), engine="interp")
        payload = bytearray(protocol.encode_solve_request(read_term("p(X)")))
        table_len = int.from_bytes(payload[:4], "big")
        assert payload[4 + table_len] == 0
        payload[4 + table_len] = 1
        with pytest.raises(protocol.ProtocolError, match="reserved"):
            protocol.decode_solve_request(bytes(payload))

    def test_resolution_errors_map_to_dedicated_codes(self):
        code, _ = protocol.exception_to_error(ResourceError("depth"))
        assert code is ErrorCode.RESOURCE_EXHAUSTED
        code, _ = protocol.exception_to_error(PrologError("unbound goal"))
        assert code is ErrorCode.RESOLUTION_ERROR
        assert isinstance(
            protocol.error_to_exception(ErrorCode.RESOURCE_EXHAUSTED, "x"),
            ResourceError,
        )
        assert isinstance(
            protocol.error_to_exception(ErrorCode.RESOLUTION_ERROR, "x"),
            PrologError,
        )


class TestStreaming:
    def test_finite_stream_and_trailer(self):
        with BackgroundService(make_service(GRAPH)) as background:
            host, port = background.service.address
            with RetrievalClient(host, port) as client:
                got = [
                    term_to_string(s["X"])
                    for s in client.solve(read_term("path(a, X)"))
                ]
        assert got == ["b", "c", "d"]

    def test_infinite_stream_is_capped_server_side(self):
        # Proof of incrementality: nat/1 never exhausts, so this test
        # finishing at all means answers left the server one at a time.
        with BackgroundService(make_service(NATS)) as background:
            host, port = background.service.address
            with RetrievalClient(host, port) as client:
                got = [
                    term_to_string(s["N"])
                    for s in client.solve(
                        read_term("nat(N)"), max_solutions=4
                    )
                ]
        assert got == ["z", "s(z)", "s(s(z))", "s(s(s(z)))"]

    def test_nonzero_reserved_byte_is_a_typed_bad_request(self):
        import socket

        payload = bytearray(protocol.encode_solve_request(read_term("nat(N)")))
        payload[4 + int.from_bytes(payload[:4], "big")] = 1
        with BackgroundService(make_service(NATS)) as background:
            raw = socket.create_connection(background.service.address)
            raw.settimeout(10)
            raw.sendall(
                protocol.encode_frame(FrameType.REQ_SOLVE, 5, bytes(payload))
            )
            frame_type, request_id, length = protocol.decode_header(
                raw.recv(protocol.HEADER.size)
            )
            code, message = protocol.decode_error(raw.recv(length))
            raw.close()
        assert (frame_type, request_id) == (FrameType.RESP_ERROR, 5)
        assert code is ErrorCode.BAD_REQUEST
        assert "reserved" in message

    def test_abandoning_an_infinite_stream_does_not_wedge_drain(self):
        # The client walks away mid-stream with no cap; the server must
        # notice the dead socket, abort the search, and still drain.
        obs = Instrumentation()
        service = make_service(NATS, obs=obs)
        with BackgroundService(service) as background:
            host, port = background.service.address
            client = RetrievalClient(host, port)
            stream = client.solve(read_term("nat(N)"))
            for _ in range(2):
                next(stream)
            stream.close()
            client.close()
        # Leaving the context manager drains; getting here is the test.
        assert service._drained
        # Closing the stream is the documented way to stop nat(N): a
        # hang-up, not a server error.  One failed write found the dead
        # socket; no error frame was written into it after that.
        total = obs.registry.total
        assert total("net.client_disconnects") == 1
        assert total("net.errors") == 0
        assert total("net.send_failures") == 1
        assert total("net.solves") == 0
        assert service.stats_snapshot()["admitted_now"] == 0
        assert service.stats_snapshot()["handled"] == 1

    def test_solutions_arrive_before_the_search_finishes(self):
        # Consume exactly one frame, then check the trailer has not
        # been sent: the stream is paced by the socket, not buffered.
        service = make_service(NATS)
        with BackgroundService(service) as background:
            host, port = background.service.address
            client = RetrievalClient(host, port)
            stream = client.solve(read_term("nat(N)"), max_solutions=50)
            first = next(stream)
            assert term_to_string(first["N"]) == "z"
            remaining = sum(1 for _ in stream)
            assert remaining == 49
            client.close()


class TestDeadlinesAndDrain:
    def test_deadline_mid_stream_raises_after_partial_answers(self):
        service = make_service(NATS)
        with BackgroundService(service) as background:
            host, port = background.service.address
            with RetrievalClient(host, port) as client:
                got = []
                with pytest.raises(DeadlineExceeded):
                    for solution in client.solve(
                        read_term("nat(N)"), deadline_s=0.3
                    ):
                        # Kept as terms: the writer recurses per s/1
                        # level, and 0.3 s of nat(N) can be hundreds deep.
                        got.append(solution["N"])
                # The stream delivered real answers before the budget
                # ran out — the failure is partial, not all-or-nothing.
                assert got, "expected some answers before the deadline"
                assert term_to_string(got[0]) == "z"

    def test_draining_server_rejects_new_solves_but_finishes_admitted(self):
        service = make_service(GRAPH)
        background = BackgroundService(service)
        host, port = background.start()
        client = RetrievalClient(host, port)
        results: list = []

        def consume():
            results.extend(
                term_to_string(s["X"])
                for s in client.solve(read_term("path(a, X)"))
            )

        worker = threading.Thread(target=consume)
        worker.start()
        worker.join(timeout=10)
        background.stop()
        client.close()
        assert results == ["b", "c", "d"]
        assert service._drained

    def test_default_deadline_applies_to_solve(self):
        service = make_service(NATS, default_deadline_s=0.2)
        with BackgroundService(service) as background:
            host, port = background.service.address
            with RetrievalClient(host, port) as client:
                with pytest.raises(DeadlineExceeded):
                    list(client.solve(read_term("nat(N)")))


class TestCliIntegration:
    def test_client_solve_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "graph.pl"
        source.write_text(GRAPH)
        service = make_service(GRAPH)
        with BackgroundService(service) as background:
            host, port = background.service.address
            code = main(
                [
                    "client", "--host", host, "--port", str(port),
                    "--solve", "path(a, X)",
                    "--solve", "path(z, X)",
                ]
            )
        captured = capsys.readouterr().out
        assert code == 0
        assert "X = b" in captured
        assert "X = c" in captured
        assert "false" in captured
