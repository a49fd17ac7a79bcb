"""Fault injection on the wire: flaky peers, corrupt frames, retries.

The client contract under faults: transport failures (connect refused,
connection dropped mid-stream, truncated response frames) and explicit
``SERVER_BUSY``/``SHUTTING_DOWN`` rejections are retried with capped
full-jitter backoff; protocol corruption (bad magic, oversized length
prefix) is *not* retried — the peer cannot be trusted — and surfaces as
:class:`ProtocolError`.  The server side mirrors it: a client that dies
mid-frame or declares an oversized payload costs the server one
connection, never the process.

The scripted server below plays one exact per-connection script, so
every fault fires deterministically; backoff randomness is pinned by an
injected ``random.Random`` seed and a recording fake ``sleep``.

Three layers are exercised.  ``TestRequestCore`` drives the client's
request core alone over a scripted in-memory transport — no sockets, no
sleeps, no clock: that is where every policy decision lives.
``TestClientRetries`` replays the faults over real loopback sockets
through the blocking driver and ``TestAsyncClientRetries`` re-runs the
very same cases through the asyncio driver, so the two cannot drift.
"""

import asyncio
import random
import socket
import threading
import time
import types

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.net import (
    AsyncRetrievalClient,
    BackgroundService,
    BackoffPolicy,
    ConnectError,
    DeadlineExceeded,
    ProtocolError,
    RetrievalClient,
    RetrievalService,
    ServerBusy,
)
from repro.net import client as client_module
from repro.net import protocol
from repro.net.protocol import ErrorCode, FrameType
from repro.obs import Instrumentation
from repro.terms import Atom, Struct, read_term


class ScriptedServer:
    """A raw TCP peer that plays one scripted handler per connection."""

    def __init__(self, *connection_scripts, rcvbuf=None):
        self.scripts = list(connection_scripts)
        self.connections = 0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:  # inherited by every accepted connection
            self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(len(self.scripts) + 1)
        self.listener.settimeout(10.0)
        self.host, self.port = self.listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for script in self.scripts:
            try:
                conn, _ = self.listener.accept()
            except (OSError, socket.timeout):
                return
            self.connections += 1
            try:
                script(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        try:
            self.listener.close()
        except OSError:
            pass
        self._thread.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def read_request(conn) -> tuple[FrameType, int, bytes]:
    header = b""
    while len(header) < protocol.HEADER.size:
        chunk = conn.recv(protocol.HEADER.size - len(header))
        if not chunk:
            raise ConnectionError("client hung up")
        header += chunk
    frame_type, request_id, length = protocol.decode_header(header)
    payload = b""
    while len(payload) < length:
        payload += conn.recv(length - len(payload))
    return frame_type, request_id, payload


def drop_after_request(conn):
    """Read one request, then vanish before answering."""
    read_request(conn)


def truncated_pong(conn):
    """Read one request, answer with half a frame, then vanish."""
    _, request_id, _ = read_request(conn)
    frame = protocol.encode_frame(FrameType.RESP_PONG, request_id, b"")
    conn.sendall(frame[:6])


def garbage_response(conn):
    """Read one request, answer with a bad-magic header."""
    read_request(conn)
    conn.sendall(b"\xde\xad\xbe\xef" + b"\x00" * 8)


def oversized_response(conn):
    """Read one request, declare a payload far past the frame limit."""
    read_request(conn)
    conn.sendall(
        protocol.HEADER.pack(
            protocol.MAGIC, protocol.VERSION, int(FrameType.RESP_PONG),
            1, protocol.DEFAULT_MAX_FRAME_BYTES + 1,
        )
    )


def pong(conn):
    """Answer one request correctly."""
    _, request_id, _ = read_request(conn)
    conn.sendall(protocol.encode_frame(FrameType.RESP_PONG, request_id, b""))


def busy_busy_pong(conn):
    """One connection: reject twice with SERVER_BUSY, then answer."""
    for _ in range(2):
        _, request_id, _ = read_request(conn)
        conn.sendall(
            protocol.encode_frame(
                FrameType.RESP_ERROR, request_id,
                protocol.encode_error(ErrorCode.SERVER_BUSY, "full"),
            )
        )
    pong(conn)


def always_busy(conn):
    try:
        while True:
            _, request_id, _ = read_request(conn)
            conn.sendall(
                protocol.encode_frame(
                    FrameType.RESP_ERROR, request_id,
                    protocol.encode_error(ErrorCode.SERVER_BUSY, "full"),
                )
            )
    except (ConnectionError, OSError):
        pass


def never_answers(release):
    """Read one request, then sit on it until the test releases us."""

    def script(conn):
        read_request(conn)
        release.wait(10.0)

    return script


def never_reads(release):
    """Accept, then touch nothing until the test releases us."""
    return lambda conn: release.wait(10.0)


class BlockingDriver:
    """How a test builds and calls :class:`RetrievalClient`."""

    @staticmethod
    def client(host, port, **options):
        return RetrievalClient(host, port, **options)

    @staticmethod
    def call(client, verb, *args, **kwargs):
        with client:
            return getattr(client, verb)(*args, **kwargs)


class AsyncioDriver:
    """The same for :class:`AsyncRetrievalClient`, one event loop per call."""

    @staticmethod
    def client(host, port, sleep=None, **options):
        client = AsyncRetrievalClient(host, port, **options)
        if sleep is not None:
            # The asyncio client has no ``sleep=`` hook; its core does.
            async def pause(seconds):
                sleep(seconds)

            client._core.sleep = pause
        return client

    @staticmethod
    def call(client, verb, *args, **kwargs):
        async def go():
            async with client:
                return await getattr(client, verb)(*args, **kwargs)

        return asyncio.run(go())


# -- the request core alone: scripted in-memory transport ---------------------


def error_frame(code, message="scripted"):
    return lambda request_id: protocol.encode_frame(
        FrameType.RESP_ERROR, request_id, protocol.encode_error(code, message)
    )


def pong_frame(request_id):
    return protocol.encode_frame(FrameType.RESP_PONG, request_id, b"")


def mutated_frame(request_id):
    return protocol.encode_frame(
        FrameType.RESP_MUTATED, request_id,
        protocol.encode_mutated_response(7, True),
    )


def solutions(*names, done=True):
    """A solve stream: one frame per binding of ``X``, then the trailer
    (or, with ``done=False``, a hang-up where the next frame should be)."""

    def respond(request_id):
        frames = [
            protocol.encode_frame(
                FrameType.RESP_SOLUTION, request_id,
                protocol.encode_solution(i, {"X": Atom(name)}),
            )
            for i, name in enumerate(names)
        ]
        if done:
            frames.append(
                protocol.encode_frame(
                    FrameType.RESP_SOLVE_DONE, request_id,
                    protocol.encode_solve_done(len(names), True),
                )
            )
        return b"".join(frames)

    return respond


class ScriptedConnection:
    """What the core asks of a connection, answered from a script.

    One responder per request sent: a function of the request id giving
    the bytes the peer answers with, or an exception instance to raise
    from the next read.  Reading past the scripted bytes is a hang-up
    (``b""``).  The methods are coroutines that never suspend, like the
    blocking driver's, so :func:`repro.net.client._run` finishes a core
    call.
    """

    def __init__(self, *responders, send_error=None):
        self.responders = list(responders)
        self.send_error = send_error
        self.sent: list[tuple[FrameType, int]] = []
        self.timeouts: list[float | None] = []
        self.inbox = b""
        self.read_error = None
        self.closed = False

    async def send(self, data, timeout):
        frame_type, request_id, length = protocol.decode_header(
            data[: protocol.HEADER.size]
        )
        assert len(data) == protocol.HEADER.size + length
        self.sent.append((frame_type, request_id))
        self.timeouts.append(timeout)
        if self.send_error is not None:
            raise self.send_error
        answer = self.responders.pop(0)
        if isinstance(answer, BaseException):
            self.read_error = answer
        else:
            self.inbox += answer(request_id)

    async def read(self, timeout):
        if self.read_error is not None:
            raise self.read_error
        # Seven bytes at a time: frames arrive torn across reads, and
        # the tail of one read is the head of the next frame.
        data, self.inbox = self.inbox[:7], self.inbox[7:]
        return data

    def close(self):
        self.closed = True


class ScriptedTransport:
    """``connect`` hands out the scripted connections in order (an
    exception instance in their place fails that connect); ``sleep``
    only records — and advances the fake clock, when there is one."""

    def __init__(self, *connections, clock=None):
        self.pending = list(connections)
        self.connects = 0
        self.slept: list[float] = []
        self.clock = clock

    async def connect(self, host, port, timeout):
        self.connects += 1
        conn = self.pending.pop(0)
        if isinstance(conn, BaseException):
            raise conn
        return conn

    async def sleep(self, seconds):
        self.slept.append(seconds)
        if self.clock is not None:
            self.clock.now += seconds

    def core(self, **options):
        defaults = dict(
            pool_size=2, backoff=None, connect_timeout_s=1.0,
            request_timeout_s=30.0,
            max_frame_bytes=protocol.DEFAULT_MAX_FRAME_BYTES,
            obs=Instrumentation(), rng=random.Random(11),
        )
        return client_module._RequestCore(
            "scripted", 0, connect=self.connect, sleep=self.sleep,
            **{**defaults, **options},
        )


run = client_module._run


def drain(core, *args, **kwargs):
    """Every answer of one streamed call, plus the failure that ended it."""
    stream = core.answers(*args, **kwargs)
    answers, failure = [], None
    try:
        while True:
            answers.append(run(stream.__anext__()))
    except StopAsyncIteration:
        pass
    except Exception as exc:
        failure = exc
    return answers, failure


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now


class CeilingRng:
    """Full jitter pinned to its ceiling: every delay is the cap."""

    @staticmethod
    def uniform(low, high):
        return high


class TestRequestCore:
    def test_busy_is_retried_on_the_same_connection_and_pooled(self):
        busy = error_frame(ErrorCode.SERVER_BUSY)
        conn = ScriptedConnection(busy, busy, pong_frame)
        transport = ScriptedTransport(conn)
        core = transport.core(rng=random.Random(1234))
        assert run(core.answer("ping")) is True
        assert transport.connects == 1
        assert [request_id for _, request_id in conn.sent] == [1, 2, 3]
        expected_rng = random.Random(1234)
        assert transport.slept == [
            BackoffPolicy().delay(n, expected_rng) for n in range(2)
        ]
        assert core.obs.registry.total("net.client.busy_retries") == 2
        assert core.obs.registry.total("net.client.retries") == 2
        assert not conn.closed and core._idle == [conn]
        # ... and the pooled connection serves the next call.
        conn.responders.append(pong_frame)
        assert run(core.answer("ping")) is True
        assert transport.connects == 1

    def test_draining_keeps_the_connection_too(self):
        conn = ScriptedConnection(error_frame(ErrorCode.SHUTTING_DOWN), pong_frame)
        transport = ScriptedTransport(conn)
        assert run(transport.core().answer("ping")) is True
        assert transport.connects == 1 and len(transport.slept) == 1

    def test_drop_mid_frame_is_retried_for_reads_on_a_new_connection(self):
        half = ScriptedConnection(lambda request_id: pong_frame(request_id)[:6])
        whole = ScriptedConnection(pong_frame)
        transport = ScriptedTransport(half, whole)
        assert run(transport.core().answer("ping")) is True
        assert transport.connects == 2
        assert half.closed and not whole.closed

    def test_drop_mid_frame_is_not_retried_for_mutations(self):
        # The request left; whether it was applied is unknown.
        half = ScriptedConnection(lambda request_id: mutated_frame(request_id)[:9])
        transport = ScriptedTransport(half, ScriptedConnection(mutated_frame))
        core = transport.core()
        clause = read_term("p(a)")
        with pytest.raises(ConnectionError, match="mid-frame"):
            run(core.answer("mutate", "assertz", client_module.as_clause(clause)))
        assert transport.connects == 1 and transport.slept == []
        assert half.closed

    def test_frozen_and_busy_mutations_are_retried(self):
        conn = ScriptedConnection(error_frame(ErrorCode.SERVER_BUSY), mutated_frame)
        frozen = ScriptedConnection(error_frame(ErrorCode.WRITE_FROZEN))
        transport = ScriptedTransport(frozen, conn)
        core = transport.core()
        clause = client_module.as_clause(read_term("p(a)"))
        assert run(core.answer("mutate", "assertz", clause)) == (7, True, None)
        # WRITE_FROZEN proves nothing about the socket (closed), busy does.
        assert frozen.closed and not conn.closed
        assert len(transport.slept) == 2

    @pytest.mark.parametrize(
        "reply, match",
        [
            (lambda request_id: b"\xde\xad\xbe\xef" + b"\x00" * 8, "magic"),
            (
                lambda request_id: protocol.HEADER.pack(
                    protocol.MAGIC, protocol.VERSION, int(FrameType.RESP_PONG),
                    request_id, protocol.DEFAULT_MAX_FRAME_BYTES + 1,
                ),
                "frame limit",
            ),
        ],
    )
    def test_broken_framing_is_not_retried(self, reply, match):
        conn = ScriptedConnection(reply)
        transport = ScriptedTransport(conn, ScriptedConnection(pong_frame))
        with pytest.raises(ProtocolError, match=match):
            run(transport.core().answer("ping"))
        assert transport.connects == 1 and transport.slept == []
        assert conn.closed

    def test_request_id_mismatch_is_a_protocol_error(self):
        conn = ScriptedConnection(lambda request_id: pong_frame(request_id + 7))
        transport = ScriptedTransport(conn)
        with pytest.raises(ProtocolError, match="response for request 8, expected 1"):
            run(transport.core().answer("ping"))
        assert conn.closed and transport.slept == []

    def test_unexpected_frame_type_is_a_protocol_error(self):
        conn = ScriptedConnection(mutated_frame)
        with pytest.raises(ProtocolError, match="expected RESP_PONG"):
            run(ScriptedTransport(conn).core().answer("ping"))
        assert conn.closed

    def test_retries_exhaust_to_the_last_failure(self):
        busy = error_frame(ErrorCode.SERVER_BUSY)
        conn = ScriptedConnection(*[busy] * 4)
        transport = ScriptedTransport(conn)
        core = transport.core(backoff=BackoffPolicy(max_retries=3))
        with pytest.raises(ServerBusy):
            run(core.answer("ping"))
        assert len(conn.sent) == 4 and len(transport.slept) == 3

    def test_deadline_clips_the_backoff_and_stops_further_attempts(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(
            client_module, "time", types.SimpleNamespace(monotonic=clock.monotonic)
        )
        busy = error_frame(ErrorCode.SERVER_BUSY)
        conn = ScriptedConnection(busy, busy, busy)
        transport = ScriptedTransport(conn, clock=clock)
        core = transport.core(
            backoff=BackoffPolicy(base_s=10.0, cap_s=10.0, max_retries=100),
            rng=CeilingRng, request_timeout_s=None,
        )
        with pytest.raises(DeadlineExceeded, match="before the request left"):
            run(core.answer("retrieve", read_term("p(X)"), None, deadline_s=0.5))
        # One attempt; a 10 s backoff clipped to the 0.5 s left; the
        # budget is then gone, so no second attempt leaves.
        assert len(conn.sent) == 1
        assert transport.slept == [0.5]
        # The socket timeout is the deadline padded by a second, so the
        # server's own DEADLINE_EXPIRED answer can win the race.
        assert conn.timeouts == [1.5]

    def test_an_expired_budget_sends_nothing(self):
        transport = ScriptedTransport(ScriptedConnection(pong_frame))
        with pytest.raises(DeadlineExceeded):
            run(transport.core().answer("retrieve", read_term("p(X)"), deadline_s=0.0))
        assert transport.connects == 0

    def test_timeouts_are_mapped_in_one_place(self):
        # asyncio.TimeoutError is its own class on Python 3.10; both
        # spellings must map, for connect and for socket I/O alike.
        assert set(client_module._TIMEOUTS) == {TimeoutError, asyncio.TimeoutError}
        for timeout in (TimeoutError("t"), asyncio.TimeoutError("t")):
            # connect: retryable ConnectError
            transport = ScriptedTransport(timeout, ScriptedConnection(pong_frame))
            assert run(transport.core().answer("ping")) is True
            assert transport.connects == 2
            transport = ScriptedTransport(timeout, timeout)
            core = transport.core(backoff=BackoffPolicy(max_retries=1))
            with pytest.raises(ConnectError, match="cannot reach scripted:0"):
                run(core.answer("ping"))
            # read and send: DeadlineExceeded, never retried
            for conn in (
                ScriptedConnection(timeout),
                ScriptedConnection(send_error=timeout),
            ):
                transport = ScriptedTransport(conn, ScriptedConnection(pong_frame))
                with pytest.raises(DeadlineExceeded, match="no response within"):
                    run(transport.core().answer("ping"))
                assert transport.connects == 1 and conn.closed

    def test_solve_is_retried_only_before_the_first_solution(self):
        goal = read_term("p(X)")
        # Busy, then a drop before any solution: both retried.
        busy_then_drop = ScriptedConnection(
            error_frame(ErrorCode.SERVER_BUSY), solutions(done=False)
        )
        good = ScriptedConnection(solutions("a", "b"))
        transport = ScriptedTransport(busy_then_drop, good)
        answers, failure = drain(transport.core(), "solve", goal)
        assert failure is None
        assert [str(bindings["X"]) for _, bindings in answers] == ["a", "b"]
        assert transport.connects == 2 and len(transport.slept) == 2
        assert busy_then_drop.closed and not good.closed
        # A drop after the first solution surfaces: a re-run would
        # replay the answer already handed over.
        cut = ScriptedConnection(solutions("a", done=False))
        transport = ScriptedTransport(cut, ScriptedConnection(solutions("a", "b")))
        answers, failure = drain(transport.core(), "solve", goal)
        assert len(answers) == 1
        assert isinstance(failure, ConnectionError)
        assert transport.connects == 1 and transport.slept == []
        assert cut.closed

    def test_abandoned_stream_closes_its_connection(self):
        conn = ScriptedConnection(solutions("a", "b", "c"))
        core = ScriptedTransport(conn).core()
        stream = core.answers("solve", read_term("p(X)"))
        run(stream.__anext__())
        run(stream.aclose())  # frames still in flight: not poolable
        assert conn.closed and core._idle == []

    def test_pool_is_bounded_and_closed_cores_do_not_pool(self):
        first = ScriptedConnection(solutions("a"))
        second = ScriptedConnection(pong_frame)
        core = ScriptedTransport(first, second).core(pool_size=1)
        stream = core.answers("solve", read_term("p(X)"))
        run(stream.__anext__())  # holds ``first`` while the ping runs
        assert run(core.answer("ping")) is True
        with pytest.raises(StopAsyncIteration):
            run(stream.__anext__())
        assert core._idle == [second] and first.closed  # no room for it
        core.close()
        assert second.closed
        late = ScriptedConnection(pong_frame)
        core.connect = ScriptedTransport(late).connect
        assert run(core.answer("ping")) is True
        assert late.closed and core._idle == []


class TestClientRetries:
    """Every case runs through ``driver``: the blocking client here, the
    asyncio client in :class:`TestAsyncClientRetries` below."""

    driver = BlockingDriver

    def test_dropped_connection_mid_stream_is_retried(self):
        with ScriptedServer(drop_after_request, pong) as server:
            client = self.driver.client(
                server.host, server.port, sleep=lambda s: None
            )
            assert self.driver.call(client, "ping") is True
            assert server.connections == 2  # one dropped, one succeeded

    def test_truncated_response_frame_is_retried(self):
        with ScriptedServer(truncated_pong, pong) as server:
            client = self.driver.client(
                server.host, server.port, sleep=lambda s: None
            )
            assert self.driver.call(client, "ping") is True
            assert server.connections == 2

    def test_bad_magic_is_not_retried(self):
        # A peer that breaks framing cannot be trusted; fail loudly.
        with ScriptedServer(garbage_response) as server:
            client = self.driver.client(
                server.host, server.port, sleep=lambda s: None
            )
            with pytest.raises(ProtocolError, match="magic"):
                self.driver.call(client, "ping")
            assert server.connections == 1

    def test_oversized_length_prefix_is_not_retried(self):
        with ScriptedServer(oversized_response) as server:
            client = self.driver.client(
                server.host, server.port, sleep=lambda s: None
            )
            with pytest.raises(ProtocolError, match="frame limit"):
                self.driver.call(client, "ping")
            assert server.connections == 1

    def test_server_busy_retried_on_same_connection(self):
        obs = Instrumentation()
        slept = []
        with ScriptedServer(busy_busy_pong) as server:
            client = self.driver.client(
                server.host, server.port,
                sleep=slept.append, rng=random.Random(7), obs=obs,
            )
            assert self.driver.call(client, "ping") is True
            # A SERVER_BUSY answer proves the connection is healthy:
            # all three attempts must ride the same socket.
            assert server.connections == 1
        assert len(slept) == 2
        assert obs.registry.total("net.client.busy_retries") == 2
        assert obs.registry.total("net.client.retries") == 2
        assert obs.registry.total("net.client.connects") == 1

    def test_retries_exhaust_to_server_busy(self):
        with ScriptedServer(always_busy) as server:
            client = self.driver.client(
                server.host, server.port,
                backoff=BackoffPolicy(max_retries=3),
                sleep=lambda s: None,
            )
            with pytest.raises(ServerBusy):
                self.driver.call(client, "ping")

    def test_connect_refused_exhausts_to_connect_error(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        obs = Instrumentation()
        client = self.driver.client(
            "127.0.0.1", port,
            backoff=BackoffPolicy(max_retries=1), sleep=lambda s: None,
            connect_timeout_s=0.5, obs=obs,
        )
        with pytest.raises(ConnectError):
            self.driver.call(client, "ping")
        assert obs.registry.total("net.client.connects") == 2  # it *was* retried

    def test_deadline_bounds_busy_retries(self):
        # An always-busy server with a generous retry cap: the request
        # budget, not the retry count, ends the loop.
        with ScriptedServer(always_busy) as server:
            client = self.driver.client(
                server.host, server.port,
                backoff=BackoffPolicy(max_retries=10_000, base_s=0.01),
            )
            with pytest.raises(DeadlineExceeded):
                self.driver.call(
                    client, "retrieve", read_term("p(X)"), deadline_s=0.08
                )

    def test_read_timeout_is_deadline_exceeded_and_not_retried(self):
        # A peer that takes the request and never answers.  On Python
        # 3.10 the asyncio client used to let asyncio.TimeoutError (not
        # yet an alias of the builtin) escape here as a raw exception.
        release = threading.Event()
        with ScriptedServer(never_answers(release), pong) as server:
            client = self.driver.client(
                server.host, server.port,
                request_timeout_s=0.2, sleep=lambda s: None,
            )
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="no response within"):
                self.driver.call(client, "ping")
            elapsed = time.monotonic() - started
            release.set()
            assert server.connections == 1  # a timeout is not retried
        assert 0.2 <= elapsed < 5.0

    def test_peer_that_never_reads_surfaces_deadline_exceeded(self):
        # One timeout covers the send as well as the read: a request
        # bigger than the socket buffers, to a peer that accepts and
        # never reads, used to park the asyncio client in drain().
        release = threading.Event()
        goal = Struct("p", (Atom("a" * 8_000_000),))
        with ScriptedServer(never_reads(release), rcvbuf=4096) as server:
            client = self.driver.client(
                server.host, server.port, request_timeout_s=0.3
            )
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                self.driver.call(client, "retrieve", goal, deadline_s=1.0)
            elapsed = time.monotonic() - started
            release.set()
            assert server.connections == 1
        assert elapsed < 5.0  # inside the budget (plus its padding), no hang


class TestAsyncClientRetries(TestClientRetries):
    driver = AsyncioDriver


class TestBackoffPolicy:
    def test_full_jitter_is_deterministic_under_seed(self):
        policy = BackoffPolicy(base_s=0.02, multiplier=2.0, cap_s=0.5)
        first = [policy.delay(n, random.Random(99)) for n in range(6)]
        second = [policy.delay(n, random.Random(99)) for n in range(6)]
        assert first == second

    def test_delays_respect_the_exponential_cap(self):
        policy = BackoffPolicy(base_s=0.02, multiplier=2.0, cap_s=0.1)
        rng = random.Random(3)
        for attempt in range(12):
            ceiling = min(0.1, 0.02 * 2.0**attempt)
            for _ in range(50):
                assert 0.0 <= policy.delay(attempt, rng) <= ceiling

    def test_recorded_sleeps_match_the_seeded_sequence(self):
        slept = []
        with ScriptedServer(busy_busy_pong) as server:
            client = RetrievalClient(
                server.host, server.port,
                sleep=slept.append, rng=random.Random(1234),
            )
            with client:
                client.ping()
        policy = BackoffPolicy()
        expected_rng = random.Random(1234)
        expected = [policy.delay(n, expected_rng) for n in range(2)]
        assert slept == expected


class TestServerSideFaults:
    """The real service survives hostile and dying clients."""

    @pytest.fixture
    def live_service(self):
        engine = ShardedRetrievalServer(2, ShardingPolicy.FIRST_ARG)
        engine.consult_text("p(a). p(b). p(c).")
        obs = Instrumentation()
        service = RetrievalService(engine, obs=obs)
        with BackgroundService(service) as background:
            host, port = background.start()
            yield host, port, obs

    def test_client_dying_mid_frame_counts_truncated(self, live_service):
        host, port, obs = live_service
        raw = socket.create_connection((host, port))
        frame = protocol.encode_frame(
            FrameType.REQ_RETRIEVE, 1,
            protocol.encode_retrieve_request(read_term("p(X)")),
        )
        raw.sendall(frame[: len(frame) // 2])  # header + partial payload
        raw.close()
        # The service must shrug it off and keep answering others.
        with RetrievalClient(host, port) as client:
            assert len(client.retrieve(read_term("p(X)")).candidates) == 3
        assert obs.registry.total("net.truncated_frames") == 1

    def test_oversized_request_gets_bad_request_then_hangup(self, live_service):
        host, port, obs = live_service
        raw = socket.create_connection((host, port))
        raw.sendall(
            protocol.HEADER.pack(
                protocol.MAGIC, protocol.VERSION,
                int(FrameType.REQ_RETRIEVE), 9,
                protocol.DEFAULT_MAX_FRAME_BYTES + 1,
            )
        )
        header = raw.recv(protocol.HEADER.size)
        frame_type, _, length = protocol.decode_header(header)
        assert frame_type is FrameType.RESP_ERROR
        payload = raw.recv(length)
        code, message = protocol.decode_error(payload)
        assert code is ErrorCode.BAD_REQUEST
        assert "frame limit" in message
        assert raw.recv(1) == b""  # server hung up after the error
        raw.close()
        assert obs.registry.total("net.bad_frames") == 1
        # The listener is still healthy.
        with RetrievalClient(host, port) as client:
            assert client.ping() is True

    def test_bad_magic_request_drops_connection(self, live_service):
        host, port, obs = live_service
        raw = socket.create_connection((host, port))
        raw.sendall(b"\x00" * protocol.HEADER.size)
        header = raw.recv(protocol.HEADER.size)
        frame_type, _, length = protocol.decode_header(header)
        assert frame_type is FrameType.RESP_ERROR
        code, _ = protocol.decode_error(raw.recv(length))
        assert code is ErrorCode.BAD_REQUEST
        assert raw.recv(1) == b""
        raw.close()
        assert obs.registry.total("net.bad_frames") == 1
