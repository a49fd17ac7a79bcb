"""Deadline-aware clients for the CLARE wire protocol.

Two clients share one behaviour contract:

* :class:`RetrievalClient` — blocking, socket-pooled, for host Prolog
  systems and scripts;
* :class:`AsyncRetrievalClient` — the same surface on asyncio streams,
  for open-loop load generation and other event-loop drivers.

Both mirror the in-process API — ``retrieve(goal, mode=...)`` and
``retrieve_batch(goals, mode=...)`` return the very same
:class:`~repro.crs.RetrievalResult` objects (candidates *and* stats)
that :class:`~repro.cluster.ShardedRetrievalServer` hands back, which
is what the loopback differential suite pins down.

Retry policy: connect failures, dropped connections, and ``SERVER_BUSY``
/ ``SHUTTING_DOWN`` rejections are retried with capped exponential
backoff and full jitter (:class:`BackoffPolicy`); everything else is a
real answer and surfaces as the mapped exception immediately.  A
``deadline_s`` budget spans *all* attempts: each attempt sends the
remaining budget to the server (which enforces it on queue wait and
execution), the next backoff never sleeps past the deadline, and a
budget exhausted client-side raises
:class:`~repro.net.protocol.DeadlineExceeded` without another attempt.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass

from ..crs import RetrievalResult, SearchMode
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..terms import Clause, Term, as_clause
from . import protocol
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DeadlineExceeded,
    FrameType,
    ProtocolError,
    ServerBusy,
    ServerDraining,
    WritesFrozen,
)

__all__ = [
    "BackoffPolicy",
    "ConnectError",
    "RetrievalClient",
    "AsyncRetrievalClient",
    "AddressHealth",
    "FailoverClient",
]


class ConnectError(protocol.NetError):
    """The server could not be reached (after retries, if any)."""


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with full jitter.

    Attempt ``n`` (0-based) sleeps ``uniform(0, min(cap_s, base_s *
    multiplier**n))`` — the classic full-jitter scheme, which spreads a
    thundering herd of rejected clients instead of resynchronising them.
    """

    base_s: float = 0.02
    multiplier: float = 2.0
    cap_s: float = 0.5
    max_retries: int = 4

    def delay(self, attempt: int, rng: random.Random) -> float:
        ceiling = min(self.cap_s, self.base_s * self.multiplier**attempt)
        return rng.uniform(0.0, ceiling)


def _remaining(deadline: float | None) -> float | None:
    if deadline is None:
        return None
    return deadline - time.monotonic()


def _deadline_ms(deadline: float | None) -> int:
    """The whole-millisecond budget to advertise to the server."""
    remaining = _remaining(deadline)
    if remaining is None:
        return 0
    # Round up: a 0.4 ms budget must not be sent as "no deadline".
    return max(1, int(remaining * 1000))


_RETRYABLE = (ServerBusy, ServerDraining, ConnectError, ConnectionError, OSError)

#: What a *mutation* may be retried on.  A connection that dropped after
#: the request was sent leaves the server's state unknown — retrying an
#: assert there could apply it twice — so only rejections that provably
#: happened before any state change (busy, draining, a migration's
#: write freeze) and failures to connect at all are safe to retry.
_MUTATION_RETRYABLE = (ServerBusy, ServerDraining, ConnectError, WritesFrozen)



class _ClientCore:
    """Shared bookkeeping for the sync and async clients."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int,
        backoff: BackoffPolicy,
        max_frame_bytes: int,
        obs: Instrumentation | None,
        rng: random.Random | None,
    ):
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.backoff = backoff
        self.max_frame_bytes = max_frame_bytes
        self.obs = obs if obs is not None else _default_obs()
        self.rng = rng if rng is not None else random.Random()
        self._next_request_id = 1
        self._id_lock = threading.Lock()

    def take_request_id(self) -> int:
        with self._id_lock:
            request_id = self._next_request_id
            self._next_request_id = (self._next_request_id + 1) & 0xFFFFFFFF
            return request_id

    def next_delay(self, attempt: int, deadline: float | None) -> float:
        """The backoff before retry ``attempt``, clipped to the deadline."""
        delay = self.backoff.delay(attempt, self.rng)
        remaining = _remaining(deadline)
        if remaining is not None:
            if remaining <= 0:
                raise DeadlineExceeded("deadline expired between attempts")
            delay = min(delay, remaining)
        self.obs.counter("net.client.retries").inc()
        return delay

    def check_budget(self, deadline: float | None) -> None:
        remaining = _remaining(deadline)
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded("deadline expired before the request left")

    def decode_response(self, frame: protocol.Frame, request_id: int):
        if frame.request_id != request_id:
            raise ProtocolError(
                f"response for request {frame.request_id}, expected "
                f"{request_id}"
            )
        if frame.type is FrameType.RESP_ERROR:
            code, message = protocol.decode_error(frame.payload)
            raise protocol.error_to_exception(code, message)
        return frame


class _SyncConnection:
    """One framed TCP connection (blocking sockets)."""

    def __init__(self, host: str, port: int, connect_timeout: float | None):
        try:
            self.sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as exc:
            raise ConnectError(f"cannot reach {host}:{port}: {exc}") from exc
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(
        self,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
        timeout: float | None,
        max_frame_bytes: int,
    ) -> protocol.Frame:
        self.send_request(frame_type, request_id, payload, timeout)
        return self.read_frame(max_frame_bytes)

    def send_request(
        self,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
        timeout: float | None,
    ) -> None:
        self.sock.settimeout(timeout)
        self.sock.sendall(protocol.encode_frame(frame_type, request_id, payload))

    def read_frame(self, max_frame_bytes: int) -> protocol.Frame:
        header = self._read_exact(protocol.HEADER.size)
        resp_type, resp_id, length = protocol.decode_header(
            header, max_frame_bytes
        )
        return protocol.Frame(resp_type, resp_id, self._read_exact(length))

    def _read_exact(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = self.sock.recv(count - len(chunks))
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            chunks += chunk
        return bytes(chunks)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RetrievalClient:
    """Blocking, pooled wire client mirroring the in-process API."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 2,
        backoff: BackoffPolicy | None = None,
        connect_timeout_s: float | None = 5.0,
        request_timeout_s: float | None = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        obs: Instrumentation | None = None,
        rng: random.Random | None = None,
        sleep=time.sleep,
    ):
        self._core = _ClientCore(
            host, port,
            pool_size=pool_size,
            backoff=backoff if backoff is not None else BackoffPolicy(),
            max_frame_bytes=max_frame_bytes,
            obs=obs,
            rng=rng,
        )
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._sleep = sleep
        self._idle: list[_SyncConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False

    # -- public API ----------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        frame = self._request_with_retries(
            FrameType.REQ_RETRIEVE,
            lambda: protocol.encode_retrieve_request(
                goal, mode, _deadline_ms(deadline)
            ),
            deadline,
        )
        self._expect(frame, FrameType.RESP_RESULT)
        return protocol.decode_result_response(frame.payload)

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> list[RetrievalResult]:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        frame = self._request_with_retries(
            FrameType.REQ_RETRIEVE_BATCH,
            lambda: protocol.encode_batch_request(
                goals, mode, _deadline_ms(deadline)
            ),
            deadline,
        )
        self._expect(frame, FrameType.RESP_BATCH)
        return protocol.decode_batch_response(frame.payload)

    def solve(
        self,
        goal: Term,
        *,
        engine: str = "zip",
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
        max_solutions: int = 0,
    ):
        """Resolve ``goal`` server-side; yield one binding dict per answer.

        Solutions stream incrementally — each arrives as its own frame,
        so the first answer is usable long before the search finishes.
        Busy/draining rejections and connection failures are retried
        only *before* the first solution frame; once the stream has
        started, a failure surfaces immediately (the solutions already
        yielded stand, but re-running the query could replay them).
        A mid-stream ``RESP_ERROR`` (deadline expired, resource budget
        exhausted) raises the mapped exception after the partial stream.
        """
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        core = self._core
        attempt = 0
        while True:
            core.check_budget(deadline)
            stream = self._solve_attempt(
                goal, engine, mode, deadline, max_solutions
            )
            try:
                first = next(stream)
            except StopIteration:
                return
            except _RETRYABLE as exc:
                if attempt >= core.backoff.max_retries:
                    raise
                if isinstance(exc, ServerBusy):
                    core.obs.counter("net.client.busy_retries").inc()
                self._sleep(core.next_delay(attempt, deadline))
                attempt += 1
                continue
            yield first
            yield from stream  # post-first-frame failures are not retried
            return

    def _solve_attempt(
        self,
        goal: Term,
        engine: str,
        mode: SearchMode | None,
        deadline: float | None,
        max_solutions: int,
    ):
        """One connection's worth of the solve stream (no retries)."""
        core = self._core
        request_id = core.take_request_id()
        payload = protocol.encode_solve_request(
            goal, engine, mode, _deadline_ms(deadline), max_solutions
        )
        conn = self._checkout()
        keep = False
        try:
            timeout = self.request_timeout_s
            remaining = _remaining(deadline)
            if remaining is not None:
                budget = max(remaining, 0.001) + 1.0
                timeout = budget if timeout is None else min(timeout, budget)
            try:
                conn.send_request(
                    FrameType.REQ_SOLVE, request_id, payload, timeout
                )
                while True:
                    frame = conn.read_frame(core.max_frame_bytes)
                    frame = core.decode_response(frame, request_id)
                    if frame.type is FrameType.RESP_SOLVE_DONE:
                        keep = True
                        return
                    self._expect(frame, FrameType.RESP_SOLUTION)
                    _, bindings = protocol.decode_solution(frame.payload)
                    yield bindings
            except socket.timeout as exc:
                raise DeadlineExceeded(
                    f"no response within {timeout:.3f}s"
                ) from exc
        except (ServerBusy, ServerDraining):
            keep = True  # the connection itself is healthy
            raise
        finally:
            # An abandoned or failed stream may leave frames in flight;
            # the connection cannot be pooled unless the trailer arrived.
            if keep and not self._closed:
                self._checkin(conn)
            else:
                conn.close()

    def mutate(
        self,
        op: str,
        clause_or_term: Clause | Term,
        module: str = "user",
        *,
        manifest_version: int = 0,
        deadline_s: float | None = None,
        write_id: str = "",
    ) -> tuple[int, bool, Clause | None]:
        """One assert/retract on the server; returns
        ``(engine version, applied, removed clause)``.

        Only busy/draining/frozen rejections and *connect* failures are
        retried — a drop after the frame was sent leaves the mutation's
        fate unknown, and retrying could apply it twice.  Callers that
        need at-least-once across drops (the fleet's replicated writes)
        track acknowledgements themselves and stamp each logical write
        with a ``write_id`` so re-deliveries dedupe server-side.
        """
        clause = as_clause(clause_or_term)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        frame = self._request_with_retries(
            FrameType.REQ_MUTATE,
            lambda: protocol.encode_mutate_request(
                op, clause, module, manifest_version, _deadline_ms(deadline),
                write_id,
            ),
            deadline,
            retryable=_MUTATION_RETRYABLE,
        )
        self._expect(frame, FrameType.RESP_MUTATED)
        return protocol.decode_mutated_response(frame.payload)

    def assertz(
        self, clause_or_term: Clause | Term, module: str = "user", **kwargs
    ) -> int:
        """Append a clause; returns the server's new engine version."""
        version, _, _ = self.mutate("assertz", clause_or_term, module, **kwargs)
        return version

    def asserta(
        self, clause_or_term: Clause | Term, module: str = "user", **kwargs
    ) -> int:
        """Prepend a clause; returns the server's new engine version."""
        version, _, _ = self.mutate("asserta", clause_or_term, module, **kwargs)
        return version

    def retract(
        self, clause_or_term: Clause | Term, **kwargs
    ) -> Clause | None:
        """Remove the first unifying clause; returns the one removed."""
        _, _, removed = self.mutate("retract", clause_or_term, **kwargs)
        return removed

    def retract_exact(
        self, clause_or_term: Clause | Term, **kwargs
    ) -> bool:
        """Remove a structurally identical clause (replication replay)."""
        _, applied, _ = self.mutate("retract_exact", clause_or_term, **kwargs)
        return applied

    def manifest(self):
        """The node's current cluster manifest (a ``ClusterManifest``)."""
        from ..cluster.manifest import ClusterManifest

        frame = self._request_with_retries(
            FrameType.REQ_MANIFEST, lambda: b"", None
        )
        self._expect(frame, FrameType.RESP_MANIFEST)
        return ClusterManifest.from_json(
            protocol.decode_manifest_response(frame.payload)
        )

    def ping(self) -> bool:
        frame = self._request_with_retries(
            FrameType.REQ_PING, lambda: b"", None
        )
        self._expect(frame, FrameType.RESP_PONG)
        return True

    def stats(self) -> dict:
        frame = self._request_with_retries(
            FrameType.REQ_STATS, lambda: b"", None
        )
        self._expect(frame, FrameType.RESP_STATS)
        return protocol.decode_stats_response(frame.payload)

    def close(self) -> None:
        self._closed = True
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "RetrievalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport -----------------------------------------------------------

    @staticmethod
    def _expect(frame: protocol.Frame, expected: FrameType) -> None:
        if frame.type is not expected:
            raise ProtocolError(
                f"expected {expected.name}, got {frame.type.name}"
            )

    def _request_with_retries(
        self,
        frame_type: FrameType,
        make_payload,
        deadline: float | None,
        retryable: tuple = _RETRYABLE,
    ) -> protocol.Frame:
        core = self._core
        attempt = 0
        while True:
            core.check_budget(deadline)
            try:
                return self._attempt(frame_type, make_payload(), deadline)
            except retryable as exc:
                if attempt >= core.backoff.max_retries:
                    raise
                if isinstance(exc, ServerBusy):
                    core.obs.counter("net.client.busy_retries").inc()
                self._sleep(core.next_delay(attempt, deadline))
                attempt += 1

    def _attempt(
        self, frame_type: FrameType, payload: bytes, deadline: float | None
    ) -> protocol.Frame:
        core = self._core
        request_id = core.take_request_id()
        conn = self._checkout()
        keep = False
        try:
            timeout = self.request_timeout_s
            remaining = _remaining(deadline)
            if remaining is not None:
                # Pad the socket timeout slightly past the deadline so
                # the *server's* DEADLINE_EXPIRED answer wins the race.
                budget = max(remaining, 0.001) + 1.0
                timeout = budget if timeout is None else min(timeout, budget)
            try:
                frame = conn.request(
                    frame_type, request_id, payload, timeout,
                    core.max_frame_bytes,
                )
            except socket.timeout as exc:
                raise DeadlineExceeded(
                    f"no response within {timeout:.3f}s"
                ) from exc
            response = core.decode_response(frame, request_id)
            keep = True
            return response
        except (ServerBusy, ServerDraining):
            keep = True  # the connection itself is healthy
            raise
        finally:
            if keep and not self._closed:
                self._checkin(conn)
            else:
                conn.close()

    def _checkout(self) -> _SyncConnection:
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
        self._core.obs.counter("net.client.connects").inc()
        return _SyncConnection(
            self._core.host, self._core.port, self.connect_timeout_s
        )

    def _checkin(self, conn: _SyncConnection) -> None:
        with self._pool_lock:
            if len(self._idle) < self._core.pool_size:
                self._idle.append(conn)
                return
        conn.close()


class _AsyncConnection:
    """One framed TCP connection (asyncio streams)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int, connect_timeout: float | None):
        import asyncio

        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except (OSError, TimeoutError) as exc:
            raise ConnectError(f"cannot reach {host}:{port}: {exc}") from exc
        return cls(reader, writer)

    async def request(
        self,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
        timeout: float | None,
        max_frame_bytes: int,
    ) -> protocol.Frame:
        await self.send_request(frame_type, request_id, payload)
        return await self.read_frame(timeout, max_frame_bytes)

    async def send_request(
        self, frame_type: FrameType, request_id: int, payload: bytes
    ) -> None:
        self.writer.write(protocol.encode_frame(frame_type, request_id, payload))
        await self.writer.drain()

    async def read_frame(
        self, timeout: float | None, max_frame_bytes: int
    ) -> protocol.Frame:
        import asyncio

        async def _read():
            header = await self.reader.readexactly(protocol.HEADER.size)
            resp_type, resp_id, length = protocol.decode_header(
                header, max_frame_bytes
            )
            return protocol.Frame(
                resp_type, resp_id, await self.reader.readexactly(length)
            )

        try:
            return await asyncio.wait_for(_read(), timeout)
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError("connection closed mid-frame") from exc
        except TimeoutError as exc:
            raise DeadlineExceeded(f"no response within {timeout}s") from exc

    def close(self) -> None:
        try:
            self.writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass


class AsyncRetrievalClient:
    """The same contract as :class:`RetrievalClient`, on asyncio streams."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 8,
        backoff: BackoffPolicy | None = None,
        connect_timeout_s: float | None = 5.0,
        request_timeout_s: float | None = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        obs: Instrumentation | None = None,
        rng: random.Random | None = None,
    ):
        self._core = _ClientCore(
            host, port,
            pool_size=pool_size,
            backoff=backoff if backoff is not None else BackoffPolicy(),
            max_frame_bytes=max_frame_bytes,
            obs=obs,
            rng=rng,
        )
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self._idle: list[_AsyncConnection] = []
        self._closed = False

    async def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        frame = await self._request_with_retries(
            FrameType.REQ_RETRIEVE,
            lambda: protocol.encode_retrieve_request(
                goal, mode, _deadline_ms(deadline)
            ),
            deadline,
        )
        RetrievalClient._expect(frame, FrameType.RESP_RESULT)
        return protocol.decode_result_response(frame.payload)

    async def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> list[RetrievalResult]:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        frame = await self._request_with_retries(
            FrameType.REQ_RETRIEVE_BATCH,
            lambda: protocol.encode_batch_request(
                goals, mode, _deadline_ms(deadline)
            ),
            deadline,
        )
        RetrievalClient._expect(frame, FrameType.RESP_BATCH)
        return protocol.decode_batch_response(frame.payload)

    async def solve(
        self,
        goal: Term,
        *,
        engine: str = "zip",
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
        max_solutions: int = 0,
    ):
        """Async counterpart of :meth:`RetrievalClient.solve`."""
        import asyncio

        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        core = self._core
        attempt = 0
        while True:
            core.check_budget(deadline)
            stream = self._solve_attempt(
                goal, engine, mode, deadline, max_solutions
            )
            try:
                first = await stream.__anext__()
            except StopAsyncIteration:
                return
            except _RETRYABLE as exc:
                if attempt >= core.backoff.max_retries:
                    raise
                if isinstance(exc, ServerBusy):
                    core.obs.counter("net.client.busy_retries").inc()
                await asyncio.sleep(core.next_delay(attempt, deadline))
                attempt += 1
                continue
            yield first
            async for bindings in stream:
                yield bindings
            return

    async def _solve_attempt(
        self,
        goal: Term,
        engine: str,
        mode: SearchMode | None,
        deadline: float | None,
        max_solutions: int,
    ):
        core = self._core
        request_id = core.take_request_id()
        payload = protocol.encode_solve_request(
            goal, engine, mode, _deadline_ms(deadline), max_solutions
        )
        conn = await self._checkout()
        keep = False
        try:
            timeout = self.request_timeout_s
            remaining = _remaining(deadline)
            if remaining is not None:
                budget = max(remaining, 0.001) + 1.0
                timeout = budget if timeout is None else min(timeout, budget)
            await conn.send_request(FrameType.REQ_SOLVE, request_id, payload)
            while True:
                frame = await conn.read_frame(timeout, core.max_frame_bytes)
                frame = core.decode_response(frame, request_id)
                if frame.type is FrameType.RESP_SOLVE_DONE:
                    keep = True
                    return
                RetrievalClient._expect(frame, FrameType.RESP_SOLUTION)
                _, bindings = protocol.decode_solution(frame.payload)
                yield bindings
        except (ServerBusy, ServerDraining):
            keep = True
            raise
        finally:
            if keep and not self._closed:
                self._checkin(conn)
            else:
                conn.close()

    async def mutate(
        self,
        op: str,
        clause_or_term: Clause | Term,
        module: str = "user",
        *,
        manifest_version: int = 0,
        deadline_s: float | None = None,
        write_id: str = "",
    ) -> tuple[int, bool, Clause | None]:
        """Async counterpart of :meth:`RetrievalClient.mutate`.

        Same retry discipline: only rejections that provably preceded
        any state change (busy/draining/frozen) and connect failures are
        retried — a drop after the frame went out leaves the mutation's
        fate unknown, and ``write_id`` is the caller's dedupe handle.
        """
        clause = as_clause(clause_or_term)
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        frame = await self._request_with_retries(
            FrameType.REQ_MUTATE,
            lambda: protocol.encode_mutate_request(
                op, clause, module, manifest_version, _deadline_ms(deadline),
                write_id,
            ),
            deadline,
            retryable=_MUTATION_RETRYABLE,
        )
        RetrievalClient._expect(frame, FrameType.RESP_MUTATED)
        return protocol.decode_mutated_response(frame.payload)

    async def assertz(
        self, clause_or_term: Clause | Term, module: str = "user", **kwargs
    ) -> int:
        version, _, _ = await self.mutate(
            "assertz", clause_or_term, module, **kwargs
        )
        return version

    async def ping(self) -> bool:
        frame = await self._request_with_retries(
            FrameType.REQ_PING, lambda: b"", None
        )
        RetrievalClient._expect(frame, FrameType.RESP_PONG)
        return True

    async def stats(self) -> dict:
        frame = await self._request_with_retries(
            FrameType.REQ_STATS, lambda: b"", None
        )
        RetrievalClient._expect(frame, FrameType.RESP_STATS)
        return protocol.decode_stats_response(frame.payload)

    async def close(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    async def __aenter__(self) -> "AsyncRetrievalClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- transport -----------------------------------------------------------

    async def _request_with_retries(
        self,
        frame_type: FrameType,
        make_payload,
        deadline: float | None,
        retryable: tuple = _RETRYABLE,
    ) -> protocol.Frame:
        import asyncio

        core = self._core
        attempt = 0
        while True:
            core.check_budget(deadline)
            try:
                return await self._attempt(frame_type, make_payload(), deadline)
            except retryable as exc:
                if attempt >= core.backoff.max_retries:
                    raise
                if isinstance(exc, ServerBusy):
                    core.obs.counter("net.client.busy_retries").inc()
                await asyncio.sleep(core.next_delay(attempt, deadline))
                attempt += 1

    async def _attempt(
        self, frame_type: FrameType, payload: bytes, deadline: float | None
    ) -> protocol.Frame:
        core = self._core
        request_id = core.take_request_id()
        conn = await self._checkout()
        keep = False
        try:
            timeout = self.request_timeout_s
            remaining = _remaining(deadline)
            if remaining is not None:
                budget = max(remaining, 0.001) + 1.0
                timeout = budget if timeout is None else min(timeout, budget)
            frame = await conn.request(
                frame_type, request_id, payload, timeout, core.max_frame_bytes
            )
            response = core.decode_response(frame, request_id)
            keep = True
            return response
        except (ServerBusy, ServerDraining):
            keep = True
            raise
        finally:
            if keep and not self._closed:
                self._checkin(conn)
            else:
                conn.close()

    async def _checkout(self) -> _AsyncConnection:
        if self._idle:
            return self._idle.pop()
        self._core.obs.counter("net.client.connects").inc()
        return await _AsyncConnection.open(
            self._core.host, self._core.port, self.connect_timeout_s
        )

    def _checkin(self, conn: _AsyncConnection) -> None:
        if len(self._idle) < self._core.pool_size:
            self._idle.append(conn)
            return
        conn.close()


# -- replica failover ---------------------------------------------------------


@dataclass
class AddressHealth:
    """One address's recent behaviour, as seen by a failover client.

    Health is *per address*: a SERVER_BUSY from one replica quarantines
    only that replica, never its siblings — before this bookkeeping
    existed, the pooled client's retry counter conflated "this replica
    is busy" with "the service is busy" and a single overloaded replica
    masked perfectly healthy ones.
    """

    consecutive_failures: int = 0
    busy_rejections: int = 0
    quarantined_until: float = 0.0

    def note_success(self) -> None:
        self.consecutive_failures = 0
        self.quarantined_until = 0.0

    def note_busy(self, now: float, penalty_s: float) -> None:
        """A busy rejection: short quarantine, no failure escalation."""
        self.busy_rejections += 1
        self.quarantined_until = max(
            self.quarantined_until, now + penalty_s
        )

    def note_failure(self, now: float, base_s: float, cap_s: float) -> None:
        """A transport failure: exponentially growing quarantine."""
        self.consecutive_failures += 1
        penalty = min(
            cap_s, base_s * (2.0 ** (self.consecutive_failures - 1))
        )
        self.quarantined_until = max(self.quarantined_until, now + penalty)

    def available(self, now: float) -> bool:
        return now >= self.quarantined_until


def _split_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"address must be host:port, got {address!r}")
    return host, int(port)


class FailoverClient:
    """Reads with failover across a replica group's addresses.

    Wraps one single-attempt :class:`RetrievalClient` per address and
    owns the retry loop itself: an attempt pass walks the addresses
    healthy-first (preserving the given order among equally healthy
    replicas), *moving to the next address immediately* on busy,
    draining, connect, or drop failures — the backoff sleep happens only
    after a full pass found no willing replica.  That is the difference
    between same-target retry (PR 5's client) and true failover: a dead
    or busy replica costs one probe, not a retry budget.

    Non-transport answers (wrong-predicate errors, stale-manifest
    rejections, deadline expiry) surface immediately — another replica
    would answer the same.
    """

    def __init__(
        self,
        addresses: list[str] | tuple[str, ...],
        *,
        backoff: BackoffPolicy | None = None,
        busy_penalty_s: float = 0.05,
        failure_penalty_s: float = 0.1,
        failure_penalty_cap_s: float = 2.0,
        connect_timeout_s: float | None = 5.0,
        request_timeout_s: float | None = 30.0,
        pool_size: int = 2,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        obs: Instrumentation | None = None,
        rng: random.Random | None = None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        if not addresses:
            raise ValueError("a failover client needs at least one address")
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.busy_penalty_s = busy_penalty_s
        self.failure_penalty_s = failure_penalty_s
        self.failure_penalty_cap_s = failure_penalty_cap_s
        self.obs = obs if obs is not None else _default_obs()
        self.rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._clock = clock
        self._client_options = dict(
            pool_size=pool_size,
            # Inner clients never retry: one call is one attempt, and
            # this class decides where the *next* attempt goes.
            backoff=BackoffPolicy(max_retries=0),
            connect_timeout_s=connect_timeout_s,
            request_timeout_s=request_timeout_s,
            max_frame_bytes=max_frame_bytes,
            obs=obs,
            rng=rng,
        )
        self._addresses: list[str] = []
        self._clients: dict[str, RetrievalClient] = {}
        self._health: dict[str, AddressHealth] = {}
        self._lock = threading.Lock()
        self.set_addresses(list(addresses))

    # -- membership ----------------------------------------------------------

    @property
    def addresses(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._addresses)

    def set_addresses(self, addresses: list[str]) -> None:
        """Adopt a new replica set (manifest flip): keep shared health
        and pooled connections for surviving addresses, drop the rest."""
        if not addresses:
            raise ValueError("a failover client needs at least one address")
        with self._lock:
            stale = set(self._clients) - set(addresses)
            for address in addresses:
                if address not in self._clients:
                    host, port = _split_address(address)
                    self._clients[address] = RetrievalClient(
                        host, port, **self._client_options
                    )
                    self._health.setdefault(address, AddressHealth())
            dropped = [self._clients.pop(a) for a in stale]
            self._addresses = list(addresses)
        for client in dropped:
            client.close()

    def client_for(self, address: str) -> RetrievalClient:
        """Direct (non-failover) access to one replica's pooled client."""
        with self._lock:
            return self._clients[address]

    def health_of(self, address: str) -> AddressHealth:
        with self._lock:
            return self._health[address]

    # -- public API ----------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        return self._with_failover(
            lambda client, remaining: client.retrieve(
                goal, mode=mode, deadline_s=remaining
            ),
            deadline,
        )

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> list[RetrievalResult]:
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        return self._with_failover(
            lambda client, remaining: client.retrieve_batch(
                goals, mode=mode, deadline_s=remaining
            ),
            deadline,
        )

    def manifest(self):
        """The freshest manifest any replica will serve."""
        return self._with_failover(
            lambda client, remaining: client.manifest(), None
        )

    def close(self) -> None:
        with self._lock:
            clients, self._clients = dict(self._clients), {}
            self._addresses = []
        for client in clients.values():
            client.close()

    def __enter__(self) -> "FailoverClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the failover loop ---------------------------------------------------

    def _ordered_addresses(self) -> list[str]:
        """Candidate order for one pass: available first, in the replica
        order given; quarantined ones after, soonest-recovering first —
        they are still *tried* when nothing healthier answers."""
        now = self._clock()
        with self._lock:
            addresses = list(self._addresses)
            health = {a: self._health[a] for a in addresses}
        available = [a for a in addresses if health[a].available(now)]
        quarantined = sorted(
            (a for a in addresses if not health[a].available(now)),
            key=lambda a: health[a].quarantined_until,
        )
        return available + quarantined

    def _with_failover(self, call, deadline: float | None):
        attempt = 0
        while True:
            remaining = _remaining(deadline)
            if remaining is not None and remaining <= 0:
                raise DeadlineExceeded("deadline expired between attempts")
            last_exc: Exception | None = None
            for address in self._ordered_addresses():
                try:
                    client = self.client_for(address)
                except KeyError:
                    continue  # membership changed under us
                try:
                    result = call(client, _remaining(deadline))
                except ServerBusy as exc:
                    # Penalise *this* address only and probe the next
                    # replica immediately — no backoff sleep yet.
                    self.health_of(address).note_busy(
                        self._clock(), self.busy_penalty_s
                    )
                    self.obs.counter(
                        "net.failover.busy", address=address
                    ).inc()
                    last_exc = exc
                except (
                    ServerDraining, ConnectError, ConnectionError, OSError
                ) as exc:
                    self.health_of(address).note_failure(
                        self._clock(),
                        self.failure_penalty_s,
                        self.failure_penalty_cap_s,
                    )
                    self.obs.counter(
                        "net.failover.errors", address=address
                    ).inc()
                    last_exc = exc
                else:
                    self.health_of(address).note_success()
                    return result
            if attempt >= self.backoff.max_retries:
                assert last_exc is not None
                raise last_exc
            delay = self.backoff.delay(attempt, self.rng)
            remaining = _remaining(deadline)
            if remaining is not None:
                if remaining <= 0:
                    raise DeadlineExceeded("deadline expired between attempts")
                delay = min(delay, remaining)
            self.obs.counter("net.failover.passes").inc()
            self._sleep(delay)
            attempt += 1
