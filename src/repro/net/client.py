"""Deadline-aware clients for the CLARE wire protocol.

One request core, two I/O drivers.  :class:`_RequestCore` is everything
about a call that is *policy* — framing by the shared verb table
(:data:`repro.net.protocol.VERBS`), response validation, retries,
deadline, connection pool — written once as
coroutines that touch no socket.  :class:`RetrievalClient` (for host
Prolog systems and scripts) runs them over blocking sockets,
:class:`AsyncRetrievalClient` (for event-loop drivers) over asyncio
streams; :class:`FailoverClient`
spreads reads over a replica group under the same :class:`_Budget`.

Both clients mirror the in-process API — ``retrieve(goal, mode=...)``
and ``retrieve_batch(goals, mode=...)`` return the very same
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
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

from ..cluster.manifest import ClusterManifest
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


class _Budget:
    """What one logical call may still spend: wall time and retries."""

    def __init__(
        self, backoff: BackoffPolicy, rng: random.Random, deadline_s: float | None
    ):
        self.backoff = backoff
        self.rng = rng
        self.deadline = None if deadline_s is None else time.monotonic() + deadline_s
        self.attempt = 0

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check(self, when: str) -> None:
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(f"deadline expired {when}")

    def deadline_ms(self) -> int:
        """The whole-millisecond budget to advertise to the server."""
        remaining = self.remaining()
        if remaining is None:
            return 0
        # Round up: a 0.4 ms budget must not be sent as "no deadline".
        return max(1, int(remaining * 1000))

    def io_timeout(self, request_timeout_s: float | None) -> float | None:
        """The bound on each socket send and read of one attempt."""
        remaining = self.remaining()
        if remaining is None:
            return request_timeout_s
        # Pad the socket timeout slightly past the deadline so the
        # *server's* DEADLINE_EXPIRED answer wins the race.
        padded = max(remaining, 0.001) + 1.0
        return padded if request_timeout_s is None else min(request_timeout_s, padded)

    def next_delay(self, exc: Exception) -> float:
        """The backoff before the next retry, clipped to the deadline;
        raises ``exc`` (the failure being retried) when none is left."""
        if self.attempt >= self.backoff.max_retries:
            raise exc
        delay = self.backoff.delay(self.attempt, self.rng)
        remaining = self.remaining()
        if remaining is not None:
            if remaining <= 0:
                raise DeadlineExceeded("deadline expired between attempts")
            delay = min(delay, remaining)
        self.attempt += 1
        return delay


#: ``asyncio.TimeoutError`` is an alias of the builtin only from Python
#: 3.11; on 3.10 ``except TimeoutError`` (or ``OSError``) lets it through.
#: Only there does this module import asyncio up front.
if sys.version_info >= (3, 11):
    _TIMEOUTS = (TimeoutError,)
else:
    import asyncio

    _TIMEOUTS = (TimeoutError, asyncio.TimeoutError)

_RETRYABLE = (ServerBusy, ServerDraining, ConnectError, ConnectionError, OSError)

#: What a *mutation* may be retried on: only what provably happened
#: before any state change (why: :meth:`RetrievalClient.mutate`).
_MUTATION_RETRYABLE = (ServerBusy, ServerDraining, ConnectError, WritesFrozen)


@dataclass
class _RequestCore:
    """The I/O-free half of a client: every decision, no socket.

    Coroutines over two awaitables the driver supplies: ``sleep(s)`` and
    ``connect(host, port, timeout)``, which gives a connection with
    awaitable ``send(data, timeout)`` (all of it) and ``read(timeout)``
    (whatever bytes arrive next, ``b""`` once the peer has hung up) and
    a synchronous ``close()``.  The asyncio driver's suspend; the
    blocking driver's return without suspending, so :func:`_run`
    finishes the same coroutine in one step.
    """

    host: str
    port: int
    pool_size: int
    backoff: BackoffPolicy | None
    connect_timeout_s: float | None
    request_timeout_s: float | None
    max_frame_bytes: int
    obs: Instrumentation | None
    rng: random.Random | None
    connect: Callable
    sleep: Callable

    def __post_init__(self):
        self.backoff = self.backoff or BackoffPolicy()
        self.obs = self.obs if self.obs is not None else _default_obs()
        self.rng = self.rng or random.Random()
        self.closed = False
        self._idle: list = []
        self._next_request_id = 1
        #: guards the pool and the id counter: a blocking client is
        #: shared between threads (an event-loop driver never contends)
        self._lock = threading.Lock()

    # -- the request -----------------------------------------------------------

    async def answers(self, name: str, *args, deadline_s=None, pick=None, **options):
        """One call of verb ``name``, attempts and backoff included: its
        answers (one for a unary verb), each decoded and ``pick``-ed."""
        verb = protocol.VERBS[name]
        # Which failures may be retried is the one column only a client
        # reads, so it lives here and not in the table.
        retryable = _MUTATION_RETRYABLE if name == "mutate" else _RETRYABLE
        budget = _Budget(self.backoff, self.rng, deadline_s)
        while True:
            budget.check("before the request left")
            payload = b""
            if verb.encode_request is not None:
                payload = getattr(protocol, verb.encode_request)(
                    *args, deadline_ms=budget.deadline_ms(), **options
                )
            with self._lock:
                request_id = self._next_request_id
                self._next_request_id = (request_id + 1) & 0xFFFFFFFF
            timeout = budget.io_timeout(self.request_timeout_s)
            streaming = False  # an answer is out: no retry (see solve)
            try:
                conn = await self._checkout()
                keep = False
                try:
                    request = protocol.encode_frame(verb.request, request_id, payload)
                    await conn.send(request, timeout)
                    while True:
                        frame = await self._read_frame(conn, request_id, timeout)
                        if frame.type is verb.trailer:
                            keep = True
                            return
                        if frame.type is not verb.response:
                            raise ProtocolError(
                                f"expected {verb.response.name}, got {frame.type.name}"
                            )
                        answer = True
                        if verb.decode_response is not None:
                            decode = getattr(protocol, verb.decode_response)
                            answer = decode(frame.payload)
                        if pick is not None:
                            answer = pick(answer)
                        if verb.trailer is None:
                            keep = True
                            break
                        streaming = True
                        yield answer
                except (ServerBusy, ServerDraining):
                    keep = True  # the connection itself is healthy
                    raise
                except _TIMEOUTS as exc:  # on the send or on a read
                    raise DeadlineExceeded(
                        f"no response within {timeout:.3f}s"
                    ) from exc
                finally:
                    # An abandoned or failed exchange may leave frames
                    # in flight; the connection cannot be pooled unless
                    # its last frame arrived.
                    self._settle(conn, keep)
            except retryable as exc:
                if streaming:
                    raise
                delay = budget.next_delay(exc)
                if isinstance(exc, ServerBusy):
                    self.obs.counter("net.client.busy_retries").inc()
                self.obs.counter("net.client.retries").inc()
                await self.sleep(delay)
                continue
            yield answer
            return

    async def answer(self, name: str, *args, **kwargs):
        """The one answer of a unary verb."""
        answer = None
        async for answer in self.answers(name, *args, **kwargs):
            pass
        return answer

    async def _read(self, conn, count: int, timeout: float | None) -> bytes:
        """Exactly ``count`` bytes; what arrived beyond them waits on the
        connection (``unread``) for the next frame, pooled with it."""
        while len(conn.unread) < count:
            chunk = await conn.read(timeout)
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            conn.unread += chunk
        data = bytes(conn.unread[:count])
        del conn.unread[:count]
        return data

    async def _read_frame(self, conn, request_id: int, timeout: float | None):
        """The next frame, validated: framing, correlation id, and a
        ``RESP_ERROR`` raised as the exception it maps to."""
        header = await self._read(conn, protocol.HEADER.size, timeout)
        frame_type, frame_id, length = protocol.decode_header(
            header, self.max_frame_bytes
        )
        payload = await self._read(conn, length, timeout)
        if frame_id != request_id:
            raise ProtocolError(
                f"response for request {frame_id}, expected {request_id}"
            )
        if frame_type is FrameType.RESP_ERROR:
            code, message = protocol.decode_error(payload)
            raise protocol.error_to_exception(code, message)
        return protocol.Frame(frame_type, frame_id, payload)

    # -- the pool --------------------------------------------------------------

    async def _checkout(self):
        """An idle pooled connection, else a new one."""
        with self._lock:
            if self._idle:
                return self._idle.pop()
        self.obs.counter("net.client.connects").inc()
        try:
            conn = await self.connect(self.host, self.port, self.connect_timeout_s)
        except (OSError, *_TIMEOUTS) as exc:
            raise ConnectError(
                f"cannot reach {self.host}:{self.port}: {exc}"
            ) from exc
        conn.unread = bytearray()
        return conn

    def _settle(self, conn, keep: bool) -> None:
        """Pool ``conn`` if it is reusable and there is room; else close."""
        with self._lock:
            if keep and not self.closed and len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            self.closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _run(step):
    """Finish a core coroutine on the blocking driver.  Nothing it
    awaits ever suspends there, so one ``send`` runs it to its result."""
    try:
        step.send(None)
    except StopIteration as done:
        return done.value
    step.close()
    raise RuntimeError("blocking I/O suspended its caller")


class _SyncConnection:
    """One TCP connection on a blocking socket.  Coroutines in form
    only: each method blocks, then returns without having suspended."""

    def __init__(self, sock: socket.socket):
        self.sock = sock

    @classmethod
    async def open(cls, host: str, port: int, timeout: float | None):
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    async def send(self, data: bytes, timeout: float | None) -> None:
        self.sock.settimeout(timeout)
        self.sock.sendall(data)

    async def read(self, timeout: float | None) -> bytes:
        self.sock.settimeout(timeout)
        return self.sock.recv(65536)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class RetrievalClient:
    """Blocking, pooled wire client mirroring the in-process API.

    The verb methods are the public surface of *both* clients
    (:class:`AsyncRetrievalClient` binds the same functions): each hands
    its arguments to the core through ``_answer`` / ``_answers``.
    """

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
        async def pause(seconds: float) -> None:
            sleep(seconds)

        self._core = _RequestCore(
            host, port, pool_size, backoff, connect_timeout_s,
            request_timeout_s, max_frame_bytes, obs, rng,
            _SyncConnection.open, pause,
        )

    # -- public API ----------------------------------------------------------

    def retrieve(
        self,
        goal: Term,
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> RetrievalResult:
        return self._answer("retrieve", goal, mode, deadline_s=deadline_s)

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> list[RetrievalResult]:
        return self._answer("retrieve_batch", goals, mode, deadline_s=deadline_s)

    def solve(
        self,
        goal: Term,
        *,
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
        return self._answers(
            "solve", goal, mode, max_solutions=max_solutions,
            deadline_s=deadline_s, pick=itemgetter(1),
        )

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
        return self._answer(
            "mutate", op, as_clause(clause_or_term), module,
            manifest_version=manifest_version, write_id=write_id,
            deadline_s=deadline_s,
        )

    def assertz(
        self, clause_or_term: Clause | Term, module: str = "user", **kwargs
    ) -> int:
        """Append a clause; returns the server's new engine version."""
        return self._mutation("assertz", 0, clause_or_term, module, **kwargs)

    def asserta(
        self, clause_or_term: Clause | Term, module: str = "user", **kwargs
    ) -> int:
        """Prepend a clause; returns the server's new engine version."""
        return self._mutation("asserta", 0, clause_or_term, module, **kwargs)

    def retract(self, clause_or_term: Clause | Term, **kwargs) -> Clause | None:
        """Remove the first unifying clause; returns the one removed."""
        return self._mutation("retract", 2, clause_or_term, **kwargs)

    def retract_exact(self, clause_or_term: Clause | Term, **kwargs) -> bool:
        """Remove a structurally identical clause (replication replay)."""
        return self._mutation("retract_exact", 1, clause_or_term, **kwargs)

    def _mutation(self, op: str, field: int, clause_or_term, *args, **kwargs):
        """:meth:`mutate` (and its keywords), answering one field."""
        return self._answer(
            "mutate", op, as_clause(clause_or_term), *args,
            pick=itemgetter(field), **kwargs,
        )

    def manifest(self) -> ClusterManifest:
        """The node's current cluster manifest."""
        return self._answer("manifest", pick=ClusterManifest.from_json)

    def ping(self) -> bool:
        return self._answer("ping")

    def stats(self) -> dict:
        return self._answer("stats")

    def close(self) -> None:
        self._core.close()

    def __enter__(self) -> "RetrievalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the driver ----------------------------------------------------------

    def _answer(self, name: str, *args, **kwargs):
        return _run(self._core.answer(name, *args, **kwargs))

    def _answers(self, name: str, *args, **kwargs):
        stream = self._core.answers(name, *args, **kwargs)
        try:
            while True:
                yield _run(stream.__anext__())
        except StopAsyncIteration:
            return
        finally:
            _run(stream.aclose())  # abandoned mid-stream: closes the socket


class _AsyncConnection:
    """One TCP connection on asyncio streams, imported where it runs:
    on a live event loop, never in a process that drives none."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int, timeout: float | None):
        import asyncio

        return cls(
            *await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
        )

    async def send(self, data: bytes, timeout: float | None) -> None:
        import asyncio

        self.writer.write(data)
        # Bounded like the reads: a peer that stops reading must not
        # park the caller in drain() past its deadline.
        if self.writer.transport.get_write_buffer_size():  # else all is sent
            await asyncio.wait_for(self.writer.drain(), timeout)

    async def read(self, timeout: float | None) -> bytes:
        import asyncio

        return await asyncio.wait_for(self.reader.read(65536), timeout)

    def close(self) -> None:
        try:
            self.writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass


class AsyncRetrievalClient:
    """The same contract as :class:`RetrievalClient`, on asyncio streams.

    The verbs *are* :class:`RetrievalClient`'s functions over the core's
    own coroutine and async generator, so every unary verb returns an
    awaitable and ``solve`` an async iterator.
    """

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
        import asyncio

        self._core = _RequestCore(
            host, port, pool_size, backoff, connect_timeout_s,
            request_timeout_s, max_frame_bytes, obs, rng,
            _AsyncConnection.open, asyncio.sleep,
        )
        self._answer = self._core.answer
        self._answers = self._core.answers

    retrieve = RetrievalClient.retrieve
    retrieve_batch = RetrievalClient.retrieve_batch
    solve = RetrievalClient.solve
    mutate = RetrievalClient.mutate
    assertz = RetrievalClient.assertz
    asserta = RetrievalClient.asserta
    retract = RetrievalClient.retract
    retract_exact = RetrievalClient.retract_exact
    _mutation = RetrievalClient._mutation
    manifest = RetrievalClient.manifest
    ping = RetrievalClient.ping
    stats = RetrievalClient.stats

    async def close(self) -> None:
        self._core.close()

    async def __aenter__(self) -> "AsyncRetrievalClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


# -- replica failover ---------------------------------------------------------


#: Failover quarantines: a busy replica sits out ``BUSY_PENALTY_S``; a
#: transport failure ``FAILURE_PENALTY_S``, doubling per consecutive
#: failure up to ``FAILURE_PENALTY_CAP_S``.
BUSY_PENALTY_S = 0.05
FAILURE_PENALTY_S = 0.1
FAILURE_PENALTY_CAP_S = 2.0


@dataclass
class AddressHealth:
    """One address's recent behaviour, as seen by a failover client.

    Health is *per address*: a SERVER_BUSY from one replica quarantines
    only that replica, never its siblings — "this replica is busy" is
    not "the service is busy", and one overloaded replica must not mask
    perfectly healthy ones.
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
    after a full pass found no willing replica: a dead or busy replica
    costs one probe, not a retry budget.

    Non-transport answers (wrong-predicate errors, stale-manifest
    rejections, deadline expiry) surface immediately — another replica
    would answer the same.
    """

    def __init__(
        self,
        addresses: list[str] | tuple[str, ...],
        *,
        backoff: BackoffPolicy | None = None,
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
        return self._with_failover(
            lambda client, left: client.retrieve(goal, mode, deadline_s=left),
            deadline_s,
        )

    def retrieve_batch(
        self,
        goals: list[Term],
        mode: SearchMode | None = None,
        deadline_s: float | None = None,
    ) -> list[RetrievalResult]:
        return self._with_failover(
            lambda client, left: client.retrieve_batch(goals, mode, deadline_s=left),
            deadline_s,
        )

    def manifest(self):
        """The freshest manifest any replica will serve."""
        return self._with_failover(lambda client, left: client.manifest(), None)

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

    def _with_failover(self, call, deadline_s: float | None):
        budget = _Budget(self.backoff, self.rng, deadline_s)
        while True:
            budget.check("between attempts")
            last_exc: Exception | None = None
            for address in self._ordered_addresses():
                try:
                    client = self.client_for(address)
                except KeyError:
                    continue  # membership changed under us
                try:
                    result = call(client, budget.remaining())
                except ServerBusy as exc:
                    # Penalise *this* address only and probe the next
                    # replica immediately — no backoff sleep yet.
                    self.health_of(address).note_busy(
                        self._clock(), BUSY_PENALTY_S
                    )
                    self.obs.counter(
                        "net.failover.busy", address=address
                    ).inc()
                    last_exc = exc
                except (
                    ServerDraining, ConnectError, ConnectionError, OSError
                ) as exc:
                    self.health_of(address).note_failure(
                        self._clock(), FAILURE_PENALTY_S, FAILURE_PENALTY_CAP_S
                    )
                    self.obs.counter(
                        "net.failover.errors", address=address
                    ).inc()
                    last_exc = exc
                else:
                    self.health_of(address).note_success()
                    return result
            assert last_exc is not None
            delay = budget.next_delay(last_exc)
            self.obs.counter("net.failover.passes").inc()
            self._sleep(delay)
