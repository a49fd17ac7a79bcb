"""The asyncio retrieval service: CLARE behind a TCP socket.

One :class:`RetrievalService` owns a listening socket, a bounded thread
pool over a :class:`~repro.cluster.ShardedRetrievalServer` (the engines
are synchronous simulated hardware; the event loop must never block on
them), and an explicit admission controller:

* at most ``max_in_flight`` requests execute concurrently (the pool's
  workers — more would just convoy on the per-shard locks);
* at most ``queue_limit`` more may wait for a worker;
* anything beyond that is rejected *immediately* with a ``SERVER_BUSY``
  frame.  Overload therefore surfaces as fast, explicit rejections
  instead of unbounded queueing latency — the p99 of admitted requests
  stays bounded by design, which the overload test asserts.

What a request frame *is* — its codecs, its response and trailer
frames, whether it is admitted or answered inline — is a row of
:data:`repro.net.protocol.VERBS`, the table the clients frame their
calls by; how an admitted request *lives* is written once, in
:meth:`RetrievalService._serve`, for every verb.

Deadlines are enforced twice: a request that spent its whole budget
waiting for a worker fails with ``DEADLINE_EXPIRED`` before touching an
engine, and the remaining budget rides into the engine fan-out as the
:meth:`~repro.cluster.ShardedRetrievalServer.retrieve_batch` ``timeout``
(a stuck shard raises :class:`~repro.crs.RetrievalTimeout`, reported on
the same error frame).

Shutdown is a *drain*: stop accepting connections, refuse new requests
on live connections (``SHUTTING_DOWN``), let every admitted request
finish and flush its response, then close connections and stop the
pool.  Nothing admitted is ever dropped.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..engine.solve import SolveEngine
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from . import protocol
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    DeadlineExceeded,
    ErrorCode,
    FrameType,
    ProtocolError,
    StaleManifest,
)

__all__ = ["RetrievalService", "BackgroundService"]


class _ClientGone(Exception):
    """The peer hung up before its answer was flushed."""


#: Wire mutation op -> the public engine method that applies it, whether
#: that method takes ``module``, and how its return value reads as the
#: ``(applied, removed clause)`` of a ``RESP_MUTATED`` frame.
_MUTATORS = {
    "assertz": ("assertz", True, lambda _: (True, None)),
    "asserta": ("asserta", True, lambda _: (True, None)),
    "retract": (
        "retract_matching", False, lambda removed: (removed is not None, removed)
    ),
    "retract_exact": ("remove_exact", False, lambda applied: (applied, None)),
}


def _answer(verb: protocol.Verb, *args) -> tuple[FrameType, str | None, tuple]:
    """One answer of ``verb``, not yet encoded: its response frame type,
    the codec its row names and the codec's arguments."""
    return verb.response, verb.encode_response, args


def _encoded(answer) -> tuple[FrameType, bytes]:
    """The frame of an answer, encoded where it is about to be written."""
    frame_type, codec, args = answer
    return frame_type, getattr(protocol, codec)(*args) if codec else b""


class RetrievalService:
    """Serve every verb of the wire protocol against one engine.

    ``engine`` is anything honouring the sharded server's contract —
    ``retrieve_batch(goals, mode=..., timeout=...)``, ``clause_count()``
    and, to take writes, the mutators and ``version`` — which in
    practice means a :class:`~repro.cluster.ShardedRetrievalServer` (a
    one-shard cluster wraps a single CLARE engine).
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 4,
        queue_limit: int = 16,
        default_deadline_s: float | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        obs: Instrumentation | None = None,
        manifest_holder=None,
    ):
        self.engine = engine
        #: optional :class:`~repro.cluster.ManifestHolder`; when set,
        #: ``REQ_MANIFEST`` serves its JSON and versioned mutations are
        #: checked against it (stale placement => ``STALE_MANIFEST``).
        self.manifest_holder = manifest_holder
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        self.queue_limit = queue_limit
        self.default_deadline_s = default_deadline_s
        self.max_frame_bytes = max_frame_bytes
        self.obs = obs if obs is not None else _default_obs()
        # One worker per admitted-and-executing request: admission
        # control is what bounds concurrency.
        self._executor = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="clare-net"
        )
        # The server's half of the verb table, by row name.  An inline
        # row's entry gives the arguments of its response encoder; an
        # admitted row's is described under "the admitted verbs".
        self._inline = {
            "ping": tuple,
            "stats": lambda: (self.stats_snapshot(),),
            "manifest": self._manifest_json,
        }
        self._verbs = {
            "retrieve": self._retrieve,
            "retrieve_batch": self._retrieve,
            "solve": self._solve,
            "mutate": self._mutate,
        }
        self._server: asyncio.AbstractServer | None = None
        self._admitted = 0  # queued + executing requests
        self._handled = 0  # admitted requests fully responded to
        self._inflight: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._drained = False
        self._done = asyncio.Event()
        self.max_requests: int | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def run(self, max_requests: int | None = None) -> None:
        """Start, serve until ``max_requests`` are handled, then drain.

        With ``max_requests=None`` this serves until cancelled; the
        drain still runs on the way out, so an outer ``CancelledError``
        (or KeyboardInterrupt turned into one) shuts down gracefully.
        """
        self.max_requests = max_requests
        if self._server is None:
            await self.start()
        try:
            await self._done.wait()
        finally:
            await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish every admitted request, flush stats."""
        if self._drained:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
        for writer in list(self._connections):
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._connections.clear()
        if self._server is not None:
            # Only now: since Python 3.12.1 ``wait_closed`` also waits
            # for every accepted connection to close.
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        self._drained = True
        self.obs.counter("net.drains").inc()
        self.obs.gauge("net.queue_depth").set(0)
        self.obs.gauge("net.in_flight").set(0)

    async def abort(self) -> None:
        """Die abruptly: drop connections and in-flight work on the floor.

        The crash-fault counterpart of :meth:`drain` (chaos testing,
        emergency shutdown): nothing is completed, nothing is flushed —
        clients see connection resets exactly as they would from a
        killed process, and recover via failover.
        """
        if self._drained:
            return
        self._draining = True
        self._drained = True
        if self._server is not None:
            self._server.close()
        for task in list(self._inflight):
            task.cancel()
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        if self._server is not None:
            await self._server.wait_closed()
        # Let the per-connection reader tasks observe their closed
        # transports and finish; torn down mid-read they would be
        # cancelled by loop shutdown and spray tracebacks instead.
        await asyncio.sleep(0.05)
        self._executor.shutdown(wait=False, cancel_futures=True)
        self.obs.counter("net.aborts").inc()
        self.obs.gauge("net.queue_depth").set(0)
        self.obs.gauge("net.in_flight").set(0)

    def stats_snapshot(self) -> dict:
        """The payload of a ``REQ_STATS`` response."""
        registry = self.obs.registry if self.obs.enabled else None
        return {
            "address": f"{self.host}:{self.port}",
            "handled": self._handled,
            "admitted_now": self._admitted,
            "draining": self._draining,
            "engine_clauses": self.engine.clause_count(),
            "registry": registry.snapshot() if registry is not None else {},
        }

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.obs.counter("net.connections").inc()
        self._connections.add(writer)
        write_lock = asyncio.Lock()

        def reply_to(request_id: int):
            """Where a request's frames go: ``await reply(frame)``."""
            return functools.partial(self._send, writer, write_lock, request_id)

        try:
            while True:
                try:
                    header = await reader.readexactly(protocol.HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break  # peer hung up (possibly mid-frame)
                try:
                    frame_type, request_id, length = protocol.decode_header(
                        header, self.max_frame_bytes
                    )
                    payload = await reader.readexactly(length)
                except ProtocolError as exc:
                    # Framing is unrecoverable: report and hang up.
                    self.obs.counter("net.bad_frames").inc()
                    await self._send_error(
                        reply_to(0), ErrorCode.BAD_REQUEST, str(exc)
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    self.obs.counter("net.truncated_frames").inc()
                    break
                self.obs.counter("net.bytes_in").inc(
                    protocol.HEADER.size + length
                )
                await self._dispatch(
                    reply_to(request_id), frame_type, request_id, payload
                )
        finally:
            self._connections.discard(writer)
            self.obs.counter("net.disconnects").inc()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, reply, frame_type: FrameType, request_id: int, payload: bytes
    ) -> None:
        verb = protocol.VERB_OF_REQUEST.get(frame_type)
        if verb is None:
            await self._send_error(
                reply, ErrorCode.BAD_REQUEST,
                f"unexpected frame type {frame_type.name}",
            )
            return
        if not verb.admitted:
            try:
                answer = self._inline[verb.name]()
            except ProtocolError as exc:
                await self._send_error(reply, ErrorCode.BAD_REQUEST, str(exc))
                return
            await reply(_encoded(_answer(verb, *answer)))
            return
        # -- admission control ------------------------------------------
        if self._draining:
            await self._send_error(
                reply, ErrorCode.SHUTTING_DOWN, "server is draining"
            )
            return
        if self._admitted >= self.max_in_flight + self.queue_limit:
            self.obs.counter("net.busy_rejected").inc()
            await self._send_error(
                reply, ErrorCode.SERVER_BUSY,
                f"{self._admitted} requests already admitted",
            )
            return
        self._admitted += 1
        self.obs.counter("net.accepted").inc()
        self._update_load_gauges()
        task = asyncio.create_task(
            self._serve(reply, verb, request_id, payload)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _manifest_json(self) -> tuple[str]:
        if self.manifest_holder is None:
            raise ProtocolError("this node serves no cluster manifest")
        return (self.manifest_holder.current.to_json(),)

    # -- the request lifecycle -----------------------------------------------

    async def _serve(
        self, reply, verb: protocol.Verb, request_id: int, payload: bytes
    ) -> None:
        """One admitted request of any verb, from decode to accounting.

        On the event loop: decode the payload, let the verb refuse the
        request before it queues, fix the deadline, and — last — encode
        and write a unary answer, so a slow reader never pins a pool
        worker.  On a pool worker (the engines are synchronous): the
        queue-wait check and the verb body.  A *streamed* answer is
        encoded and flushed from the worker frame by frame, blocking it,
        so a slow client exerts backpressure on the search instead of
        buffering unbounded solutions server-side (an answer is always
        encoded by whoever writes it).  Every failure leaves as one
        ``RESP_ERROR`` frame, except a peer that hung up; either way the
        admitted request is not done until its last frame is flushed,
        which is what drain waits on.
        """
        started = time.monotonic()
        loop = asyncio.get_running_loop()

        def flush(answer) -> None:
            sent = asyncio.run_coroutine_threadsafe(reply(_encoded(answer)), loop)
            if not sent.result():
                # Abort the search rather than resolving into a dead
                # socket: an infinite answer stream would otherwise pin
                # this worker and stall drain forever.
                raise _ClientGone

        def work(body, deadline):
            # The queue wait is over: check whether the deadline already
            # passed before touching the (uninterruptible) engines.
            queue_wait_s = time.monotonic() - started
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"deadline expired after {queue_wait_s * 1e3:.1f}"
                        "ms in the accept queue"
                    )
            with self.obs.span(
                "net.request", type=verb.request.name, request_id=request_id
            ) as span:
                span.set(queue_wait_ms=round(queue_wait_s * 1e3, 3))
                answers = body(remaining, span)
                if verb.trailer is None:
                    (answer,) = answers  # a unary verb is a stream of one
                    return answer
                for answer in answers:
                    flush(answer)
                return None  # nothing left for the loop to write

        try:
            try:
                request = getattr(protocol, verb.decode_request)(payload)
            except ProtocolError:
                raise
            except Exception as exc:
                raise ProtocolError(f"undecodable request: {exc}") from exc
            deadline_ms, body = self._verbs[verb.name](verb, request)
            deadline = None
            if deadline_ms:
                deadline = started + deadline_ms / 1000.0
            elif self.default_deadline_s is not None:
                deadline = started + self.default_deadline_s
            answer = await loop.run_in_executor(
                self._executor, work, body, deadline
            )
            if answer is not None and not await reply(_encoded(answer)):
                raise _ClientGone
        except _ClientGone:
            # Not a server error, and no error frame into a dead socket.
            self.obs.counter("net.client_disconnects").inc()
        except Exception as exc:
            code, message = protocol.exception_to_error(exc)
            if code is ErrorCode.DEADLINE_EXPIRED:
                self.obs.counter("net.deadline_expired").inc()
            await self._send_error(reply, code, message)
        finally:
            self._admitted -= 1
            self._handled += 1
            self._update_load_gauges()
            self.obs.histogram("net.request_ms").observe(
                (time.monotonic() - started) * 1e3
            )
            if (
                self.max_requests is not None
                and self._handled >= self.max_requests
            ):
                self._done.set()

    # -- the admitted verbs ----------------------------------------------------
    #
    # One method per verb, called on the loop with the decoded request.
    # It may refuse the request before it queues (raise), and returns the
    # request's ``deadline_ms`` and its body: a generator of answers
    # (``_answer``: frame type, codec name, codec arguments), run on a
    # pool worker with the budget left (seconds, or ``None``) and the
    # ``net.request`` span.

    def _retrieve(self, verb: protocol.Verb, request):
        """``retrieve`` and ``retrieve_batch``: two formats, one path."""
        goals, mode, deadline_ms = request
        single = verb.name == "retrieve"
        if single:
            goals = [goals]

        def body(remaining, span):
            span.set(goals=len(goals))
            results = self.engine.retrieve_batch(
                goals, mode=mode, timeout=remaining
            )
            yield _answer(verb, results[0] if single else results)

        return deadline_ms, body

    def _solve(self, verb: protocol.Verb, request):
        """One ``RESP_SOLUTION`` frame per answer, then the
        ``RESP_SOLVE_DONE`` trailer (search exhausted, or capped)."""
        goal, mode, deadline_ms, max_solutions = request

        def body(remaining, span):
            count = 0
            for solution in SolveEngine(self.engine, mode=mode).solve(
                goal, deadline_s=remaining, max_solutions=max_solutions
            ):
                yield _answer(verb, count, solution)
                count += 1
            span.set(solutions=count)
            capped = bool(max_solutions) and count >= max_solutions
            yield verb.trailer, "encode_solve_done", (
                count, not capped, "solution cap reached" if capped else "",
            )
            self.obs.counter("net.solves").inc()

        return deadline_ms, body

    def _mutate(self, verb: protocol.Verb, request):
        """Apply one assert/retract against this node's engine.

        A versioned request (``manifest_version != 0``) is refused with
        ``STALE_MANIFEST`` when it does not match the node's current
        manifest — the client routed under placement that no longer
        holds, and applying the write could land it on a replica set the
        cluster has already moved away from.
        """
        op, clause, module, manifest_version, deadline_ms, write_id = request
        if self.manifest_holder is not None and manifest_version:
            current = self.manifest_holder.version
            if manifest_version != current:
                self.obs.counter("net.stale_manifest").inc()
                raise StaleManifest(
                    f"request routed under manifest version "
                    f"{manifest_version}; node is at {current}"
                )
        method, takes_module, outcome = _MUTATORS[op]
        options = {"module": module} if takes_module else {}

        def body(remaining, span):
            span.set(op=op)
            applied, removed = outcome(
                getattr(self.engine, method)(
                    clause, write_id=write_id or None, **options
                )
            )
            self.obs.counter("net.mutations", op=op).inc()
            yield _answer(verb, self.engine.version, applied, removed)

        return deadline_ms, body

    # -- plumbing ------------------------------------------------------------

    def _update_load_gauges(self) -> None:
        self.obs.gauge("net.in_flight").set(
            min(self._admitted, self.max_in_flight)
        )
        self.obs.gauge("net.queue_depth").set(
            max(0, self._admitted - self.max_in_flight)
        )

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        request_id: int,
        frame: tuple[FrameType, bytes],
    ) -> bool:
        frame_type, payload = frame
        data = protocol.encode_frame(frame_type, request_id, payload)
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            self.obs.counter("net.send_failures").inc()
            return False
        self.obs.counter("net.bytes_out").inc(len(data))
        self.obs.counter("net.responses", type=frame_type.name).inc()
        return True

    async def _send_error(self, reply, code: ErrorCode, message: str) -> None:
        self.obs.counter("net.errors", code=code.name).inc()
        await reply((FrameType.RESP_ERROR, protocol.encode_error(code, message)))


class BackgroundService:
    """Run a :class:`RetrievalService` event loop on a daemon thread.

    Synchronous drivers (the CLI's client side, pytest, the ``bench/``
    harness) need a live server without owning an event loop;
    this wrapper runs one, exposes the bound address, and turns
    :meth:`stop` into a loop-side graceful drain.
    """

    def __init__(self, service: RetrievalService):
        self.service = service
        self._ready = threading.Event()
        self._stop = None  # asyncio.Event, created on the loop
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._abort = False

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start the loop thread; returns the bound (host, port).

        Idempotent: a second call (e.g. ``with BackgroundService(...)``
        plus an explicit ``start()``) waits on the same loop thread
        instead of spawning a competing one.
        """
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="clare-net-loop", daemon=True
            )
            self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("network service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"network service failed to start: {self._startup_error}"
            )
        return self.service.address

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
        except BaseException as exc:  # bind failures must not hang start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        if self._abort:
            await self.service.abort()
        else:
            await self.service.drain()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the service and join the loop thread."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Crash the service: abort instead of drain, then join."""
        self._abort = True
        self.stop(timeout)

    def __enter__(self) -> "BackgroundService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
