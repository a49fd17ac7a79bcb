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

Deadlines are enforced twice: a request that spent its whole budget
waiting for a worker fails with ``DEADLINE_EXPIRED`` before touching an
engine, and the remaining budget rides into the engine fan-out as the
:meth:`~repro.cluster.ShardedRetrievalServer.retrieve` ``timeout`` (a
stuck shard raises :class:`~repro.crs.RetrievalTimeout`, reported on
the same error frame).

Shutdown is a *drain*: stop accepting connections, refuse new requests
on live connections (``SHUTTING_DOWN``), let every admitted request
finish and flush its response, then close connections and stop the
pool.  Nothing admitted is ever dropped.
"""

from __future__ import annotations

import asyncio
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
)

__all__ = ["RetrievalService", "BackgroundService"]


class RetrievalService:
    """Serve ``retrieve``/``retrieve_batch`` over the wire protocol.

    ``engine`` is anything honouring the sharded server's contract —
    ``retrieve(goal, mode=..., timeout=...)`` and ``retrieve_batch`` —
    which in practice means a :class:`~repro.cluster.ShardedRetrievalServer`
    (a one-shard cluster wraps a single CLARE engine).
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 4,
        executor_workers: int | None = None,
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
        # Admission control bounds concurrency at ``max_in_flight``
        # requests whatever the pool size.
        self.executor_workers = (
            executor_workers if executor_workers is not None else max_in_flight
        )
        if self.executor_workers < max_in_flight:
            raise ValueError(
                "executor_workers must be >= max_in_flight or admitted "
                "requests would starve in the pool queue"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_workers, thread_name_prefix="clare-net"
        )
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
            await self._server.wait_closed()
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
            await self._server.wait_closed()
        for task in list(self._inflight):
            task.cancel()
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
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
                        writer, write_lock, 0, ErrorCode.BAD_REQUEST, str(exc)
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    self.obs.counter("net.truncated_frames").inc()
                    break
                self.obs.counter("net.bytes_in").inc(
                    protocol.HEADER.size + length
                )
                await self._dispatch(
                    writer, write_lock, frame_type, request_id, payload
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
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
    ) -> None:
        if frame_type is FrameType.REQ_PING:
            await self._send(writer, write_lock, FrameType.RESP_PONG,
                             request_id, b"")
            return
        if frame_type is FrameType.REQ_STATS:
            await self._send(
                writer, write_lock, FrameType.RESP_STATS, request_id,
                protocol.encode_stats_response(self.stats_snapshot()),
            )
            return
        if frame_type is FrameType.REQ_MANIFEST:
            if self.manifest_holder is None:
                await self._send_error(
                    writer, write_lock, request_id, ErrorCode.BAD_REQUEST,
                    "this node serves no cluster manifest",
                )
                return
            await self._send(
                writer, write_lock, FrameType.RESP_MANIFEST, request_id,
                protocol.encode_manifest_response(
                    self.manifest_holder.current.to_json()
                ),
            )
            return
        if frame_type not in (
            FrameType.REQ_RETRIEVE, FrameType.REQ_RETRIEVE_BATCH,
            FrameType.REQ_SOLVE, FrameType.REQ_MUTATE,
        ):
            await self._send_error(
                writer, write_lock, request_id, ErrorCode.BAD_REQUEST,
                f"unexpected frame type {frame_type.name}",
            )
            return
        # -- admission control ------------------------------------------
        if self._draining:
            await self._send_error(
                writer, write_lock, request_id, ErrorCode.SHUTTING_DOWN,
                "server is draining",
            )
            return
        if self._admitted >= self.max_in_flight + self.queue_limit:
            self.obs.counter("net.busy_rejected").inc()
            await self._send_error(
                writer, write_lock, request_id, ErrorCode.SERVER_BUSY,
                f"{self._admitted} requests already admitted",
            )
            return
        self._admitted += 1
        self.obs.counter("net.accepted").inc()
        self._update_load_gauges()
        if frame_type is FrameType.REQ_SOLVE:
            handler = self._serve_solve
        elif frame_type is FrameType.REQ_MUTATE:
            handler = self._serve_mutate
        else:
            handler = self._serve_request
        task = asyncio.create_task(
            handler(writer, write_lock, frame_type, request_id, payload)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    # -- request execution ---------------------------------------------------

    async def _serve_request(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
    ) -> None:
        started = time.monotonic()
        batch = frame_type is FrameType.REQ_RETRIEVE_BATCH
        try:
            try:
                if batch:
                    goals, mode, deadline_ms = protocol.decode_batch_request(
                        payload
                    )
                else:
                    goal, mode, deadline_ms = protocol.decode_retrieve_request(
                        payload
                    )
                    goals = [goal]
            except Exception as exc:
                code, message = protocol.exception_to_error(
                    exc if isinstance(exc, ProtocolError)
                    else ProtocolError(f"undecodable request: {exc}")
                )
                await self._send_error(
                    writer, write_lock, request_id, code, message
                )
                return
            deadline = None
            if deadline_ms:
                deadline = started + deadline_ms / 1000.0
            elif self.default_deadline_s is not None:
                deadline = started + self.default_deadline_s

            def work():
                # Runs on a pool worker: the queue wait is over, check
                # whether the deadline already passed before touching
                # the (uninterruptible) simulated hardware.
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
                    "net.request",
                    type=frame_type.name,
                    request_id=request_id,
                    goals=len(goals),
                ) as span:
                    span.set(queue_wait_ms=round(queue_wait_s * 1e3, 3))
                    return self.engine.retrieve_batch(
                        goals, mode=mode, timeout=remaining
                    )

            loop = asyncio.get_running_loop()
            try:
                results = await loop.run_in_executor(self._executor, work)
            except Exception as exc:
                code, message = protocol.exception_to_error(exc)
                if code is ErrorCode.DEADLINE_EXPIRED:
                    self.obs.counter("net.deadline_expired").inc()
                await self._send_error(
                    writer, write_lock, request_id, code, message
                )
                return
            # One execution path; only the two frame formats differ.
            if batch:
                response = protocol.encode_batch_response(results)
                response_type = FrameType.RESP_BATCH
            else:
                response = protocol.encode_result_response(results[0])
                response_type = FrameType.RESP_RESULT
            await self._send(
                writer, write_lock, response_type, request_id, response
            )
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

    async def _serve_mutate(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
    ) -> None:
        """Apply one assert/retract against this node's engine.

        A versioned request (``manifest_version != 0``) is rejected with
        ``STALE_MANIFEST`` when it does not match the node's current
        manifest — the client routed under placement that no longer
        holds, and applying the write could land it on a replica set the
        cluster has already moved away from.
        """
        started = time.monotonic()
        try:
            try:
                op, clause, module, manifest_version, deadline_ms, write_id = (
                    protocol.decode_mutate_request(payload)
                )
            except Exception as exc:
                code, message = protocol.exception_to_error(
                    exc if isinstance(exc, ProtocolError)
                    else ProtocolError(f"undecodable request: {exc}")
                )
                await self._send_error(
                    writer, write_lock, request_id, code, message
                )
                return
            if self.manifest_holder is not None and manifest_version:
                current = self.manifest_holder.version
                if manifest_version != current:
                    self.obs.counter("net.stale_manifest").inc()
                    await self._send_error(
                        writer, write_lock, request_id,
                        ErrorCode.STALE_MANIFEST,
                        f"request routed under manifest version "
                        f"{manifest_version}; node is at {current}",
                    )
                    return
            deadline = None
            if deadline_ms:
                deadline = started + deadline_ms / 1000.0
            elif self.default_deadline_s is not None:
                deadline = started + self.default_deadline_s

            def work():
                queue_wait_s = time.monotonic() - started
                if deadline is not None and time.monotonic() >= deadline:
                    raise DeadlineExceeded(
                        f"deadline expired after {queue_wait_s * 1e3:.1f}"
                        "ms in the accept queue"
                    )
                with self.obs.span(
                    "net.mutate", op=op, request_id=request_id
                ):
                    stamp = write_id or None
                    removed = None
                    if op == "assertz":
                        self.engine.assertz(
                            clause, module=module, write_id=stamp
                        )
                        applied = True
                    elif op == "asserta":
                        self.engine.asserta(
                            clause, module=module, write_id=stamp
                        )
                        applied = True
                    elif op == "retract":
                        removed = self.engine.retract_matching(
                            clause, write_id=stamp
                        )
                        applied = removed is not None
                    else:  # retract_exact
                        applied = self.engine.remove_exact(
                            clause, write_id=stamp
                        )
                    return applied, removed

            loop = asyncio.get_running_loop()
            try:
                applied, removed = await loop.run_in_executor(
                    self._executor, work
                )
            except Exception as exc:
                code, message = protocol.exception_to_error(exc)
                if code is ErrorCode.DEADLINE_EXPIRED:
                    self.obs.counter("net.deadline_expired").inc()
                await self._send_error(
                    writer, write_lock, request_id, code, message
                )
                return
            self.obs.counter("net.mutations", op=op).inc()
            await self._send(
                writer, write_lock, FrameType.RESP_MUTATED, request_id,
                protocol.encode_mutated_response(
                    self.engine.version, applied, removed
                ),
            )
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

    async def _serve_solve(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
    ) -> None:
        """Run a ``solve`` request, streaming one frame per solution.

        The resolution loop runs on a pool worker (the engines are
        synchronous); each answer crosses back to the event loop as its
        own ``RESP_SOLUTION`` frame, *blocking the worker until the frame
        is flushed* so a slow client exerts backpressure on the search
        instead of buffering unbounded solutions server-side.  The
        stream ends with ``RESP_SOLVE_DONE`` (exhausted or capped) or a
        ``RESP_ERROR`` frame (deadline expired, resource budget blown,
        resolution error) — either way the admitted request is not done
        until the trailer is flushed, which is what drain waits on.
        """
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            try:
                goal, mode, deadline_ms, max_solutions = (
                    protocol.decode_solve_request(payload)
                )
            except Exception as exc:
                code, message = protocol.exception_to_error(
                    exc if isinstance(exc, ProtocolError)
                    else ProtocolError(f"undecodable request: {exc}")
                )
                await self._send_error(
                    writer, write_lock, request_id, code, message
                )
                return
            deadline = None
            if deadline_ms:
                deadline = started + deadline_ms / 1000.0
            elif self.default_deadline_s is not None:
                deadline = started + self.default_deadline_s

            def send_from_worker(resp_type, frame_payload):
                sent = asyncio.run_coroutine_threadsafe(
                    self._send(
                        writer, write_lock, resp_type, request_id,
                        frame_payload,
                    ),
                    loop,
                ).result()
                if not sent:
                    # The client went away mid-stream: abort the search
                    # rather than resolving into a dead socket (an
                    # infinite answer stream would otherwise pin this
                    # worker and stall drain forever).
                    raise ConnectionError("solve client disconnected")

            def work():
                queue_wait_s = time.monotonic() - started
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"deadline expired after {queue_wait_s * 1e3:.1f}"
                            "ms in the accept queue"
                        )
                solver = SolveEngine(self.engine, mode=mode)
                count = 0
                with self.obs.span("net.solve", request_id=request_id) as span:
                    span.set(queue_wait_ms=round(queue_wait_s * 1e3, 3))
                    for solution in solver.solve(
                        goal,
                        deadline_s=remaining,
                        max_solutions=max_solutions,
                    ):
                        send_from_worker(
                            FrameType.RESP_SOLUTION,
                            protocol.encode_solution(count, solution),
                        )
                        count += 1
                    span.set(solutions=count)
                capped = bool(max_solutions) and count >= max_solutions
                send_from_worker(
                    FrameType.RESP_SOLVE_DONE,
                    protocol.encode_solve_done(
                        count,
                        completed=not capped,
                        reason="solution cap reached" if capped else "",
                    ),
                )

            try:
                await loop.run_in_executor(self._executor, work)
                self.obs.counter("net.solves").inc()
            except Exception as exc:
                code, message = protocol.exception_to_error(exc)
                if code is ErrorCode.DEADLINE_EXPIRED:
                    self.obs.counter("net.deadline_expired").inc()
                await self._send_error(
                    writer, write_lock, request_id, code, message
                )
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
        frame_type: FrameType,
        request_id: int,
        payload: bytes,
    ) -> bool:
        frame = protocol.encode_frame(frame_type, request_id, payload)
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            self.obs.counter("net.send_failures").inc()
            return False
        self.obs.counter("net.bytes_out").inc(len(frame))
        self.obs.counter("net.responses", type=frame_type.name).inc()
        return True

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        request_id: int,
        code: ErrorCode,
        message: str,
    ) -> None:
        self.obs.counter("net.errors", code=code.name).inc()
        await self._send(
            writer, write_lock, FrameType.RESP_ERROR, request_id,
            protocol.encode_error(code, message),
        )


class BackgroundService:
    """Run a :class:`RetrievalService` event loop on a daemon thread.

    Synchronous drivers (the CLI's client side, pytest, the loadgen
    benchmark harness) need a live server without owning an event loop;
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
