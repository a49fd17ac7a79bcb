"""The retrieval service: CLARE behind a TCP socket, on plain threads.

In the paper the CRS is a back end the host Prolog drives with plain
synchronous requests, and the engines here are synchronous simulated
hardware, so the service is threads only: one accept thread, one reader
thread per connection, and a bounded pool of workers over a
:class:`~repro.cluster.ShardedRetrievalServer`.  A reader decodes
frames, answers the inline verbs itself and runs the explicit admission
controller:

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
finish and write its response, then shut every connection down and
join every thread.  Nothing admitted is ever dropped.
"""

from __future__ import annotations

import functools
import socket
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
    """The peer hung up before its answer was written."""


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


def _read_exactly(stream, count: int) -> bytes | None:
    """``count`` bytes, or ``None`` once the peer has hung up."""
    try:
        data = stream.read(count)
    except OSError:
        return None
    return data if len(data) == count else None


def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down both ways: wakes any thread blocked on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already reset or closed


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
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        # ``_lock`` guards admission and the connection table (each
        # connection -> the thread reading it); ``_idle`` is notified
        # whenever the last admitted request settles.
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._admitted = 0  # queued + executing requests
        self._handled = 0  # admitted requests fully responded to
        self._draining = False
        self._drained = False
        self._done = threading.Event()
        self.max_requests: int | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind (once) and start accepting; returns the bound (host, port)."""
        if self._listener is None:
            family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
            self._listener = socket.create_server(
                (self.host, self.port), family=family
            )
            self.host, self.port = self._listener.getsockname()[:2]
            self._acceptor = threading.Thread(
                target=self._accept, name="clare-net-accept", daemon=True
            )
            self._acceptor.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def serve(self, max_requests: int | None = None) -> None:
        """Start, serve until ``max_requests`` are handled (``None``: until
        interrupted), then drain — on a KeyboardInterrupt too."""
        self.max_requests = max_requests
        self.start()
        try:
            self._done.wait()
        finally:
            self.drain()

    def drain(self, timeout: float | None = None) -> None:
        """Stop accepting, finish every admitted request, then close.

        ``timeout`` bounds the wait for admitted requests (a client that
        stops reading a streamed answer holds its worker); past it, the
        rest is abandoned as :meth:`abort` abandons it.
        """
        if not self._drained:
            self._stop_accepting()
            with self._idle:
                settled = self._idle.wait_for(lambda: not self._admitted, timeout)
            self._close("net.drains", abort=not settled)

    def abort(self) -> None:
        """Die abruptly, as a killed process would (chaos testing,
        emergency shutdown): connections and queued work are dropped, a
        request already on a worker finds its socket gone, and clients
        recover via failover."""
        if not self._drained:
            self._stop_accepting()
            self._close("net.aborts", abort=True)

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

    def _stop_accepting(self) -> None:
        with self._lock:
            self._draining = True
        if self._listener is not None:
            _hang_up(self._listener)  # wakes the accept thread
            self._acceptor.join()
            self._listener.close()

    def _close(self, counter: str, abort: bool) -> None:
        # Hang up under the lock, which a reader closes its socket under:
        # no shutdown can reach a descriptor the kernel has reused.
        with self._lock:
            readers = list(self._connections.values())
            for conn in self._connections:
                _hang_up(conn)
        for reader in readers:
            reader.join()
        self._executor.shutdown(wait=not abort, cancel_futures=abort)
        self._drained = True
        self.obs.counter(counter).inc()
        self.obs.gauge("net.queue_depth").set(0)
        self.obs.gauge("net.in_flight").set(0)

    # -- connection handling -------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self._draining:
                    return  # the listener was shut down
                time.sleep(0.1)  # out of descriptors, say: back off
                continue
            reader = threading.Thread(
                target=self._read, args=(conn,), name="clare-net-conn",
                daemon=True,
            )
            with self._lock:
                # A reader's entry outlives its socket, so that drain
                # can join it; forget those that have finished.
                for gone in [c for c, t in self._connections.items()
                             if not t.is_alive()]:
                    del self._connections[gone]
                self._connections[conn] = reader
            reader.start()

    def _read(self, conn: socket.socket) -> None:
        """Read one connection's frames until the peer hangs up."""
        self.obs.counter("net.connections").inc()
        stream = conn.makefile("rb")
        write_lock = threading.Lock()

        def reply_to(request_id: int):
            """Where a request's frames go: ``reply(frame)`` -> written?"""
            return functools.partial(self._send, conn, write_lock, request_id)

        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                header = _read_exactly(stream, protocol.HEADER.size)
                if header is None:
                    break  # peer hung up (possibly mid-header)
                try:
                    frame_type, request_id, length = protocol.decode_header(
                        header, self.max_frame_bytes
                    )
                except ProtocolError as exc:
                    # Framing is unrecoverable: report and hang up.
                    self.obs.counter("net.bad_frames").inc()
                    self._send_error(reply_to(0), ErrorCode.BAD_REQUEST, str(exc))
                    break
                payload = _read_exactly(stream, length)
                if payload is None:
                    self.obs.counter("net.truncated_frames").inc()
                    break
                self.obs.counter("net.bytes_in").inc(
                    protocol.HEADER.size + length
                )
                self._dispatch(
                    reply_to(request_id), frame_type, request_id, payload
                )
        finally:
            self.obs.counter("net.disconnects").inc()
            stream.close()
            _hang_up(conn)  # fails a worker's blocked write on it
            with write_lock, self._lock:
                conn.close()

    def _dispatch(
        self, reply, frame_type: FrameType, request_id: int, payload: bytes
    ) -> None:
        verb = protocol.VERB_OF_REQUEST.get(frame_type)
        if verb is None:
            self._send_error(
                reply, ErrorCode.BAD_REQUEST,
                f"unexpected frame type {frame_type.name}",
            )
            return
        if not verb.admitted:
            try:
                answer = self._inline[verb.name]()
            except ProtocolError as exc:
                self._send_error(reply, ErrorCode.BAD_REQUEST, str(exc))
                return
            reply(_encoded(_answer(verb, *answer)))
            return
        # -- admission control ------------------------------------------
        with self._lock:
            draining, admitted = self._draining, self._admitted
            busy = admitted >= self.max_in_flight + self.queue_limit
            if not (draining or busy):
                self._admitted += 1
                self._update_load_gauges()
        if draining:
            self._send_error(reply, ErrorCode.SHUTTING_DOWN, "server is draining")
        elif busy:
            self.obs.counter("net.busy_rejected").inc()
            self._send_error(
                reply, ErrorCode.SERVER_BUSY,
                f"{admitted} requests already admitted",
            )
        else:
            self.obs.counter("net.accepted").inc()
            self._serve(reply, verb, request_id, payload)

    def _manifest_json(self) -> tuple[str]:
        if self.manifest_holder is None:
            raise ProtocolError("this node serves no cluster manifest")
        return (self.manifest_holder.current.to_json(),)

    # -- the request lifecycle -----------------------------------------------

    def _serve(
        self, reply, verb: protocol.Verb, request_id: int, payload: bytes
    ) -> None:
        """One admitted request of any verb, from decode to accounting.

        On the connection's reader thread: decode the payload, let the
        verb refuse the request before it queues, fix the deadline and
        hand the rest to the pool.  On a pool worker (the engines are
        synchronous): the queue-wait check, the verb body, and every
        frame of the answer, encoded and written by the worker.  A
        *streamed* answer is written frame by frame as the search
        produces it, blocking the worker, so a slow client exerts
        backpressure on the search instead of buffering unbounded
        solutions server-side.  Every failure leaves as one
        ``RESP_ERROR`` frame, except a peer that hung up; either way the
        admitted request is not done until its last frame is written,
        which is what drain waits on.
        """
        started = time.monotonic()

        def flush(answer) -> None:
            if not reply(_encoded(answer)):
                # Abort the search rather than resolving into a dead
                # socket: an infinite answer stream would otherwise pin
                # this worker and stall drain forever.
                raise _ClientGone

        def work(body, deadline) -> None:
            try:
                # The queue wait is over: check whether the deadline
                # already passed before touching the (uninterruptible)
                # engines.
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
                    if verb.trailer is not None:
                        for answer in answers:
                            flush(answer)
                        return
                    (answer,) = answers  # a unary verb is a stream of one
                flush(answer)
            except Exception as exc:
                self._fail(reply, exc)
            finally:
                self._settle(started)

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
            self._executor.submit(work, body, deadline)
        except Exception as exc:  # refused before it queued
            self._fail(reply, exc)
            self._settle(started)

    def _fail(self, reply, exc: Exception) -> None:
        """One error frame for a failed request — none into a dead socket:
        a peer that hung up is no server error."""
        if isinstance(exc, _ClientGone):
            self.obs.counter("net.client_disconnects").inc()
            return
        code, message = protocol.exception_to_error(exc)
        if code is ErrorCode.DEADLINE_EXPIRED:
            self.obs.counter("net.deadline_expired").inc()
        self._send_error(reply, code, message)

    def _settle(self, started: float) -> None:
        """Account for an admitted request once its last frame is out."""
        self.obs.histogram("net.request_ms").observe(
            (time.monotonic() - started) * 1e3
        )
        with self._lock:
            self._admitted -= 1
            self._handled += 1
            self._update_load_gauges()
            if not self._admitted:
                self._idle.notify_all()
        if self.max_requests is not None and self._handled >= self.max_requests:
            self._done.set()

    # -- the admitted verbs ----------------------------------------------------
    #
    # One method per verb, called on the reader thread with the decoded
    # request.
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

    def _send(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        request_id: int,
        frame: tuple[FrameType, bytes],
    ) -> bool:
        frame_type, payload = frame
        data = protocol.encode_frame(frame_type, request_id, payload)
        try:
            with write_lock:
                conn.sendall(data)
        except OSError:
            self.obs.counter("net.send_failures").inc()
            return False
        self.obs.counter("net.bytes_out").inc(len(data))
        self.obs.counter("net.responses", type=frame_type.name).inc()
        return True

    def _send_error(self, reply, code: ErrorCode, message: str) -> None:
        self.obs.counter("net.errors", code=code.name).inc()
        reply((FrameType.RESP_ERROR, protocol.encode_error(code, message)))


class BackgroundService:
    """The handle tests, the ``bench/`` harness and the fleet hold on a
    :class:`RetrievalService`, which runs on threads of its own:
    :meth:`start` binds, :meth:`stop` drains, :meth:`kill` aborts."""

    def __init__(self, service: RetrievalService):
        self.service = service

    def start(self) -> tuple[str, int]:
        """Bind (once); returns the bound (host, port)."""
        return self.service.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the service, waiting at most ``timeout`` seconds for
        its admitted requests before shutting their connections down."""
        self.service.drain(timeout)

    def kill(self) -> None:
        """Crash the service: abort instead of drain."""
        self.service.abort()

    def __enter__(self) -> "BackgroundService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
