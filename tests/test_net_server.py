"""The network service end to end over loopback TCP.

The load-bearing suite for the serving layer:

* **differential** — a client must return element-wise identical
  clauses *and stats* to calling the in-process
  :class:`ShardedRetrievalServer` directly, including broadcast-forcing
  shared-variable goals and Result-Memory-overflow retrievals;
* **overload** — past ``max_in_flight + queue_limit`` the server sheds
  load with ``SERVER_BUSY`` immediately, and the p99 latency of the
  requests it *did* admit stays bounded;
* **deadlines** — a request that spends its budget queueing fails with
  ``DEADLINE_EXPIRED`` without touching the engines;
* **drain** — graceful shutdown completes every admitted request.
"""

import threading
import time

import pytest

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import SearchMode
from repro.net import (
    AsyncRetrievalClient,
    BackgroundService,
    BackoffPolicy,
    DeadlineExceeded,
    ErrorCode,
    FrameType,
    RetrievalClient,
    RetrievalService,
    ServerBusy,
    ServerDraining,
    protocol,
)
from repro.obs import Instrumentation
from repro.storage import Residency, UnknownPredicateError
from repro.terms import as_clause, read_term


def family_engine(**kwargs):
    engine = ShardedRetrievalServer(2, ShardingPolicy.FIRST_ARG, **kwargs)
    engine.consult_text(
        """
        parent(tom, bob). parent(tom, liz). parent(bob, ann).
        parent(bob, pat). parent(pat, jim). parent(liz, joe).
        married_couple(amy, amy). married_couple(sam, pam).
        likes(X, prolog). grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
        """
    )
    return engine


@pytest.fixture
def served_family():
    engine = family_engine()
    service = RetrievalService(engine)
    with BackgroundService(service) as background:
        host, port = background.start()
        with RetrievalClient(host, port) as client:
            yield engine, client


DIFFERENTIAL_GOALS = [
    "parent(tom, X)",
    "parent(X, jim)",
    "parent(X, Y)",
    "married_couple(X, X)",  # unbound first arg: must broadcast
    "married_couple(W, W)",  # same broadcast under renaming
    "likes(anyone, What)",
    "grandparent(A, B)",
]


class TestLoopbackDifferential:
    """Client answers == in-process answers, clause for clause."""

    @pytest.mark.parametrize("goal_text", DIFFERENTIAL_GOALS)
    @pytest.mark.parametrize("mode", [None, SearchMode.SOFTWARE, SearchMode.BOTH])
    def test_retrieve_matches_in_process(self, served_family, goal_text, mode):
        engine, client = served_family
        goal = read_term(goal_text)
        local = engine.retrieve(goal, mode=mode)
        remote = client.retrieve(goal, mode=mode)
        assert [str(c) for c in remote.candidates] == [
            str(c) for c in local.candidates
        ]
        assert remote.stats == local.stats
        assert str(remote.goal) == str(goal)

    def test_retrieve_batch_matches_in_process(self, served_family):
        engine, client = served_family
        goals = [read_term(text) for text in DIFFERENTIAL_GOALS]
        local = engine.retrieve_batch(goals)
        remote = client.retrieve_batch(goals)
        assert len(remote) == len(local) == len(goals)
        for local_result, remote_result in zip(local, remote):
            assert [str(c) for c in remote_result.candidates] == [
                str(c) for c in local_result.candidates
            ]
            assert remote_result.stats == local_result.stats

    def test_unknown_predicate_propagates(self, served_family):
        _, client = served_family
        with pytest.raises(UnknownPredicateError):
            client.retrieve(read_term("no_such_predicate(X)"))

    def test_rm_overflow_goal_over_the_wire(self):
        # 200 facts pinned to disk, FS2_ONLY: the CRS must chunk the
        # search around the 64-satisfier Result Memory, and the wire
        # answer (candidates, stats, fs2_search_calls) must agree with
        # the in-process one exactly.
        engine = ShardedRetrievalServer(2, ShardingPolicy.FIRST_ARG)
        engine.consult_text(" ".join(f"p({i})." for i in range(200)))
        engine.pin_module("user", Residency.DISK)
        service = RetrievalService(engine)
        with BackgroundService(service) as background:
            host, port = background.start()
            with RetrievalClient(host, port) as client:
                goal = read_term("p(X)")
                local = engine.retrieve(goal, mode=SearchMode.FS2_ONLY)
                remote = client.retrieve(goal, mode=SearchMode.FS2_ONLY)
                assert len(remote.candidates) == 200
                assert remote.stats.fs2_search_calls >= 4
                assert [str(c) for c in remote.candidates] == [
                    str(c) for c in local.candidates
                ]
                assert remote.stats == local.stats


class TestServiceSurface:
    def test_ping_and_stats(self, served_family):
        engine, client = served_family
        assert client.ping() is True
        snapshot = client.stats()
        assert snapshot["engine_clauses"] == engine.clause_count()
        assert snapshot["draining"] is False

    def test_stats_carry_the_stored_bytes_of_every_shard(self):
        """Bytes stored (clause images, index rows) and splices made
        are readable over the wire, to hold against the resident size."""
        obs = Instrumentation()
        engine = family_engine(obs=obs)
        service = RetrievalService(engine, obs=obs)
        with BackgroundService(service) as background:
            host, port = background.start()
            with RetrievalClient(host, port) as client:
                client.mutate("asserta", read_term("parent(zed, tom)"))
                client.mutate("retract", read_term("parent(bob, Who)"))
                registry = client.stats()["registry"]
        for shard in engine.shards:
            label = f"{{shard={shard.shard_id}}}"
            assert (
                registry["kb.image_bytes" + label]["value"]
                == shard.kb.size_bytes()
            )
            assert registry["kb.index_bytes" + label]["value"] == sum(
                store.index.size_bytes() for store in shard.kb
            )
        assert sum(
            entry["value"] for key, entry in registry.items()
            if key.startswith("storage.splices")
        ) == 2

    def test_counters_track_requests(self):
        obs = Instrumentation()
        engine = family_engine()
        service = RetrievalService(engine, obs=obs)
        with BackgroundService(service) as background:
            host, port = background.start()
            with RetrievalClient(host, port) as client:
                client.retrieve(read_term("parent(tom, X)"))
                client.retrieve_batch([read_term("parent(bob, X)")])
        registry = obs.registry
        assert registry.total("net.accepted") == 2
        assert registry.total("net.connections") >= 1
        assert registry.total("net.bytes_in") > 0
        assert registry.total("net.bytes_out") > 0
        assert registry.total("net.drains") == 1
        assert registry.gauge("net.queue_depth").value == 0

    def test_async_client_matches_sync(self, served_family):
        import asyncio

        engine, sync_client = served_family
        host = sync_client._core.host
        port = sync_client._core.port

        async def run():
            async with AsyncRetrievalClient(host, port) as client:
                result = await client.retrieve(read_term("parent(tom, X)"))
                batch = await client.retrieve_batch(
                    [read_term("parent(bob, X)"), read_term("parent(X, Y)")]
                )
                assert await client.ping() is True
                return result, batch

        result, batch = asyncio.run(run())
        local = engine.retrieve(read_term("parent(tom, X)"))
        assert [str(c) for c in result.candidates] == [
            str(c) for c in local.candidates
        ]
        assert result.stats == local.stats
        assert len(batch) == 2

    def test_async_client_speaks_every_verb_the_sync_client_does(self):
        # asserta / retract / retract_exact / manifest used to exist on
        # the blocking client only; one verb table now serves both.
        import asyncio

        from repro.cluster import ClusterManifest, ManifestHolder

        engine = family_engine()
        manifest = ClusterManifest(
            engine.num_shards, "first_arg", version=3,
            replicas={i: ("127.0.0.1:1",) for i in range(engine.num_shards)},
        )
        service = RetrievalService(engine, manifest_holder=ManifestHolder(manifest))
        goal = read_term("tag(X, new)")

        async def run(host, port):
            async with AsyncRetrievalClient(host, port) as client:
                base = engine.version
                assert await client.assertz(read_term("tag(zed, new)")) == base + 1
                assert await client.asserta(
                    read_term("tag(amy, new)"), "user", write_id="w:1"
                ) == base + 2
                names = [
                    str(c.head.args[0])
                    for c in (await client.retrieve(goal)).candidates
                ]
                removed = await client.retract(read_term("tag(amy, What)"))
                assert await client.retract_exact(read_term("tag(zed, new)"))
                assert not await client.retract_exact(read_term("tag(zed, new)"))
                fetched = await client.manifest()
                answers = [s async for s in client.solve(goal, max_solutions=5)]
                stats = await client.stats()
                return names, removed, fetched, answers, stats

        with BackgroundService(service) as background:
            names, removed, fetched, answers, stats = asyncio.run(
                run(*background.start())
            )
        assert sorted(names) == ["amy", "zed"]
        assert str(removed) == "tag(amy,new)."
        assert fetched.version == 3 and fetched.num_shards == engine.num_shards
        assert "zed" not in [str(a["X"]) for a in answers]
        assert stats["engine_clauses"] == engine.clause_count()


class TestOneRequestLifecycle:
    """Every admitted verb lives the same life: one ``_serve``.

    Three requests per verb over a raw socket — an undecodable payload,
    a deadline that dies in the accept queue, a good one — and after
    each the same accounting.  Before the three handlers were folded
    into one, ``mutate``'s span lacked ``queue_wait_ms``.
    """

    REQUESTS = {
        "retrieve": (read_term("parent(tom, X)"), None),
        "retrieve_batch": ([read_term("parent(tom, X)")], None),
        "solve": (read_term("grandparent(tom, Who)"), None),
        "mutate": ("assertz", as_clause(read_term("parent(jim, kid)"))),
    }

    @staticmethod
    def exchange(raw, verb, request_id, payload):
        """Send one request frame; the frames of its answer."""
        def read(count):
            data = b""
            while len(data) < count:
                chunk = raw.recv(count - len(data))
                assert chunk, "server hung up mid-answer"
                data += chunk
            return data

        raw.sendall(protocol.encode_frame(verb.request, request_id, payload))
        frames = []
        last = verb.trailer or verb.response
        while not frames or frames[-1][0] not in (FrameType.RESP_ERROR, last):
            frame_type, echoed, length = protocol.decode_header(
                read(protocol.HEADER.size)
            )
            assert echoed == request_id
            frames.append((frame_type, read(length)))
        return frames

    def test_the_admitted_verbs_are_the_ones_pinned_here(self):
        admitted = {n for n, verb in protocol.VERBS.items() if verb.admitted}
        assert admitted == set(self.REQUESTS)

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_lifecycle_parity(self, name):
        import socket

        verb = protocol.VERBS[name]
        encode = getattr(protocol, verb.encode_request)
        obs = Instrumentation()
        service = RetrievalService(family_engine(), max_in_flight=1, obs=obs)
        handled = 0

        def settled():
            """Accounting runs after the last frame is flushed: wait."""
            nonlocal handled
            handled += 1
            give_up = time.monotonic() + 10
            while service._handled < handled and time.monotonic() < give_up:
                time.sleep(0.005)
            snapshot = service.stats_snapshot()
            assert snapshot["handled"] == handled
            assert snapshot["admitted_now"] == 0
            observed = snapshot["registry"]["net.request_ms"]["count"]
            assert observed == handled

        with BackgroundService(service) as background:
            raw = socket.create_connection(background.start())
            raw.settimeout(10)
            try:
                # 1. An undecodable payload is a typed BAD_REQUEST.
                ((frame_type, payload),) = self.exchange(
                    raw, verb, 1, b"\x00\x00\x00\x00\xff"
                )
                assert frame_type is FrameType.RESP_ERROR
                assert protocol.decode_error(payload)[0] is ErrorCode.BAD_REQUEST
                settled()
                # 2. A deadline spent waiting for the one worker.
                gate = threading.Event()
                service._executor.submit(gate.wait, 10)
                releaser = threading.Timer(0.08, gate.set)
                releaser.start()
                ((frame_type, payload),) = self.exchange(
                    raw, verb, 2, encode(*self.REQUESTS[name], deadline_ms=20)
                )
                releaser.join()
                assert frame_type is FrameType.RESP_ERROR
                code, message = protocol.decode_error(payload)
                assert code is ErrorCode.DEADLINE_EXPIRED
                assert "in the accept queue" in message
                assert obs.registry.total("net.deadline_expired") == 1
                settled()
                assert not obs.recorder.spans("net.request")  # never ran
                # 3. A good request: answered, and its span says how
                # long it queued.
                frames = self.exchange(
                    raw, verb, 3, encode(*self.REQUESTS[name], deadline_ms=0)
                )
                assert frames[-1][0] is (verb.trailer or verb.response)
                settled()
                (span,) = obs.recorder.spans("net.request")
                assert span.attrs["type"] == verb.request.name
                assert span.attrs["request_id"] == 3
                assert span.attrs["queue_wait_ms"] >= 0
            finally:
                raw.close()
        assert obs.registry.total("net.errors") == 2
        assert obs.registry.total("net.accepted") == 3


class SlowEngine:
    """An engine whose every retrieval takes a fixed host time."""

    def __init__(self, engine, delay_s):
        self.engine = engine
        self.delay_s = delay_s

    def clause_count(self):
        return self.engine.clause_count()

    def retrieve(self, goal, mode=None, timeout=None):
        time.sleep(self.delay_s)
        return self.engine.retrieve(goal, mode=mode, timeout=timeout)

    def retrieve_batch(self, goals, mode=None, timeout=None):
        time.sleep(self.delay_s)
        return self.engine.retrieve_batch(goals, mode=mode, timeout=timeout)


class TestOverload:
    def test_busy_rejections_and_bounded_admitted_latency(self):
        """Acceptance: overload sheds with SERVER_BUSY, admitted p99 bounded.

        1 worker * 50 ms per retrieval and a queue of 2 gives capacity
        for 3 admitted requests; 12 concurrent clients guarantee
        rejections.  Every admitted request waits at most
        (queue_limit + 1) * delay, so its measured latency is bounded —
        that is the explicit-admission-control contract.
        """
        delay_s = 0.05
        max_in_flight, queue_limit = 1, 2
        obs = Instrumentation()
        engine = SlowEngine(family_engine(), delay_s)
        service = RetrievalService(
            engine, max_in_flight=max_in_flight, queue_limit=queue_limit,
            obs=obs,
        )
        goal = read_term("parent(tom, X)")
        outcomes = []
        outcome_lock = threading.Lock()

        def one_client():
            # No retries: a SERVER_BUSY answer must count as shed load.
            with RetrievalClient(
                service.host, service.port,
                backoff=BackoffPolicy(max_retries=0),
            ) as client:
                begin = time.monotonic()
                try:
                    client.retrieve(goal)
                except ServerBusy:
                    with outcome_lock:
                        outcomes.append(("busy", time.monotonic() - begin))
                else:
                    with outcome_lock:
                        outcomes.append(("ok", time.monotonic() - begin))

        with BackgroundService(service) as background:
            background.start()
            threads = [
                threading.Thread(target=one_client) for _ in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)

        ok_latencies = [t for kind, t in outcomes if kind == "ok"]
        busy = [t for kind, t in outcomes if kind == "busy"]
        assert len(outcomes) == 12
        assert busy, "overload never produced a SERVER_BUSY rejection"
        assert ok_latencies, "no request was admitted under overload"
        # Admitted latency bounded: worst case is a full queue ahead of
        # you.  With at most 12 samples the nearest-rank p99 is the max.
        bound_s = (queue_limit + 1) * delay_s + 1.0  # + generous host slack
        assert max(ok_latencies) < bound_s
        # Rejections are immediate — far cheaper than one engine call.
        assert min(busy) < delay_s
        registry = obs.registry
        assert registry.total("net.busy_rejected") == len(busy)
        assert registry.total("net.accepted") == len(ok_latencies)


class TestDeadlines:
    def test_queue_wait_burns_deadline(self):
        """A request that queues past its budget fails without executing."""
        engine = SlowEngine(family_engine(), 0.15)
        service = RetrievalService(engine, max_in_flight=1, queue_limit=4)
        with BackgroundService(service) as background:
            host, port = background.start()
            with RetrievalClient(
                host, port, backoff=BackoffPolicy(max_retries=0)
            ) as blocker, RetrievalClient(
                host, port, backoff=BackoffPolicy(max_retries=0)
            ) as victim:
                goal = read_term("parent(tom, X)")
                filler = threading.Thread(
                    target=lambda: blocker.retrieve(goal)
                )
                filler.start()
                time.sleep(0.03)  # let the filler occupy the one worker
                with pytest.raises(DeadlineExceeded):
                    victim.retrieve(goal, deadline_s=0.05)
                filler.join(timeout=10)

    def test_default_deadline_applies(self):
        engine = SlowEngine(family_engine(), 0.15)
        service = RetrievalService(
            engine, max_in_flight=1, queue_limit=4, default_deadline_s=0.05
        )
        with BackgroundService(service) as background:
            host, port = background.start()
            with RetrievalClient(
                host, port, backoff=BackoffPolicy(max_retries=0)
            ) as blocker, RetrievalClient(
                host, port, backoff=BackoffPolicy(max_retries=0)
            ) as victim:
                goal = read_term("parent(tom, X)")
                filler = threading.Thread(
                    target=lambda: blocker.retrieve(goal)
                )
                filler.start()
                time.sleep(0.03)
                # No explicit deadline: the server's default applies.
                with pytest.raises(DeadlineExceeded):
                    victim.retrieve(goal)
                filler.join(timeout=10)


class TestGracefulDrain:
    def test_drain_completes_in_flight_requests(self):
        """Acceptance: shutdown answers everything it admitted."""
        engine = SlowEngine(family_engine(), 0.1)
        service = RetrievalService(engine, max_in_flight=4, queue_limit=8)
        background = BackgroundService(service)
        host, port = background.start()
        goal = read_term("parent(tom, X)")
        results = []
        failures = []
        lock = threading.Lock()

        def one_client():
            try:
                with RetrievalClient(
                    host, port, backoff=BackoffPolicy(max_retries=0)
                ) as client:
                    result = client.retrieve(goal)
                with lock:
                    results.append(result)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                with lock:
                    failures.append(exc)

        threads = [threading.Thread(target=one_client) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # all four admitted, none finished (0.1 s engine)
        background.stop()  # graceful drain
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, failures
        assert len(results) == 4
        for result in results:
            assert [str(c) for c in result.candidates] == [
                "parent(tom,bob).", "parent(tom,liz)."
            ]

    def test_draining_server_refuses_new_requests(self):
        engine = family_engine()
        service = RetrievalService(engine)
        with BackgroundService(service) as background:
            host, port = background.start()
            with RetrievalClient(
                host, port, backoff=BackoffPolicy(max_retries=0)
            ) as client:
                client.ping()  # open the connection before the drain
                service._draining = True
                with pytest.raises(ServerDraining):
                    client.retrieve(read_term("parent(tom, X)"))
                service._draining = False

    def test_max_requests_drains_and_stops(self):
        engine = family_engine()
        service = RetrievalService(engine)
        background = BackgroundService(service)
        host, port = background.start()

        def run_until_done():
            # run() is already active inside BackgroundService; here we
            # just drive two requests and watch the service finish.
            with RetrievalClient(host, port) as client:
                client.retrieve(read_term("parent(tom, X)"))
                client.retrieve(read_term("parent(bob, X)"))

        service.max_requests = 2
        run_until_done()
        deadline = time.monotonic() + 10
        while not service._done.is_set() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service._done.is_set()
        background.stop()



class TestThreadLifecycle:
    """The service is threads: an accept thread, a reader per
    connection, the pool.  None may outlive ``stop()`` or ``kill()``,
    and no client can hold ``stop()`` open — else a server process
    would never exit."""

    @staticmethod
    def server_threads(before):
        return [
            thread for thread in set(threading.enumerate()) - before
            if thread.name.startswith("clare-net")
        ]

    @staticmethod
    def within(seconds, call, *args):
        """Run ``call`` on a thread; fail, rather than hang, past
        ``seconds``."""
        runner = threading.Thread(target=call, args=args, daemon=True)
        runner.start()
        runner.join(seconds)
        assert not runner.is_alive(), f"{call.__name__} took over {seconds} s"

    def gone_within(self, seconds, before):
        """Server threads may take a moment to leave after ``kill()``."""
        give_up = time.monotonic() + seconds
        while self.server_threads(before) and time.monotonic() < give_up:
            time.sleep(0.01)
        assert self.server_threads(before) == []

    def exercised(self, service):
        """Start ``service`` and give it some connections and work."""
        background = BackgroundService(service)
        host, port = background.start()
        for _ in range(3):
            with RetrievalClient(host, port) as client:
                client.retrieve(read_term("parent(tom, X)"))
        return background, RetrievalClient(host, port)

    def test_stop_joins_every_server_thread(self):
        before = set(threading.enumerate())
        background, idle = self.exercised(RetrievalService(family_engine()))
        idle.ping()  # one connection still open, its reader blocked
        assert self.server_threads(before)
        self.within(10, background.stop)
        assert self.server_threads(before) == []
        idle.close()

    def test_kill_leaves_no_server_thread(self):
        before = set(threading.enumerate())
        background, idle = self.exercised(RetrievalService(family_engine()))
        idle.ping()
        self.within(10, background.kill)
        # The accept and reader threads are joined; an idle pool worker
        # leaves on its own as soon as it sees the shutdown.
        self.gone_within(5, before)
        idle.close()

    @pytest.mark.parametrize("hang_up", [True, False])
    def test_half_a_frame_does_not_stall_stop(self, hang_up):
        import socket

        before = set(threading.enumerate())
        obs = Instrumentation()
        background = BackgroundService(
            RetrievalService(family_engine(), obs=obs)
        )
        raw = socket.create_connection(background.start())
        frame = protocol.encode_frame(
            FrameType.REQ_RETRIEVE, 1,
            protocol.encode_retrieve_request(read_term("parent(tom, X)")),
        )
        raw.sendall(frame[: len(frame) // 2])
        if hang_up:
            raw.close()
        self.within(5, background.stop)
        assert self.server_threads(before) == []
        assert obs.registry.total("net.accepted") == 0
        raw.close()

    @staticmethod
    def stalled_stream(obs):
        """A service whose one worker is blocked writing a ``solve``
        stream to a raw client that reads none of it."""
        import socket

        engine = ShardedRetrievalServer(2)
        # Endless answers of 60 kB each: the socket fills in a moment.
        engine.consult_text(
            f"big('{'a' * 60000}'). rep(A) :- big(A). rep(A) :- rep(A)."
        )
        service = RetrievalService(engine, max_in_flight=1, obs=obs)
        background = BackgroundService(service)
        raw = socket.socket()
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        raw.connect(background.start())
        raw.sendall(protocol.encode_frame(
            FrameType.REQ_SOLVE, 1,
            protocol.encode_solve_request(read_term("rep(A)")),
        ))
        # Backpressure, not server-side buffering: the bytes written
        # stop growing while the stream is still admitted.
        last, give_up = -1, time.monotonic() + 10
        while time.monotonic() < give_up:
            time.sleep(0.2)
            written = obs.registry.total("net.bytes_out")
            if written == last:
                break
            last = written
        assert written == last, "the stream never blocked on its reader"
        assert service.stats_snapshot()["admitted_now"] == 1
        return service, background, raw

    def test_a_stalled_solve_reader_who_hangs_up_frees_its_worker(self):
        before = set(threading.enumerate())
        obs = Instrumentation()
        service, background, raw = self.stalled_stream(obs)
        raw.close()  # walk away with the stream unread
        give_up = time.monotonic() + 5
        while service.stats_snapshot()["handled"] < 1:
            assert time.monotonic() < give_up, "the worker stayed blocked"
            time.sleep(0.01)
        self.within(1, background.stop)
        assert self.server_threads(before) == []
        total = obs.registry.total
        assert total("net.client_disconnects") == 1
        assert total("net.errors") == 0
        assert service.stats_snapshot()["admitted_now"] == 0

    def test_a_client_that_never_reads_cannot_hold_stop_past_its_timeout(self):
        before = set(threading.enumerate())
        obs = Instrumentation()
        _, background, raw = self.stalled_stream(obs)
        # The client neither reads nor leaves: past the drain's timeout
        # its connection is shut down, which fails the blocked write.
        self.within(5, background.stop, 0.3)
        self.gone_within(5, before)
        assert obs.registry.total("net.client_disconnects") == 1
        raw.close()

    def test_admission_accounting_holds_under_contention(self):
        """More clients than cores and a tiny switch interval: a lost
        update to the admission counter would leave it nonzero, or
        make accepted + rejected miss the requests sent."""
        import sys

        clients, calls = 12, 15
        obs = Instrumentation()
        service = RetrievalService(
            family_engine(), max_in_flight=2, queue_limit=3, obs=obs
        )
        goal = read_term("parent(tom, X)")
        background = BackgroundService(service)
        host, port = background.start()

        def hammer():
            with RetrievalClient(
                host, port, backoff=BackoffPolicy(max_retries=0)
            ) as client:
                for _ in range(calls):
                    try:
                        client.retrieve(goal)
                    except ServerBusy:
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        self.within(10, background.stop)
        total = obs.registry.total
        snapshot = service.stats_snapshot()
        assert snapshot["admitted_now"] == 0
        assert snapshot["handled"] == total("net.accepted")
        assert total("net.accepted") + total("net.busy_rejected") == (
            clients * calls
        )
        assert obs.registry.histogram("net.request_ms").count == (
            snapshot["handled"]
        )
