"""A process-backed :class:`~repro.cluster.ShardedRetrievalServer`.

``ProcessShardedRetrievalServer`` keeps the entire cluster front-end —
routing, front-end mode planning, the replication log, stat merging —
in the parent, and moves only the *engine execution*
into one worker process per shard.  The parent remains authoritative:
its in-process shard engines hold the canonical KB (so snapshots,
migration and the replication log keep working unchanged), and
:meth:`start` exports each shard into an mmap segment directory that the
workers attach zero-copy.

Why this shape gives bit-identical accounting with the threaded path:

* the parent plans the effective mode once per goal over its aggregate
  view and ships it explicitly — workers never plan;
* worker shard content is byte-identical to the parent shard (segments
  are written from it, and every later mutation is forwarded under the
  same shard lock that ordered it locally);
* the worker runs the *same* ``ClauseRetrievalServer`` code over the
  same records, and simulated time is a pure function of those inputs.

The GIL is what changes: each worker owns its own interpreter, so the
per-record Python work of a broadcast runs on N cores instead of
interleaving on one — candidate decoding included, since a worker
answers with its pickled ``RetrievalResult`` list on the same pipe that
carries every other verb.  The fan-out is pipelined, not threaded: the
parent posts one request to every busy worker, then collects the
replies, blocked in ``Connection.recv`` (GIL released) while they run.

Fault tolerance: a worker that dies mid-call is respawned in place —
segments are re-exported from the parent's authoritative shard (which
replays every mutation by construction), the call retried once, and
``parallel.worker.restarts`` incremented.  ``WorkerError`` only
escapes when the *respawned* worker fails too.
"""

from __future__ import annotations

import shutil
import tempfile
from multiprocessing import get_context
from pathlib import Path

from ..cluster.server import (
    ClusterShard,
    GoalPlan,
    ShardedRetrievalServer,
    ShardWork,
)
from ..terms import Clause
from .segments import write_segments
from .worker import WorkerConfig, worker_main

__all__ = ["ProcessShardedRetrievalServer", "WorkerError"]


class WorkerError(RuntimeError):
    """A shard worker process died or failed to come up."""


class _WorkerHandle:
    """Parent-side endpoint of one shard worker (pipe + process)."""

    def __init__(self, shard_id: int, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        #: last metrics snapshot merged into the parent registry, so
        #: repeated pulls advance by delta instead of double-counting.
        self.last_metrics: dict | None = None

    def send(self, *message) -> None:
        """Post one request.  Caller holds the shard lock."""
        try:
            self.conn.send(message)
        except (OSError, BrokenPipeError) as exc:
            raise WorkerError(
                f"shard worker {self.shard_id} died before the call"
            ) from exc

    def receive(self):
        """The reply to the request just posted."""
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerError(
                f"shard worker {self.shard_id} died mid-call"
            ) from exc
        if status == "err":
            raise payload
        return payload

    def stop(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send(("stop",))
            self.conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.conn.close()


class ProcessShardedRetrievalServer(ShardedRetrievalServer):
    """The multi-core data plane: shard engines in worker processes.

    Drop-in for :class:`~repro.cluster.ShardedRetrievalServer` (and
    therefore for :class:`~repro.cluster.BatchExecutor`, the network
    service, and the solve engine's ``ClusterRetriever``): construct,
    load clauses, then :meth:`start` to bring the workers up.  Before
    ``start`` — and after :meth:`close` — it behaves exactly like its
    threaded parent, which is what lets one test drive both paths from
    a single instance.
    """

    def __init__(
        self,
        *args,
        spool_dir: str | None = None,
        **kwargs,
    ):
        # Worker state exists before super().__init__: a durable parent
        # replays its WAL during construction, and the mutation hooks
        # below consult ``_handles`` (empty = workers not up, local only).
        self._spool_dir = spool_dir
        self._owns_spool = False
        self._handles: dict[int, _WorkerHandle] = {}
        self._reload_counter = 0
        super().__init__(*args, **kwargs)

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._handles)

    def start(self) -> "ProcessShardedRetrievalServer":
        """Export segments and spawn one worker per shard (idempotent)."""
        if self._handles:
            return self
        if self._spool_dir is None:
            self._spool_dir = tempfile.mkdtemp(prefix="clare-segments-")
            self._owns_spool = True
        handles: dict[int, _WorkerHandle] = {}
        try:
            for shard in self.shards:
                handles[shard.shard_id] = self._launch_worker(shard)
            for handle in handles.values():  # ready handshake per worker
                self._await_ready(handle)
        except BaseException:
            for handle in handles.values():
                handle.stop(timeout=1.0)
            raise
        self._handles = handles
        self.obs.counter("parallel.workers_started").inc(len(handles))
        return self

    def close(self) -> None:
        """Stop the workers and reclaim the spool (idempotent)."""
        handles, self._handles = self._handles, {}
        for handle in handles.values():
            handle.stop()
        if self._owns_spool and self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None
            self._owns_spool = False
        super().close()

    def __enter__(self) -> "ProcessShardedRetrievalServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _launch_worker(self, shard: ClusterShard) -> _WorkerHandle:
        """Export the shard and spawn its worker (no handshake yet)."""
        # Spawn is the one start method that behaves identically across
        # platforms (see :mod:`repro.parallel.worker`).
        ctx = get_context("spawn")
        segments_dir = self._export_shard(shard)
        parent_conn, child_conn = ctx.Pipe()
        config = WorkerConfig(
            shard_id=shard.shard_id,
            segments_dir=segments_dir,
            cross_binding=self._cross_binding,
            cost_model=self._cost_model,
        )
        process = ctx.Process(
            target=worker_main,
            args=(child_conn, config),
            name=f"clare-shard-{shard.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(shard.shard_id, process, parent_conn)

    def _await_ready(self, handle: _WorkerHandle) -> None:
        try:
            status, payload = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(
                f"shard worker {handle.shard_id} failed to start"
            ) from exc
        if status == "err":
            raise payload

    def _respawn(self, shard: ClusterShard) -> _WorkerHandle:
        """Bring a dead shard worker back over freshly exported segments.

        The parent shard is authoritative and already holds every
        forwarded mutation, so re-exporting replays the generation —
        the new worker is byte-identical to what the dead one should
        have been.
        """
        handle = self._launch_worker(shard)
        try:
            self._await_ready(handle)
        except BaseException:
            handle.stop(timeout=1.0)
            raise
        self._handles[shard.shard_id] = handle
        return handle

    def _call_worker(self, shard: ClusterShard, *message):
        """One worker RPC with respawn-and-retry on a dead process.

        Caller holds the shard lock, so no mutation can race the
        re-export.  A second failure (the respawned worker also died)
        propagates — each *call* still gets its own retry, so the
        cluster degrades per-request instead of failing permanently.
        Returns ``(handle, payload)``; :meth:`_run_shards` runs the two
        halves apart to keep every busy worker working at once.
        """
        self._post(shard, *message)
        return self._collect(shard, *message)

    def _post(self, shard: ClusterShard, *message) -> None:
        try:
            self._handles[shard.shard_id].send(*message)
        except WorkerError:
            self._restart(shard).send(*message)

    def _collect(self, shard: ClusterShard, *message):
        handle = self._handles[shard.shard_id]
        try:
            return handle, handle.receive()
        except WorkerError:
            handle = self._restart(shard)
            handle.send(*message)
            return handle, handle.receive()

    def _restart(self, shard: ClusterShard) -> _WorkerHandle:
        self.obs.counter("parallel.worker.restarts").inc()
        self._handles[shard.shard_id].stop(timeout=1.0)
        return self._respawn(shard)

    def _export_shard(self, shard: ClusterShard) -> str:
        """Write one shard's segments under a fresh generation directory.

        Re-exports (worker reload after ``adopt_kb``, worker respawn)
        get a new directory instead of overwriting: the old worker may
        still hold maps over the previous files, and the generation
        suffix keeps the swap atomic from its point of view.
        """
        self._reload_counter += 1
        directory = str(
            Path(self._spool_dir)
            / f"shard-{shard.shard_id}-g{self._reload_counter}"
        )
        write_segments(shard.kb, directory)
        return directory

    # -- execution seam override --------------------------------------------

    def _run_shards(
        self, shard_work: ShardWork, deadline: float | None
    ) -> None:
        """The base fan-out, overlapped: every busy shard's lock (in id
        order, as every multi-lock holder takes them), one request to
        each worker, then the replies — the workers run side by side
        while the parent waits."""
        if not self._handles:
            return super()._run_shards(shard_work, deadline)
        held: list[ClusterShard] = []
        # Every posted request is collected, whatever went wrong in
        # between: an unread reply would answer that worker's *next*
        # request.  The first failure is raised once all are in.
        posted: list[tuple[ClusterShard, tuple, list[GoalPlan]]] = []
        failures: list[Exception] = []
        try:
            for shard_id in sorted(shard_work):
                self._acquire_shard(self.shards[shard_id], deadline)
                held.append(self.shards[shard_id])
            for shard in held:
                work = shard_work[shard.shard_id]
                message = ("retrieve_batch", [
                    ([plan.goal for plan in plans], mode)
                    for mode, plans in work.items()
                ])
                try:
                    self._post(shard, *message)
                except Exception as exc:  # noqa: BLE001 - raised below
                    failures.append(exc)
                    break
                posted.append((
                    shard, message,
                    [plan for plans in work.values() for plan in plans],
                ))
            for shard, message, plans in posted:
                try:
                    _, results = self._collect(shard, *message)
                except Exception as exc:  # noqa: BLE001 - raised below
                    failures.append(exc)
                    continue
                # The reply is the results, parallel to ``plans``.
                for plan, result in zip(plans, results):
                    plan.shard_results[shard.shard_id] = result
        finally:
            for shard in held:
                shard.lock.release()
        if failures:
            raise failures[0]

    def _on_shard_mutation(
        self, shard: ClusterShard, op: str, clause: Clause, module: str
    ) -> None:
        if shard.shard_id in self._handles:
            self._call_worker(shard, "mutate", op, clause, module)

    def _on_shard_reload(self, shard: ClusterShard) -> None:
        if shard.shard_id in self._handles:
            self._call_worker(shard, "reload", self._export_shard(shard))

    def _on_pin_module(self, name: str, residency: str) -> None:
        for shard in self.shards:
            if shard.shard_id not in self._handles:
                continue
            with shard.lock:
                self._call_worker(shard, "pin", name, residency)

    # -- observability -------------------------------------------------------

    def pull_worker_metrics(self) -> dict[int, dict]:
        """Merge each worker's metrics into the parent registry.

        Counter and histogram families advance by delta since the last
        pull (see :meth:`~repro.obs.MetricsRegistry.merge_snapshot`);
        every merged series gains a ``worker`` label next to the
        ``shard`` label the worker already stamps, so cluster-wide
        totals keep aggregating while per-worker shares stay visible.
        Returns the raw snapshots by shard id.
        """
        snapshots: dict[int, dict] = {}
        for shard in self.shards:
            if shard.shard_id not in self._handles:
                continue
            with shard.lock:
                handle, snapshot = self._call_worker(shard, "metrics")
            self.obs.registry.merge_snapshot(
                snapshot,
                previous=handle.last_metrics,
                worker=str(shard.shard_id),
            )
            handle.last_metrics = snapshot
            snapshots[shard.shard_id] = snapshot
        return snapshots
