"""The shard worker process: one CLARE engine over attached segments.

Each worker is spawned (never forked — spawn is the only start method
that behaves identically across platforms and never inherits locks or
mmaps mid-operation) with a picklable :class:`WorkerConfig`, attaches
the shard's segment directory zero-copy, builds the same
:class:`~repro.crs.ClauseRetrievalServer` the threaded path uses, and
then serves a tiny pickled-tuple RPC over its pipe, one request at a
time:

``("retrieve_batch", [(goals, mode), ...])``
    Run each group through the engine's ``retrieve_batch`` with the mode
    the parent planned — the worker never plans, which is one half of
    the bit-identical-stats guarantee (the other half is identical shard
    content and identical engine code) — and reply with every group's
    results, concatenated in order.
``("mutate", op, clause, module)``
    Apply one forwarded mutation (``assertz``/``asserta``/
    ``remove_exact``); the touched predicate leaves its segment via
    copy-on-write.
``("pin", name, residency)``
    Mirror a module residency pin (plus the disk sync it implies).
``("reload", segments_dir)``
    Drop the engine and re-attach a freshly exported directory
    (wholesale KB adoption on the parent side).
``("metrics", )``
    Return the worker registry's snapshot for parent-side merging.
``("ping", )`` / ``("stop", )``
    Liveness and orderly shutdown.

Replies are ``("ok", payload)`` or ``("err", exception)``.  Results are
written to the worker's shared-memory slab as an ``(address, record
bytes)`` directory and answered with a ``("__shm__", length)``
reference — see :mod:`repro.parallel.shm`; payloads that cannot ride the
slab (outgrown, unknown addresses) and workers launched without one
(``shm_name=None``: the host could not create shared memory) fall back
to pickled dataclasses on the pipe (terms are frozen slotted dataclasses
with value equality, so that transport is loss-free too).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from ..crs import HostCostModel
from ..crs.server import ClauseRetrievalServer
from ..obs import Instrumentation
from ..storage import Residency
from .segments import attach_kb
from .shm import DEFAULT_SLOT_BYTES, SlabWriter, attach_slab, encode_results

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a spawned worker needs to rebuild its shard engine."""

    shard_id: int
    segments_dir: str
    cross_binding: bool = True
    cost_model: HostCostModel | None = None
    #: the worker's result slab; ``None`` when the parent could not
    #: create one, and every result is pickled through the pipe.
    shm_name: str | None = None
    shm_slot_bytes: int = DEFAULT_SLOT_BYTES


def _build_engine(config: WorkerConfig, segments_dir: str):
    base = Instrumentation()
    obs = base.labelled(shard=str(config.shard_id))
    kb = attach_kb(segments_dir, obs=obs)
    server = ClauseRetrievalServer(
        kb,
        cost_model=config.cost_model,
        cross_binding=config.cross_binding,
        cache_size=0,  # caching happens once, at the cluster front-end
        obs=obs,
    )
    return base, kb, server


def _apply_mutation(kb, op: str, clause, module: str) -> None:
    if op == "assertz":
        kb.add_clause(clause, module=module)
    elif op == "asserta":
        kb.asserta(clause, module=module)
    elif op == "remove_exact":
        kb.remove_exact(clause)
    else:
        raise ValueError(f"unknown mutation op {op!r}")


def _send(conn, status: str, payload) -> None:
    try:
        conn.send((status, payload))
    except (pickle.PicklingError, TypeError, AttributeError):
        # An unpicklable payload (exotic exception state) must not kill
        # the reply — degrade to a plain RuntimeError description.
        conn.send(("err", RuntimeError(f"{type(payload).__name__}: {payload}")))


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point for the spawned worker process."""
    try:
        base, kb, server = _build_engine(config, config.segments_dir)
        writer = None
        if config.shm_name:
            writer = SlabWriter(
                attach_slab(config.shm_name), config.shm_slot_bytes
            )
    except BaseException as exc:  # surface attach failures to the parent
        _send(conn, "err", exc)
        conn.close()
        return
    _send(conn, "ok", "ready")

    def _via_slab(results):
        """Slab reference for a retrieve reply, or the results themselves."""
        if writer is None:
            return results
        encoded = encode_results(results, kb)
        if encoded is None:
            return results
        ref = writer.write(encoded)
        return results if ref is None else ref

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing left to serve
        verb = message[0]
        try:
            if verb == "retrieve_batch":
                payload = _via_slab([
                    result
                    for goals, mode in message[1]
                    for result in server.retrieve_batch(goals, mode=mode)
                ])
            elif verb == "mutate":
                _apply_mutation(kb, message[1], message[2], message[3])
                payload = kb.version
            elif verb == "pin":
                kb.module(message[1]).pin(message[2])
                if message[2] == Residency.DISK:
                    kb.sync_to_disk()
                payload = None
            elif verb == "reload":
                base, kb, server = _build_engine(config, message[1])
                payload = "ready"
            elif verb == "metrics":
                payload = base.registry.snapshot()
            elif verb == "ping":
                payload = "pong"
            elif verb == "stop":
                _send(conn, "ok", None)
                break
            else:
                raise ValueError(f"unknown worker verb {verb!r}")
        except BaseException as exc:
            _send(conn, "err", exc)
        else:
            _send(conn, "ok", payload)
    if writer is not None:
        writer.close()
    conn.close()
