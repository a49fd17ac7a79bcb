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

Replies are ``("ok", payload)`` or ``("err", exception)``, pickled on
the pipe.  A retrieve reply is the list of ``RetrievalResult``s itself:
the worker has already decoded the candidates through its own decode
cache, and terms are frozen values that pickle in constructor form
(compounds as flat token tuples), so the pickle is loss-free and a
goal of any depth crosses without recursion.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from ..crs import HostCostModel
from ..crs.server import ClauseRetrievalServer
from ..obs import Instrumentation
from ..storage import Residency
from .segments import attach_kb

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a spawned worker needs to rebuild its shard engine."""

    shard_id: int
    segments_dir: str
    cross_binding: bool = True
    cost_model: HostCostModel | None = None


def _build_engine(config: WorkerConfig, segments_dir: str):
    base = Instrumentation()
    obs = base.labelled(shard=str(config.shard_id))
    kb = attach_kb(segments_dir, obs=obs)
    server = ClauseRetrievalServer(
        kb,
        cost_model=config.cost_model,
        cross_binding=config.cross_binding,
        cache_size=0,  # as a threaded shard engine: no shard result cache
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
    except BaseException as exc:  # surface attach failures to the parent
        _send(conn, "err", exc)
        conn.close()
        return
    _send(conn, "ok", "ready")
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent went away; nothing left to serve
        verb = message[0]
        try:
            if verb == "retrieve_batch":
                payload = [
                    result
                    for goals, mode in message[1]
                    for result in server.retrieve_batch(goals, mode=mode)
                ]
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
    conn.close()
