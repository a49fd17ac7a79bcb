"""The server subprocess of one workload, and the handle that drives it.

``python -m bench.serving`` is the child: it is sent the generated
clauses, builds the deployment with default engine settings (the only
thing it passes is an explicit ``Instrumentation(enabled=False)`` so
counts can be read later), pins ``user`` to disk so the planner picks
the paper's hardware modes, serves on a loopback port and then obeys
the control pipe.  :class:`Server` is the parent's side.

The control pipe carries length-prefixed pickles in both directions;
both ends are this benchmark's own processes.
"""

from __future__ import annotations

import os
import pickle
import resource
import shutil
import struct
import subprocess
import sys
import tempfile
import time

from bench import ROOT
from bench.tracing import Tracer

__all__ = ["Server", "OUT_DIR"]

OUT_DIR = ROOT / "bench" / "out"
_LENGTH = struct.Struct(">I")


def _send(stream, message) -> None:
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_LENGTH.pack(len(body)) + body)
    stream.flush()


def _receive(stream):
    header = stream.read(_LENGTH.size)
    if len(header) < _LENGTH.size:
        raise EOFError("control pipe closed")
    return pickle.loads(stream.read(_LENGTH.unpack(header)[0]))


# -- parent side --------------------------------------------------------------


class Server:
    """One spawned server process and its control pipe."""

    def __init__(self, deployment: str, clauses: list):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "bench.serving"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            _send(self._process.stdin, (deployment, clauses))
            #: "host:port" of the service (any replica, for a fleet)
            self.address: str = _receive(self._process.stdout)
        except BaseException:
            self.kill()
            raise

    def call(self, command: str):
        _send(self._process.stdin, command)
        return _receive(self._process.stdout)

    def stop(self) -> None:
        """Drain the service and wait for the process to end."""
        try:
            self.call("stop")
            self._process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self._process.poll() is None:
            self._process.kill()
        self._process.wait()
        for stream in (self._process.stdin, self._process.stdout):
            stream.close()


# -- child side ---------------------------------------------------------------


def _build_svc4(clauses, obs):
    from repro.cluster import ShardedRetrievalServer, ShardingPolicy
    from repro.net import BackgroundService, RetrievalService
    from repro.storage import Residency

    engine = ShardedRetrievalServer(4, ShardingPolicy.FIRST_ARG, obs=obs)
    engine.consult_clauses(clauses)
    engine.pin_module("user", Residency.DISK)  # also writes the extents
    background = BackgroundService(RetrievalService(engine, obs=obs))
    host, port = background.start()

    def stop():
        background.stop()
        engine.close()

    return f"{host}:{port}", stop


def _build_fleet(clauses, obs):
    from repro.cluster import Fleet
    from repro.storage import Residency

    store = tempfile.mkdtemp(prefix="wal-", dir=OUT_DIR)
    fleet = Fleet(
        "\n".join(str(clause) for clause in clauses),
        num_shards=2, replicas=2, policy="first_arg", obs=obs,
        service_opts={"obs": obs},
        durability_root=store, durability_opts={"flush": "fsync"},
    )
    fleet.start()
    for node in fleet.nodes.values():
        node.engine.pin_module("user", Residency.DISK)

    def stop():
        fleet.stop()
        shutil.rmtree(store, ignore_errors=True)

    return fleet.live_addresses()[0], stop


def _peak_rss_mb() -> float:
    """This process's own high-water mark.

    ``ru_maxrss`` survives exec: it would report the driver's size at
    the moment it spawned us whenever that was the larger.  ``VmHWM``
    belongs to the address space exec created.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    from repro.obs import Instrumentation

    # Keep the control pipe clean: stray prints go to stderr.
    control_in = os.fdopen(os.dup(0), "rb")
    control_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)

    deployment, clauses = _receive(control_in)
    obs = Instrumentation(enabled=False)
    build = {"svc4": _build_svc4, "fleet": _build_fleet}[deployment]
    address, stop = build(clauses, obs)
    del clauses
    _send(control_out, address)

    tracer = Tracer()
    counts_before: dict = {}
    while True:
        try:
            command = _receive(control_in)
        except EOFError:
            command = "stop"  # the parent died: do not linger
        if command == "trace_on":
            counts_before = obs.registry.snapshot()
            obs.enable()
            tracer.install()
            reply = None
        elif command == "trace_off":
            tracer.uninstall()
            obs.disable()
            reply = (tracer.drain(), counts_before, obs.registry.snapshot())
        elif command == "rss_mb":
            reply = _peak_rss_mb()
        elif command == "stop":
            stop()
            try:
                _send(control_out, None)
            except OSError:
                pass
            return
        else:
            raise ValueError(f"unknown control command {command!r}")
        _send(control_out, reply)


if __name__ == "__main__":
    main()
