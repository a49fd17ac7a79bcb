"""The closed-loop driver: connections, passes, timed windows, checks.

CLARE's callers are Prolog hosts that wait for their clauses, so each
connection sends its next request only when the previous answer has
arrived and been checked.  A *pass* is one connection running a fixed
number of ops (the verified ledger pass, the untraced baseline, the
traced pass); the *windows* are two connections running back to back
for a fixed time.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.cluster import FleetClient, FleetWriteError
from repro.net import ConnectError, NetError, RetrievalClient
from repro.net.protocol import ProtocolError
from repro.storage import UnknownPredicateError

from bench.kbs import Op, Workload, answer_multiset

__all__ = ["Connection", "Sample", "ping", "run_pass", "run_windows", "percentile"]

#: what an op may raise without the benchmark itself being broken
_OP_ERRORS = (
    NetError, ConnectError, ProtocolError, FleetWriteError,
    UnknownPredicateError, OSError,
)
_READS = ("retrieve", "solve")


@dataclass
class Sample:
    """One completed op as the client saw it."""

    kind: str
    done_at: float  # time.perf_counter() at completion
    latency_s: float
    first_s: float  # to the first answer (== latency_s unless streamed)
    ok: bool
    answers: list = field(default_factory=list, repr=False)
    stats: object = None  # RetrievalStats of a retrieve
    error: str = ""


def ping(address: str) -> None:
    """Block until the service at ``address`` answers a ping."""
    host, _, port = address.rpartition(":")
    with RetrievalClient(host, int(port), pool_size=1) as probe:
        probe.ping()


class Connection:
    """One client connection to the deployment under test."""

    def __init__(self, workload: Workload, address: str, obs):
        host, _, port = address.rpartition(":")
        if workload.deployment == "fleet":
            self.client = FleetClient.connect(address, obs=obs)
        else:
            self.client = RetrievalClient(host, int(port), pool_size=1, obs=obs)

    def close(self) -> None:
        self.client.close()

    def execute(self, op: Op) -> Sample:
        """Send one op, wait for all of its answer, and time it."""
        client = self.client
        answers: list = []
        stats = None
        started = time.perf_counter()
        first = None
        try:
            if op.kind == "retrieve":
                result = client.retrieve(op.goal)
                answers, stats = result.candidates, result.stats
            elif op.kind == "solve":
                for bindings in client.solve(
                    op.goal, max_solutions=op.max_solutions
                ):
                    if first is None:
                        first = time.perf_counter()
                    answers.append(bindings)
            elif op.kind == "assertz":
                client.assertz(op.goal)
            elif client.retract(op.goal) is None:
                raise _Wrong("retract removed nothing")
        except _OP_ERRORS + (_Wrong,) as exc:
            done = time.perf_counter()
            return Sample(
                op.kind, done, done - started, done - started, False,
                error=f"{type(exc).__name__}: {exc}",
            )
        done = time.perf_counter()
        latency = done - started
        return Sample(
            op.kind, done, latency,
            latency if first is None else first - started,
            True, answers, stats,
        )


class _Wrong(Exception):
    """An answer that arrived but contradicts the oracle."""


def check_count(op: Op, sample: Sample) -> None:
    """The cheap check of the timed windows: the answer count."""
    if not sample.ok or op.kind not in _READS:
        return
    got = len(sample.answers)
    wrong = got != op.expect if op.exact else got < op.expect
    if wrong:
        sample.ok = False
        sample.error = f"{op.goal}: {got} answers, oracle says {op.expect}"


def check_full(workload: Workload, op: Op, sample: Sample) -> None:
    """The ledger pass's check: every true answer is present.

    Retrievals must be *sound* — no true unifier dropped; extra
    candidates are false drops and are counted, not failed, unless the
    plan ends in FS2 (``op.exact``), which is exact on these KBs.
    Solve answers must equal the oracle's multiset.
    """
    check_count(op, sample)
    if not sample.ok or op.kind not in _READS:
        return
    truth = workload.truth(op)
    got = answer_multiset(op, sample.answers)
    missing = truth - got
    if missing or (op.kind == "solve" and got != truth):
        sample.ok = False
        sample.error = f"{op.goal}: {sum(missing.values())} true answers missing"


def run_pass(
    workload: Workload, conn: Connection, phase: str, ops: int,
    *, verify_fully: bool = False, tracer=None,
) -> list[tuple[Op, Sample]]:
    """``ops`` ops of connection 0's sequence, then the workload's tail."""
    check = (
        (lambda op, sample: check_full(workload, op, sample))
        if verify_fully else check_count
    )
    def ops_of_pass():
        yield from itertools.islice(workload.sequence(0, phase), ops)
        # The tail depends on what the pass wrote, so it is asked for last.
        yield from workload.tail(0, phase)

    samples = []
    for op in ops_of_pass():
        if tracer is None:
            sample = conn.execute(op)
        else:
            with tracer.span("bench.op"):
                sample = conn.execute(op)
        check(op, sample)
        samples.append((op, sample))
    return samples


def run_windows(
    workload: Workload, conns: list[Connection], windows: int, window_s: float
) -> list[list[Sample]]:
    """Back-to-back timed windows over every connection.

    Returns the samples of each window (by completion time).  An op
    still in flight when the last window closes belongs to no window.
    """
    per_conn: list[list[Sample]] = [[] for _ in conns]
    broken: list[BaseException] = []
    begin = time.perf_counter() + 0.05
    end = begin + windows * window_s

    def drive(index: int) -> None:
        sequence = workload.sequence(index, "windows")
        out = per_conn[index]
        execute = conns[index].execute
        while time.perf_counter() < begin:
            time.sleep(0.001)
        try:
            while time.perf_counter() < end:
                op = next(sequence)
                sample = execute(op)
                check_count(op, sample)
                sample.answers = []  # nothing reads them again: free the clauses
                out.append(sample)
        except BaseException as exc:  # a bug in the benchmark, not a failed op
            broken.append(exc)

    threads = [
        threading.Thread(target=drive, args=(i,), name=f"bench-conn-{i}")
        for i in range(len(conns))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if broken:
        raise broken[0]
    by_window: list[list[Sample]] = [[] for _ in range(windows)]
    for samples in per_conn:
        for sample in samples:
            slot = int((sample.done_at - begin) / window_s)
            if 0 <= slot < windows:
                by_window[slot].append(sample)
    return by_window


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (nearest rank on the sorted sample)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered) + 0.5) - 1))
    return ordered[rank]
