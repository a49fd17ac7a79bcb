"""Seeded knowledge bases, request sequences and oracles for the workloads.

Everything the server is given comes from here: a workload is a list of
generated clauses, the deployment that serves them, and an endless,
seeded sequence of operations per connection.  The oracles never touch
the retrieval pipeline: true unifiers come from positional comparison
on the generated ground facts, graph answers from walking the generated
adjacency lists in Prolog's clause order (cross-checked against an
in-process :class:`~repro.engine.PrologMachine` over the same program).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.terms import Atom, Clause, Struct, Term, Var, clause_from_term, read_program
from repro.workloads.synthetic import FactKBSpec, generate_couples, generate_facts

__all__ = ["Sizes", "Op", "Workload", "FactOracle", "WORKLOADS", "build"]

#: name -> why the workload exists (also written into BENCHMARK.json).
WORKLOADS = {
    "point_lookup": (
        "selective two-bound and fully ground goals over 512 hot keys: "
        "per-message cost (net, cluster routing, planning, FS1) dominates"
    ),
    "wide_result": (
        "one-bound goals returning ~500 clauses each from a working set "
        "larger than the decode caches: pif decode and wire codec dominate"
    ),
    "scan_fs2": (
        "the paper's married_couple(S, S) shared-variable goal: FS1 is "
        "bypassed and FS2 streams the whole predicate"
    ),
    "mixed_rw": (
        "90% reads / 10% durable replicated assertz on a 2x2 fleet, each "
        "client re-reading its own write, then a retract tail"
    ),
    "graph_solve": (
        "recursive path, two-hop and triangle queries over a DAG via "
        "solve: the engine plus hundreds of tiny retrievals per op"
    ),
}


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the benchmark, in one place.

    The command of record uses the defaults; the smoke test passes tiny
    values through the Python API (there is no ``--quick`` flag).
    """

    facts: int = 20000
    fact_domains: tuple[int, int, int] = (2000, 40, 40)
    point_goals: int = 512
    couples: int = 2000
    mixed_facts: int = 10000
    graph_nodes: int = 5000
    graph_degree: int = 4
    graph_span: int = 40
    path_cap: int = 50
    retract_tail: int = 6
    #: ops of the fully verified ledger pass, per workload
    ledger_ops: tuple[tuple[str, int], ...] = (
        ("point_lookup", 400), ("wide_result", 40), ("scan_fs2", 8),
        ("mixed_rw", 400), ("graph_solve", 180),
    )
    #: ops of the untraced baseline pass and of the traced pass
    traced_ops: tuple[tuple[str, int], ...] = (
        ("point_lookup", 300), ("wide_result", 120), ("scan_fs2", 40),
        ("mixed_rw", 300), ("graph_solve", 60),
    )
    #: graph goals re-solved by the in-process PrologMachine
    graph_crosscheck: int = 6


@dataclass(frozen=True)
class Op:
    """One request: what to send and how many answers the oracle expects."""

    kind: str  # "retrieve" | "solve" | "assertz" | "retract"
    goal: Term  # the goal, or the fact to assert / retract
    expect: int = 0
    #: a plan ending in FS2 returns exactly the true unifiers on these
    #: ground-fact KBs; a raw FS1 plan may add codeword false drops.
    exact: bool = True
    max_solutions: int = 0


class FactOracle:
    """True unifiers of flat goals by positional comparison on ground facts."""

    def __init__(self, clauses: list[Clause]):
        self._rows: dict[tuple[str, int], list[tuple]] = {}
        self._indexes: dict[tuple, dict[tuple, list[tuple]]] = {}
        for clause in clauses:
            if clause.is_fact and isinstance(clause.head, Struct):
                self._rows.setdefault(clause.indicator, []).append(clause.head.args)

    def unifiers(self, goal: Struct) -> list[tuple]:
        """Argument tuples of every stored fact that unifies with ``goal``."""
        bound = tuple(
            i for i, arg in enumerate(goal.args) if not isinstance(arg, Var)
        )
        index = self._index(goal.indicator, bound)
        rows = index.get(tuple(goal.args[i] for i in bound), [])
        shared: dict[Var, list[int]] = {}
        for position, arg in enumerate(goal.args):
            if isinstance(arg, Var) and not arg.is_anonymous():
                shared.setdefault(arg, []).append(position)
        groups = [g for g in shared.values() if len(g) > 1]
        if groups:
            rows = [
                row for row in rows
                if all(len({row[i] for i in group}) == 1 for group in groups)
            ]
        return rows

    def add(self, fact: Struct) -> None:
        self._rows.setdefault(fact.indicator, []).append(fact.args)
        for (indicator, bound), index in self._indexes.items():
            if indicator == fact.indicator:
                key = tuple(fact.args[i] for i in bound)
                index.setdefault(key, []).append(fact.args)

    def remove(self, fact: Struct) -> None:
        self._rows[fact.indicator].remove(fact.args)
        for (indicator, bound), index in self._indexes.items():
            if indicator == fact.indicator:
                index[tuple(fact.args[i] for i in bound)].remove(fact.args)

    def _index(self, indicator, bound):
        index = self._indexes.get((indicator, bound))
        if index is None:
            index = {}
            for row in self._rows.get(indicator, []):
                index.setdefault(tuple(row[i] for i in bound), []).append(row)
            self._indexes[(indicator, bound)] = index
        return index


class Workload:
    """Clauses, deployment, request sequences and truth for one workload."""

    #: "svc4" = RetrievalService over a 4-shard first-arg cluster;
    #: "fleet" = 2 shards x 2 replicas, durable, behind FleetClient.
    deployment = "svc4"

    def __init__(self, name: str, seed: int, sizes: Sizes):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.ledger_ops = dict(sizes.ledger_ops)[name]
        self.traced_ops = dict(sizes.traced_ops)[name]
        self.clauses: list[Clause] = []

    def sequence(self, conn: int, phase: str) -> Iterator[Op]:
        """The endless request sequence of one connection.

        The draws depend on (seed, workload, connection) only, so every
        phase replays the same goals; ``phase`` names what a phase
        writes, so passes never collide on a fact.
        """
        raise NotImplementedError

    def tail(self, conn: int, phase: str) -> list[Op]:
        """Ops run once after a pass (``mixed_rw``'s retracts)."""
        return []

    def truth(self, op: Op) -> Counter:
        """The full expected answer multiset of a read or solve op."""
        raise NotImplementedError

    def _rng(self, conn: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{conn}")


def _answer_key(op: Op, answer) -> tuple:
    """One answer of ``op`` as a hashable: head args, or sorted bindings."""
    if op.kind == "solve":
        return tuple(answer[name] for name in sorted(answer))
    return answer.head.args


def answer_multiset(op: Op, answers: list) -> Counter:
    return Counter(_answer_key(op, answer) for answer in answers)


# -- fact workloads -----------------------------------------------------------


class _FactWorkload(Workload):
    """A workload over ground facts, with the positional oracle."""

    def __init__(self, name, seed, sizes, clauses):
        super().__init__(name, seed, sizes)
        self.clauses = clauses
        self.oracle = FactOracle(clauses)

    def truth(self, op: Op) -> Counter:
        return Counter(self.oracle.unifiers(op.goal))

    def _read(self, goal: Struct, exact: bool = True) -> Op:
        return Op("retrieve", goal, len(self.oracle.unifiers(goal)), exact)

    def _goal_pool(self, rng: random.Random, count: int) -> list[Struct]:
        """Heads of ``count`` distinct stored facts."""
        picks = rng.sample(range(len(self.clauses)), min(count, len(self.clauses)))
        return [self.clauses[i].head for i in picks]


def _rec_facts(sizes: Sizes, count: int, seed: int) -> list[Clause]:
    return generate_facts(
        FactKBSpec("rec", 3, count, domain_sizes=sizes.fact_domains, seed=seed)
    )


class PointLookup(_FactWorkload):
    def __init__(self, seed, sizes):
        super().__init__(
            "point_lookup", seed, sizes, _rec_facts(sizes, sizes.facts, seed)
        )
        heads = self._goal_pool(self._rng(-1), sizes.point_goals)
        cut = len(heads) * 3 // 4
        self.two_bound = [
            self._read(Struct("rec", (h.args[0], h.args[1], Var("C"))))
            for h in heads[:cut]
        ]
        # Fully ground goals plan raw FS1: candidates may exceed truth.
        self.ground = [self._read(h, exact=False) for h in heads[cut:]]

    def sequence(self, conn, phase):
        rng = self._rng(conn)
        # The mix is a fixed cycle, the goals are drawn: a ground goal
        # costs six two-bound ones, so a drawn mix would move every
        # metric by its own sampling error.
        for position in itertools.count():
            pool = self.ground if position % 4 == 3 else self.two_bound
            yield rng.choice(pool)


class WideResult(_FactWorkload):
    def __init__(self, seed, sizes):
        super().__init__(
            "wide_result", seed, sizes, _rec_facts(sizes, sizes.facts, seed)
        )
        self.goals = [
            self._read(Struct("rec", (Var("A"), Atom(f"c1_{k}"), Var("C"))))
            for k in range(sizes.fact_domains[1])
        ]

    def sequence(self, conn, phase):
        rng = self._rng(conn)
        if phase == "ledger":
            yield from self.goals  # every distinct goal verified once
        while True:
            yield rng.choice(self.goals)


class ScanFS2(_FactWorkload):
    def __init__(self, seed, sizes):
        clauses = [
            Clause(Struct(f"couple{j}", couple.head.args))
            for j in range(2)
            for couple in generate_couples(
                sizes.couples, same_surname_fraction=0.02, seed=seed * 2 + j
            )
        ]
        super().__init__("scan_fs2", seed, sizes, clauses)
        same = Var("S")
        self.goals = [
            self._read(Struct(f"couple{j}", (same, same))) for j in range(2)
        ]

    def sequence(self, conn, phase):
        rng = self._rng(conn)
        while True:
            yield rng.choice(self.goals)


class MixedRW(_FactWorkload):
    deployment = "fleet"

    def __init__(self, seed, sizes):
        super().__init__(
            "mixed_rw", seed, sizes, _rec_facts(sizes, sizes.mixed_facts, seed)
        )
        heads = self._goal_pool(self._rng(-1), sizes.point_goals * 3 // 4)
        self.reads = [
            self._read(Struct("rec", (h.args[0], h.args[1], Var("C"))))
            for h in heads
        ]
        #: facts each (phase, connection) wrote, oldest first
        self.written: dict[tuple[str, int], list[Struct]] = {}

    def sequence(self, conn, phase):
        rng = self._rng(conn)
        mine = self.written.setdefault((phase, conn), [])
        while True:
            # A fixed cycle: eight reads, one write, the read of that
            # write.  Reads come first on purpose — a cold FleetClient
            # that writes a predicate before reading it records only
            # the written shard and silently misses the others.
            for _ in range(8):
                yield rng.choice(self.reads)
            # Fresh first arguments: no base goal can see another
            # client's write, so every expected count stays exact.
            k = rng.randrange(self.sizes.fact_domains[1])
            fact = Struct(
                "rec",
                (Atom(f"w_{phase}_{conn}_{len(mine)}"), Atom(f"c1_{k}"),
                 Atom(f"c2_{k}")),
            )
            mine.append(fact)
            self.oracle.add(fact)
            yield Op("assertz", fact)
            yield Op("retrieve", _own_write_goal(fact), 1)

    def tail(self, conn, phase):
        ops = []
        for fact in self.written.get((phase, conn), [])[-self.sizes.retract_tail:]:
            self.oracle.remove(fact)
            ops.append(Op("retract", fact))
            ops.append(Op("retrieve", _own_write_goal(fact), 0))
        return ops


def _own_write_goal(fact: Struct) -> Struct:
    return Struct("rec", (fact.args[0], fact.args[1], Var("C")))


# -- the recursive graph workload ---------------------------------------------

GRAPH_RULES = """\
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
hop2(X, Z) :- edge(X, Y), edge(Y, Z).
tri(A, B, C) :- edge(A, B), edge(B, C), edge(A, C).
"""


class GraphSolve(Workload):
    def __init__(self, seed, sizes):
        super().__init__("graph_solve", seed, sizes)
        rng = self._rng(-1)
        nodes = sizes.graph_nodes
        #: out-neighbours in clause order — a DAG, so path/2 terminates
        self.adj: list[list[int]] = []
        for node in range(nodes):
            ahead = range(node + 1, min(node + sizes.graph_span, nodes - 1) + 1)
            self.adj.append(
                rng.sample(ahead, min(sizes.graph_degree, len(ahead)))
            )
        self.clauses = [
            Clause(Struct("edge", (_node(src), _node(dst))))
            for src, targets in enumerate(self.adj) for dst in targets
        ]
        self.clauses += [clause_from_term(t) for t in read_program(GRAPH_RULES)]
        #: start nodes keep the whole forward span ahead of them
        self.roots = max(1, nodes - 3 * sizes.graph_span)

    def sequence(self, conn, phase):
        rng = self._rng(conn)
        # 60 / 25 / 15 as a fixed, shuffled cycle of twenty; roots drawn.
        cycle = ["hop2"] * 12 + ["path"] * 5 + ["tri"] * 3
        rng.shuffle(cycle)
        for kind in itertools.cycle(cycle):
            root = rng.randrange(self.roots)
            yield self.op(kind, root)
            if phase == "ledger":
                # solve returns no modelled stats; the ledger pass also
                # pulls the edge sets a two-hop from this root reads.
                for node in (root, *self.adj[root]):
                    yield Op(
                        "retrieve", Struct("edge", (_node(node), Var("Z"))),
                        len(self.adj[node]),
                    )

    def op(self, kind: str, root: int) -> Op:
        head = {
            "hop2": Struct("hop2", (_node(root), Var("Z"))),
            "path": Struct("path", (_node(root), Var("Z"))),
            "tri": Struct("tri", (_node(root), Var("B"), Var("C"))),
        }[kind]
        cap = self.sizes.path_cap if kind == "path" else 0
        return Op("solve", head, len(self._answers(head, cap)), True, cap)

    def truth(self, op):
        if op.kind == "retrieve":
            src = op.goal.args[0]
            return Counter(
                (src, _node(dst)) for dst in self.adj[_index(src)]
            )
        return Counter(self._answers(op.goal, op.max_solutions))

    def _answers(self, goal: Struct, cap: int) -> list[tuple]:
        """Answers in Prolog order: clause order, depth first."""
        root = _index(goal.args[0])
        adj = self.adj
        if goal.functor == "hop2":
            return [(_node(z),) for y in adj[root] for z in adj[y]]
        if goal.functor == "tri":
            return [
                (_node(b), _node(c))
                for b in adj[root] for c in adj[b]
                for _ in range(adj[root].count(c))
            ]
        answers: list[tuple] = []

        def walk(node: int) -> None:
            for y in adj[node]:
                if len(answers) >= cap:
                    return
                answers.append((_node(y),))
            for y in adj[node]:
                if len(answers) >= cap:
                    return
                walk(y)

        walk(root)
        return answers

    def crosscheck(self) -> int:
        """Re-solve a few goals on an in-process PrologMachine.

        The machine resolves over the same generated program with no
        cluster, no wire and no solve engine in the way; any difference
        from the adjacency walk is a bug in this oracle and raises.
        """
        from repro.engine import PrologMachine
        from repro.storage import KnowledgeBase, Residency

        kb = KnowledgeBase()
        kb.consult_clauses(self.clauses)
        kb.module("user").pin(Residency.DISK)
        kb.sync_to_disk()
        machine = PrologMachine(kb)
        rng = self._rng(-2)
        checked = 0
        for position in range(self.sizes.graph_crosscheck):
            kind = ("hop2", "path", "tri")[position % 3]
            op = self.op(kind, rng.randrange(self.roots))
            solutions = []
            for bindings in machine.solve(op.goal):
                solutions.append(bindings)
                if op.max_solutions and len(solutions) >= op.max_solutions:
                    break
            if answer_multiset(op, solutions) != self.truth(op):
                raise AssertionError(
                    f"graph oracle disagrees with PrologMachine on {op.goal}"
                )
            checked += 1
        return checked


def _node(index: int) -> Atom:
    return Atom(f"n{index}")


def _index(node: Atom) -> int:
    return int(node.name[1:])


_BUILDERS = {
    "point_lookup": PointLookup,
    "wide_result": WideResult,
    "scan_fs2": ScanFS2,
    "mixed_rw": MixedRW,
    "graph_solve": GraphSolve,
}


def build(name: str, seed: int, sizes: Sizes | None = None) -> Workload:
    return _BUILDERS[name](seed, sizes or Sizes())
