"""Recursive graph and list workloads for the resolution engines.

The retrieval benchmarks stress the CRS with wide, flat fact bases; the
``solve`` pipeline needs the opposite shape — *small* programs whose
queries recurse deeply, so most of the work is conjunctive resolution
pulling candidates through the retrieval path (first-argument routing,
batched sibling prefetch, choice-point bookkeeping) rather than one big
scan.  Everything here is emitted as Prolog source text so the same
program consults identically into a :class:`~repro.storage.KnowledgeBase`,
a :class:`~repro.cluster.ShardedRetrievalServer`, or a file handed to
``repro.cli serve``.

All generated graphs are acyclic, so the naive left-recursive-free
``path/2`` closure terminates without tabling.
"""

from __future__ import annotations

__all__ = [
    "chain_edges",
    "layered_edges",
    "path_rules",
    "chain_program",
    "layered_program",
    "chain_path_goals",
    "nrev_program",
    "nrev_goal",
]

#: Transitive closure over ``edge/2``.  First argument indexed: a bound
#: source routes the ``edge(X, Y)`` candidate pull to one shard.
PATH_RULES = """\
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def _node(index: int) -> str:
    return f"n{index}"


def chain_edges(length: int) -> str:
    """``length`` edges in a line: n0 -> n1 -> ... -> n<length>."""
    return "\n".join(
        f"edge({_node(i)}, {_node(i + 1)})." for i in range(length)
    ) + ("\n" if length else "")


def layered_edges(layers: int, width: int) -> str:
    """A layered DAG: every node fans out to the whole next layer.

    ``layers * width`` nodes, ``(layers - 1) * width * width`` edges;
    the number of distinct source-to-sink paths grows as
    ``width ** (layers - 1)``, so even small shapes give the solver a
    deep, bushy search tree.
    """
    lines = []
    for layer in range(layers - 1):
        for src in range(width):
            for dst in range(width):
                lines.append(
                    f"edge(l{layer}_{src}, l{layer + 1}_{dst})."
                )
    return "\n".join(lines) + ("\n" if lines else "")


def path_rules() -> str:
    return PATH_RULES


def chain_program(length: int) -> str:
    """A chain of ``length`` edges plus the ``path/2`` closure."""
    return chain_edges(length) + PATH_RULES


def layered_program(layers: int, width: int) -> str:
    """A layered fan-out DAG plus the ``path/2`` closure."""
    return layered_edges(layers, width) + PATH_RULES


def chain_path_goals(length: int) -> list[str]:
    """Representative queries over :func:`chain_program`.

    One bound-source query (routes to a single shard under first-arg
    sharding), one fully open query (broadcast), and one reachability
    check spanning the whole chain.
    """
    return [
        f"path({_node(0)}, X)",
        "path(X, Y)",
        f"path({_node(0)}, {_node(length)})",
    ]


#: Naive reverse — the classic deep-recursion workload.  ``nrev/2`` on
#: an N-element list makes O(N^2) inferences and recurses N deep, which
#: is what the engine's deep-recursion tests are sized against.
NREV_RULES = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""


def nrev_program() -> str:
    """The ``app/3`` + ``nrev/2`` naive-reverse program."""
    return NREV_RULES


def nrev_goal(length: int) -> str:
    """``nrev([0, 1, ..., length-1], R)`` as goal text."""
    items = ", ".join(str(i) for i in range(length))
    return f"nrev([{items}], R)"
