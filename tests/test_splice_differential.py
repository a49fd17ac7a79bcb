"""Spliced ≡ rebuilt, everywhere the clause file lives.

``asserta`` / ``retract`` / ``remove_exact`` edit a predicate's clause
image, index rows and bit-sliced columns in place.  The contract is
that nobody can tell: after *every* step of *any* mutation sequence the
store is byte-for-byte the store a from-scratch build of the surviving
clauses would be — image, address table, fact count, index rows, packed
columns — the clause a retract reports is the one Prolog says it should
be, and retrieval over the spliced store returns the same candidates
and the same modelled statistics in all four modes.

The same sequences then run where the file lives in other forms: the
shards of a threaded cluster, the mmap-attached (copy-on-write) stores
of ``processes:N`` workers, and — in :mod:`tests.test_wal_crash` — a
durable node SIGKILLed mid-plan and recovered from snapshot + WAL.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardedRetrievalServer, ShardingPolicy
from repro.crs import ClauseRetrievalServer, SearchMode
from repro.obs import Instrumentation
from repro.parallel import ProcessShardedRetrievalServer
from repro.pif import ClauseFile, PIFError
from repro.scw import SecondaryIndexFile
from repro.storage import KnowledgeBase, Residency
from repro.terms import (
    Clause,
    Struct,
    Term,
    Var,
    clause_from_term,
    read_term,
    rename_apart,
)
from repro.unify import unify
from tests.strategies import clause_heads


def clause(text: str) -> Clause:
    return clause_from_term(read_term(text))


#: Clauses the random strategy reaches rarely or never: both zeros,
#: shared variables within and across arguments, rules with bodies, a
#: 14-argument head (past the 12 the codeword encodes) and a 33-ary
#: term (past the 31 an in-line item can carry, so it lives on the heap).
EDGE_CLAUSES = [
    clause("p(-0.0, 0.0, f(-0.0))"),
    clause("p(X, X, g(X, _, [X | T]))"),
    clause("p(X, Y, Z) :- q(X), r(Y, Z)"),
    clause("p(a, Y, b) :- q(Y)"),
    clause("p(a, b, c)"),
    clause("w(" + ", ".join(f"a{i}" for i in range(14)) + ")"),
    clause("w(" + ", ".join("X" if i % 2 else f"g({i}, Y)" for i in range(14))
           + ") :- q(X, Y)"),
    clause("p(t(" + ", ".join(f"e{i}" for i in range(33)) + "), x, y)"),
]

#: Retract templates with variables: head-only, head-and-body, and the
#: catch-alls that make the shortlist the whole file.
EDGE_TEMPLATES = [
    clause("p(A, B, C)"),
    clause("p(a, B, C)"),
    clause("p(A, A, C)"),
    clause("p(0.0, B, C)"),
    clause("p(A, B, C) :- q(A), R"),
    clause("p(A, B, C) :- Body"),
    clause("w(a0, " + ", ".join(f"V{i}" for i in range(13)) + ")"),
    clause("w(" + ", ".join(f"V{i}" for i in range(14)) + ") :- Body"),
]

GOALS = [
    read_term(text)
    for text in (
        "p(A, B, C)", "p(a, B, C)", "p(S, S, C)", "p(0.0, B, C)",
        "w(a0, " + ", ".join(f"V{i}" for i in range(13)) + ")",
        # constants no step ever stores: a read must not intern them
        "p(never_stored, B, 6.125)", "p(S, S, never(stored))",
    )
]


def clauses_strategy() -> st.SearchStrategy[Clause]:
    random_facts = st.one_of(
        clause_heads(functor="p", arity=3), clause_heads(functor="w", arity=14)
    ).map(Clause)
    return st.one_of(st.sampled_from(EDGE_CLAUSES), random_facts)


def templates_strategy() -> st.SearchStrategy[Clause]:
    return st.one_of(
        st.sampled_from(EDGE_TEMPLATES),
        st.sampled_from(EDGE_CLAUSES),
        clause_heads(functor="p", arity=3).map(Clause),
    )


def steps_strategy(max_size: int) -> st.SearchStrategy[list[tuple]]:
    """Mutation sequences; ``remove_exact`` names its victim by a draw
    resolved against the survivors at the time the step runs."""
    step = st.one_of(
        st.tuples(st.just("assertz"), clauses_strategy()),
        st.tuples(st.just("asserta"), clauses_strategy()),
        st.tuples(st.just("retract"), templates_strategy()),
        st.tuples(st.just("remove_exact"), st.integers(0, 1 << 16)),
    )
    seeded = st.lists(clauses_strategy(), min_size=2, max_size=8).map(
        lambda clauses: [("assertz", c) for c in clauses]
    )
    return st.builds(
        lambda head, tail: head + tail,
        seeded,
        st.lists(step, min_size=1, max_size=max_size),
    )


class Model:
    """The oracle: each predicate's surviving clauses, as a plain list."""

    def __init__(self) -> None:
        self.clauses: dict[tuple[str, int], list[Clause]] = {}

    def survivors(self) -> list[Clause]:
        return [c for clauses in self.clauses.values() for c in clauses]

    def assertz(self, new: Clause) -> None:
        self.clauses.setdefault(new.indicator, []).append(new)

    def asserta(self, new: Clause) -> None:
        self.clauses.setdefault(new.indicator, []).insert(0, new)

    def retract(self, template: Clause) -> Clause | None:
        """Prolog's rule: the first clause unifying with the template."""
        stored = self.clauses.get(template.indicator, [])
        probe = template.to_term()
        for position, candidate in enumerate(stored):
            if unify(probe, rename_apart(candidate.to_term())) is not None:
                return stored.pop(position)
        return None

    def remove_exact(self, victim: Clause) -> None:
        self.clauses[victim.indicator].remove(victim)


def storable(kb: KnowledgeBase, new: Clause) -> bool:
    """Whether the record fits a Result Memory slot (else the step is
    skipped: an oversized clause is rejected before anything changes)."""
    try:
        ClauseFile(new.indicator, kb.symbols).append(new)
    except PIFError:
        return False
    return True


def apply_step(target, model: Model, step: tuple, prolog_order: bool = True):
    """Run one step on ``target`` (a KB or a cluster) and on the model.

    Returns (indicator touched, whether a clause file was spliced, the
    clause a retract removed).  With ``prolog_order`` the target must
    retract the very clause the model does; without it (clause order
    across shards is not defined) any unifying clause will do, and the
    model follows the target.
    """
    op, argument = step
    if op in ("assertz", "asserta"):
        getattr(target, op)(argument)
        getattr(model, op)(argument)
        return argument.indicator, op == "asserta", None
    if op == "retract":
        removed = target.retract_matching(argument)
        expected = model.retract(argument)
        if prolog_order:
            assert removed == expected
        else:
            assert (removed is None) == (expected is None)
            if removed != expected:
                model.clauses[expected.indicator].insert(0, expected)
                model.remove_exact(removed)
        return argument.indicator, removed is not None, removed
    survivors = model.survivors()
    if not survivors:
        return None, False, None
    victim = survivors[argument % len(survivors)]
    assert target.remove_exact(victim)
    model.remove_exact(victim)
    return victim.indicator, True, None


def rebuilt(kb: KnowledgeBase, survivors: list[Clause]):
    """(clause file, index) built from scratch over ``kb``'s symbols."""
    indicator = survivors[0].indicator
    clause_file = ClauseFile(indicator, kb.symbols)
    index = SecondaryIndexFile(kb.scheme, indicator)
    for survivor in survivors:
        clause_file.append(survivor)
        index.add(survivor.head, clause_file.last_address())
    return clause_file, index


def assert_store_is_its_rebuild(kb: KnowledgeBase, indicator, survivors) -> None:
    store = kb.store(indicator)
    if not survivors:
        assert len(store) == 0 and store.fact_count == 0
        assert store.clause_file.to_bytes() == b"" == store.index.to_bytes()
        assert store.index.bitsliced.scan(
            kb.scheme.query_codeword(Struct(*_open(indicator)))
        ) == []
        return
    clause_file, index = rebuilt(kb, survivors)
    assert store.clause_file.to_bytes() == clause_file.to_bytes()
    assert store.clause_file.record_addresses() == clause_file.record_addresses()
    assert store.fact_count == clause_file.fact_count
    assert len(store) == len(survivors)
    assert store.index.to_bytes() == index.to_bytes()
    assert store.index.record_addresses() == clause_file.record_addresses()
    assert (
        store.index.bitsliced.packed_columns()
        == index.bitsliced.packed_columns()
    )


def _open(indicator: tuple[str, int]) -> tuple[str, tuple[Term, ...]]:
    name, arity = indicator
    return name, tuple(Var(f"V{i}") for i in range(arity))


def fingerprint(result):
    """Candidates in order plus the whole modelled stats row."""
    return (
        [str(c) for c in result.candidates],
        dataclasses.astuple(result.stats),
    )


def reference_kb(kb: KnowledgeBase, model: Model) -> KnowledgeBase:
    """A from-scratch KB of the survivors, over the same symbol table
    (record bytes carry symbol offsets) and the same residency."""
    reference = KnowledgeBase(scheme=kb.scheme)
    reference.symbols = kb.symbols
    reference.consult_clauses(model.survivors())
    reference.module("user").pin(Residency.DISK)
    return reference


def assert_retrieval_is_its_rebuilds(kb, crs, model: Model) -> None:
    reference = ClauseRetrievalServer(reference_kb(kb, model), cache_size=0)
    for goal in GOALS:
        if not model.clauses.get(goal.indicator):
            continue
        for mode in SearchMode:
            assert fingerprint(crs.retrieve(goal, mode=mode)) == fingerprint(
                reference.retrieve(goal, mode=mode)
            ), (goal, mode)


def run_single_kb(steps: list[tuple], warm_columns: bool) -> None:
    obs = Instrumentation()
    kb = KnowledgeBase(obs=obs)
    kb.module("user").pin(Residency.DISK)
    crs = ClauseRetrievalServer(kb, cache_size=0, obs=obs)
    model = Model()
    splices = 0
    for step in steps:
        if step[0] in ("assertz", "asserta") and not storable(kb, step[1]):
            continue
        if warm_columns:
            for store in kb:
                store.index.bitsliced  # splice live columns, not lazy ones
        generations = {s.indicator: s.clause_file.generation for s in kb}
        touched, spliced, _ = apply_step(kb, model, step)
        for indicator, survivors in model.clauses.items():
            assert_store_is_its_rebuild(kb, indicator, survivors)
        for store in kb:
            # a splice, and only a splice, takes a fresh generation
            before = generations.get(store.indicator)
            moved = before != store.clause_file.generation
            if before is not None:
                assert moved == (spliced and store.indicator == touched)
        splices += spliced
        assert_retrieval_is_its_rebuilds(kb, crs, model)
    assert obs.registry.total("storage.splices") == splices


class TestSplicedEqualsRebuilt:
    @given(steps=steps_strategy(max_size=10), warm=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_every_step_of_a_random_sequence(self, steps, warm):
        run_single_kb(steps, warm)

    @pytest.mark.slow
    @given(steps=steps_strategy(max_size=40), warm=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_every_step_of_a_long_random_sequence(self, steps, warm):
        run_single_kb(steps, warm)

    def test_every_edge_clause_against_every_edge_template(self):
        """Each template retracts from a full file until it misses."""
        for template in EDGE_TEMPLATES:
            steps = [("assertz", c) for c in EDGE_CLAUSES]
            steps += [("asserta", c) for c in EDGE_CLAUSES[:3]]
            steps += [("retract", template)] * (len(EDGE_CLAUSES) + 4)
            run_single_kb(steps, warm_columns=True)

    def test_retract_decodes_only_the_shortlist(self, monkeypatch):
        """The victim is found the way retrieval finds it: FS1 first."""
        import repro.pif.clausefile as clausefile

        kb = KnowledgeBase()
        kb.consult_text(" ".join(f"p(k{i}, v{i % 5}, {i})." for i in range(400)))
        decodes = 0
        original = clausefile.decode_compiled

        def counting(*args, **kwargs):
            nonlocal decodes
            decodes += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(clausefile, "decode_compiled", counting)
        assert kb.retract(read_term("p(k321, V, N)"))
        assert kb.remove_exact(clause("p(k7, v2, 7)"))
        assert 2 <= decodes <= 8  # the two victims plus codeword ghosts
        assert not kb.retract(read_term("p(nowhere, V, N)"))
        assert len(kb.store(("p", 3))) == 398


class TestColumnWordBoundaries:
    """The column splice shifts big-integer columns by one bit: the
    entries on either side of a 64-bit word edge are where an off-by-one
    would hide."""

    SIZE = 130

    def build(self, size=SIZE):
        kb = KnowledgeBase()
        model = Model()
        for i in range(size):
            fact = clause(f"p(k{i}, v{i % 5}, {i})")
            kb.assertz(fact)
            model.assertz(fact)
        kb.store(("p", 3)).index.bitsliced  # the columns are live
        return kb, model

    @pytest.mark.parametrize("victim", [0, 1, 62, 63, 64, 65, 127, 128, 129])
    def test_delete_at(self, victim):
        kb, model = self.build()
        fact = clause(f"p(k{victim}, v{victim % 5}, {victim})")
        assert kb.remove_exact(fact)
        model.remove_exact(fact)
        assert_store_is_its_rebuild(kb, ("p", 3), model.clauses[("p", 3)])
        probe = kb.scheme.query_codeword(read_term(f"p(k{victim}, V, N)"))
        index = kb.store(("p", 3)).index
        assert index.bitsliced.scan(probe) == index.scan(probe)

    @pytest.mark.parametrize("size", [1, 63, 64, 65, 128])
    def test_insert_front_across_a_word_edge(self, size):
        kb, model = self.build(size)
        front = clause("p(front, v0, -1)")
        kb.asserta(front)
        model.asserta(front)
        assert_store_is_its_rebuild(kb, ("p", 3), model.clauses[("p", 3)])
        probe = kb.scheme.query_codeword(read_term(f"p(k{size - 1}, V, N)"))
        index = kb.store(("p", 3)).index
        assert index.bitsliced.scan(probe) == index.scan(probe) != []

    def test_drain_from_alternating_ends(self):
        kb, model = self.build(70)
        low, high = 0, 69
        while low <= high:
            for victim in {low, high}:
                fact = clause(f"p(k{victim}, v{victim % 5}, {victim})")
                assert kb.retract_matching(fact) == model.retract(fact)
                assert_store_is_its_rebuild(
                    kb, ("p", 3), model.clauses[("p", 3)]
                )
            low, high = low + 1, high - 1
        assert len(kb.store(("p", 3))) == 0

    def test_single_entry_file_to_empty_and_back(self):
        kb, model = self.build(1)
        only = clause("p(k0, v0, 0)")
        assert kb.retract_matching(clause("p(A, B, C)")) == model.retract(only)
        assert_store_is_its_rebuild(kb, ("p", 3), [])
        assert not kb.retract(read_term("p(A, B, C)"))
        assert not kb.remove_exact(only)
        for op in ("asserta", "assertz", "asserta"):
            fresh = clause(f"p({op}, again, {len(model.survivors())})")
            getattr(kb, op)(fresh)
            getattr(model, op)(fresh)
            assert_store_is_its_rebuild(kb, ("p", 3), model.clauses[("p", 3)])


# -- the same sequences, where the file lives in other forms -----------------


def assert_cluster_is_its_rebuilds(cluster, model: Model) -> None:
    """Every shard store is the rebuild of what it holds, and the shards
    together hold exactly the model's survivors."""
    held: Counter = Counter()
    for shard in cluster.shards:
        for store in shard.kb:
            survivors = store.clauses()
            held.update(survivors)
            assert_store_is_its_rebuild(shard.kb, store.indicator, survivors)
    assert held == Counter(model.survivors())


def run_cluster(steps, num_shards, policy) -> None:
    cluster = ShardedRetrievalServer(num_shards, policy)
    cluster.pin_module("user", Residency.DISK)
    model = Model()
    for step in steps:
        if step[0] in ("assertz", "asserta") and not storable(
            cluster.shards[0].kb, step[1]
        ):
            continue
        # one shard per predicate: the cluster's victim is Prolog's
        apply_step(
            cluster, model, step,
            prolog_order=policy is ShardingPolicy.PREDICATE,
        )
        assert_cluster_is_its_rebuilds(cluster, model)


class TestThreadedCluster:
    @given(
        steps=steps_strategy(max_size=10),
        num_shards=st.sampled_from([1, 3]),
        policy=st.sampled_from(
            [ShardingPolicy.PREDICATE, ShardingPolicy.FIRST_ARG]
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_shard_is_its_rebuild(self, steps, num_shards, policy):
        run_cluster(steps, num_shards, policy)

    @pytest.mark.slow
    @given(
        steps=steps_strategy(max_size=30),
        num_shards=st.sampled_from([1, 2, 4]),
        policy=st.sampled_from(list(ShardingPolicy)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_shard_is_its_rebuild_long(self, steps, num_shards, policy):
        run_cluster(steps, num_shards, policy)


def run_process_pair(steps, num_shards=2) -> None:
    """Workers attach the parent's segments, then every mutation lands
    on the mapped stores (copy-on-write, then splice).  What the workers
    serve — candidates decoded from their images, and the modelled
    stats computed from them — must equal the threaded cluster's
    after every step."""
    threaded = ShardedRetrievalServer(num_shards, ShardingPolicy.FIRST_ARG)
    process = ProcessShardedRetrievalServer(num_shards, ShardingPolicy.FIRST_ARG)
    seed = [clause(f"p(k{i}, v{i % 3}, {i})") for i in range(12)]
    for backend in (threaded, process):
        backend.consult_clauses(seed + EDGE_CLAUSES)
        backend.pin_module("user", Residency.DISK)
    process.start()
    try:
        model = Model()
        for survivor in seed + EDGE_CLAUSES:
            model.assertz(survivor)
        for step in steps:
            if step[0] in ("assertz", "asserta") and not storable(
                threaded.shards[0].kb, step[1]
            ):
                continue
            shadow = Model()
            shadow.clauses = {k: list(v) for k, v in model.clauses.items()}
            ours = apply_step(process, model, step, prolog_order=False)
            theirs = apply_step(threaded, shadow, step, prolog_order=False)
            assert ours == theirs
            assert shadow.clauses == model.clauses
            for goal in GOALS:
                for mode in SearchMode:
                    try:
                        expected = fingerprint(threaded.retrieve(goal, mode=mode))
                    except Exception as exc:  # e.g. predicate unknown so far
                        with pytest.raises(type(exc)):
                            process.retrieve(goal, mode=mode)
                        continue
                    got = fingerprint(process.retrieve(goal, mode=mode))
                    assert got == expected, (step, goal, mode)
    finally:
        process.close()


FIXED_STEPS = [
    ("asserta", clause("p(front, v0, -1)")),
    ("retract", clause("p(k3, V, N)")),
    ("retract", clause("p(A, B, C) :- q(A), R")),
    ("remove_exact", 5),
    ("assertz", clause("p(back, v1, 99) :- q(back)")),
    ("retract", clause("p(A, A, C)")),
    ("asserta", clause("w(" + ", ".join(f"b{i}" for i in range(14)) + ")")),
    ("retract", clause("w(" + ", ".join(f"V{i}" for i in range(14)) + ") :- B")),
    ("remove_exact", 0),
    ("retract", clause("p(0.0, B, C)")),
]


class TestProcessWorkers:
    def test_attach_copy_on_write_then_splice(self):
        run_process_pair(FIXED_STEPS)

    @pytest.mark.slow
    @given(steps=steps_strategy(max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_random_sequences_through_the_workers(self, steps):
        run_process_pair(steps)
