"""The FS2 second-stage filter: microprogram-driven partial test unification.

The engine follows the host protocol of paper section 3: the control
register selects FS2 and steps through Microprogramming mode (load the
search program into the WCS), Set Query mode (encode the query into the
Query Memory), Search mode (clause records stream through the Double
Buffer while the microprogram matches them and the Result Memory captures
satisfiers), and finally Read Result mode.

Execution is genuinely microcoded: every control transfer during a search
is a sequencer step over the assembled program, with dispatch through the
map ROM on the latched (db tag, query tag) classes and the two element
counters bounding complex-term loops.  The datapath operations consume PIF
items from the stream cursors and run through the Test Unification Engine,
which accrues the Table 1 execution times.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..cache import LruCache
from ..keys import canonical_goal_key
from ..obs import Instrumentation
from ..obs import get_default as _default_obs
from ..pif import CompiledClause, PIFEncoder, tags
from ..pif.decoder import Item
from ..pif.encoder import EncodedArgs
from ..pif.symbols import QuerySymbols, SymbolTable
from ..terms import Term, functor_indicator
from ..unify.match import HardwareOp
from .buffer import DoubleBuffer
from .compiled import CompiledMatcher, PlanNode, compile_plan, derive_cycle_costs
from .compiled import parse_record as _parse_record
from .control import ControlRegister, FilterSelect, OperationalMode
from .cursor import ItemCursor
from .microcode import (
    Condition,
    DispatchClass,
    ExecOp,
    MicroProgram,
    SeqOp,
    assemble_search_program,
)
from .result import ResultMemory
from .timing import CLOCK_HZ
from .tue import SideTerm, TestUnificationEngine
from .wcs import ElementCounters, MicroProgramController, WritableControlStore

__all__ = ["FS2SearchStats", "SecondStageFilter", "FS2ProtocolError", "FS2_MODES"]

_WATCHDOG_BASE = 10_000

#: The two execution engines behind the same host protocol.
FS2_MODES = ("microcoded", "compiled")


class FS2ProtocolError(RuntimeError):
    """The host drove the mode protocol out of order."""


@dataclass
class FS2SearchStats:
    """Accounting for one FS2 search call."""

    clauses_examined: int = 0
    satisfiers: int = 0
    bytes_streamed: int = 0
    micro_cycles: int = 0
    op_counts: Counter = field(default_factory=Counter)
    op_time_ns: int = 0

    @property
    def false_drop_candidates(self) -> int:
        return self.clauses_examined - self.satisfiers

    @property
    def clock_time_ns(self) -> float:
        """Wall time of the microprogram at the 8 MHz WCS clock."""
        return self.micro_cycles * 1e9 / CLOCK_HZ


class SecondStageFilter:
    """The FS2 board: WCS + TUE + Double Buffer + Result Memory."""

    def __init__(
        self,
        symbols: SymbolTable,
        cross_binding: bool = True,
        obs: Instrumentation | None = None,
        mode: str = "microcoded",
        plan_cache_size: int = 128,
    ):
        if mode not in FS2_MODES:
            raise ValueError(f"unknown FS2 mode {mode!r}; expected {FS2_MODES}")
        self.symbols = symbols
        self.mode = mode
        self.obs = obs if obs is not None else _default_obs()
        self.control = ControlRegister()
        self.control.select_filter(FilterSelect.FS2)
        self.wcs = WritableControlStore()
        self.mpc = MicroProgramController()
        self.counters = ElementCounters()
        self.tue = TestUnificationEngine(cross_binding=cross_binding)
        self.buffer = DoubleBuffer()
        self.result = ResultMemory()
        self._program: MicroProgram | None = None
        self._query_encoded: EncodedArgs | None = None
        #: the microcoded path's query-side table (see ``QuerySymbols``)
        self._query_symbols: SymbolTable = symbols
        self._indicator: tuple[str, int] | None = None
        # Compiled fast path: the matcher (built at microprogram-load
        # time from the mechanically derived cycle costs), the current
        # match plan, and the per-(canonical goal key, indicator) LRU of
        # (encoded query, plan) pairs.
        self._matcher: CompiledMatcher | None = None
        self._plan: tuple[PlanNode, ...] | None = None
        self._plan_cache = LruCache(
            plan_cache_size, obs=self.obs, prefix="fs2.plan_cache"
        )
        # Per-clause datapath state.
        self._db_cursor: ItemCursor | None = None
        self._q_cursor: ItemCursor | None = None
        self._latched: tuple[Item, Item] | None = None
        self._hit = True
        self._entered = False
        self._complex_kind: str | None = None
        self._db_tail_pending = False
        self._q_tail_pending = False
        self._clause_outcome: bool | None = None
        self._buffer_ready = False

    # -- host protocol -----------------------------------------------------

    def load_microprogram(self, program: MicroProgram | None = None) -> None:
        """Microprogramming mode: write the search program into the WCS."""
        self.control.set_mode(OperationalMode.MICROPROGRAMMING)
        program = program or assemble_search_program()
        self.wcs.load_program(program)
        self._program = program
        if self.mode == "compiled":
            # The cycle-cost table is derived from the words just loaded,
            # so a nonstandard program either accounts identically or is
            # rejected here rather than silently drifting.
            self._matcher = CompiledMatcher(
                self.symbols, self.tue, derive_cycle_costs(program)
            )

    def set_query(self, query: Term) -> None:
        """Set Query mode: encode the query into the Query Memory."""
        if not self.wcs.loaded:
            raise FS2ProtocolError("load the microprogram before the query")
        self.control.set_mode(OperationalMode.SET_QUERY)
        indicator = functor_indicator(query)
        if self._matcher is not None:
            self._set_query_compiled(query, indicator)
        else:
            self._query_symbols = QuerySymbols(self.symbols)
            encoder = PIFEncoder(self._query_symbols, side="query")
            self._query_encoded = encoder.encode_head(query)
        self._indicator = indicator
        self.tue.reset_query_memory()
        self.control.set_match_found(False)
        self.result.reset()

    def _set_query_compiled(self, query: Term, indicator: tuple[str, int]) -> None:
        """Probe the plan LRU; compile (and cache) on a miss.

        Keyed by the canonical goal key, so renamed-variable aliases of
        one retrieval share a plan: the match outcome and every stat are
        name-independent (names only key the TUE binding memories).
        """
        key = (canonical_goal_key(query), indicator)
        cached = self._plan_cache.get(key)
        if cached is None:
            # Lookup only: a read never grows the shard's symbol table.
            symbols = QuerySymbols(self.symbols)
            encoded = PIFEncoder(symbols, side="query").encode_head(query)
            cached = (encoded, compile_plan(encoded, symbols))
            if not symbols.extended:
                # A plan naming a constant the table lacks dies with the
                # next symbol interned (the constant may be the one).
                self._plan_cache.put(key, cached)
        self._query_encoded, self._plan = cached

    def rearm(self) -> None:
        """Re-enter Set Query mode for the query already loaded.

        The cheap flush between chunked search calls over one goal: the
        Result Memory and Query Memory reset exactly as ``set_query``
        would, but the goal is neither re-encoded nor re-planned.
        """
        if self._query_encoded is None or self._indicator is None:
            raise FS2ProtocolError("set the query before re-arming")
        self.control.set_mode(OperationalMode.SET_QUERY)
        self.tue.reset_query_memory()
        self.control.set_match_found(False)
        self.result.reset()

    def search(
        self, records: Iterable[bytes], indicator: tuple[str, int] | None = None
    ) -> FS2SearchStats:
        """Search mode: stream clause records past the filter."""
        if self._query_encoded is None or self._indicator is None:
            raise FS2ProtocolError("set the query before searching")
        self.control.set_mode(OperationalMode.SEARCH)
        record_indicator = indicator or self._indicator
        stats = FS2SearchStats()
        self.tue.reset_accounting()
        self.buffer.reset()
        with self.obs.span(
            "fs2.search", indicator=f"{record_indicator[0]}/{record_indicator[1]}"
        ) as span:
            for record in records:
                # DMA: the record lands in the Double Buffer and, in parallel,
                # in the Result Memory's current slot.
                self.buffer.load(record)
                self.buffer.toggle()
                self.result.stream_record(record)
                stats.bytes_streamed += len(record)
                stats.clauses_examined += 1
                hit = self._run_clause(
                    self.buffer.consume_output(), record_indicator, stats
                )
                if hit:
                    self.result.capture()
                    stats.satisfiers += 1
                else:
                    self.result.discard()
            stats.op_counts = Counter(self.tue.op_counts)
            stats.op_time_ns = self.tue.op_time_ns
            self.control.set_match_found(stats.satisfiers > 0)
            span.set(
                clauses=stats.clauses_examined,
                satisfiers=stats.satisfiers,
                bytes=stats.bytes_streamed,
                micro_cycles=stats.micro_cycles,
                sim_time_s=stats.op_time_ns / 1e9,
            )
        self._account(stats)
        return stats

    def _account(self, stats: FS2SearchStats) -> None:
        obs = self.obs
        obs.counter("fs2.search_calls").inc()
        obs.counter("fs2.clauses_examined").inc(stats.clauses_examined)
        obs.counter("fs2.satisfiers").inc(stats.satisfiers)
        obs.counter("fs2.false_drops").inc(stats.false_drop_candidates)
        obs.counter("fs2.bytes_streamed").inc(stats.bytes_streamed)
        obs.counter("fs2.micro_cycles").inc(stats.micro_cycles)
        obs.counter("fs2.sim_time_s").inc(stats.op_time_ns / 1e9)
        for op, count in stats.op_counts.items():
            obs.counter("fs2.ops", op=getattr(op, "name", str(op))).inc(count)
        # Result-Memory occupancy: satisfier slots used by this call, out
        # of the 64 the 6-bit counter can address.
        obs.histogram(
            "fs2.rm_occupancy", buckets=(0, 1, 2, 4, 8, 16, 32, 48, 63, 64)
        ).observe(self.result.satisfier_count)
        if self._matcher is not None:
            obs.counter("fs2.compiled.search_calls").inc()
            obs.counter("fs2.compiled.clauses").inc(stats.clauses_examined)

    def read_results(self) -> list[bytes]:
        """Read Result mode: the captured satisfier records."""
        self.control.set_mode(OperationalMode.READ_RESULT)
        return self.result.read_results()

    # -- one clause through the microprogram ---------------------------------

    def _run_clause(
        self,
        record: bytes,
        indicator: tuple[str, int],
        stats: FS2SearchStats,
    ) -> bool:
        matcher = self._matcher
        if matcher is not None:
            if indicator != self._indicator:
                return False  # wrong predicate: never a satisfier
            head, heap, names = _parse_record(record)
            return matcher.match(self._plan, head, heap, names, stats)
        compiled, _ = CompiledClause.from_bytes(record, indicator)
        return self._match_compiled(compiled, stats)

    def match_compiled(self, compiled: CompiledClause) -> bool:
        """Match a single compiled clause (no streaming); for testing."""
        if self._query_encoded is None:
            raise FS2ProtocolError("set the query before matching")
        if self._matcher is not None:
            if compiled.indicator != self._indicator:
                return False
            return self._matcher.match(
                self._plan,
                compiled.head_stream,
                compiled.heap,
                compiled.var_names,
                FS2SearchStats(),
            )
        return self._match_compiled(compiled, FS2SearchStats())

    def _match_compiled(
        self, compiled: CompiledClause, stats: FS2SearchStats
    ) -> bool:
        assert self._query_encoded is not None and self._indicator is not None
        if compiled.indicator != self._indicator:
            return False  # wrong predicate: never a satisfier
        self._stage_clause(compiled)
        watchdog = _WATCHDOG_BASE + 100 * len(compiled.head_stream)
        self.mpc.reset(0)
        while self._clause_outcome is None:
            if watchdog <= 0:
                raise RuntimeError("FS2 microprogram watchdog expired")
            watchdog -= 1
            stats.micro_cycles += 1
            instruction = self.wcs.fetch(self.mpc.pc)
            self._execute(instruction.exec_op)
            map_target = None
            if instruction.seq == SeqOp.JMAP:
                map_target = self.wcs.map_address(*self._dispatch_pair())
            self.mpc.pc = self.mpc.next_address(
                instruction, self._conditions(), map_target
            )
        outcome = self._clause_outcome
        self._clause_outcome = None
        return bool(outcome)

    def _stage_clause(self, compiled: CompiledClause) -> None:
        assert self._query_encoded is not None
        self._db_cursor = ItemCursor(compiled.head_encoded, self.symbols)
        self._q_cursor = ItemCursor(self._query_encoded, self._query_symbols)
        self._latched = None
        self._hit = True
        self._entered = False
        self._complex_kind = None
        self._db_tail_pending = False
        self._q_tail_pending = False
        self._clause_outcome = None
        self._buffer_ready = True
        self.counters.clear()

    # -- condition codes -----------------------------------------------------

    def _conditions(self) -> dict[Condition, bool]:
        assert self._db_cursor is not None and self._q_cursor is not None
        return {
            Condition.ALWAYS: True,
            Condition.BUFFER_READY: self._buffer_ready,
            Condition.HIT: self._hit,
            Condition.ARGS_DONE: self._db_cursor.at_end()
            and self._q_cursor.at_end(),
            Condition.ENTERED: self._entered,
            Condition.IN_COMPLEX: self.counters.active,
            Condition.COUNTERS_DONE: self.counters.either_zero(),
        }

    def _dispatch_pair(self) -> tuple[DispatchClass, DispatchClass]:
        if self._latched is None:
            raise RuntimeError("JMAP before LOAD_PAIR")
        db_item, q_item = self._latched
        return _dispatch_class(db_item), _dispatch_class(q_item)

    # -- execute unit ----------------------------------------------------------

    def _execute(self, op: ExecOp) -> None:
        if op == ExecOp.NOP:
            return
        handler = {
            ExecOp.INIT_CLAUSE: self._exec_init_clause,
            ExecOp.LOAD_PAIR: self._exec_load_pair,
            ExecOp.MATCH: self._exec_match,
            ExecOp.ANON_SKIP: self._exec_anon_skip,
            ExecOp.DBVAR_FIRST: self._exec_dbvar_first,
            ExecOp.DBVAR_SUB: self._exec_dbvar_sub,
            ExecOp.QVAR_FIRST: self._exec_qvar_first,
            ExecOp.QVAR_SUB: self._exec_qvar_sub,
            ExecOp.FINISH_COMPLEX: self._exec_finish_complex,
            ExecOp.SIGNAL_HIT: self._exec_signal_hit,
            ExecOp.SIGNAL_MISS: self._exec_signal_miss,
        }[op]
        handler()

    def _exec_init_clause(self) -> None:
        self.tue.reset_db_memory()
        self.tue.reset_query_memory()
        self._buffer_ready = False  # the clause is being consumed now

    def _exec_load_pair(self) -> None:
        assert self._db_cursor is not None and self._q_cursor is not None
        self._latched = (self._db_cursor.peek(), self._q_cursor.peek())
        self._entered = False
        if self.counters.active:
            self.counters.decrement()

    def _exec_signal_hit(self) -> None:
        self._clause_outcome = True

    def _exec_signal_miss(self) -> None:
        self._clause_outcome = False

    # -- matching operations ---------------------------------------------------

    def _exec_match(self) -> None:
        db_item, q_item = self._require_latched()
        self.tue.record_op(HardwareOp.MATCH)
        db_kind = _item_kind(db_item)
        q_kind = _item_kind(q_item)
        if db_kind != q_kind:
            self._consume_subtrees()
            self._hit = False
            return
        if db_kind in ("int", "atom", "float"):
            self._take_items()
            self._hit = (db_item.tag == q_item.tag) and (
                db_item.content == q_item.content
            )
            return
        if db_kind == "struct":
            self._match_structs(db_item, q_item)
            return
        self._match_lists(db_item, q_item)

    def _match_structs(self, db_item: Item, q_item: Item) -> None:
        if db_item.content != q_item.content:  # functor symbols differ
            self._consume_subtrees()
            self._hit = False
            return
        db_inline = db_item.category == tags.TagCategory.STRUCT_INLINE
        q_inline = q_item.category == tags.TagCategory.STRUCT_INLINE
        if db_inline != q_inline or db_item.arity != q_item.arity:
            # In-line vs pointer (arity <= 31 vs > 31) or arity mismatch.
            self._consume_subtrees()
            self._hit = False
            return
        if not db_inline:
            self._take_items()  # pointer pair: tag+content settled it
            self._hit = True
            return
        if self.counters.active:
            # Element level (depth >= 2): shallow only; skip the elements.
            self._consume_subtrees()
            self._hit = True
            return
        # Enter the element loop.
        self._take_items()
        self.counters.load(db_item.arity, q_item.arity)
        self._complex_kind = "struct"
        self._db_tail_pending = False
        self._q_tail_pending = False
        self._entered = True
        self._hit = True

    def _match_lists(self, db_item: Item, q_item: Item) -> None:
        db_open = db_item.category in (
            tags.TagCategory.ULIST_INLINE,
            tags.TagCategory.ULIST_PTR,
        )
        q_open = q_item.category in (
            tags.TagCategory.ULIST_INLINE,
            tags.TagCategory.ULIST_PTR,
        )
        db_inline = db_item.category in (
            tags.TagCategory.TLIST_INLINE,
            tags.TagCategory.ULIST_INLINE,
        )
        q_inline = q_item.category in (
            tags.TagCategory.TLIST_INLINE,
            tags.TagCategory.ULIST_INLINE,
        )
        closed_pair = not db_open and not q_open
        if closed_pair and db_inline != q_inline:
            # A <=31-element terminated list can never equal a >31 one.
            self._consume_subtrees()
            self._hit = False
            return
        if closed_pair and db_inline and db_item.arity != q_item.arity:
            self._consume_subtrees()
            self._hit = False
            return
        if not db_inline or not q_inline:
            # Pointer form on at least one side: tag-level verdict only.
            self._consume_subtrees()
            self._hit = True
            return
        if self.counters.active:
            # Element level: shallow verdict (already computed), skip.
            self._consume_subtrees()
            self._hit = True
            return
        if db_item.arity == 0 and q_item.arity == 0:
            self._take_items()  # [] vs []
            self._hit = True
            return
        # Enter the element loop with the unlimited-list counter rule.
        self._take_items()
        self.counters.load(db_item.arity, q_item.arity)
        self._complex_kind = "list"
        self._db_tail_pending = db_open or db_item.arity > 0
        self._q_tail_pending = q_open or q_item.arity > 0
        self._entered = True
        self._hit = True

    def _exec_finish_complex(self) -> None:
        assert self._db_cursor is not None and self._q_cursor is not None
        db_left = self.counters.db
        q_left = self.counters.query
        kind = self._complex_kind
        db_tail = self._db_tail_pending
        q_tail = self._q_tail_pending
        self.counters.clear()
        self._complex_kind = None
        self._db_tail_pending = False
        self._q_tail_pending = False
        self._hit = True
        if kind == "struct":
            return  # counters always exhaust together; nothing follows
        if db_left == 0 and q_left == 0 and db_tail and q_tail:
            # Both prefixes exhausted together: the tails meet.
            db_tail_item = self._db_cursor.peek()
            q_tail_item = self._q_cursor.peek()
            if (
                db_tail_item.tag == tags.TAG_TLIST_INLINE_BASE
                and q_tail_item.tag == tags.TAG_TLIST_INLINE_BASE
            ):
                self._take_items()  # [] vs []: nothing to compare
                return
            db_term = self._db_cursor.take_term()
            q_term = self._q_cursor.take_term()
            self._hit = self.tue.dispatch_terms(
                SideTerm(db_term, "db"), SideTerm(q_term, "query")
            )
            return
        # One counter reached zero first: skip the leftovers, succeed.
        for _ in range(db_left):
            self._db_cursor.skip_term()
        if db_tail:
            self._db_cursor.skip_term()
        for _ in range(q_left):
            self._q_cursor.skip_term()
        if q_tail:
            self._q_cursor.skip_term()

    def _exec_anon_skip(self) -> None:
        db_item, q_item = self._require_latched()
        assert self._db_cursor is not None and self._q_cursor is not None
        if db_item.category == tags.TagCategory.ANONYMOUS:
            self._db_cursor.take()
        else:
            self._db_cursor.skip_term()
        if q_item.category == tags.TagCategory.ANONYMOUS:
            self._q_cursor.take()
        else:
            self._q_cursor.skip_term()

    def _exec_dbvar_first(self) -> None:
        db_item, _ = self._require_latched()
        assert self._db_cursor is not None and self._q_cursor is not None
        self._db_cursor.take()
        name = self._db_cursor.var_name(db_item.content)
        other = SideTerm(self._q_cursor.take_term(), "query")
        self.tue.var_first("db", name, other)

    def _exec_dbvar_sub(self) -> None:
        db_item, _ = self._require_latched()
        assert self._db_cursor is not None and self._q_cursor is not None
        self._db_cursor.take()
        name = self._db_cursor.var_name(db_item.content)
        other = SideTerm(self._q_cursor.take_term(), "query")
        self._hit = self.tue.var_subsequent("db", name, other)

    def _exec_qvar_first(self) -> None:
        _, q_item = self._require_latched()
        assert self._db_cursor is not None and self._q_cursor is not None
        self._q_cursor.take()
        name = self._q_cursor.var_name(q_item.content)
        other = SideTerm(self._db_cursor.take_term(), "db")
        self.tue.var_first("query", name, other)

    def _exec_qvar_sub(self) -> None:
        _, q_item = self._require_latched()
        assert self._db_cursor is not None and self._q_cursor is not None
        self._q_cursor.take()
        name = self._q_cursor.var_name(q_item.content)
        other = SideTerm(self._db_cursor.take_term(), "db")
        self._hit = self.tue.var_subsequent("query", name, other)

    # -- consumption helpers --------------------------------------------------

    def _require_latched(self) -> tuple[Item, Item]:
        if self._latched is None:
            raise RuntimeError("datapath op before LOAD_PAIR")
        return self._latched

    def _take_items(self) -> None:
        assert self._db_cursor is not None and self._q_cursor is not None
        self._db_cursor.take()
        self._q_cursor.take()

    def _consume_subtrees(self) -> None:
        assert self._db_cursor is not None and self._q_cursor is not None
        self._db_cursor.skip_term()
        self._q_cursor.skip_term()


def _dispatch_class(item: Item) -> DispatchClass:
    category = item.category
    if category == tags.TagCategory.ANONYMOUS:
        return DispatchClass.ANONYMOUS
    if category == tags.TagCategory.FIRST_DB_VAR:
        return DispatchClass.FIRST_DB_VAR
    if category == tags.TagCategory.SUB_DB_VAR:
        return DispatchClass.SUB_DB_VAR
    if category == tags.TagCategory.FIRST_QUERY_VAR:
        return DispatchClass.FIRST_QUERY_VAR
    if category == tags.TagCategory.SUB_QUERY_VAR:
        return DispatchClass.SUB_QUERY_VAR
    return DispatchClass.CONCRETE


def _item_kind(item: Item) -> str:
    category = item.category
    if category == tags.TagCategory.INTEGER:
        return "int"
    if category == tags.TagCategory.ATOM:
        return "atom"
    if category == tags.TagCategory.FLOAT:
        return "float"
    if category in (tags.TagCategory.STRUCT_INLINE, tags.TagCategory.STRUCT_PTR):
        return "struct"
    return "list"
