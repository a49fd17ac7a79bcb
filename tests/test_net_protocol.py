"""The wire protocol in isolation: framing, payload codecs, errors.

Every request/response payload must round-trip exactly — terms through
the query-side PIF path, clauses through the compiled-record path, and
stats field-for-field including the merged per-shard split — because
the loopback differential suite asserts object equality across the
wire.  Framing failures (bad magic, wrong version, oversize, truncated
payloads) must surface as :class:`ProtocolError`, never as garbage
objects or low-level struct/index errors.
"""

import pytest

from repro.cluster import MergedRetrievalStats
from repro.crs import RetrievalResult, RetrievalStats, RetrievalTimeout, SearchMode
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER,
    MAGIC,
    DeadlineExceeded,
    ErrorCode,
    FrameType,
    ProtocolError,
    RemoteError,
    ServerBusy,
    ServerDraining,
    WritesFrozen,
    decode_header,
    encode_frame,
)
from repro.storage import UnknownPredicateError
from repro.terms import Clause, as_clause, read_term


def sample_stats(**overrides) -> RetrievalStats:
    fields = dict(
        mode=SearchMode.BOTH,
        residency="disk",
        clauses_total=120,
        fs1_candidates=17,
        final_candidates=9,
        disk_time_s=0.00125,
        fs1_time_s=0.0005,
        fs2_time_s=0.00025,
        fs2_search_calls=3,
        software_time_s=0.0,
        bytes_from_disk=61440,
    )
    fields.update(overrides)
    return RetrievalStats(**fields)


class TestFraming:
    def test_header_round_trip(self):
        frame = encode_frame(FrameType.REQ_RETRIEVE, 42, b"abc")
        frame_type, request_id, length = decode_header(frame[: HEADER.size])
        assert frame_type is FrameType.REQ_RETRIEVE
        assert request_id == 42
        assert length == 3
        assert frame[HEADER.size :] == b"abc"

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FrameType.REQ_PING, 1, b""))
        frame[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            decode_header(bytes(frame[: HEADER.size]))

    def test_unknown_version_rejected(self):
        frame = bytearray(encode_frame(FrameType.REQ_PING, 1, b""))
        frame[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_header(bytes(frame[: HEADER.size]))

    def test_unknown_frame_type_rejected(self):
        frame = bytearray(encode_frame(FrameType.REQ_PING, 1, b""))
        frame[3] = 0x77
        with pytest.raises(ProtocolError, match="frame type"):
            decode_header(bytes(frame[: HEADER.size]))

    def test_oversized_payload_rejected(self):
        header = HEADER.pack(
            MAGIC, protocol.VERSION, int(FrameType.REQ_RETRIEVE), 1,
            DEFAULT_MAX_FRAME_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_header(header)

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_header(b"\x00\x01")

    def test_max_frame_bytes_is_configurable(self):
        header = HEADER.pack(
            MAGIC, protocol.VERSION, int(FrameType.REQ_RETRIEVE), 1, 2048
        )
        decode_header(header, max_frame_bytes=2048)
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_header(header, max_frame_bytes=2047)


class TestRequestPayloads:
    @pytest.mark.parametrize(
        "text",
        [
            "p(a, b)",
            "p(X, Y)",
            "married_couple(X, X)",
            "p(f(g(X), [1, 2.5, -3]), \"str\", 'Funny Atom')",
            "big(A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12, A13)",
        ],
    )
    def test_retrieve_request_round_trip(self, text):
        goal = read_term(text)
        payload = protocol.encode_retrieve_request(
            goal, SearchMode.FS1_ONLY, 1500
        )
        decoded, mode, deadline_ms = protocol.decode_retrieve_request(payload)
        assert str(decoded) == str(goal)
        assert mode is SearchMode.FS1_ONLY
        assert deadline_ms == 1500

    def test_default_mode_and_deadline(self):
        payload = protocol.encode_retrieve_request(read_term("p(a)"))
        _, mode, deadline_ms = protocol.decode_retrieve_request(payload)
        assert mode is None
        assert deadline_ms == 0

    def test_batch_request_round_trip(self):
        goals = [read_term("p(a, X)"), read_term("q(Y)"), read_term("r")]
        payload = protocol.encode_batch_request(goals, SearchMode.BOTH, 250)
        decoded, mode, deadline_ms = protocol.decode_batch_request(payload)
        assert [str(g) for g in decoded] == [str(g) for g in goals]
        assert mode is SearchMode.BOTH
        assert deadline_ms == 250

    def test_mutate_request_round_trip_with_write_id(self):
        clause = Clause(head=read_term("p(a, b)"), body=())
        payload = protocol.encode_mutate_request(
            "assertz", clause, "mod", 7, 1500, "client1:42"
        )
        op, decoded, module, version, deadline_ms, write_id = (
            protocol.decode_mutate_request(payload)
        )
        assert op == "assertz"
        assert str(decoded) == str(clause)
        assert module == "mod"
        assert version == 7
        assert deadline_ms == 1500
        assert write_id == "client1:42"

    def test_mutate_request_write_id_defaults_empty(self):
        # A frame without the trailing write_id field (an unstamped or
        # old-encoder frame) must decode as "" — not raise.
        clause = Clause(head=read_term("p(a)"), body=())
        payload = protocol.encode_mutate_request("retract", clause)
        *_, write_id = protocol.decode_mutate_request(payload)
        assert write_id == ""

    def test_shared_variables_stay_shared(self):
        # q(X, X) must decode with *one* variable bound twice, not two
        # renamed-apart variables — routing and unification key
        # variables by name within a query.
        payload = protocol.encode_retrieve_request(read_term("q(X, X)"))
        decoded, _, _ = protocol.decode_retrieve_request(payload)
        assert decoded.args[0] == decoded.args[1]
        assert decoded.args[0].name == "X"


class TestResponsePayloads:
    def result_for(self, goal_text, clause_texts, stats):
        return RetrievalResult(
            goal=read_term(goal_text),
            candidates=[
                Clause(head=read_term(text)) for text in clause_texts
            ],
            stats=stats,
        )

    def test_result_round_trip(self):
        result = self.result_for(
            "p(a, X)", ["p(a, b)", "p(a, c)"], sample_stats()
        )
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert str(decoded.goal) == str(result.goal)
        assert [str(c) for c in decoded.candidates] == [
            str(c) for c in result.candidates
        ]
        assert decoded.stats == result.stats

    def test_plain_stats_equality_is_exact(self):
        stats = sample_stats(fs1_candidates=None, mode=SearchMode.SOFTWARE)
        result = self.result_for("p(X)", [], stats)
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert type(decoded.stats) is RetrievalStats
        assert decoded.stats == stats

    def test_merged_stats_round_trip(self):
        merged = MergedRetrievalStats(
            mode=SearchMode.BOTH,
            residency="disk",
            clauses_total=40,
            fs1_candidates=8,
            final_candidates=5,
            disk_time_s=0.002,
            fs1_time_s=0.0004,
            fs2_time_s=0.0002,
            fs2_search_calls=2,
            software_time_s=0.0,
            bytes_from_disk=2048,
            shards_queried=2,
            broadcast=True,
            per_shard={
                0: sample_stats(clauses_total=25),
                3: sample_stats(clauses_total=15, fs1_candidates=None),
            },
        )
        result = self.result_for("p(X)", ["p(a)"], merged)
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert type(decoded.stats) is MergedRetrievalStats
        assert decoded.stats == merged
        assert decoded.stats.per_shard.keys() == {0, 3}

    def test_batch_response_round_trip(self):
        results = [
            self.result_for("p(a)", ["p(a)"], sample_stats()),
            self.result_for("q(X)", [], None),
        ]
        decoded = protocol.decode_batch_response(
            protocol.encode_batch_response(results)
        )
        assert len(decoded) == 2
        assert decoded[0].stats == results[0].stats
        assert decoded[1].stats is None
        assert decoded[1].candidates == []

    def test_clause_with_body_round_trips(self):
        clause = Clause(
            head=read_term("grandparent(X, Z)"),
            body=(read_term("parent(X, Y)"), read_term("parent(Y, Z)")),
        )
        result = RetrievalResult(
            goal=read_term("grandparent(A, B)"),
            candidates=[clause],
            stats=None,
        )
        decoded = protocol.decode_result_response(
            protocol.encode_result_response(result)
        )
        assert str(decoded.candidates[0]) == str(clause)


class TestPayloadCorruption:
    def make_payload(self):
        return protocol.encode_result_response(
            RetrievalResult(
                goal=read_term("p(a, X)"),
                candidates=[Clause(head=read_term("p(a, b)"))],
                stats=sample_stats(),
            )
        )

    def test_truncated_payload_raises_protocol_error(self):
        payload = self.make_payload()
        # Every possible truncation point must fail cleanly.
        for cut in range(0, len(payload) - 1, 7):
            with pytest.raises(ProtocolError):
                protocol.decode_result_response(payload[:cut])

    def test_corrupt_symbol_table_length(self):
        payload = bytearray(self.make_payload())
        payload[0:4] = (2**32 - 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            protocol.decode_result_response(bytes(payload))

    def test_error_payload_round_trip(self):
        payload = protocol.encode_error(
            ErrorCode.SERVER_BUSY, "21 requests already admitted"
        )
        code, message = protocol.decode_error(payload)
        assert code is ErrorCode.SERVER_BUSY
        assert "21" in message

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_error(b"\xee\x00\x00")


class TestMalformedRecords:
    """A clause record that lies about its own bytes — a names flag with
    no names, an overstated stream length, a tag Table A1 does not
    assign, an item cut short — is a malformed payload like any other:
    ``ProtocolError`` on the client and ``BAD_REQUEST`` from the server,
    never an index error or a silently different clause."""

    CLAUSE = Clause(head=read_term("p(a, b)"))  # head: two 4-byte items

    CORRUPTIONS = {
        "names_flag_without_names": lambda r: r[:2] + bytes([r[2] | 0x02]) + r[3:],
        "overstated_head_length": lambda r: r[:3] + (200).to_bytes(2, "big") + r[5:],
        "unassigned_tag": lambda r: r[:9] + b"\x00" + r[10:],
        "truncated_head_item": lambda r: (
            (len(r) - 2).to_bytes(2, "big") + r[2:3] + (6).to_bytes(2, "big")
            + r[5:-2]
        ),
    }

    def splice(self, payload, corrupt):
        """``payload`` with its one record of CLAUSE replaced by a corrupt one."""
        from repro.pif import clause_record

        symbols = protocol.PayloadDecoder(payload).symbols
        good = bytes(clause_record(self.CLAUSE, symbols))
        assert good[3:5] == (8).to_bytes(2, "big")
        blob = len(good).to_bytes(2, "big") + good
        assert payload.count(blob) == 1
        bad = corrupt(good)
        return payload.replace(blob, len(bad).to_bytes(2, "big") + bad)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_malformed_record_is_a_protocol_error(self, corruption):
        import socket

        from repro.cluster import ShardedRetrievalServer
        from repro.net import BackgroundService, RetrievalService

        corrupt = self.CORRUPTIONS[corruption]
        result = protocol.encode_result_response(
            RetrievalResult(goal=read_term("p(a, X)"), candidates=[self.CLAUSE])
        )
        with pytest.raises(ProtocolError):
            protocol.decode_result_response(self.splice(result, corrupt))
        mutate = self.splice(
            protocol.encode_mutate_request("assertz", self.CLAUSE), corrupt
        )
        with pytest.raises(ProtocolError):
            protocol.decode_mutate_request(mutate)

        engine = ShardedRetrievalServer(1)
        with BackgroundService(RetrievalService(engine)) as background:
            with socket.create_connection(background.start(), timeout=10) as raw:
                raw.sendall(encode_frame(FrameType.REQ_MUTATE, 3, mutate))
                reader = raw.makefile("rb")
                frame_type, request_id, length = decode_header(
                    reader.read(HEADER.size)
                )
                code, message = protocol.decode_error(reader.read(length))
                reader.close()
        assert (frame_type, request_id) == (FrameType.RESP_ERROR, 3)
        assert code is ErrorCode.BAD_REQUEST, message
        assert not engine.shards[0].kb.has_predicate(("p", 2))


class TestErrorMapping:
    @pytest.mark.parametrize(
        "code,expected",
        [
            (ErrorCode.SERVER_BUSY, ServerBusy),
            (ErrorCode.DEADLINE_EXPIRED, DeadlineExceeded),
            (ErrorCode.UNKNOWN_PREDICATE, UnknownPredicateError),
            (ErrorCode.SHUTTING_DOWN, ServerDraining),
            (ErrorCode.WRITE_FROZEN, WritesFrozen),
            (ErrorCode.BAD_REQUEST, RemoteError),
            (ErrorCode.INTERNAL, RemoteError),
        ],
    )
    def test_error_to_exception(self, code, expected):
        assert isinstance(protocol.error_to_exception(code, "m"), expected)

    @pytest.mark.parametrize(
        "exc,code",
        [
            (ServerBusy("x"), ErrorCode.SERVER_BUSY),
            (DeadlineExceeded("x"), ErrorCode.DEADLINE_EXPIRED),
            (RetrievalTimeout("x"), ErrorCode.DEADLINE_EXPIRED),
            (ServerDraining("x"), ErrorCode.SHUTTING_DOWN),
            (WritesFrozen("x"), ErrorCode.WRITE_FROZEN),
            (ProtocolError("x"), ErrorCode.BAD_REQUEST),
            (ValueError("x"), ErrorCode.BAD_REQUEST),
            (RuntimeError("x"), ErrorCode.INTERNAL),
        ],
    )
    def test_exception_to_error(self, exc, code):
        got_code, _ = protocol.exception_to_error(exc)
        assert got_code is code

    @pytest.mark.parametrize("code", list(ErrorCode))
    def test_every_code_round_trips_through_the_one_table(self, code):
        """Both directions derive from one table: the exception a client
        raises for a code maps back, server-side, to that code.  The two
        codes without a class of their own surface as a ``RemoteError``
        naming them, which a server relaying it reports as ``INTERNAL``."""
        raised = protocol.error_to_exception(code, "m")
        back, message = protocol.exception_to_error(raised)
        if code in (ErrorCode.BAD_REQUEST, ErrorCode.INTERNAL):
            assert type(raised) is RemoteError and code.name in str(raised)
            assert back is ErrorCode.INTERNAL
        else:
            assert type(raised) is not RemoteError
            assert (back, message) == (code, "m")

    def test_a_subclass_is_reported_before_its_base(self):
        from repro.engine import PrologError, ResourceError

        assert issubclass(ResourceError, PrologError)
        assert issubclass(UnknownPredicateError, KeyError)
        for exc, code in (
            (ResourceError("x"), ErrorCode.RESOURCE_EXHAUSTED),
            (PrologError("x"), ErrorCode.RESOLUTION_ERROR),
            (UnknownPredicateError("x"), ErrorCode.UNKNOWN_PREDICATE),
            (KeyError("x"), ErrorCode.BAD_REQUEST),
        ):
            assert protocol.exception_to_error(exc)[0] is code

    def test_unknown_predicate_message_unwrapped(self):
        code, message = protocol.exception_to_error(
            UnknownPredicateError("no procedure nosuch/3")
        )
        assert code is ErrorCode.UNKNOWN_PREDICATE
        assert message == "no procedure nosuch/3"  # no KeyError repr quotes


class TestGoldenFrames:
    """The wire did not move: every ``encode_*`` output, for one fixed
    goal / clause / result / solution, is byte-equal to a literal
    captured at 2263237 (before the verb table moved into ``protocol``).
    A failure here is a wire-format change and needs a version bump."""

    GOAL = read_term("parent(tom, X)")
    RULE = as_clause(read_term("grand(X, Z) :- parent(X, Y), parent(Y, Z)"))
    RESULT = RetrievalResult(
        goal=GOAL,
        candidates=[as_clause(read_term("parent(tom, bob)")), RULE],
        stats=RetrievalStats(
            mode=SearchMode.BOTH, residency="disk", clauses_total=6,
            fs1_candidates=3, final_candidates=2, disk_time_s=0.25,
            fs1_time_s=0.5, fs2_time_s=0.125, fs2_search_calls=1,
            software_time_s=0.0, bytes_from_disk=512,
        ),
    )
    SOLUTION = {"X": read_term("bob"), "Ys": read_term("[a, f(B), 3]")}

    GOLDEN = {
        "encode_retrieve_request": (
            "000000150000000200000006706172656e7400000003746f6d02000000fa000c"
            "620000000800000127000000000001000158"
        ),
        "encode_batch_request": (
            "0000001a0000000300000006706172656e7400000003746f6d0000000171ff00"
            "0000000002000c620000000800000127000000000001000158000c6200000210"
            "00000127000000000001000159"
        ),
        "encode_solve_request": (
            "000000150000000200000006706172656e7400000003746f6d0003000005dc00"
            "000007000c620000000800000127000000000001000158"
        ),
        "encode_mutate_request": (
            "0000001c00000003000000012c00000006706172656e74000000056772616e64"
            "01000000030000002800047573657200000002000200340034030008001c0000"
            "2600000026000001620000006200000124000000260000026200000124000002"
            "24000001030158015a01590003772d31"
        ),
        "encode_result_response": (
            "0000002a0000000500000006706172656e7400000003746f6d00000003626f62"
            "000000012c000000056772616e64000c62000000080000012700000000000100"
            "0158000000020000000000020011001100000800000000080000010800000200"
            "000004000200340034030008001c000026000000260000016200000362000000"
            "2400000026000002620000002400000224000001030158015a01590003000464"
            "69736b000000060100000003000000020000000100000000000002003fd00000"
            "000000003fe00000000000003fc00000000000000000000000000000"
        ),
        "encode_batch_response": (
            "0000002a0000000500000006706172656e7400000003746f6d00000003626f62"
            "000000012c000000056772616e640002000c6200000008000001270000000000"
            "0100015800000002000000000002001100110000080000000008000001080000"
            "0200000004000200340034030008001c00002600000026000001620000036200"
            "00002400000026000002620000002400000224000001030158015a0159000300"
            "046469736b000000060100000003000000020000000100000000000002003fd0"
            "0000000000003fe00000000000003fc00000000000000000000000000000000c"
            "62000000080000012700000000000100015800000000ff"
        ),
        "encode_solution": (
            "000000150000000300000003626f620000000161000000016600000002000200"
            "0158000408000000000000000259730018e30000000800000161000002270000"
            "0010000003e0000000000001000142"
        ),
        "encode_solve_done": (
            "00000003000014736f6c7574696f6e206361702072656163686564"
        ),
        "encode_mutated_response": (
            "0000001c00000003000000012c00000006706172656e74000000056772616e64"
            "0000000000000009010100000002000200340034030008001c00002600000026"
            "0000016200000062000001240000002600000262000001240000022400000103"
            "0158015a0159"
        ),
        "encode_manifest_response": (
            "7b2276657273696f6e223a20317d"
        ),
        "encode_error": (
            "09000c6e6f64652069732061742034"
        ),
        "encode_stats_response": (
            "7b2261646472657373223a2022683a31222c202268616e646c6564223a20327d"
        ),
        "encode_frame": (
            "c1ae0114deadbeef000000020102"
        ),
    }

    def encoded(self) -> dict[str, bytes]:
        goal, rule, result, solution = (
            self.GOAL, self.RULE, self.RESULT, self.SOLUTION,
        )
        return {
            "encode_retrieve_request": protocol.encode_retrieve_request(
                goal, SearchMode.FS2_ONLY, 250
            ),
            "encode_batch_request": protocol.encode_batch_request(
                [goal, read_term("q(1, Y)")], None, 0
            ),
            "encode_solve_request": protocol.encode_solve_request(
                goal, SearchMode.BOTH, 1500, 7
            ),
            "encode_mutate_request": protocol.encode_mutate_request(
                "asserta", rule, "user", 3, 40, "w-1"
            ),
            "encode_result_response": protocol.encode_result_response(result),
            "encode_batch_response": protocol.encode_batch_response(
                [result, RetrievalResult(goal=goal)]
            ),
            "encode_solution": protocol.encode_solution(2, solution),
            "encode_solve_done": protocol.encode_solve_done(
                3, False, "solution cap reached"
            ),
            "encode_mutated_response": protocol.encode_mutated_response(9, True, rule),
            "encode_manifest_response": protocol.encode_manifest_response(
                '{"version": 1}'
            ),
            "encode_error": protocol.encode_error(
                ErrorCode.STALE_MANIFEST, "node is at 4"
            ),
            "encode_stats_response": protocol.encode_stats_response(
                {"handled": 2, "address": "h:1"}
            ),
            "encode_frame": protocol.encode_frame(
                FrameType.RESP_PONG, 0xDEADBEEF, b"\x01\x02"
            ),
        }

    def test_every_encoder_is_pinned(self):
        encoders = {n for n in protocol.__all__ if n.startswith("encode_")}
        assert set(self.GOLDEN) == encoders == set(self.encoded())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bytes_equal_the_parent_literal(self, name):
        assert self.encoded()[name].hex() == self.GOLDEN[name]
