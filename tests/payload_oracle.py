"""The wire's retrieval-answer encoder from before candidates travelled
as their stored PIF records, kept as a test-only oracle.

It writes every candidate from its ``Clause``: ``clause_record`` against
the message's own symbol table, then the indicator's name — what
``repro.net.protocol.PayloadEncoder.clause`` did for each candidate the
server had decoded.  :func:`result_payload` and :func:`batch_payload`
are ``encode_result_response`` / ``encode_batch_response`` built on it,
so ``tests/test_wire_records.py`` can hold the live encoder's bytes,
which rebase each stored record instead, against it.  Not imported by
the package.
"""

from __future__ import annotations

from repro.crs import RetrievalResult
from repro.net.protocol import PayloadEncoder
from repro.pif import clause_record


class ClausePayloadEncoder(PayloadEncoder):
    """A payload whose results are written from decoded clauses."""

    def result(self, result: RetrievalResult) -> None:
        self.goal(result.goal)
        self.body.u32(len(result.candidates))
        for clause in result.candidates:
            record = clause_record(clause, self.symbols)
            name, arity = clause.indicator
            self.body.u32(self.symbols.intern_atom(name))
            self.body.u16(arity)
            self.body.blob16(record)
        self.stats(result.stats)


def result_payload(result: RetrievalResult) -> bytes:
    encoder = ClausePayloadEncoder()
    encoder.result(result)
    return encoder.finish()


def batch_payload(results: list[RetrievalResult]) -> bytes:
    encoder = ClausePayloadEncoder()
    encoder.body.u16(len(results))
    for result in results:
        encoder.result(result)
    return encoder.finish()
