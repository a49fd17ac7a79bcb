"""Edinburgh Prolog reader: tokenizer and operator-precedence parser.

Supports the syntax the PDBM system needs: atoms (plain, quoted, symbolic),
integers (decimal, ``0'c`` character codes), floats, variables, compound
terms, bracket lists with ``|`` tails, curly terms, parenthesised terms,
``%`` line comments and ``/* */`` block comments, and a standard operator
table (``:-``, ``;``, ``->``, ``,``, comparison and arithmetic operators).

The entry points are :func:`read_term` (one term from a string),
:func:`read_program` (a ``.``-separated clause list) and
:class:`TermReader` for incremental reading.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .term import NIL, Atom, Float, Int, Struct, Term, Var, make_list

__all__ = ["ReaderError", "read_term", "read_program", "TermReader", "OPERATORS"]


class ReaderError(ValueError):
    """Raised on malformed Prolog text, with position information."""

    def __init__(self, message: str, position: int, text: str):
        line = text.count("\n", 0, position) + 1
        column = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} at line {line}, column {column}")
        self.position = position
        self.line = line
        self.column = column


@dataclass(slots=True)
class _Token:
    kind: str  # atom var int float punct string end
    text: str
    position: int
    end: int = -1  # index just past the token in the source text

    def source_end(self) -> int:
        return self.end if self.end >= 0 else self.position + len(self.text)


_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")
_ASCII_DIGITS = set("0123456789")
_PUNCT = {"(", ")", "[", "]", "{", "}", ",", "|"}

# ``\s`` and ``\w`` are exactly ``str.isspace`` and ``str.isalnum`` or
# ``_`` over all of Unicode, so each run ends where a per-character
# loop over those predicates would stop.
_SPACES = re.compile(r"\s+")
_WORD_TAIL = re.compile(r"\w*")
_SYMBOL_RUN = re.compile(r"[+\-*/\\^<>=~:.?@#&$]+")
#: digits, then a fraction and an exponent, each only when a digit follows.
_DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def _tokenize(text: str) -> Iterator[_Token]:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i = _SPACES.match(text, i).end()
            continue
        if c == "%":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if c == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise ReaderError("unterminated block comment", i, text)
            i = end + 2
            continue
        start = i
        if c in _ASCII_DIGITS:
            i, token = _scan_number(text, i)
            yield token
            continue
        if c == "_" or c.isalpha():
            i = _WORD_TAIL.match(text, i + 1).end()
            word = text[start:i]
            if c == "_" or c.isupper():
                yield _Token("var", word, start, i)
            else:
                yield _Token("atom", word, start, i)
            continue
        if c == "'":
            i, value = _scan_quoted(text, i, "'")
            yield _Token("atom", value, start, i)
            continue
        if c == '"':
            i, value = _scan_quoted(text, i, '"')
            yield _Token("string", value, start, i)
            continue
        if c == "!":
            yield _Token("atom", "!", start, start + 1)
            i += 1
            continue
        if c == ";":
            yield _Token("atom", ";", start, start + 1)
            i += 1
            continue
        if c in _PUNCT:
            yield _Token("punct", c, start, start + 1)
            i += 1
            continue
        if c in _SYMBOL_CHARS:
            i = _SYMBOL_RUN.match(text, i).end()
            sym = text[start:i]
            # A '.' followed by whitespace/EOF is the clause terminator.
            if sym == "." and (i >= n or text[i].isspace() or text[i] == "%"):
                yield _Token("end", ".", start, start + 1)
                continue
            if (
                sym.endswith(".")
                and (i >= n or text[i].isspace())
                and sym not in OPERATORS
                and sym[:-1] in OPERATORS
            ):
                # A clause terminator glued onto a symbolic operator, e.g.
                # "X = +."; but '=..' itself must stay whole.
                yield _Token("atom", sym[:-1], start, i - 1)
                yield _Token("end", ".", i - 1, i)
                continue
            yield _Token("atom", sym, start, i)
            continue
        raise ReaderError(f"unexpected character {c!r}", i, text)


def _scan_number(text: str, i: int) -> tuple[int, _Token]:
    start = i
    n = len(text)
    if text.startswith("0'", i) and i + 2 < n:
        # Character code: 0'a  (also 0'\\n style escapes)
        if text[i + 2] == "\\" and i + 3 < n:
            esc = text[i + 3]
            value = _ESCAPES.get(esc)
            if value is None:
                raise ReaderError(f"bad character escape \\{esc}", i, text)
            return i + 4, _Token("int", str(ord(value)), start, i + 4)
        return i + 3, _Token("int", str(ord(text[i + 2])), start, i + 3)
    if text.startswith("0x", i):
        j = i + 2
        while j < n and text[j] in "0123456789abcdefABCDEF":
            j += 1
        if j > i + 2:
            return j, _Token("int", str(int(text[i + 2 : j], 16)), start, j)
        # "0x" with no digits: just the integer 0 (the 'x' scans separately).
        return i + 1, _Token("int", "0", start, i + 1)
    match = _DECIMAL.match(text, i)
    j = match.end()
    kind = "int" if match.lastindex is None else "float"
    return j, _Token(kind, text[start:j], start, j)


_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "0": "\0",
}


def _scan_quoted(text: str, i: int, quote: str) -> tuple[int, str]:
    start = i
    i += 1
    out: list[str] = []
    n = len(text)
    while i < n:
        c = text[i]
        if c == quote:
            if i + 1 < n and text[i + 1] == quote:  # doubled quote
                out.append(quote)
                i += 2
                continue
            return i + 1, "".join(out)
        if c == "\\":
            if i + 1 >= n:
                break
            esc = text[i + 1]
            if esc == "\n":  # line continuation
                i += 2
                continue
            if esc == "x":
                end = text.find("\\", i + 2)
                if end < 0:
                    raise ReaderError("bad \\x escape", i, text)
                out.append(chr(int(text[i + 2 : end], 16)))
                i = end + 1
                continue
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
                i += 2
                continue
            raise ReaderError(f"unknown escape \\{esc}", i, text)
        out.append(c)
        i += 1
    raise ReaderError("unterminated quoted token", start, text)


# Operator table: name -> list of (priority, type).  A subset of the
# standard Edinburgh table sufficient for knowledge-base clauses.
OPERATORS: dict[str, list[tuple[int, str]]] = {
    ":-": [(1200, "xfx"), (1200, "fx")],
    "-->": [(1200, "xfx")],
    "?-": [(1200, "fx")],
    ";": [(1100, "xfy")],
    "->": [(1050, "xfy")],
    ",": [(1000, "xfy")],
    "\\+": [(900, "fy")],
    "=": [(700, "xfx")],
    "\\=": [(700, "xfx")],
    "==": [(700, "xfx")],
    "\\==": [(700, "xfx")],
    "@<": [(700, "xfx")],
    "@>": [(700, "xfx")],
    "@=<": [(700, "xfx")],
    "@>=": [(700, "xfx")],
    "is": [(700, "xfx")],
    "=..": [(700, "xfx")],
    "=:=": [(700, "xfx")],
    "=\\=": [(700, "xfx")],
    "<": [(700, "xfx")],
    ">": [(700, "xfx")],
    "=<": [(700, "xfx")],
    ">=": [(700, "xfx")],
    "+": [(500, "yfx")],
    "-": [(500, "yfx"), (200, "fy")],
    "*": [(400, "yfx")],
    "/": [(400, "yfx")],
    "//": [(400, "yfx")],
    "mod": [(400, "yfx")],
    "**": [(200, "xfx")],
    "^": [(200, "xfy")],
}


def _infix(name: str) -> tuple[int, str] | None:
    for priority, optype in OPERATORS.get(name, ()):
        if optype in ("xfx", "xfy", "yfx"):
            return priority, optype
    return None


def _prefix(name: str) -> tuple[int, str] | None:
    for priority, optype in OPERATORS.get(name, ()):
        if optype in ("fy", "fx"):
            return priority, optype
    return None


class _Parser:
    """Operator-precedence parser over the token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.var_cache: dict[str, Var] = {}

    def peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ReaderError("unexpected end of input", len(self.text), self.text)
        self.pos += 1
        return token

    def expect(self, kind: str, text: str) -> _Token:
        token = self.next()
        if token.kind != kind or token.text != text:
            raise ReaderError(
                f"expected {text!r}, found {token.text!r}", token.position, self.text
            )
        return token

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # --- term parsing -----------------------------------------------------

    def parse_term(self, max_priority: int) -> Term:
        left, left_priority = self.parse_primary(max_priority)
        return self.parse_infix(left, left_priority, max_priority)

    def parse_infix(self, left: Term, left_priority: int, max_priority: int) -> Term:
        while True:
            token = self.peek()
            if token is None or token.kind == "end":
                return left
            name = token.text
            if token.kind == "punct" and name == ",":
                name = ","
            elif token.kind != "atom":
                return left
            op = _infix(name)
            if op is None:
                return left
            priority, optype = op
            if priority > max_priority:
                return left
            left_max = priority if optype == "yfx" else priority - 1
            right_max = priority if optype == "xfy" else priority - 1
            if left_priority > left_max:
                return left
            self.next()
            right = self.parse_term(right_max)
            left = Struct(name, (left, right))
            left_priority = priority

    def parse_primary(self, max_priority: int) -> tuple[Term, int]:
        token = self.next()
        if token.kind == "int":
            return Int(int(token.text)), 0
        if token.kind == "float":
            return Float(float(token.text)), 0
        if token.kind == "var":
            return self._variable(token.text), 0
        if token.kind == "string":
            return make_list([Int(ord(c)) for c in token.text]), 0
        if token.kind == "punct":
            if token.text == "(":
                term = self.parse_term(1200)
                self.expect("punct", ")")
                return term, 0
            if token.text == "[":
                return self.parse_list(), 0
            if token.text == "{":
                nxt = self.peek()
                if nxt is not None and nxt.kind == "punct" and nxt.text == "}":
                    self.next()
                    return Atom("{}"), 0
                inner = self.parse_term(1200)
                self.expect("punct", "}")
                return Struct("{}", (inner,)), 0
            raise ReaderError(
                f"unexpected {token.text!r}", token.position, self.text
            )
        if token.kind == "atom":
            return self.parse_atom_or_compound(token, max_priority)
        raise ReaderError(f"unexpected token {token.text!r}", token.position, self.text)

    def parse_atom_or_compound(
        self, token: _Token, max_priority: int
    ) -> tuple[Term, int]:
        name = token.text
        nxt = self.peek()
        # f( ... ) with no space between name and '(' -> compound term.
        if (
            nxt is not None
            and nxt.kind == "punct"
            and nxt.text == "("
            and nxt.position == token.source_end()
        ):
            self.next()
            args = [self.parse_term(999)]
            while True:
                sep = self.peek()
                if sep is not None and sep.kind == "punct" and sep.text == ",":
                    self.next()
                    args.append(self.parse_term(999))
                    continue
                break
            self.expect("punct", ")")
            return Struct(name, tuple(args)), 0
        # negative number literal: '-' immediately adjacent to a number
        # ('- 1' with a space stays the compound -(1), as in standard Prolog).
        if (
            name == "-"
            and nxt is not None
            and nxt.kind in ("int", "float")
            and nxt.position == token.source_end()
        ):
            num = self.next()
            if num.kind == "int":
                return Int(-int(num.text)), 0
            return Float(-float(num.text)), 0
        prefix = _prefix(name)
        if prefix is not None and nxt is not None and self._can_start_term(nxt):
            priority, optype = prefix
            if priority <= max_priority:
                arg_max = priority if optype == "fy" else priority - 1
                arg = self.parse_term(arg_max)
                return Struct(name, (arg,)), priority
        return Atom(name), 0

    def _can_start_term(self, token: _Token) -> bool:
        if token.kind in ("int", "float", "var", "atom", "string"):
            # an infix-only operator cannot start a term
            if token.kind == "atom" and _infix(token.text) and not _prefix(token.text):
                nxt = (
                    self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
                )
                if nxt is None or not (
                    nxt.kind == "punct" and nxt.text == "("
                ):
                    return False
            return True
        return token.kind == "punct" and token.text in ("(", "[", "{")

    def parse_list(self) -> Term:
        nxt = self.peek()
        if nxt is not None and nxt.kind == "punct" and nxt.text == "]":
            self.next()
            return NIL
        items = [self.parse_term(999)]
        tail: Term = NIL
        while True:
            token = self.next()
            if token.kind == "punct" and token.text == ",":
                items.append(self.parse_term(999))
                continue
            if token.kind == "punct" and token.text == "|":
                tail = self.parse_term(999)
                self.expect("punct", "]")
                break
            if token.kind == "punct" and token.text == "]":
                break
            raise ReaderError(
                f"bad list syntax near {token.text!r}", token.position, self.text
            )
        return make_list(items, tail)

    def _variable(self, name: str) -> Var:
        if name == "_":
            return Var("_")
        if name not in self.var_cache:
            self.var_cache[name] = Var(name)
        return self.var_cache[name]


def read_term(text: str) -> Term:
    """Parse a single term from ``text`` (optional trailing ``.``)."""
    parser = _Parser(text)
    term = parser.parse_term(1200)
    token = parser.peek()
    if token is not None and token.kind == "end":
        parser.next()
        token = parser.peek()
    if token is not None:
        raise ReaderError(
            f"trailing input {token.text!r}", token.position, text
        )
    return term


def read_program(text: str) -> list[Term]:
    """Parse a sequence of ``.``-terminated clauses."""
    parser = _Parser(text)
    clauses: list[Term] = []
    while not parser.at_end():
        parser.var_cache = {}
        clauses.append(parser.parse_term(1200))
        token = parser.next()
        if token.kind != "end":
            raise ReaderError(
                f"expected '.', found {token.text!r}", token.position, text
            )
    return clauses


class TermReader:
    """Incremental clause reader over a text stream (e.g. a consulted file)."""

    def __init__(self, text: str):
        self._parser = _Parser(text)

    def __iter__(self) -> Iterator[Term]:
        return self

    def __next__(self) -> Term:
        if self._parser.at_end():
            raise StopIteration
        self._parser.var_cache = {}
        term = self._parser.parse_term(1200)
        token = self._parser.next()
        if token.kind != "end":
            raise ReaderError(
                f"expected '.', found {token.text!r}",
                token.position,
                self._parser.text,
            )
        return term
