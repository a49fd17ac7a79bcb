"""The character-loop tokenizer ``repro.terms.reader`` had before its
scanner moved to regular expressions, kept as a test-only oracle.

:func:`tokens` runs it and yields plain ``(kind, text, position, end)``
tuples, so ``tests/test_terms_tokenizer.py`` can hold the live
tokenizer's stream, positions and errors against it.  Not imported by
the package.
"""

from __future__ import annotations

from typing import Iterator

from repro.terms.reader import OPERATORS, ReaderError


def _Token(kind: str, text: str, position: int, end: int) -> tuple:
    return (kind, text, position, end)


def tokens(text: str) -> Iterator[tuple]:
    """The oracle's token stream over ``text``."""
    return _tokenize(text)


_SYMBOL_CHARS = set("+-*/\\^<>=~:.?@#&$")
_ASCII_DIGITS = set("0123456789")
_PUNCT = {"(", ")", "[", "]", "{", "}", ",", "|"}


def _tokenize(text: str) -> Iterator[tuple]:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "%":
            nl = text.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        if text.startswith("/*", i):
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
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
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
            while i < n and text[i] in _SYMBOL_CHARS:
                i += 1
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


def _scan_number(text: str, i: int) -> tuple[int, tuple]:
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
    j = i
    while j < n and text[j] in _ASCII_DIGITS:
        j += 1
    is_float = False
    if j < n - 1 and text[j] == "." and text[j + 1] in _ASCII_DIGITS:
        is_float = True
        j += 1
        while j < n and text[j] in _ASCII_DIGITS:
            j += 1
    if j < n and text[j] in "eE":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and text[k] in _ASCII_DIGITS:
            is_float = True
            j = k
            while j < n and text[j] in _ASCII_DIGITS:
                j += 1
    kind = "float" if is_float else "int"
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
