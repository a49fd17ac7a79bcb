"""The regex scanner of ``repro.terms.reader`` against the character-loop
tokenizer it replaced (``tests/tokenizer_oracle.py``): the same tokens,
the same positions and the same errors, on generated and real text."""

from __future__ import annotations

import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terms.reader import ReaderError, _tokenize

from . import tokenizer_oracle

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: pieces the generated text is glued from; every branch of the scanner
#: shows up in at least one of them.
FRAGMENTS = [
    "foo", "bar_1", "X", "_", "_G12", "Tail", "élan", "Ärger", "名前", "x²",
    "αβγ", "İx", "a١", "0", "42", "3.14", "1.0e10", "2E-3", "7e", "1.", "1.x",
    "0x1F", "0x", "0xg", "0'a", "0' ", "0'\\n", "0'\\q", "0''", "0'",
    "'quoted atom'", "'It''s'", "'a\\nb'", "'\\x41\\'", "'tab\\t'", "'\\q'",
    "'open", "\"a string\"", "\"dq\"\"x\"", "'line\\\ncont'",
    "% comment\n", "%", "/* block */", "/* open", "/*/", "*/",
    "+", "-", "*", "/", "\\+", "=..", "=\\=", "@>=", "-->", ":-", "?-",
    "#&$", "X = +.", "- .", "+.", "=...", "!", ";", "(", ")", "[", "]",
    "{", "}", ",", "|", ".", ". ", ".%", "\t", "\n", " ", " ",
    " ", "　", "\x0b", "`", "€",
]


def scan(tokenize, text):
    """Every token up to the end or the first error, and that error."""
    tokens = []
    try:
        for token in tokenize(text):
            if not isinstance(token, tuple):
                token = (token.kind, token.text, token.position, token.end)
            tokens.append(token)
    except ReaderError as exc:
        return tokens, (str(exc), exc.position)
    return tokens, None


def assert_same_scan(text):
    assert scan(_tokenize, text) == scan(tokenizer_oracle.tokens, text), text


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
def test_glued_fragments(text):
    assert_same_scan(text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(FRAGMENTS),
            st.text(max_size=6),
            st.text(alphabet="+-*/\\^<>=~:.?@#&$ ", max_size=8),
        ),
        max_size=16,
    ).map(" ".join)
)
def test_mixed_with_arbitrary_unicode(text):
    assert_same_scan(text)


def test_every_example_program():
    programs = sorted(EXAMPLES.glob("*.pl"))
    assert programs
    for path in programs:
        assert_same_scan(path.read_text(encoding="utf-8"))


def test_a_fact_base():
    text = "\n".join(
        f"rec(k{i}, 'v {i}', {i}, {i}.5e1, [a, b | T]) :- q(T)." for i in range(200)
    )
    tokens, error = scan(_tokenize, text)
    assert error is None and len(tokens) == 200 * 24
    assert_same_scan(text)
