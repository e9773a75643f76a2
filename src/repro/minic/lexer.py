"""Tokenizer for the mini-C subset.

One compiled master pattern, matched at the current offset, recognises
the next token together with the whitespace and comments that follow
it, so each token costs one match. Line and column come from newline
offsets in the source, not from a per-character cursor. String and
character literals, which are rare, have a small hand-written scanner.

Two input rules hold everywhere:

* outside comments the source is ASCII: any other character raises
  ``LexError("unexpected character ...")`` at its line and column,
  also inside a literal;
* a literal cut off by the end of the input raises the matching
  ``unterminated string literal`` or ``unterminated character
  literal`` error at the literal's start, as an unclosed block comment
  raises ``unterminated comment``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import LexError

KEYWORDS = frozenset([
    "void", "char", "short", "int", "long", "signed", "unsigned",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "struct", "sizeof", "typedef", "static", "const", "goto", "switch",
    "case", "default", "enum", "union", "extern",
])

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

TOK_EOF = "eof"
TOK_IDENT = "ident"
TOK_KEYWORD = "keyword"
TOK_INT = "int"
TOK_STRING = "string"
TOK_CHAR = "char"
TOK_OP = "op"

_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}


@dataclass(slots=True)
class Token:
    """One token: ``value`` is a str for an identifier, keyword or
    operator, an int for a number or character, bytes for a string and
    None at EOF.

    Slotted but not frozen, like ``Instr``: a frozen dataclass takes
    three times as long to construct (1.1 against 0.35 µs, CPython
    3.11), so immutability is a rule rather than a type. Nothing
    changes a token once :func:`tokenize` has returned it.
    """

    kind: str
    value: object
    line: int
    col: int

    def __str__(self):
        return f"{self.kind}({self.value!r})"


# What is skipped between tokens: whitespace, line and block comments.
_SKIP = r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"
_SKIP_RE = re.compile(_SKIP, re.DOTALL)

# Operators longest first, the one-character ones as a class.
_OP = "|".join(
    [re.escape(op) for op in OPERATORS if len(op) > 1]
    + ["[" + "".join(re.escape(op) for op in OPERATORS if len(op) == 1)
       + "]"])

# The next token and what follows it. A block comment that starts where
# a token should is one the skip could not close. Literals, an unclosed
# comment and a stray character end the match at their first character
# and are handled outside the pattern.
_MASTER = re.compile(
    r"(?P<comment>/\*)"
    r"|(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>" + _OP + ")"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)[uUlL]*"
    r"|(?P<dec>[0-9]+)[uUlL]*"      # integer suffixes: all ints modelled
    r")" + _SKIP +
    r"|(?P<char>')|(?P<string>\")|(?P<bad>.)",
    re.DOTALL)

_HEX_RUN = re.compile(r"[0-9a-fA-F]*")
_SPACE_RUN = re.compile(r"[ \t\r\n]*")


def _position(source: str, offset: int) -> Tuple[int, int]:
    """1-based ``(line, column)`` of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _unexpected(source: str, offset: int) -> LexError:
    return LexError(f"unexpected character {source[offset]!r}",
                    *_position(source, offset))


def _unterminated(literal: str, source: str, start: int) -> LexError:
    return LexError(f"unterminated {literal} literal",
                    *_position(source, start))


def _escape(source: str, pos: int, literal: str,
            start: int) -> Tuple[int, int]:
    """``(byte value, end offset)`` of the escape whose backslash is at
    ``pos``, inside the ``literal`` that opens at ``start``."""
    ch = source[pos + 1:pos + 2]
    if ch == "x":
        end = _HEX_RUN.match(source, pos + 2).end()
        if end > pos + 2:
            return int(source[pos + 2:end], 16) & 0xFF, end
        if end < len(source):
            raise LexError("empty hex escape", *_position(source, end))
    elif ch in _ESCAPES:
        return _ESCAPES[ch], pos + 2
    elif ch > "\x7f":
        raise _unexpected(source, pos + 1)
    elif ch:
        raise LexError(f"unknown escape \\{ch}",
                       *_position(source, pos + 1))
    raise _unterminated(literal, source, start)


def _char_literal(source: str, start: int) -> Tuple[int, int]:
    """``(value, end offset)`` of the character literal at ``start``."""
    ch = source[start + 1:start + 2]
    if ch == "'":
        raise LexError("empty character literal",
                       *_position(source, start))
    if ch == "\\":
        value, pos = _escape(source, start + 1, "character", start)
    elif ch > "\x7f":
        raise _unexpected(source, start + 1)
    elif not ch:
        raise _unterminated("character", source, start)
    else:
        value, pos = ord(ch), start + 2
    if source[pos:pos + 1] != "'":
        raise _unterminated("character", source, start)
    return value, pos + 1


def _string_literal(source: str, start: int) -> Tuple[bytes, int]:
    """``(bytes, end offset)`` of the string literal at ``start``, with
    the literals that follow it across whitespace appended."""
    data = bytearray()
    pos = start
    while source.startswith('"', pos):
        pos += 1
        while True:
            ch = source[pos:pos + 1]
            if ch == '"':
                break
            if ch == "\\":
                value, pos = _escape(source, pos, "string", start)
            elif not ch or ch == "\n":
                raise _unterminated("string", source, start)
            elif ch > "\x7f":
                raise _unexpected(source, pos)
            else:
                value = ord(ch)
                pos += 1
            data.append(value)
        pos = _SPACE_RUN.match(source, pos + 1).end()
    return bytes(data), pos


def tokenize(source: str) -> List[Token]:
    """Convert mini-C source text into a token list (EOF-terminated)."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    keywords = KEYWORDS
    end = len(source)
    pos = _SKIP_RE.match(source).end()
    line, line_start = 1, 0
    next_newline = source.find("\n")      # -1 once none is left
    while pos < end:
        if pos > next_newline >= 0:
            line += source.count("\n", line_start, pos)
            line_start = source.rfind("\n", 0, pos) + 1
            next_newline = source.find("\n", pos)
        col = pos - line_start + 1
        m = match(source, pos)
        kind = m.lastgroup
        if kind == "ident":
            text = m["ident"]
            append(Token(TOK_KEYWORD if text in keywords else TOK_IDENT,
                         text, line, col))
        elif kind == "op":
            append(Token(TOK_OP, m["op"], line, col))
        elif kind == "dec":
            append(Token(TOK_INT, int(m["dec"]), line, col))
        elif kind == "hex":
            digits = m["hex"][2:]
            if not digits:
                raise LexError("empty hex literal", line, col)
            append(Token(TOK_INT, int(digits, 16), line, col))
        elif kind == "char":
            value, pos = _char_literal(source, pos)
            append(Token(TOK_CHAR, value, line, col))
            pos = _SKIP_RE.match(source, pos).end()
            continue
        elif kind == "string":
            value, pos = _string_literal(source, pos)
            append(Token(TOK_STRING, value, line, col))
            pos = _SKIP_RE.match(source, pos).end()
            continue
        elif kind == "comment":
            raise LexError("unterminated comment", line, col)
        else:
            raise _unexpected(source, pos)
        pos = m.end()
    append(Token(TOK_EOF, None, *_position(source, end)))
    return tokens
