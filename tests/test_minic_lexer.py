"""Tests for the mini-C tokenizer."""

import hashlib
import pathlib

import pytest

from repro.errors import LexError
from repro.minic.lexer import (
    TOK_CHAR, TOK_EOF, TOK_IDENT, TOK_INT, TOK_KEYWORD, TOK_OP,
    TOK_STRING, tokenize,
)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == TOK_EOF

    def test_identifiers(self):
        assert values("foo _bar baz123") == ["foo", "_bar", "baz123"]

    def test_keywords_vs_identifiers(self):
        toks = tokenize("int integer")
        assert toks[0].kind == TOK_KEYWORD
        assert toks[1].kind == TOK_IDENT

    def test_decimal_numbers(self):
        assert values("0 42 1234567890") == [0, 42, 1234567890]

    def test_hex_numbers(self):
        assert values("0x0 0xFF 0xdeadBEEF") == [0, 255, 0xDEADBEEF]

    def test_integer_suffixes_swallowed(self):
        assert values("10L 10UL 10u") == [10, 10, 10]

    def test_empty_hex_rejected(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_char_literals(self):
        assert values("'a' '0' ' '") == [97, 48, 32]

    def test_char_escapes(self):
        assert values(r"'\n' '\t' '\0' '\\' '\''") == [10, 9, 0, 92, 39]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [0x41]

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'ab'")

    def test_empty_char(self):
        with pytest.raises(LexError):
            tokenize("''")


class TestStrings:
    def test_simple_string(self):
        assert values('"hello"') == [b"hello"]

    def test_string_escapes(self):
        assert values(r'"a\nb\0"') == [b"a\nb\x00"]

    def test_adjacent_concatenation(self):
        assert values('"foo" "bar"') == [b"foobar"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"ab\ncd"')


class TestOperators:
    def test_maximal_munch(self):
        assert values("<<= >>= == <= >= != && || -> ++ --") == \
            ["<<=", ">>=", "==", "<=", ">=", "!=", "&&", "||", "->",
             "++", "--"]

    def test_compound_assign(self):
        assert values("+= -= *= /= %= &= |= ^=") == \
            ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]

    def test_single_char_ops(self):
        assert values("+ - * / % < > ! ~ & | ^ ( ) { } [ ] ; , . ? :") \
            == list("+-*/%<>!~&|^(){}[];,.?:")

    def test_arrow_vs_minus(self):
        assert values("a->b - c") == ["a", "->", "b", "-", "c"]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestComments:
    def test_line_comment(self):
        assert values("a // comment here\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_comment_not_nested(self):
        assert values("a /* /* */ b") == ["a", "b"]


class TestPositions:
    def test_line_tracking(self):
        toks = tokenize("a\nbb\n  c")
        assert toks[0].line == 1
        assert toks[1].line == 2
        assert toks[2].line == 3
        assert toks[2].col == 3

    def test_error_position(self):
        try:
            tokenize("ab\n  @")
        except LexError as err:
            assert err.line == 2 and err.col == 3
        else:  # pragma: no cover
            raise AssertionError("expected LexError")


# ---------------------------------------------------------------------------
# Pinned outputs: token streams and errors, byte for byte
# ---------------------------------------------------------------------------

def _canonical(tokens):
    """One text line per token: kind, value (bytes as hex), line, col."""
    lines = []
    for tok in tokens:
        value = tok.value.hex() if isinstance(tok.value, bytes) else tok.value
        lines.append(f"{tok.kind}\t{value}\t{tok.line}\t{tok.col}\n")
    return "".join(lines)


def token_stream_digest(named_sources):
    """SHA-256 over the canonical token streams of ``(name, source)``s."""
    digest = hashlib.sha256()
    for name, source in named_sources:
        digest.update(f"== {name}\n".encode())
        digest.update(_canonical(tokenize(source)).encode())
    return digest.hexdigest()


def _workload_sources(scale):
    from repro.workloads import WORKLOADS

    return [(name, WORKLOADS[name].source(scale)) for name in WORKLOADS]


def _runtime_sources():
    from repro.codegen.runtime import runtime_source
    from repro.schemes.compile import SCHEMES

    sources = {}
    for spec in SCHEMES.values():
        key = f"{spec.runtime}/{spec.sbcets_shadow}"
        source = runtime_source(spec.runtime, spec.sbcets_shadow)
        if source not in sources.values():
            sources[key] = source
    return list(sources.items())


def _juliet_sources():
    from repro.workloads.juliet import CWE_PLAN
    from repro.workloads.juliet.generator import _build_case

    out = []
    for cwe, plan in CWE_PLAN.items():
        for subtype, _ in plan:
            case = _build_case(cwe, subtype, 0)
            out += [(f"{case.case_id}/bad", case.bad_source),
                    (f"{case.case_id}/good", case.good_source)]
    return out


def _example_sources():
    root = pathlib.Path(__file__).resolve().parent.parent / "examples" / "c"
    return [(path.name, path.read_text())
            for path in sorted(root.glob("*.c"))]


def _fuzz_sources():
    from repro.fuzz.gen import generate_program, plan_programs

    return [(f"fuzz-7-{index}", generate_program(7, index, kind).source)
            for index, kind in plan_programs(7, 50)]


#: Token-stream digests taken before the lexer was rewritten around one
#: master pattern; every token must come out as it did then.
PINNED_STREAMS = {
    "workloads_small": (
        lambda: _workload_sources("small"), 23,
        "1a70cd76430609342f62bd4531dce896492b78778230e677dea566aca28bffc9"),
    "workloads_default": (
        lambda: _workload_sources("default"), 23,
        "4ee422b3a9f67c9e7f78c5c7aa920d1bbc9ab8171ba26c1895cd85e2cb2ae371"),
    "runtimes": (
        _runtime_sources, 8,
        "26d69518c189d97c7b980080c016774c22891c0dc535d889fdfe1294f9b14ef9"),
    "juliet": (
        _juliet_sources, 48,
        "43d99e34b75eebce7f004cbe09781c30d52a063545aa54a85a8a9145339e9708"),
    "examples": (
        _example_sources, 3,
        "5075655b243bd93c83337aec2b4d147ce5d327406ad37c2d88ebcc1822d497f0"),
    "fuzz": (
        _fuzz_sources, 50,
        "2699064d0a9639a9a21f61874a4ccebf77544d5b77d3c47d52bd4d98fe1b3332"),
}


class TestPinnedStreams:
    @pytest.mark.parametrize("group", sorted(PINNED_STREAMS))
    def test_token_stream_digest(self, group):
        build, count, digest = PINNED_STREAMS[group]
        sources = build()
        assert len(sources) == count
        assert token_stream_digest(sources) == digest


#: Where every malformed input is placed: after a tab and a block
#: comment over two lines, so the reported positions are pinned too.
MALFORMED_PREFIX = "int v;\n\t/* a comment\n   over two lines */ "

#: ``(input, message, line, col)`` as the lexer reported them before it
#: was rewritten around one master pattern.
MALFORMED = [
    ('a /* never ends', 'unterminated comment', 3, 24),
    ('/* never ends\n at all', 'unterminated comment', 3, 22),
    ('char *s = "abc', 'unterminated string literal', 3, 32),
    ('"abc\\"', 'unterminated string literal', 3, 22),
    ('x = "ab\ncd";', 'unterminated string literal', 3, 26),
    ('"a" "b', 'unterminated string literal', 3, 22),
    ('"a"\n  "b\n"', 'unterminated string literal', 3, 22),
    ("'a", 'unterminated character literal', 3, 22),
    ("'ab'", 'unterminated character literal', 3, 22),
    ("'\\0", 'unterminated character literal', 3, 22),
    ("''", 'empty character literal', 3, 22),
    ("c = '\\q';", 'unknown escape \\q', 3, 28),
    ('s = "ok\\q";', 'unknown escape \\q', 3, 30),
    ("'\\x'", 'empty hex escape', 3, 25),
    ('"\\xg"', 'empty hex escape', 3, 25),
    ('0x', 'empty hex literal', 3, 22),
    ('0X;', 'empty hex literal', 3, 22),
    ('n = 0xg;', 'empty hex literal', 3, 26),
    ('a @ b', "unexpected character '@'", 3, 24),
    ('x = 1;\x0c', "unexpected character '\\x0c'", 3, 28),
    ('#include', "unexpected character '#'", 3, 22),
    ('y = $;', "unexpected character '$'", 3, 26),
    ('z = `1`;', "unexpected character '`'", 3, 26),
    ('w \\ v', "unexpected character '\\\\'", 3, 24),
    ('\x0b', "unexpected character '\\x0b'", 3, 22),
    ('p\x00q', "unexpected character '\\x00'", 3, 23),
    ('"ok" /* c */ "\\z"', 'unknown escape \\z', 3, 37),
    ('int main(void) { return 0; } ?: @', "unexpected character '@'", 3, 54),
    ("'\n' @", "unexpected character '@'", 4, 3),
    ('"a"\n  "b" @', "unexpected character '@'", 4, 7),
    ('/* x */ /* y\n*/ @', "unexpected character '@'", 4, 4),
    ('a // to the end \\\n @', "unexpected character '@'", 4, 2),
]


class TestMalformedTable:
    @pytest.mark.parametrize("text,message,line,col", MALFORMED)
    def test_error_message_and_position(self, text, message, line, col):
        with pytest.raises(LexError) as exc:
            tokenize(MALFORMED_PREFIX + text)
        assert (str(exc.value), exc.value.line, exc.value.col) == \
            (f"{line}:{col}: {message}", line, col)


class TestAsciiRule:
    """Outside comments the source is ASCII, and a literal cut off by
    the end of the input is unterminated: every bad input is a
    ``LexError`` with a position, never another exception."""

    @pytest.mark.parametrize("source,message,line,col", [
        # '²'.isdigit() is true, and int() rejected it.
        ("int x = ²;", "unexpected character '²'", 1, 9),
        # ARABIC-INDIC DIGIT ONE used to lex as the integer 1.
        ("int x = ١;", "unexpected character '١'", 1, 9),
        ("int x = 1١;", "unexpected character '١'", 1, 10),
        # bytearray.append rejected the code point.
        ('"€"', "unexpected character '€'", 1, 2),
        ("int café;", "unexpected character 'é'", 1, 8),
        ("'é'", "unexpected character 'é'", 1, 2),
        ('char *s =\n  "café";', "unexpected character 'é'", 2, 7),
        ("'\\é'", "unexpected character 'é'", 1, 3),
        # ord('') raised TypeError.
        ("int c = '", "unterminated character literal", 1, 9),
        ("'\\", "unterminated character literal", 1, 1),
        ("'\\x", "unterminated character literal", 1, 1),
        ('x = "ab\\', "unterminated string literal", 1, 5),
        ('"\\x', "unterminated string literal", 1, 1),
    ])
    def test_error(self, source, message, line, col):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert (str(exc.value), exc.value.line, exc.value.col) == \
            (f"{line}:{col}: {message}", line, col)

    def test_comments_may_hold_any_character(self):
        source = "// café ²\n/* €\n١ */ int x;"
        assert values(source) == ["int", "x", ";"]
        assert tokenize(source)[0].line == 3

    def test_cli_run_exits_with_the_toolchain_code(self, tmp_path, capsys):
        from repro.cli import main
        from repro.errors import EXIT_TOOLCHAIN

        path = tmp_path / "square.c"
        path.write_text("int main(void) { int x = ²; return x; }\n",
                        encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_TOOLCHAIN == 3
        assert "unexpected character '²'" in capsys.readouterr().err

    def test_served_verdict_is_a_toolchain_error(self):
        from repro.serve.protocol import evaluate

        source = "int main(void) { int x = ²; return x; }\n"
        verdicts = evaluate(source, schemes=("hwst128_tchk",))["verdicts"]
        verdict = verdicts["hwst128_tchk"]
        assert verdict["status"] == "toolchain_error"
        assert verdict["cli_exit_code"] == 3
        assert verdict["error"] == \
            "LexError: 1:26: unexpected character '²'"
