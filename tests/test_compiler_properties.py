"""Property-based tests: the compiled machine code agrees with Python.

Hypothesis generates random arithmetic expressions and value sets; each
is compiled through the full toolchain (parse -> IR -> RV64 -> ISS) and
the result is compared with Python's evaluation under C's integer
typing: the variables are `long` (int64), the literals are `int`
(int32), and each operator works in the wider of its two operand types,
so an all-literal subexpression wraps at 32 bits before it meets a
`long`. This is the strongest correctness net over the compiler and the
ISS arithmetic at once.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.harness.runner import run_program

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _wrap(value, width):
    value &= (1 << width) - 1
    return value - (1 << width) if value >> (width - 1) else value


class _Expr:
    """Random expression tree over long variables a, b, c.

    `is_long` is the C type of the expression: a variable is `long`, a
    literal is `int`, and a binary operator is `long` when either
    operand is (the usual arithmetic conversions).
    """

    def __init__(self, text, evaluate, is_long):
        self.text = text
        self.evaluate = evaluate
        self.is_long = is_long


def _leaf_var(name):
    return _Expr(name, lambda env, name=name: env[name], True)


def _leaf_const(value):
    return _Expr(str(value), lambda env, value=value: value, False)


def _binop(op, left, right):
    is_long = left.is_long or right.is_long
    width = 64 if is_long else 32

    def evaluate(env):
        lhs = left.evaluate(env)
        rhs = right.evaluate(env)
        if op == "+":
            return _wrap(lhs + rhs, width)
        if op == "-":
            return _wrap(lhs - rhs, width)
        if op == "*":
            return _wrap(lhs * rhs, width)
        if op == "&":
            return _wrap(lhs & rhs, width)
        if op == "|":
            return _wrap(lhs | rhs, width)
        if op == "^":
            return _wrap(lhs ^ rhs, width)
        raise AssertionError(op)

    return _Expr(f"({left.text} {op} {right.text})", evaluate, is_long)


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return _leaf_var(draw(st.sampled_from(["a", "b", "c"])))
        return _leaf_const(draw(st.integers(min_value=-1000,
                                            max_value=1000)))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return _binop(op, left, right)


# An all-literal product that overflows int32 before it meets a long.
_INT_OVERFLOW = _binop("*", _binop("+", _leaf_const(0), _leaf_const(343)),
                       _binop("*", _binop("*", _leaf_const(97),
                                          _leaf_const(182)),
                              _leaf_const(355)))


@settings(max_examples=25, deadline=None)
@example(expr=_INT_OVERFLOW, a=0, b=0, c=0)
@given(expr=expressions(),
       a=st.integers(min_value=-(1 << 31), max_value=1 << 31),
       b=st.integers(min_value=-(1 << 31), max_value=1 << 31),
       c=st.integers(min_value=-100, max_value=100))
def test_expression_evaluation_matches_python(expr, a, b, c):
    source = f"""
    int main(void) {{
        long a = {a};
        long b = {b};
        long c = {c};
        long r = {expr.text};
        print_int(r);
        return 0;
    }}"""
    result = run_program(source, "baseline", timing=False)
    assert result.status == "exit", result.detail
    expected = expr.evaluate({"a": a, "b": b, "c": c})
    assert result.output_text() == str(expected), expr.text


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255),
                min_size=1, max_size=24))
def test_bubble_sort_matches_python(values):
    array = ", ".join(str(v) for v in values)
    n = len(values)
    source = f"""
    int main(void) {{
        int data[{n}] = {{{array}}};
        int i;
        int j;
        for (i = 0; i < {n}; i++) {{
            for (j = 0; j + 1 < {n} - i; j++) {{
                if (data[j] > data[j + 1]) {{
                    int t = data[j];
                    data[j] = data[j + 1];
                    data[j + 1] = t;
                }}
            }}
        }}
        for (i = 0; i < {n}; i++) {{
            print_int(data[i]);
            print_char(' ');
        }}
        return 0;
    }}"""
    result = run_program(source, "hwst128_tchk", timing=False)
    assert result.ok, result.detail
    expected = "".join(f"{v} " for v in sorted(values))
    assert result.output_text() == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=12))
def test_division_identities(dividend_scale, divisor):
    """(a/b)*b + a%b == a under C semantics, for mixed signs."""
    source = f"""
    int main(void) {{
        long vals[4];
        long i;
        vals[0] = {dividend_scale * 7};
        vals[1] = -{dividend_scale * 7};
        vals[2] = {divisor};
        vals[3] = -{divisor};
        for (i = 0; i < 2; i++) {{
            long j;
            for (j = 2; j < 4; j++) {{
                long a = vals[i];
                long b = vals[j];
                if ((a / b) * b + a % b != a) {{ return 1; }}
            }}
        }}
        return 0;
    }}"""
    result = run_program(source, "baseline", timing=False)
    assert result.status == "exit" and result.exit_code == 0


@settings(max_examples=10, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32,
                                      max_codepoint=126,
                                      blacklist_characters='"\\'),
               min_size=0, max_size=30))
def test_string_roundtrip(text):
    """String literals survive lexing, data layout and printing."""
    source = f"""
    int main(void) {{
        char *s = "{text}";
        print_str(s);
        return (int)strlen(s) - {len(text)};
    }}"""
    result = run_program(source, "sbcets", timing=False)
    assert result.status == "exit", result.detail
    assert result.exit_code == 0
    assert result.output_text() == text
