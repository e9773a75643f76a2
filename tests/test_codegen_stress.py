"""Code-generator stress tests: frames, spills, deep expressions."""

import pytest

from repro.harness.runner import run_program


def exit_code(source, scheme="baseline"):
    result = run_program(source, scheme, timing=False,
                         max_instructions=30_000_000)
    assert result.status == "exit", (result.status, result.detail)
    return result.exit_code


class TestLargeFrames:
    def test_frame_beyond_immediate_range(self):
        """A 4 KiB stack array pushes slot offsets past the 12-bit
        immediates: the gp-scratch addressing path must kick in."""
        assert exit_code("""
        int main(void){
            long big[512];
            int i;
            long sum = 0;
            for (i = 0; i < 512; i++) { big[i] = i; }
            for (i = 0; i < 512; i++) { sum += big[i]; }
            return sum == 511 * 512 / 2 ? 0 : 1;
        }""") == 0

    def test_two_big_arrays(self):
        assert exit_code("""
        int main(void){
            long a[400];
            long b[400];
            int i;
            for (i = 0; i < 400; i++) { a[i] = i; b[i] = 2 * i; }
            return (a[399] + b[399] == 1197) ? 0 : 1;
        }""") == 0

    def test_big_frame_under_protection(self):
        """Large frames with checked accesses and shadow traffic."""
        assert exit_code("""
        int main(void){
            long big[512];
            big[511] = 7;
            return (int)big[511] - 7;
        }""", scheme="hwst128_tchk") == 0

    def test_many_scalar_locals(self):
        decls = "\n".join(f"    long v{i} = {i};" for i in range(64))
        adds = " + ".join(f"v{i}" for i in range(64))
        assert exit_code(f"""
        int main(void) {{
{decls}
            return ({adds}) == 2016 ? 0 : 1;
        }}""") == 0


class TestExpressionPressure:
    def test_deep_expression_tree_spills(self):
        """More live temporaries than the 7-register pool."""
        expr = " + ".join(f"(a{i} * b{i})" for i in range(10))
        decls = "\n".join(
            f"    long a{i} = {i + 1}; long b{i} = {i + 2};"
            for i in range(10))
        expected = sum((i + 1) * (i + 2) for i in range(10))
        assert exit_code(f"""
        int main(void) {{
{decls}
            long r = {expr};
            return r == {expected} ? 0 : 1;
        }}""") == 0

    def test_deeply_nested_parens(self):
        inner = "1"
        for _ in range(12):
            inner = f"({inner} + 1)"
        assert exit_code(f"int main(void) {{ return {inner} - 13; }}") == 0

    def test_pointer_temp_spill_keeps_metadata(self):
        """A pointer temporary that gets spilled across a call must
        carry its SRF metadata through the spill slot (hw scheme)."""
        assert exit_code("""
        long touch(long a, long b, long c, long d) {
            return a + b + c + d;
        }
        int main(void){
            long *p = (long*)malloc(32);
            long acc;
            p[0] = 5;
            /* the call forces live temps to spill; p is reloaded and
               dereferenced afterwards with full checks */
            acc = touch(1, 2, 3, 4) + p[0];
            free(p);
            return (int)acc - 15;
        }""", scheme="hwst128_tchk") == 0

    def test_call_in_deep_expression(self):
        assert exit_code("""
        int sq(int x) { return x * x; }
        int main(void){
            int r = sq(2) + sq(3) * sq(4) - (sq(5) + sq(1));
            return r == 4 + 9 * 16 - 26 ? 0 : 1;
        }""") == 0

    def test_chained_comparisons_and_logic(self):
        assert exit_code("""
        int main(void){
            int a = 3;
            int b = 7;
            int r = (a < b) && (b < 10) && ((a + b == 10) || (a == 0));
            return r ? 0 : 1;
        }""") == 0


class TestControlFlowStress:
    def test_many_blocks(self):
        body = "\n".join(
            f"    if (x == {i}) {{ total += {i}; }}" for i in range(48))
        assert exit_code(f"""
        int main(void) {{
            int total = 0;
            int x;
            for (x = 0; x < 48; x++) {{
{body}
            }}
            return total == 48 * 47 / 2 ? 0 : 1;
        }}""") == 0

    def test_long_branch_distances(self):
        """Blocks far apart still link correctly (jal-based branches)."""
        filler = "\n".join(
            f"    acc = acc * 3 + {i}; acc = acc % 1000003;"
            for i in range(300))
        assert exit_code(f"""
        int main(void) {{
            long acc = 1;
            int flag = 1;
            if (flag) {{
{filler}
            }}
            return acc > 0 ? 0 : 1;
        }}""") == 0

    def test_recursion_depth(self):
        assert exit_code("""
        int depth(int n) {
            if (n == 0) { return 0; }
            return 1 + depth(n - 1);
        }
        int main(void){ return depth(200) - 200; }""") == 0

    def test_recursion_depth_under_protection(self):
        """Deep frames exercise frame-lock alloc/free pairing."""
        assert exit_code("""
        int depth(int n) {
            char tag[8];
            tag[0] = (char)n;
            if (n == 0) { return (int)tag[0]; }
            return depth(n - 1);
        }
        int main(void){ return depth(64); }""",
                         scheme="hwst128_tchk") == 0
