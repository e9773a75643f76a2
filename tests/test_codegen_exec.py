"""End-to-end execution tests for the compiler (C semantics).

Every test compiles a mini-C program under the *baseline* scheme and
checks the observable behaviour (exit code / output) on the ISS — the
compiler's conformance suite.
"""

import pytest

from repro.harness.runner import run_program


def run(source, **kwargs):
    result = run_program(source, "baseline", timing=False, **kwargs)
    assert result.status == "exit", (result.status, result.detail)
    return result


def exit_code(source):
    return run(source).exit_code


class TestArithmetic:
    def test_integer_division_truncates_toward_zero(self):
        assert exit_code("int main(void){ return -7 / 2; }") == -3
        assert exit_code("int main(void){ return 7 / -2; }") == -3

    def test_modulo_sign_follows_dividend(self):
        assert exit_code("int main(void){ return -7 % 2; }") == -1
        assert exit_code("int main(void){ return 7 % -2; }") == 1

    def test_unsigned_division(self):
        assert exit_code("""
        int main(void){ unsigned int a = 0xFFFFFFFE;
                        return (int)(a / 3) == 0x55555554 ? 0 : 1; }""") == 0

    def test_int_overflow_wraps_at_32_bits(self):
        assert exit_code("""
        int main(void){
            int big = 0x7FFFFFFF;
            big = big + 1;
            return big < 0 ? 0 : 1;
        }""") == 0

    def test_long_arithmetic_is_64_bit(self):
        assert exit_code("""
        int main(void){
            long big = 0x7FFFFFFF;
            big = big + 1;
            return big > 0 ? 0 : 1;
        }""") == 0

    def test_char_wraps_at_8_bits(self):
        assert exit_code("""
        int main(void){ char c = (char)200; return c < 0 ? 0 : 1; }""") == 0

    def test_unsigned_char_zero_extends(self):
        assert exit_code("""
        int main(void){ unsigned char c = (unsigned char)200;
                        return c == 200 ? 0 : 1; }""") == 0

    def test_short_conversions(self):
        assert exit_code("""
        int main(void){
            short s = (short)0x12345;
            unsigned short u = (unsigned short)0x12345;
            return (s == 0x2345 && u == 0x2345) ? 0 : 1;
        }""") == 0

    def test_shift_semantics(self):
        assert exit_code("""
        int main(void){
            int a = -8;
            unsigned int b = 0x80000000;
            if (a >> 1 != -4) { return 1; }
            if (b >> 4 != 0x08000000) { return 2; }
            if (1 << 10 != 1024) { return 3; }
            return 0;
        }""") == 0

    def test_bitwise_ops(self):
        assert exit_code("""
        int main(void){
            return ((0xF0 & 0x3C) | (0x0F ^ 0x03)) == 0x3C ? 0 : 1;
        }""") == 0

    def test_comparison_results_are_0_or_1(self):
        assert exit_code("""
        int main(void){ return (3 < 5) + (5 < 3) + (4 == 4); }""") == 2

    def test_unary_minus_and_not(self):
        assert exit_code("""
        int main(void){ return -(-5) + ~0 + !0 + !7; }""") == 5


class TestControlFlow:
    def test_nested_loops_with_break_continue(self):
        assert exit_code("""
        int main(void){
            int total = 0;
            int i;
            int j;
            for (i = 0; i < 5; i++) {
                if (i == 3) { continue; }
                for (j = 0; j < 5; j++) {
                    if (j > i) { break; }
                    total += 1;
                }
            }
            return total;  /* rows 0,1,2,4 -> 1+2+3+5 */
        }""") == 11

    def test_do_while_runs_once(self):
        assert exit_code("""
        int main(void){
            int n = 0;
            do { n++; } while (0);
            return n;
        }""") == 1

    def test_short_circuit_evaluation(self):
        assert exit_code("""
        int g = 0;
        int bump(void) { g++; return 1; }
        int main(void){
            int r = 0 && bump();
            int s = 1 || bump();
            return g * 10 + r + s;   /* bump never called */
        }""") == 1

    def test_ternary_nested(self):
        assert exit_code("""
        int main(void){
            int a = 7;
            return a > 10 ? 1 : a > 5 ? 2 : 3;
        }""") == 2

    def test_recursion_ackermann_like(self):
        assert exit_code("""
        int ack(int m, int n) {
            if (m == 0) { return n + 1; }
            if (n == 0) { return ack(m - 1, 1); }
            return ack(m - 1, ack(m, n - 1));
        }
        int main(void){ return ack(2, 3); }""") == 9

    def test_mutual_recursion(self):
        assert exit_code("""
        int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        int main(void){ return is_even(10) * 10 + is_odd(7); }""") == 11


class TestPointersAndArrays:
    def test_pointer_arithmetic_scaling(self):
        assert exit_code("""
        int main(void){
            long a[4];
            long *p = a;
            a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
            p = p + 2;
            return (int)(*p + p[1]);
        }""") == 7

    def test_pointer_difference(self):
        assert exit_code("""
        int main(void){
            int a[10];
            int *p = &a[2];
            int *q = &a[9];
            return (int)(q - p);
        }""") == 7

    def test_address_of_scalar(self):
        assert exit_code("""
        int main(void){
            int v = 5;
            int *p = &v;
            *p = 9;
            return v;
        }""") == 9

    def test_pointer_to_pointer(self):
        assert exit_code("""
        int main(void){
            int v = 3;
            int *p = &v;
            int **pp = &p;
            **pp = 8;
            return v;
        }""") == 8

    def test_array_of_pointers(self):
        assert exit_code("""
        int main(void){
            int a = 1;
            int b = 2;
            int *arr[2];
            arr[0] = &a;
            arr[1] = &b;
            return *arr[0] + *arr[1];
        }""") == 3

    def test_2d_array_row_major(self):
        assert exit_code("""
        int main(void){
            int grid[3][4];
            int i;
            int j;
            for (i = 0; i < 3; i++) {
                for (j = 0; j < 4; j++) { grid[i][j] = i * 10 + j; }
            }
            return grid[2][3];
        }""") == 23

    def test_pointer_increment_walk(self):
        assert exit_code("""
        int main(void){
            char s[6];
            char *p = s;
            int n = 0;
            strcpy(s, "hello");
            while (*p) { n++; p++; }
            return n;
        }""") == 5

    def test_null_comparisons(self):
        assert exit_code("""
        int main(void){
            int *p = 0;
            int q = 4;
            int r = 0;
            if (!p) { r += 1; }
            p = &q;
            if (p) { r += 2; }
            if (p != 0) { r += 4; }
            return r;
        }""") == 7


class TestStructs:
    def test_member_access_and_assignment(self):
        assert exit_code("""
        struct Point { int x; int y; };
        int main(void){
            struct Point p;
            p.x = 3;
            p.y = 4;
            return p.x * p.x + p.y * p.y;
        }""") == 25

    def test_struct_copy_is_by_value(self):
        assert exit_code("""
        struct S { long a; long b; };
        int main(void){
            struct S x;
            struct S y;
            x.a = 1; x.b = 2;
            y = x;
            y.a = 99;
            return (int)(x.a + y.b);
        }""") == 3

    def test_nested_struct(self):
        assert exit_code("""
        struct Inner { int v; };
        struct Outer { struct Inner inner; int pad; };
        int main(void){
            struct Outer o;
            o.inner.v = 42;
            return o.inner.v;
        }""") == 42

    def test_linked_list_traversal(self):
        assert exit_code("""
        typedef struct Node Node;
        struct Node { int v; Node *next; };
        int main(void){
            Node a;
            Node b;
            Node c;
            Node *cur = &a;
            int sum = 0;
            a.v = 1; a.next = &b;
            b.v = 2; b.next = &c;
            c.v = 4; c.next = 0;
            while (cur) { sum += cur->v; cur = cur->next; }
            return sum;
        }""") == 7

    def test_struct_in_array(self):
        assert exit_code("""
        struct P { int x; char tag; };
        int main(void){
            struct P ps[3];
            ps[0].x = 5;
            ps[1].x = 6;
            ps[2].x = 7;
            ps[1].tag = 'b';
            return ps[0].x + ps[2].x + (ps[1].tag == 'b');
        }""") == 13

    def test_pointer_to_struct_member_update(self):
        assert exit_code("""
        struct S { int a; int b; };
        void bump(struct S *s) { s->a += 10; s->b += 20; }
        int main(void){
            struct S s;
            s.a = 1;
            s.b = 2;
            bump(&s);
            return s.a + s.b;
        }""") == 33


class TestFunctions:
    def test_eight_arguments(self):
        assert exit_code("""
        long sum8(long a, long b, long c, long d,
                  long e, long f, long g, long h) {
            return a + b + c + d + e + f + g + h;
        }
        int main(void){ return (int)sum8(1,2,3,4,5,6,7,8); }""") == 36

    def test_pointer_return_value(self):
        assert exit_code("""
        long *pick(long *a, long *b, int which) {
            return which ? a : b;
        }
        int main(void){
            long x = 3;
            long y = 9;
            return (int)*pick(&x, &y, 1);
        }""") == 3

    def test_value_semantics_of_args(self):
        assert exit_code("""
        void tryset(int v) { v = 99; }
        int main(void){ int v = 5; tryset(v); return v; }""") == 5

    def test_global_state_across_calls(self):
        assert exit_code("""
        int counter = 100;
        void tick(void) { counter += 1; }
        int main(void){
            tick(); tick(); tick();
            return counter - 100;
        }""") == 3


class TestOutput:
    def test_print_int_negative(self):
        result = run("""
        int main(void){ print_int(-12345); return 0; }""")
        assert result.output_text() == "-12345"

    def test_print_hex(self):
        result = run("""
        int main(void){ print_hex(0xDEADBEEF); return 0; }""")
        assert result.output_text() == "deadbeef"

    def test_print_str_and_char(self):
        result = run("""
        int main(void){
            print_str("ab");
            print_char('c');
            print_char(10);
            return 0;
        }""")
        assert result.output_text() == "abc\n"

    def test_print_int_zero(self):
        result = run("int main(void){ print_int(0); return 0; }")
        assert result.output_text() == "0"


class TestGlobalInitialisers:
    def test_scalar_init(self):
        assert exit_code("int g = 41; int main(void){ return g + 1; }") == 42

    def test_array_init_list(self):
        assert exit_code("""
        int tab[4] = {10, 20, 30, 40};
        int main(void){ return tab[0] + tab[3]; }""") == 50

    def test_string_global(self):
        assert exit_code("""
        char msg[] = "hi";
        int main(void){ return (int)strlen(msg); }""") == 2

    def test_negative_and_expression_init(self):
        assert exit_code("""
        int a = -5;
        int b = 3 * 4 + 1;
        int main(void){ return a + b; }""") == 8

    def test_uninitialised_global_is_zero(self):
        assert exit_code("""
        long z[8];
        int main(void){ return (int)(z[0] + z[7]); }""") == 0
