"""Tests for the mini-C runtime library (allocator, strings, PRNG)."""

import pytest

from repro.harness.runner import run_program


def exit_code(source):
    result = run_program(source, "baseline", timing=False)
    assert result.status == "exit", (result.status, result.detail)
    return result.exit_code


class TestAllocator:
    def test_malloc_returns_distinct_aligned_blocks(self):
        assert exit_code("""
        int main(void){
            long a = (long)malloc(24);
            long b = (long)malloc(24);
            if (a == 0 || b == 0) { return 1; }
            if (a == b) { return 2; }
            if (a & 7) { return 3; }
            if (b & 7) { return 4; }
            return 0;
        }""") == 0

    def test_free_then_reuse(self):
        assert exit_code("""
        int main(void){
            long a = (long)malloc(32);
            long b;
            free((void*)a);
            b = (long)malloc(32);
            return a == b ? 0 : 1;   /* first-fit reuses the block */
        }""") == 0

    def test_free_null_is_noop(self):
        assert exit_code("int main(void){ free(0); return 0; }") == 0

    def test_malloc_zero_gives_usable_pointer(self):
        assert exit_code("""
        int main(void){
            char *p = (char*)malloc(0);
            return p != 0 ? 0 : 1;
        }""") == 0

    def test_malloc_exhaustion_returns_null(self):
        assert exit_code("""
        int main(void){
            void *p = malloc(900000000);
            return p == 0 ? 0 : 1;
        }""") == 0

    def test_calloc_zeroes(self):
        assert exit_code("""
        int main(void){
            long *p = (long*)calloc(8, sizeof(long));
            long sum = 0;
            int i;
            for (i = 0; i < 8; i++) { sum += p[i]; }
            free(p);
            return (int)sum;
        }""") == 0

    def test_many_alloc_free_cycles(self):
        assert exit_code("""
        int main(void){
            int i;
            for (i = 0; i < 200; i++) {
                long *p = (long*)malloc(8 + (i % 5) * 8);
                p[0] = i;
                free(p);
            }
            return 0;
        }""") == 0

    def test_first_fit_skips_small_blocks(self):
        assert exit_code("""
        int main(void){
            void *small = malloc(16);
            void *big;
            free(small);
            big = malloc(256);       /* cannot reuse the 16-byte block */
            return big != small ? 0 : 1;
        }""") == 0


class TestStringFunctions:
    def test_strlen(self):
        assert exit_code("""
        int main(void){ return (int)strlen("hello world"); }""") == 11

    def test_strcpy_and_strcmp(self):
        assert exit_code("""
        int main(void){
            char buf[16];
            strcpy(buf, "abc");
            return strcmp(buf, "abc");
        }""") == 0

    def test_strcmp_ordering(self):
        assert exit_code("""
        int main(void){
            int lt = strcmp("abc", "abd") < 0;
            int gt = strcmp("b", "a") > 0;
            int eq = strcmp("", "") == 0;
            return lt + gt + eq;
        }""") == 3

    def test_strncmp_stops_at_n(self):
        assert exit_code("""
        int main(void){ return strncmp("abcXYZ", "abcdef", 3); }""") == 0

    def test_strncpy_pads(self):
        assert exit_code("""
        int main(void){
            char buf[8];
            int i;
            for (i = 0; i < 8; i++) { buf[i] = 'x'; }
            strncpy(buf, "ab", 6);
            return buf[1] == 'b' && buf[5] == 0 && buf[7] == 'x' ? 0 : 1;
        }""") == 0

    def test_strcat(self):
        assert exit_code("""
        int main(void){
            char buf[16];
            strcpy(buf, "foo");
            strcat(buf, "bar");
            return strcmp(buf, "foobar");
        }""") == 0

    def test_memcmp(self):
        assert exit_code("""
        int main(void){
            char a[4] = {1, 2, 3, 4};
            char b[4] = {1, 2, 9, 4};
            return memcmp(a, b, 2) == 0 && memcmp(a, b, 3) < 0 ? 0 : 1;
        }""") == 0

    def test_memcpy_and_memset(self):
        assert exit_code("""
        int main(void){
            char src[8];
            char dst[8];
            int i;
            memset(src, 7, 8);
            memcpy(dst, src, 8);
            for (i = 0; i < 8; i++) {
                if (dst[i] != 7) { return 1; }
            }
            return 0;
        }""") == 0


class TestPrng:
    def test_deterministic_stream(self):
        source = """
        int main(void){
            long a;
            long b;
            rand_seed(5);
            a = rand_next();
            rand_seed(5);
            b = rand_next();
            return a == b ? 0 : 1;
        }"""
        assert exit_code(source) == 0

    def test_values_are_nonnegative(self):
        assert exit_code("""
        int main(void){
            int i;
            rand_seed(1);
            for (i = 0; i < 100; i++) {
                if (rand_next() < 0) { return 1; }
            }
            return 0;
        }""") == 0

    def test_stream_varies(self):
        assert exit_code("""
        int main(void){
            rand_seed(9);
            return rand_next() != rand_next() ? 0 : 1;
        }""") == 0

    def test_same_stream_across_schemes(self):
        source = """
        int main(void){
            rand_seed(123);
            print_int(rand_next() % 1000);
            return 0;
        }"""
        base = run_program(source, "baseline", timing=False)
        hwst = run_program(source, "hwst128_tchk", timing=False)
        assert base.output == hwst.output


class TestLockRuntime:
    def test_lock_alloc_free_cycle(self):
        # Exercised via the instrumented runtime: alloc/free churn under
        # a temporal scheme recycles lock_locations without exhaustion.
        source = """
        int main(void){
            int i;
            for (i = 0; i < 3000; i++) {
                void *p = malloc(16);
                free(p);
            }
            return 0;
        }"""
        result = run_program(source, "hwst128_tchk", timing=False,
                             max_instructions=20_000_000)
        assert result.ok, (result.status, result.detail)

    def test_abort_reports_as_abort(self):
        result = run_program("int main(void){ abort(); return 0; }",
                             "baseline", timing=False)
        assert result.status == "abort"

    def test_exit_code_propagates(self):
        result = run_program("int main(void){ exit(7); return 0; }",
                             "baseline", timing=False)
        assert result.status == "exit" and result.exit_code == 7
