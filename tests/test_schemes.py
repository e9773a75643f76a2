"""Cross-scheme tests: clean programs stay clean, bugs are classified.

The parametrised matrices here are the library-level contract behind
Figures 4 and 6: functional transparency (no false positives, identical
program output) and the per-scheme detection capabilities.
"""

import pytest

from repro.harness.runner import detected, run_program
from repro.schemes import SCHEMES, scheme_names

ALL_SCHEMES = scheme_names()

CLEAN_PROGRAM = r"""
typedef struct Node Node;
struct Node { long value; Node *next; };

Node *push(Node *head, long value) {
    Node *n = (Node*)malloc(sizeof(Node));
    n->value = value;
    n->next = head;
    return n;
}

int main(void) {
    Node *list = 0;
    long buf[6];
    char text[16];
    long sum = 0;
    int i;
    for (i = 0; i < 6; i++) { buf[i] = i * 3; }
    for (i = 0; i < 4; i++) { list = push(list, buf[i]); }
    strcpy(text, "check");
    while (list) {
        Node *next = list->next;
        sum += list->value;
        free(list);
        list = next;
    }
    sum += (long)strlen(text);
    print_int(sum);
    return sum == 23 ? 0 : 1;
}
"""


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_clean_program_passes(scheme):
    """Functional transparency: no scheme breaks a correct program."""
    result = run_program(CLEAN_PROGRAM, scheme, timing=False)
    assert result.status == "exit", (scheme, result.status, result.detail)
    assert result.exit_code == 0, (scheme, result.exit_code)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_output_identical_across_schemes(scheme):
    """Instrumentation must not change observable behaviour."""
    result = run_program(CLEAN_PROGRAM, scheme, timing=False)
    assert result.output == b"23"


# --- detection matrix ------------------------------------------------------

HEAP_OVERFLOW = """
int main(void){
    long *a = (long*)malloc(4 * sizeof(long));
    a[5] = 1;
    free(a);
    return 0;
}"""

HEAP_OFF_BY_ONE_BYTE = """
int main(void){
    char *p = (char*)malloc(9);
    p[9] = 1;
    free(p);
    return 0;
}"""

USE_AFTER_FREE = """
int main(void){
    long *p = (long*)malloc(16);
    free(p);
    return (int)(p[0] & 0);
}"""

DOUBLE_FREE = """
int main(void){
    long *p = (long*)malloc(16);
    free(p);
    free(p);
    return 0;
}"""

UNDERWRITE = """
int main(void){
    long *q = (long*)malloc(256);
    long *p = (long*)malloc(32);
    p[-1] = 5;
    q[0] = 0;
    return 0;
}"""

NULL_DEREF = """
int main(void){
    long *p = 0;
    return (int)(p[0] & 0);
}"""

FREE_OFFSET = """
int main(void){
    long *p = (long*)malloc(32);
    free(p + 1);
    return 0;
}"""

STACK_OVERREAD = """
int main(void){
    long buf[4];
    long v;
    buf[0] = 1;
    v = buf[6];
    return (int)(v & 0);
}"""

# (program, scheme) -> expected detection
MATRIX = [
    (HEAP_OVERFLOW, "sbcets", True),
    (HEAP_OVERFLOW, "hwst128", True),
    (HEAP_OVERFLOW, "hwst128_tchk", True),
    (HEAP_OVERFLOW, "bogo", True),
    (HEAP_OVERFLOW, "wdl_narrow", True),
    (HEAP_OVERFLOW, "wdl_wide", True),
    (HEAP_OVERFLOW, "asan", True),
    (HEAP_OVERFLOW, "gcc", False),
    (HEAP_OVERFLOW, "baseline", False),
    # Sub-alignment heap overflow: the compression padding blind spot.
    (HEAP_OFF_BY_ONE_BYTE, "sbcets", True),
    (HEAP_OFF_BY_ONE_BYTE, "hwst128", False),
    (HEAP_OFF_BY_ONE_BYTE, "hwst128_tchk", False),
    (HEAP_OFF_BY_ONE_BYTE, "wdl_narrow", True),
    (HEAP_OFF_BY_ONE_BYTE, "wdl_wide", True),
    (HEAP_OFF_BY_ONE_BYTE, "asan", True),
    (USE_AFTER_FREE, "sbcets", True),
    (USE_AFTER_FREE, "hwst128", True),
    (USE_AFTER_FREE, "hwst128_tchk", True),
    (USE_AFTER_FREE, "bogo", True),   # via nullified bounds
    (USE_AFTER_FREE, "asan", True),
    (USE_AFTER_FREE, "gcc", False),
    (DOUBLE_FREE, "sbcets", True),
    (DOUBLE_FREE, "hwst128_tchk", True),
    (DOUBLE_FREE, "bogo", False),     # BOGO is UAF-only (paper Sec. 2)
    (DOUBLE_FREE, "asan", True),
    (DOUBLE_FREE, "gcc", False),
    (UNDERWRITE, "sbcets", True),
    (UNDERWRITE, "hwst128_tchk", True),
    (UNDERWRITE, "asan", True),
    (NULL_DEREF, "sbcets", True),
    (NULL_DEREF, "hwst128_tchk", True),
    (NULL_DEREF, "bogo", True),
    (NULL_DEREF, "asan", True),       # SEGV report
    (NULL_DEREF, "gcc", False),       # crash without diagnostic
    (FREE_OFFSET, "sbcets", True),
    (FREE_OFFSET, "hwst128_tchk", True),
    (FREE_OFFSET, "asan", True),
    (STACK_OVERREAD, "sbcets", True),
    (STACK_OVERREAD, "hwst128_tchk", True),
    # The LMSM ablation variant must detect exactly like trie SBCETS.
    (HEAP_OVERFLOW, "sbcets_lmsm", True),
    (HEAP_OFF_BY_ONE_BYTE, "sbcets_lmsm", True),
    (USE_AFTER_FREE, "sbcets_lmsm", True),
    (DOUBLE_FREE, "sbcets_lmsm", True),
    (NULL_DEREF, "sbcets_lmsm", True),
    (FREE_OFFSET, "sbcets_lmsm", True),
]


@pytest.mark.parametrize("source,scheme,expected", MATRIX)
def test_detection_matrix(source, scheme, expected):
    result = run_program(source, scheme, timing=False,
                         max_instructions=5_000_000)
    assert detected(scheme, result) == expected, \
        (scheme, result.status, result.detail)


class TestViolationClassification:
    def test_spatial_vs_temporal_statuses(self):
        spatial = run_program(HEAP_OVERFLOW, "hwst128_tchk", timing=False)
        temporal = run_program(USE_AFTER_FREE, "hwst128_tchk",
                               timing=False)
        assert spatial.status == "spatial_violation"
        assert temporal.status == "temporal_violation"

    def test_sbcets_traps_are_classified_too(self):
        spatial = run_program(HEAP_OVERFLOW, "sbcets", timing=False)
        temporal = run_program(USE_AFTER_FREE, "sbcets", timing=False)
        assert spatial.status == "spatial_violation"
        assert temporal.status == "temporal_violation"

    def test_canary_detection_reason(self):
        smash = """
        int main(void){
            long buf[4];
            int i;
            for (i = 0; i < 7; i++) { buf[i] = -1; }
            return 0;
        }"""
        result = run_program(smash, "gcc", timing=False)
        assert result.status == "abort"
        assert "smash" in result.detail

    def test_detected_violation_property(self):
        result = run_program(HEAP_OVERFLOW, "hwst128_tchk", timing=False)
        assert result.detected_violation


class TestSchemeRegistry:
    def test_all_paper_schemes_present(self):
        for name in ("baseline", "sbcets", "hwst128", "hwst128_tchk",
                     "bogo", "wdl_narrow", "wdl_wide", "asan", "gcc"):
            assert name in SCHEMES

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            run_program("int main(void){ return 0; }", "nope")

    def test_descriptions_exist(self):
        for spec in SCHEMES.values():
            assert spec.description
