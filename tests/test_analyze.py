"""Tests for repro.analyze: CFG and dominators, the generic dataflow
engine, the interval/pointer domain, the static memory-safety linter,
and redundant-check elision (including the Juliet cross-validation:
static findings must agree with the dynamic oracle)."""

import json

from repro.analyze import (
    CFG, Interval, ReachingDefinitions, analyze_module, analyze_source,
    elide_module, run_forward,
)
from repro.analyze.dataflow import EdgeStates, ForwardAnalysis
from repro.core.config import HwstConfig
from repro.harness.runner import detected, run_program, run_workload
from repro.ir.instrument import instrument_module
from repro.ir.ir import Br, Function, IConst, Jmp, Ret
from repro.ir.irgen import lower_unit
from repro.minic import analyze as sema_analyze
from repro.minic import tokenize
from repro.minic.parser import Parser
from repro.minic.types import INT
from repro.workloads.juliet import generate_corpus


def build_fn(blocks):
    """Skeleton function from (label, terminator-spec) pairs; specs are
    ("jmp", target), ("br", then, else) or ("ret",)."""
    fn = Function("f", INT, [])
    for label, spec in blocks:
        blk = fn.add_block(label)
        if spec[0] == "jmp":
            blk.instrs.append(Jmp(spec[1]))
        elif spec[0] == "br":
            v = fn.new_vreg()
            blk.instrs.append(IConst(v, 1))
            blk.instrs.append(Br(v, spec[1], spec[2]))
        else:
            v = fn.new_vreg()
            blk.instrs.append(IConst(v, 0))
            blk.instrs.append(Ret(v))
    return fn


def lower(source, name="m"):
    unit = Parser(tokenize(source)).parse_translation_unit()
    return lower_unit(sema_analyze(unit), name)


# ---------------------------------------------------------------------------
# CFG / dominators
# ---------------------------------------------------------------------------

class TestCFG:
    def test_diamond(self):
        fn = build_fn([
            ("entry", ("br", "a", "b")),
            ("a", ("jmp", "join")),
            ("b", ("jmp", "join")),
            ("join", ("ret",)),
        ])
        cfg = CFG(fn)
        assert cfg.entry == "entry"
        assert set(cfg.succs["entry"]) == {"a", "b"}
        assert sorted(cfg.preds["join"]) == ["a", "b"]
        assert cfg.rpo[0] == "entry" and cfg.rpo[-1] == "join"
        assert cfg.idom["join"] == "entry"
        assert cfg.idom["a"] == "entry"
        assert cfg.idom["entry"] is None
        assert cfg.dominates("entry", "join")
        assert not cfg.dominates("a", "join")
        assert cfg.back_edges() == []

    def test_loop(self):
        fn = build_fn([
            ("entry", ("jmp", "head")),
            ("head", ("br", "body", "exit")),
            ("body", ("jmp", "head")),
            ("exit", ("ret",)),
        ])
        cfg = CFG(fn)
        assert cfg.back_edges() == [("body", "head")]
        assert cfg.loop_heads() == {"head"}
        assert cfg.idom["body"] == "head"
        assert cfg.idom["exit"] == "head"
        assert cfg.dominates("head", "body")
        tree = cfg.dominator_tree()
        assert sorted(tree["head"]) == ["body", "exit"]

    def test_unreachable_blocks(self):
        fn = build_fn([
            ("entry", ("jmp", "live")),
            ("live", ("ret",)),
            ("dead.1", ("jmp", "live")),
        ])
        cfg = CFG(fn)
        assert cfg.unreachable_blocks() == ["dead.1"]
        assert "dead.1" not in cfg.rpo
        assert not cfg.dominates("entry", "dead.1")
        assert not cfg.dominates("dead.1", "live")

    def test_same_label_branch_single_successor(self):
        fn = build_fn([
            ("entry", ("br", "next", "next")),
            ("next", ("ret",)),
        ])
        cfg = CFG(fn)
        assert cfg.succs["entry"] == ("next",)
        assert cfg.preds["next"] == ["entry"]


# ---------------------------------------------------------------------------
# Dataflow engine
# ---------------------------------------------------------------------------

class _LoopCount(ForwardAnalysis):
    """Counts body executions as an Interval — infinite-height domain,
    so convergence exercises the widening hook."""

    def initial_state(self, cfg):
        return Interval.const(0)

    def join(self, a, b):
        return a.join(b)

    def widen(self, old, new):
        return old.widen(new)

    def transfer(self, cfg, label, state):
        if label == "body":
            return state.add(Interval.const(1))
        return state


class TestEngine:
    def _loop_fn(self):
        return build_fn([
            ("entry", ("jmp", "head")),
            ("head", ("br", "body", "exit")),
            ("body", ("jmp", "head")),
            ("exit", ("ret",)),
        ])

    def test_loop_terminates_with_widening(self):
        result = run_forward(_LoopCount(), self._loop_fn())
        head = result.block_in["head"]
        assert head.lo == 0 and head.hi >= 3
        # Far fewer iterations than the safety valve allows.
        assert result.iterations < 64 * 4 * 5

    def test_infeasible_edge_skips_successor(self):
        class DeadElse(_LoopCount):
            def transfer(self, cfg, label, state):
                if label == "entry":
                    return EdgeStates({"then": state, "else": None})
                return state

        fn = build_fn([
            ("entry", ("br", "then", "else")),
            ("then", ("jmp", "join")),
            ("else", ("jmp", "join")),
            ("join", ("ret",)),
        ])
        result = run_forward(DeadElse(), fn)
        assert "else" not in result.block_in
        assert result.edge_out[("entry", "else")] is None
        assert result.block_in["join"] == Interval.const(0)

    def test_reaching_definitions_diamond(self):
        module = lower("""
int main(void) {
    int x = 1;
    if (rand_next() > 0) {
        x = 2;
    } else {
        x = 3;
    }
    return x;
}
""")
        fn = module.functions["main"]
        result = run_forward(ReachingDefinitions(fn), fn)
        ret_label = next(
            blk.label for blk in fn.blocks
            if blk.instrs and isinstance(blk.instrs[-1], Ret)
            and blk.label in result.block_in)
        sites = result.block_in[ret_label].get("x", frozenset())
        # Both arm definitions reach the join; the entry def is killed.
        assert len(sites) == 2


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------

class TestInterval:
    def test_arithmetic(self):
        a = Interval(2, 5)
        b = Interval(-1, 3)
        assert a.add(b) == Interval(1, 8)
        assert a.sub(b) == Interval(-1, 6)
        assert a.neg() == Interval(-5, -2)
        assert a.mul(Interval.const(4)) == Interval(8, 20)

    def test_definitely(self):
        assert Interval(0, 3).definitely("slt", Interval(4, 9))
        assert not Interval(0, 5).definitely("slt", Interval(4, 9))
        assert Interval.const(7).definitely("eq", Interval.const(7))

    def test_join_meet(self):
        assert Interval(0, 2).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(0, 5).meet(Interval(3, 9)) == Interval(3, 5)
        assert Interval(0, 2).meet(Interval(5, 9)) is None

    def test_widen_uses_thresholds(self):
        widened = Interval(0, 10).widen(Interval(0, 11))
        assert widened == Interval(0, 127)
        down = Interval(-5, 0).widen(Interval(-6, 0))
        assert down == Interval(-128, 0)
        # A stable bound is untouched.
        assert Interval(0, 10).widen(Interval(0, 10)) == Interval(0, 10)

    def test_clamp_width(self):
        assert Interval(0, 100).clamp_width(8, True) == Interval(0, 100)
        assert Interval(0, 300).clamp_width(8, True) == \
            Interval(-128, 127)
        assert Interval(0, 300).clamp_width(8, False) == Interval(0, 255)


# ---------------------------------------------------------------------------
# Static linter
# ---------------------------------------------------------------------------

class TestLinter:
    def _kinds(self, source):
        report = analyze_source(source)
        return {f.kind for f in report.findings}

    def test_oob_store(self):
        report = analyze_source("""
int main(void) {
    int buf[4];
    buf[4] = 1;
    return 0;
}
""")
        finding = next(f for f in report.findings if f.kind == "oob")
        assert finding.severity == "error"
        assert finding.function == "main"
        assert finding.line == 4

    def test_use_after_free_and_double_free(self):
        kinds = self._kinds("""
int main(void) {
    int *p = (int*)malloc(16);
    free(p);
    int x = *p;
    free(p);
    return x;
}
""")
        assert "uaf" in kinds
        assert "double-free" in kinds

    def test_invalid_free_of_stack_pointer(self):
        assert "invalid-free" in self._kinds("""
int main(void) {
    int x = 5;
    int *p = &x;
    free(p);
    return 0;
}
""")

    def test_uninit_pointer_deref(self):
        assert "uninit-deref" in self._kinds("""
int main(void) {
    int *p;
    return *p;
}
""")

    def test_scope_escape_warning(self):
        report = analyze_source("""
int *leak(void) {
    int local = 3;
    return &local;
}
int main(void) {
    return 0;
}
""")
        finding = next(f for f in report.findings
                       if f.kind == "scope-escape")
        assert finding.severity == "warning"
        assert finding.function == "leak"

    def test_null_deref_of_failing_malloc(self):
        # A request beyond user_top can never succeed in the simulated
        # machine, so the unchecked deref is a definite null deref.
        assert "null-deref" in self._kinds("""
int main(void) {
    long *p = (long*)malloc(900000000);
    *p = 1;
    return 0;
}
""")

    def test_dead_code_reported_as_info(self):
        report = analyze_source("""
int main(void) {
    return 1;
    return 2;
}
""")
        finding = next(f for f in report.findings
                       if f.kind == "dead-code")
        assert finding.severity == "info"

    def test_clean_programs_stay_quiet(self):
        report = analyze_source("""
int sum(int *data, int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i = i + 1) {
        acc = acc + data[i];
    }
    return acc;
}
int main(void) {
    int buf[8];
    int i;
    for (i = 0; i < 8; i = i + 1) {
        buf[i] = i;
    }
    int *heap = (int*)malloc(8 * sizeof(int));
    if (heap == 0) {
        return 1;
    }
    heap[7] = buf[7];
    int total = sum(heap, 8) + sum(buf, 8);
    free(heap);
    return total;
}
""")
        assert report.findings == [], report.text()
        assert report.ok

    def test_json_schema(self):
        report = analyze_source("""
int main(void) {
    int buf[2];
    return buf[3];
}
""", name="prog.c")
        data = json.loads(report.to_json())
        assert data["schema"] == "repro.analyze/v1"
        assert data["name"] == "prog.c"
        assert data["ok"] is False
        assert data["counts"].get("oob") == 1
        first = data["findings"][0]
        assert {"kind", "severity", "function", "block", "line",
                "message"} <= set(first)


# ---------------------------------------------------------------------------
# Juliet cross-validation: static findings vs the dynamic oracle
# ---------------------------------------------------------------------------

JULIET_SAMPLE = generate_corpus(fraction=1.0, max_per_subtype=1,
                                cwes=[121, 122, 415, 416, 476])


class TestJulietCrossValidation:
    def test_linter_flags_a_meaningful_subset(self):
        flagged = sum(
            1 for case in JULIET_SAMPLE
            if analyze_source(case.bad_source, case.case_id).errors())
        assert flagged >= len(JULIET_SAMPLE) // 3, \
            f"only {flagged}/{len(JULIET_SAMPLE)} bad variants flagged"

    def test_no_false_positives_on_good_variants(self):
        for case in JULIET_SAMPLE:
            report = analyze_source(case.good_source, case.case_id)
            assert not report.errors(), \
                (case.case_id, report.text())

    def test_static_errors_imply_dynamic_traps(self):
        """Every statically-reported bad variant must also trap under
        the SBCETS oracle — the linter must not invent violations.
        ``intra-oob`` is exempt by design: the access escapes a struct
        *field* but stays inside the allocation, which object-
        granularity metadata cannot trap (that blind spot is why the
        finding exists)."""
        for case in JULIET_SAMPLE:
            report = analyze_source(case.bad_source, case.case_id)
            if not [e for e in report.errors()
                    if e.kind != "intra-oob"]:
                continue
            result = run_program(case.bad_source, "sbcets",
                                 timing=False,
                                 max_instructions=3_000_000)
            assert detected("sbcets", result), \
                (case.case_id, report.text(), result.status)


# ---------------------------------------------------------------------------
# Redundant-check elision
# ---------------------------------------------------------------------------

CLEAN_LOOP = """
int main(void) {
    int buf[16];
    int i;
    int sum = 0;
    for (i = 0; i < 16; i = i + 1) {
        buf[i] = i;
    }
    for (i = 0; i < 16; i = i + 1) {
        sum = sum + buf[i];
    }
    return sum;
}
"""


class TestElision:
    def _elide(self, source, pass_name):
        from repro.analyze.memsafety import (analyze_function,
                                             compute_may_free)

        config = HwstConfig(elide_checks=True)
        module = lower(source)
        may_free = compute_may_free(module)
        for fn in module.functions.values():
            analyze_function(module, fn, config, may_free, stamp=True)
        instrument_module(module, pass_name, config=config)
        return module, elide_module(module, config)

    def test_proven_checks_removed(self):
        module, stats = self._elide(CLEAN_LOOP, "hwst128_tchk")
        assert stats.checks_total == 2
        assert stats.checks_elided == 2
        assert stats.spatial_elided == 2
        assert stats.temporal_elided == 2
        assert stats.ops_removed > 0
        assert stats.by_function["main"] == stats.ops_removed
        # The accesses were downgraded to unchecked loads/stores.
        from repro.ir.ir import Load, Store
        for fn in module.functions.values():
            for blk in fn.blocks:
                for ins in blk.instrs:
                    if isinstance(ins, (Load, Store)) and \
                            ins.needs_check:
                        assert not ins.checked

    def test_unproven_checks_kept(self):
        module, stats = self._elide("""
int main(void) {
    int buf[4];
    int idx = rand_next();
    buf[idx] = 1;
    return 0;
}
""", "hwst128_tchk")
        assert stats.checks_total == 1
        assert stats.spatial_elided == 0

    def test_non_elidable_pass_is_untouched(self):
        module, stats = self._elide(CLEAN_LOOP, "wdl_narrow")
        assert stats.checks_total == 0
        assert stats.ops_removed == 0

    def test_elision_preserves_output_and_saves_instructions(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.harness.runner import run_program

        config = HwstConfig(elide_checks=True)
        wins = 0
        for scheme in ("hwst128_tchk", "sbcets"):
            base = run_program(CLEAN_LOOP, scheme)
            registry = MetricsRegistry()
            elided = run_program(CLEAN_LOOP, scheme, config=config,
                                 metrics=registry)
            assert elided.status == base.status
            assert elided.exit_code == base.exit_code
            assert elided.output == base.output
            assert elided.instret <= base.instret
            snapshot = registry.snapshot()
            if snapshot["compile.analyze.checks_elided"] > 0:
                assert elided.instret < base.instret
                wins += 1
        assert wins > 0

    def test_elision_preserves_workload_results(self):
        config = HwstConfig(elide_checks=True)
        for name in ("sha", "stringsearch"):
            base = run_workload(name, "hwst128_tchk", scale="small",
                                timing=False)
            elided = run_workload(name, "hwst128_tchk", scale="small",
                                  timing=False, config=config)
            assert elided.output == base.output, name
            assert elided.exit_code == base.exit_code, name
            assert elided.instret < base.instret, name

    def test_elision_preserves_juliet_detection(self):
        config = HwstConfig(elide_checks=True)
        for case in JULIET_SAMPLE:
            for scheme in ("hwst128_tchk", "sbcets"):
                base = run_program(case.bad_source, scheme,
                                   timing=False,
                                   max_instructions=3_000_000)
                elided = run_program(case.bad_source, scheme,
                                     config=config, timing=False,
                                     max_instructions=3_000_000)
                assert detected(scheme, base) == \
                    detected(scheme, elided), (case.case_id, scheme)
                good = run_program(case.good_source, scheme,
                                   config=config, timing=False,
                                   max_instructions=3_000_000)
                assert good.ok, (case.case_id, scheme, good.status)

    def test_compile_pipeline_emits_analyze_counters(self):
        from repro.obs import MetricsRegistry, PhaseTimers
        from repro.schemes import compile_source

        registry = MetricsRegistry()
        phases = PhaseTimers(metrics=registry)
        compile_source(CLEAN_LOOP, "hwst128_tchk",
                       HwstConfig(elide_checks=True), phases=phases)
        snapshot = registry.snapshot()
        assert snapshot["compile.analyze.checks_total"] == 2
        assert snapshot["compile.analyze.checks_elided"] == 2
        assert snapshot["compile.analyze.ops_removed"] > 0
        assert "analyze" in phases.seconds

    def test_non_elidable_scheme_skips_analysis(self):
        from repro.obs import MetricsRegistry, PhaseTimers
        from repro.schemes import compile_source

        registry = MetricsRegistry()
        phases = PhaseTimers(metrics=registry)
        compile_source(CLEAN_LOOP, "asan",
                       HwstConfig(elide_checks=True), phases=phases)
        snapshot = registry.snapshot()
        assert "compile.analyze.checks_total" not in snapshot
        assert "analyze" not in phases.seconds


# ---------------------------------------------------------------------------
# Interprocedural analysis: summaries, contexts, SARIF
# ---------------------------------------------------------------------------

class TestInterproc:
    def _kinds(self, source):
        report = analyze_source(source)
        return {f.kind for f in report.findings}

    def test_oob_through_helper(self):
        """The callee's bounds effect (a deref at a constant offset)
        surfaces at the call site passing a too-small object."""
        assert "oob" in self._kinds("""
int peek(int *p) {
    return p[6];
}
int main(void) {
    int buf[4];
    return peek(buf);
}
""")

    def test_uaf_through_helper(self):
        assert "uaf" in self._kinds("""
int get(int *p) {
    return *p;
}
int main(void) {
    int *p = (int*)malloc(16);
    free(p);
    return get(p);
}
""")

    def test_callee_frees_argument(self):
        """A helper that frees its argument makes the caller's second
        free a double free."""
        assert "double-free" in self._kinds("""
void release(int *p) {
    free(p);
}
int main(void) {
    int *p = (int*)malloc(16);
    release(p);
    free(p);
    return 0;
}
""")

    def test_null_argument_to_derefing_helper(self):
        assert "null-deref" in self._kinds("""
int get(int *p) {
    return *p;
}
int main(void) {
    int *p = 0;
    return get(p);
}
""")

    def test_helpers_stay_quiet_on_clean_calls(self):
        report = analyze_source("""
int get(int *p) {
    return *p;
}
void put(int *p, int v) {
    *p = v;
}
int main(void) {
    int *p = (int*)malloc(16);
    if (p == 0) {
        return 1;
    }
    put(p, 7);
    int v = get(p);
    free(p);
    return v;
}
""")
        assert report.ok, report.text()

    def test_interproc_counters_in_report(self):
        report = analyze_source("""
int get(int *p) {
    return *p;
}
int main(void) {
    int x = 3;
    return get(&x);
}
""")
        assert report.interproc["functions"] == 2
        assert report.interproc["sccs"] == 2
        assert report.interproc["callsites_refined"] >= 1
        assert report.interproc["contexts_applied"] >= 1

    def test_recursion_stays_sound(self):
        """Cyclic call graphs fall back to conservative summaries
        without findings exploding or the fixpoint diverging."""
        report = analyze_source("""
int down(int *p, int n) {
    if (n <= 0) {
        return *p;
    }
    return down(p, n - 1);
}
int main(void) {
    int x = 1;
    return down(&x, 4);
}
""")
        assert report.ok, report.text()


class TestSarif:
    def test_sarif_export(self):
        report = analyze_source("""
int main(void) {
    int buf[2];
    int *p = (int*)malloc(8);
    free(p);
    return buf[3] + *p;
}
""", name="prog.c")
        doc = report.to_sarif()
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "REPRO-MS-OOB" in rules
        assert "REPRO-MS-UAF" in rules
        for res in run["results"]:
            assert res["ruleId"] in rules
            assert run["tool"]["driver"]["rules"][
                res["ruleIndex"]]["id"] == res["ruleId"]
            loc = res["locations"][0]
            assert loc["physicalLocation"]["artifactLocation"][
                "uri"] == "prog.c"
        levels = {res["level"] for res in run["results"]}
        assert "error" in levels

    def test_rule_ids_are_stable(self):
        from repro.analyze.linter import RULE_IDS
        assert RULE_IDS["oob"] == "REPRO-MS-OOB"
        assert RULE_IDS["intra-oob"] == "REPRO-MS-INTRA-OOB"
        assert RULE_IDS["uaf"] == "REPRO-MS-UAF"


# ---------------------------------------------------------------------------
# Juliet recall ratchet (tests/data/juliet_ratchet.json)
# ---------------------------------------------------------------------------

class TestJulietRatchet:
    def test_sample_recall_meets_ratchet(self):
        import os
        from collections import defaultdict

        path = os.path.join(os.path.dirname(__file__), "data",
                            "juliet_ratchet.json")
        with open(path, encoding="utf-8") as fh:
            ratchet = json.load(fh)
        sample = ratchet["sample"]
        corpus = generate_corpus(fraction=sample["fraction"])
        flagged = defaultdict(int)
        false_positives = []
        for case in corpus:
            bad = analyze_source(case.bad_source, case.case_id)
            if bad.errors():
                flagged[case.cwe] += 1
            good = analyze_source(case.good_source, case.case_id)
            if good.errors():
                false_positives.append(case.case_id)
        assert len(false_positives) <= \
            ratchet["good_false_positives_max"], false_positives
        total = sum(flagged.values())
        assert total >= sample["total_flagged_min"], \
            f"{total} flagged < ratchet {sample['total_flagged_min']}"
        for cwe, floor in sample["per_cwe_flagged_min"].items():
            assert flagged[int(cwe)] >= floor, \
                f"CWE{cwe}: {flagged[int(cwe)]} < ratchet {floor}"


# ---------------------------------------------------------------------------
# Loop-invariant temporal-check hoisting
# ---------------------------------------------------------------------------

HOIST_LOOP = """
int *g;
void setup(void) {
    g = (int *)malloc(40);
    int i = 0;
    while (i < 10) { g[i] = i; i = i + 1; }
}
int main(void) {
    setup();
    int s = 0;
    int i = 0;
    while (i < 10) {
        s = s + g[i];
        i = i + 1;
    }
    print_int(s);
    return 0;
}
"""


class TestHoist:
    def _compile_counters(self, source, scheme):
        from repro.obs import MetricsRegistry, PhaseTimers
        from repro.schemes import compile_source

        registry = MetricsRegistry()
        phases = PhaseTimers(metrics=registry)
        compile_source(source, scheme, HwstConfig(elide_checks=True),
                       phases=phases)
        return registry.snapshot()

    def test_hoist_fires_on_loop_invariant_global_pointer(self):
        snap = self._compile_counters(HOIST_LOOP, "hwst128_tchk")
        assert snap["compile.analyze.summary.checks_hoisted"] >= 1
        assert snap["compile.analyze.temporal_elided"] >= 1

    def test_hoist_preserves_output_and_saves_instructions(self):
        from repro.harness.runner import run_program

        config = HwstConfig(elide_checks=True)
        for scheme in ("hwst128_tchk", "hwst128", "sbcets"):
            base = run_program(HOIST_LOOP, scheme)
            elided = run_program(HOIST_LOOP, scheme, config=config)
            assert elided.status == base.status, scheme
            assert elided.output == base.output, scheme
            assert elided.instret < base.instret, scheme

    def test_hoist_preserves_temporal_trap_on_dangling_loop(self):
        from repro.harness.runner import run_program

        dangling = HOIST_LOOP.replace("setup();",
                                      "setup();\n    free(g);")
        config = HwstConfig(elide_checks=True)
        for scheme in ("hwst128_tchk", "sbcets"):
            base = run_program(dangling, scheme)
            elided = run_program(dangling, scheme, config=config)
            assert base.status == "temporal_violation", scheme
            assert elided.status == "temporal_violation", scheme

    def test_no_hoist_for_conditional_access(self):
        """An access that only executes on some iterations must keep
        its own check: hoisting it could trap where the original
        program never checks."""
        source = """
int *g;
int flag;
int main(void) {
    g = (int *)malloc(40);
    int s = 0;
    int i = 0;
    while (i < 10) {
        if (flag > 0) {
            s = s + g[i];
        }
        i = i + 1;
    }
    return s;
}
"""
        snap = self._compile_counters(source, "hwst128_tchk")
        assert snap["compile.analyze.summary.checks_hoisted"] == 0

    def test_no_hoist_when_loop_calls_impure_helper(self):
        source = """
int *g;
void rotate(void) {
    free(g);
    g = (int *)malloc(40);
}
int main(void) {
    g = (int *)malloc(40);
    int s = 0;
    int i = 0;
    while (i < 10) {
        s = s + g[0];
        rotate();
        i = i + 1;
    }
    return s;
}
"""
        snap = self._compile_counters(source, "hwst128_tchk")
        assert snap["compile.analyze.summary.checks_hoisted"] == 0
