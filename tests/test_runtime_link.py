"""Linking user code against the runtime library.

The compile cache builds each scheme's runtime library once (the
runtime tier) and links every program against that shared image. These
tests hold it to the uncached pipeline: the same Program bytes, the
same errors, no state leaking between programs that share an image,
and string-literal names that depend on the translation unit alone.
"""

import pickle
import subprocess
import sys

import pytest

from repro.cli import main
from repro.codegen.link import build_program, mutate_check_ops
from repro.codegen.lower import CodegenOptions
from repro.core.config import HwstConfig
from repro.errors import EXIT_TOOLCHAIN, IRError, LinkError
from repro.harness.compile_cache import CompileCache
from repro.ir.verify import Interface, interface, verify_module
from repro.minic import analyze, parse
from repro.ir.irgen import lower_unit
from repro.schemes import compile_source
from repro.schemes.compile import SCHEMES, runtime_image
from repro.serve.protocol import canonical_json, evaluate
from repro.sim import make_machine
from repro.workloads import WORKLOADS
from repro.workloads.juliet import CWE_PLAN
from repro.workloads.juliet.generator import _build_case

CONFIGS = (HwstConfig(), HwstConfig(elide_checks=True))

WORKLOAD_SOURCES = {name: WORKLOADS[name].source("small")
                    for name in ("treeadd", "sha", "bitcounts")}
JULIET_SOURCES = {
    f"CWE{cwe}/{subtype}": _build_case(cwe, subtype, 0).bad_source
    for cwe, plan in CWE_PLAN.items() for subtype, _ in plan}
SOURCES = {**WORKLOAD_SOURCES, **JULIET_SOURCES}

STRING_OOB = 'int main(void) { char *s = "abc"; char c = s[10]; return c; }'
ABORT_WITH_ARG = """
void abort(int code) { exit(code); }
int main(void) { return 0; }
"""
ABORT_ARITY = ("__lock_alloc/if.then.4: call to 'abort' passes 0 "
               "argument(s) but its definition takes 1")


@pytest.fixture(scope="module")
def shared_cache():
    return CompileCache()


def _module(source):
    return lower_unit(analyze(parse(source)), "program")


def _fields(instrs):
    return [(i.op, i.rd, i.rs1, i.rs2, i.imm, i.sym, i.sym_kind, i.comment)
            for i in instrs]


def _run(program):
    return make_machine().run(program, max_instructions=3_000_000)


class TestCachedProgramsMatchUncached:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_every_scheme_and_config(self, name, shared_cache):
        source = SOURCES[name]
        for scheme in SCHEMES:
            for config in CONFIGS:
                fresh = pickle.dumps(compile_source(source, scheme, config))
                linked = shared_cache.compile(source, scheme, config)
                assert pickle.dumps(linked) == fresh, (scheme, config)
        # A program-tier hit unpickles an equal program.
        hits = shared_cache.program_hits
        assert shared_cache.compile(source, "hwst128_tchk") == \
            compile_source(source, "hwst128_tchk")
        assert shared_cache.program_hits == hits + 1

    def test_each_runtime_is_built_once_per_cache(self):
        cache = CompileCache()
        for source in WORKLOAD_SOURCES.values():
            for scheme in ("hwst128", "hwst128_tchk", "wdl_narrow",
                           "wdl_wide"):
                cache.compile(source, scheme)
        snap = cache.stats_snapshot()
        # hwst128 and hwst128_tchk share one image; the two wdl
        # schemes share a source but lower it with different options.
        assert snap["compile.cache.runtime_misses"] == 3
        assert snap["compile.cache.runtime_hits"] == 9


class TestImageSharing:
    SCHEME = "hwst128_tchk"

    def _image(self, cache):
        spec = SCHEMES[self.SCHEME]
        return runtime_image(spec, CodegenOptions(spill_meta=spec.spill_meta),
                             cache=cache)

    def test_mutating_one_program_leaves_its_sibling_alone(self):
        cache = CompileCache()
        first = cache.compile(WORKLOAD_SOURCES["treeadd"], self.SCHEME)
        second = cache.compile(WORKLOAD_SOURCES["sha"], self.SCHEME)
        assert cache.runtime_hits == 1
        before = pickle.dumps(second)
        for kind in ("check_drop", "check_dup"):
            for select in range(400):
                mutate_check_ops(first, kind, select)
        assert pickle.dumps(second) == before
        result = _run(second)
        assert result.status == "exit" and result.exit_code == 0

    def test_image_is_unchanged_by_linking(self):
        cache = CompileCache()
        image = self._image(cache)
        bodies = {name: _fields(body) for name, body in image.bodies.items()}
        assert any(ins.sym for body in image.bodies.values()
                   for ins in body)
        for index in range(100):
            source = f"int main(void) {{ return {index % 7}; }}"
            program = compile_source(source, self.SCHEME, cache=cache)
            # Relocated instructions are the program's own copies.
            assert not any(ins.sym for ins in program.instrs)
        assert cache.runtime_hits == 100
        assert {name: _fields(body)
                for name, body in image.bodies.items()} == bodies
        assert _run(program).exit_code == 99 % 7

    def test_image_keeps_no_ir(self):
        image = self._image(None)
        assert set(vars(image)) == {"globals", "bodies", "interface"}
        assert image.interface.arities["malloc"] == 1

    def test_clear_empties_the_tier(self):
        cache = CompileCache()
        cache.compile(WORKLOAD_SOURCES["treeadd"], "baseline")
        cache.compile(WORKLOAD_SOURCES["sha"], "baseline")
        assert cache._runtimes
        assert cache.stats_snapshot()["compile.cache.runtime_hits"] == 1
        cache.clear()
        assert not cache._runtimes
        snap = cache.stats_snapshot()
        assert snap["compile.cache.runtime_hits"] == 0
        assert snap["compile.cache.runtime_misses"] == 0
        cache.compile(WORKLOAD_SOURCES["treeadd"], "baseline")
        assert cache.runtime_misses == 1


class TestLinkErrors:
    @pytest.mark.parametrize("cached", [False, True])
    def test_runtime_call_checked_against_user_definition(self, cached):
        cache = CompileCache() if cached else None
        for _ in range(2):
            with pytest.raises(IRError) as exc:
                compile_source(ABORT_WITH_ARG, "hwst128_tchk", cache=cache)
            assert str(exc.value) == ABORT_ARITY

    def test_user_call_checked_against_linked_unit(self):
        caller = _module("int f(int a) { return a; } "
                         "int main(void) { return f(1); }")
        del caller.functions["f"]
        verify_module(caller, linked=Interface({"f": 1}, ()))
        with pytest.raises(IRError, match=r"main/entry: call to 'f' "
                                          r"passes 1 argument\(s\) but "
                                          r"its definition takes 2"):
            verify_module(caller, linked=Interface({"f": 2}, ()))

    def test_interface_lists_calls_out_of_the_unit(self):
        module = _module("int main(void) { abort(); return 0; }")
        iface = interface(module)
        assert iface.arities == {"main": 0}
        assert iface.calls == (("main/entry", "abort", 0),)

    @pytest.mark.parametrize("source,symbol", [
        ("void *malloc(long n) { return 0; } "
         "int main(void) { return 0; }", "function 'malloc'"),
        ("long __heap_ptr = 1; int main(void) { return 0; }",
         "global '__heap_ptr'"),
    ])
    def test_redefining_the_runtime_is_a_link_error(self, source, symbol,
                                                    tmp_path, capsys):
        with pytest.raises(LinkError, match=symbol):
            compile_source(source, "baseline")
        path = tmp_path / "clash.c"
        path.write_text(source)
        assert main(["run", str(path)]) == EXIT_TOOLCHAIN
        assert symbol in capsys.readouterr().err
        verdict = evaluate(source, schemes=("gcc",))["verdicts"]["gcc"]
        assert verdict["status"] == "toolchain_error"
        assert verdict["cli_exit_code"] == EXIT_TOOLCHAIN
        assert verdict["error"].startswith("LinkError: ")
        assert symbol in verdict["error"]

    def test_asm_stubs_stay_overridable(self):
        source = ("void abort(void) { exit(7); } "
                  "int main(void) { abort(); return 0; }")
        assert _run(compile_source(source, "hwst128_tchk")).exit_code == 7

    def test_build_program_links_a_module_against_an_image(self):
        image = runtime_image(SCHEMES["baseline"], CodegenOptions())
        program = build_program(_module("int main(void) { return 3; }"),
                                image)
        assert _run(program).exit_code == 3
        with pytest.raises(LinkError, match="no main"):
            build_program(_module("int f(void) { return 3; }"), image)


class TestStringLiteralSymbols:
    def test_served_envelope_is_repeatable(self):
        first = canonical_json(evaluate(STRING_OOB))
        assert canonical_json(evaluate(STRING_OOB)) == first
        assert "'__str.1'" in first

    def test_analysis_names_literals_per_unit(self):
        from repro.analyze import analyze_source

        for _ in range(2):
            messages = [f.message for f in analyze_source(STRING_OOB).errors()]
            assert messages and "'__str.1'" in messages[0]

    def test_user_global_spelling_an_old_literal_name(self):
        source = ('long __str1 = 5; int main(void) { print_str("x"); '
                  'return (int)__str1 - 5; }')
        script = ("import sys; from repro.schemes import compile_source; "
                  "from repro.sim import make_machine; "
                  "p = compile_source(sys.stdin.read(), 'hwst128_tchk'); "
                  "sys.exit(make_machine().run(p).exit_code)")
        done = subprocess.run([sys.executable, "-c", script], input=source,
                              text=True, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert _run(compile_source(source, "asan")).exit_code == 0

    def test_two_compiles_agree_on_symbols(self):
        source = ('long g = 3; int main(void) { print_str("hello"); '
                  'print_str("world"); return (int)g - 3; }')
        first = compile_source(source, "asan")
        second = compile_source(source, "asan")
        assert first.symbols == second.symbols
        assert first.meta["asan_global_tail"] == \
            second.meta["asan_global_tail"]
        assert {"__str.1", "__str.2", "__rt.str.1"} <= set(first.symbols)
