"""Linking user code against the runtime library.

The compile cache builds each scheme's runtime library once (the
runtime tier) and links every program against that shared image. These
tests hold it to the uncached pipeline: the same Program bytes, the
same errors, no state leaking between programs that share an image,
and string-literal names that depend on the translation unit alone.
"""

import hashlib
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

from repro.cli import main
from repro.codegen.link import build_program, mutate_check_ops
from repro.codegen.lower import CodegenOptions
from repro.core.config import HwstConfig
from repro.errors import EXIT_TOOLCHAIN, IRError, LinkError
from repro.faultinject import FaultSpec, LINK_KINDS, apply_link_fault
from repro.fuzz.gen import generate_program
from repro.fuzz.oracle import alt_config
from repro.harness.compile_cache import CompileCache
from repro.harness.experiments import FIG6_SCHEMES
from repro.isa.instructions import Instr
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


def _run(program, max_instructions=3_000_000):
    return make_machine().run(program, max_instructions=max_instructions)


def _image(cache):
    spec = SCHEMES["hwst128_tchk"]
    return runtime_image(spec, CodegenOptions(spill_meta=spec.spill_meta),
                         cache=cache)


class TestCachedProgramsMatchUncached:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_every_scheme_and_config(self, name, shared_cache):
        source = SOURCES[name]
        for scheme in SCHEMES:
            for config in CONFIGS:
                fresh = pickle.dumps(compile_source(source, scheme, config))
                linked = shared_cache.compile(source, scheme, config)
                assert pickle.dumps(linked) == fresh, (scheme, config)
        # A program-tier hit returns an equal program.
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


class TestCachedProgramsAreShared:
    """A linked program is immutable, so the cache hands out one object
    and a link-time fault runs on a copy."""

    SCHEME = "hwst128_tchk"
    SOURCE = """
int main(void) {
    long *p = (long *)malloc(32);
    for (int i = 0; i < 4; i = i + 1) { p[i] = i; }
    long s = p[0] + p[3];
    free(p);
    return s - 3;
}
"""

    def test_no_caller_can_change_a_cached_program(self):
        cache = CompileCache()
        program = cache.compile(self.SOURCE, self.SCHEME)
        before = pickle.dumps(program)
        image_before = pickle.dumps(_image(cache))
        with pytest.raises(TypeError):
            program.instrs[0] = Instr("ebreak")
        with pytest.raises(FrozenInstanceError):
            program.instrs = ()
        assert not hasattr(program.instrs[0], "__dict__")
        for kind in LINK_KINDS:
            for select in range(200):
                mutated, note = apply_link_fault(
                    program, FaultSpec(kind=kind, select=select))
                assert note and mutated is not program
                assert _run(mutated, 100_000).status in (
                    "exit", "spatial_violation")
        assert cache.compile(self.SOURCE, self.SCHEME) is program
        assert pickle.dumps(program) == before == \
            pickle.dumps(compile_source(self.SOURCE, self.SCHEME))
        assert pickle.dumps(_image(cache)) == image_before


class TestImageSharing:
    SCHEME = "hwst128_tchk"

    def test_mutating_one_program_leaves_its_sibling_alone(self):
        cache = CompileCache()
        first = cache.compile(WORKLOAD_SOURCES["treeadd"], self.SCHEME)
        second = cache.compile(WORKLOAD_SOURCES["sha"], self.SCHEME)
        assert cache.runtime_hits == 1
        before = pickle.dumps(second)
        for kind in ("check_drop", "check_dup"):
            for select in range(400):
                first, _ = mutate_check_ops(first, kind, select)
        assert pickle.dumps(second) == before
        result = _run(second)
        assert result.status == "exit" and result.exit_code == 0

    def test_image_is_unchanged_by_linking(self):
        cache = CompileCache()
        image = _image(cache)
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
        image = _image(None)
        assert set(vars(image)) == {"globals", "bodies", "interface",
                                    "text", "relocs"}
        assert image.interface.arities["malloc"] == 1
        assert image.text == tuple(ins for body in image.bodies.values()
                                   for ins in body)
        assert image.relocs == tuple(i for i, ins in enumerate(image.text)
                                     if ins.sym is not None)

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


# ---------------------------------------------------------------------------
# Pinned programs
# ---------------------------------------------------------------------------

def program_digest(program):
    """SHA-256 of a program's instruction fields, entry, segments,
    symbols and meta: its contents, not its pickle, so the pin does not
    depend on the pickle protocol."""
    parts = (
        _fields(program.instrs),
        program.entry,
        program.text_base,
        [(seg.addr, seg.name, seg.data.hex()) for seg in program.segments],
        list(program.symbols.items()),
        program.meta,
    )
    return hashlib.sha256(
        "\n".join(map(repr, parts)).encode()).hexdigest()


#: The five Fig. 4 configurations.
FIG4_CONFIGS = (
    ("baseline", HwstConfig()),
    ("sbcets", HwstConfig()),
    ("hwst128", HwstConfig()),
    ("hwst128_tchk", HwstConfig()),
    ("hwst128_tchk", HwstConfig(elide_checks=True)),
)


def _fig4_programs():
    for workload in ("math", "mst", "hmmer"):
        source = WORKLOADS[workload].source("small")
        for scheme, config in FIG4_CONFIGS:
            tag = "+elide" if config.elide_checks else ""
            yield f"{workload}/{scheme}{tag}", source, scheme, config


def _fig6_programs():
    for cwe, plan in CWE_PLAN.items():
        case = _build_case(cwe, plan[0][0], 0)
        for scheme in FIG6_SCHEMES:
            yield f"{case.case_id}/{scheme}", case.bad_source, scheme, \
                HwstConfig()


def _alt_programs():
    # The fuzz compression oracle's geometry changes _start and the
    # lock-table stub; the default build comes first, so a stub cache
    # that ignored the config would hand the alt build its stubs.
    source = generate_program(7, 0).source
    yield "fuzz-7-0/hwst128", source, "hwst128", HwstConfig()
    yield "fuzz-7-0/hwst128@alt", source, "hwst128", alt_config()


#: Program digests taken before the linker learnt to patch only
#: recorded relocation sites; every program must come out as then.
PINNED_PROGRAMS = {
    "fig4": (_fig4_programs, {
        "math/baseline":
            "9763016ed8dd49167c4fe7fdc7b98e4fc35042202f0221e3778d3f22639413aa",
        "math/sbcets":
            "f8c9598945b4146a80b11020bb37eb97946cfdd3ade255b0de1626aeaf2d39ba",
        "math/hwst128":
            "0be8d3a735e1d17c16dd071ca7790f3be3ef9860c5af650b8e54ca39c3e9ff83",
        "math/hwst128_tchk":
            "a6afbddc0fe2ffcab40dc2cbfd2ac7e84bd74a5a04eac5dfb061e3a894aa8821",
        "math/hwst128_tchk+elide":
            "a13326b1a01c585572f6502f109dc239df0e1362af8a60032ea3be68a935db94",
        "mst/baseline":
            "f74830d1ecf02d34f8f3e41efe659c4349c53d72fbc6f223a7cedcc16615ea33",
        "mst/sbcets":
            "b8f33f366f408bd33185201d2913f67b10af98eff0401aeb50dd865331126a45",
        "mst/hwst128":
            "7404d858e1537f1619352d7f787ebaea308b8f1877e0510eca561dfb86790f7d",
        "mst/hwst128_tchk":
            "a955e09b3d76b980e06459f33d6ef51763b39bf2e9df5cb428527aaa585b3894",
        "mst/hwst128_tchk+elide":
            "3a3b4155d920ff8e75b05814115c30a22983fbed8b9250a23750262ce69b640a",
        "hmmer/baseline":
            "a222209eec36772a95560a7f6bdc0a1410066157a4bfa99d2290e1da885dc2c0",
        "hmmer/sbcets":
            "04cb728c2f43eee829e9d6bcf5bb62cd175d0b040eaa5ea9f39cac5d0ca6a471",
        "hmmer/hwst128":
            "4db4dcc93d6a9a15d60811585fc4c2d9da78811672cf4965e0efe0de4ceeb820",
        "hmmer/hwst128_tchk":
            "f28f25f1434d3c32f30b7033e3f4296c99341b07027d1a87804258d58c675b2c",
        "hmmer/hwst128_tchk+elide":
            "268a65f123cc8410ba2681406f6e3e4a953e41e724be58c9807a9c52e6ca0419",
    }),
    "fig6": (_fig6_programs, {
        "CWE121_loop_to_canary_0000/gcc":
            "88d3243deafa7898afa89e27df004f8942b2b96adf986d3ecb76cb773a31ee89",
        "CWE121_loop_to_canary_0000/asan":
            "b56d589d830201c76713c63affeec4f3953c6147e2583d36014a19f924b85cf4",
        "CWE121_loop_to_canary_0000/sbcets":
            "c07f0d851495cd560e4b3517b97c8178181e51a188813c8fcba5da92ea3825c7",
        "CWE121_loop_to_canary_0000/hwst128_tchk":
            "2c78529deb7d2020b918c668d96e2f34f01974bac90a4e9a8e1eb094cd559afc",
        "CWE122_heap_loop_0000/gcc":
            "e89c244869344e6d585f2bb73bb3465e99122a0a78fcd10b8ab9adecf4b2b67c",
        "CWE122_heap_loop_0000/asan":
            "5321b502dbd48b2716b1e31d9fe0d4a0e8ec221f05c77642e65c2f2c33a1600c",
        "CWE122_heap_loop_0000/sbcets":
            "c4a2a7fb1de094e8fe06d85f906a2b293b48bff73962b22b990c91c7e86188c4",
        "CWE122_heap_loop_0000/hwst128_tchk":
            "883ad0aa72b9994cfd9f808809dc1fe8e24d93067cece3d3dc040b5f5c1e607b",
        "CWE124_heap_under_0000/gcc":
            "41ba109362fbb635877e4c79e21e908f22d0bba6fad690298c0856094d980055",
        "CWE124_heap_under_0000/asan":
            "1827775699a3d8113b1923b3a32b416c15100f5cbba3009650771f5f4be6c48d",
        "CWE124_heap_under_0000/sbcets":
            "67aff6a83e0b8468a7b68effc583351fe1a4b4a4c26b1629a6a957457c42d8a6",
        "CWE124_heap_under_0000/hwst128_tchk":
            "da5d28e2660fe44e9bf4d1b5cba28eaba3b9f437a52c8e0bcdfe1ffc31dc96d3",
        "CWE126_heap_overread_0000/gcc":
            "1f010cb94372f88389870175647d56f25fbb759f8690055e1f08f6c6876b33a9",
        "CWE126_heap_overread_0000/asan":
            "2f14f2531e4e9e9225fc5d229d9f6221cd6d7299704791c6e4179e3e084007b0",
        "CWE126_heap_overread_0000/sbcets":
            "9ccaea92c7d5dd0dd9570d19d8ea07d1aa902c49bae411102c3121b5216c3ceb",
        "CWE126_heap_overread_0000/hwst128_tchk":
            "8f8d8afb2386c9f2d125e3b72e9d31a32dad34abd5106a6ea144a0132d3dc256",
        "CWE127_heap_under_read_0000/gcc":
            "5454c12d8c3ebafa3a81e31985ca47122fd987ea9154a7d0c26e2d28220dfa23",
        "CWE127_heap_under_read_0000/asan":
            "86740fa91a2417806e997afc7820d04470a9dc8b67bfc6b3d0a456aa417f6780",
        "CWE127_heap_under_read_0000/sbcets":
            "4ba5579982c1ca16b59286ab7bb1d355a3bc83eda88e10803fe75053e1f5e836",
        "CWE127_heap_under_read_0000/hwst128_tchk":
            "e4b2a828f0ee0d627187bc86f34e70108e5de9103efded333a7f35fea1e1b2b5",
        "CWE415_double_free_0000/gcc":
            "e45eba42d6f3b0c63b6287c21c31a0058c84c9bfe9fe367fad437a98df95dc33",
        "CWE415_double_free_0000/asan":
            "797ed011d4d5f5c954a184515b75d318ab77e62e6c707f4976bd4a48d43487f6",
        "CWE415_double_free_0000/sbcets":
            "389269e82506b640eeb610eb486bb0798788862d57448f827756cb97a9d69add",
        "CWE415_double_free_0000/hwst128_tchk":
            "993bc9030a684a26e2175a8f3a58f28f66045b2014a40acf699d4ba599a86e92",
        "CWE416_uaf_fresh_0000/gcc":
            "2039710ab394a3ce2112265452973e5fedabcef254bd7a94c83b8c952143d22c",
        "CWE416_uaf_fresh_0000/asan":
            "81ed4b4729a59ef40245605263c48c2b801392868b77bf75473ce156de2aacea",
        "CWE416_uaf_fresh_0000/sbcets":
            "122510c6ad0bd08161fbdb9a60d63ff79c11056044825ae69aff3907b7194c51",
        "CWE416_uaf_fresh_0000/hwst128_tchk":
            "fbe544ab25600f2a2806d97944384ee2946127922ddffb2d3bcefe1062dd3c7d",
        "CWE476_null_deref_0000/gcc":
            "aec8131afdde36a5cab8bee5e8cc0c814e4b3ee992ae750751f3a36519f77f77",
        "CWE476_null_deref_0000/asan":
            "1d3a55a86c3e0ca84cc7644ee9049fce4cf7f96d0ff53150aa5acc83e496db2d",
        "CWE476_null_deref_0000/sbcets":
            "0f4b6202968a3e712f1a55cc5ab1736a70c422c66b33dbf4da28adcf56cc8a9b",
        "CWE476_null_deref_0000/hwst128_tchk":
            "fe6ed6d0b912f114ae7a3661b5b0f02039468ec2651c1ffc151d28b469dd10f9",
        "CWE690_null_return_offset_0000/gcc":
            "5051d5ccf162b9e40a2f7957bfe2d2d4083134da2e260bf8650f79e09cb7cee1",
        "CWE690_null_return_offset_0000/asan":
            "3324506d70202f67ff367ebab35f5e46b31fb4d9d4d4c6bd225afadd2e26b9a3",
        "CWE690_null_return_offset_0000/sbcets":
            "70b4fa9e2a9bceb7bbb61e760d49539bcebb3b0bd5ca968ca9f1f3479a6865bf",
        "CWE690_null_return_offset_0000/hwst128_tchk":
            "70412778e3d2b52c323a5427e53f8aca5a5092f808693127106df1a18d21a680",
        "CWE761_free_offset_0000/gcc":
            "eb994347690f3e02eb066be00c4eab6ac0781edda27756be397ce923d49d441b",
        "CWE761_free_offset_0000/asan":
            "de2a9c897d3e8aad8eb80f312fe13e7c91481a6ffa6bda02cc21067f8142bd23",
        "CWE761_free_offset_0000/sbcets":
            "24baf6c71956471c1d8a9fb3783035370317fec7698256cb0169b96be03e8172",
        "CWE761_free_offset_0000/hwst128_tchk":
            "ce68a68f04df3ecd65adfd155c1e45875ea4c0e923caad09126cc94b8ddc77e6",
    }),
    "alt": (_alt_programs, {
        "fuzz-7-0/hwst128":
            "1a9e13d9672b3c3c85076976acc323e3ab77c9f2b4deb437d7f0c7a1d6cd1888",
        "fuzz-7-0/hwst128@alt":
            "92a7f44c3f07f2df94c23432f487fd709c162bf7431fff4ca3cf40cbdd98fc9c",
    }),
}


class TestPinnedPrograms:
    @pytest.mark.parametrize("group", sorted(PINNED_PROGRAMS))
    def test_program_digests(self, group, shared_cache):
        build, pinned = PINNED_PROGRAMS[group]
        digests = {tag: program_digest(shared_cache.compile(
                       source, scheme, config))
                   for tag, source, scheme, config in build()}
        assert digests == pinned
