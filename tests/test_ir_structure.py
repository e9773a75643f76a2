"""Structural tests for IR generation and the verifier."""

import pytest

from repro.errors import IRError
from repro.ir import ir as irdef
from repro.ir.irgen import lower_unit
from repro.ir.verify import (unreachable_blocks, verify_function,
                             verify_module)
from repro.minic import analyze, parse
from repro.minic.types import LONG


def lower(source):
    module = lower_unit(analyze(parse(source)))
    verify_module(module)
    return module


class TestBasicLowering:
    def test_empty_main(self):
        module = lower("int main(void) { return 0; }")
        fn = module.functions["main"]
        assert fn.blocks[0].label == "entry"
        assert isinstance(fn.blocks[0].instrs[-1], irdef.Ret)

    def test_params_spilled_via_getparam(self):
        module = lower("int f(int a, int b) { return a + b; } "
                       "int main(void) { return f(1, 2); }")
        fn = module.functions["f"]
        getparams = [i for i in fn.blocks[0].instrs
                     if isinstance(i, irdef.GetParam)]
        assert [g.index for g in getparams] == [0, 1]

    def test_locals_registered(self):
        module = lower("""
        int main(void) { int a; long b[4]; return 0; }""")
        fn = module.functions["main"]
        assert "a" in fn.locals and "b" in fn.locals
        assert fn.locals["b"].is_object
        assert not fn.locals["a"].is_object

    def test_address_taken_scalar_becomes_object(self):
        module = lower("""
        int main(void) { int a; int *p = &a; return *p; }""")
        assert module.functions["main"].locals["a"].is_object

    def test_if_produces_blocks(self):
        module = lower("""
        int main(void) { if (1) { return 1; } return 0; }""")
        labels = [b.label for b in module.functions["main"].blocks]
        assert any(label.startswith("if.then") for label in labels)

    def test_loop_block_structure(self):
        module = lower("""
        int main(void) {
            int i;
            for (i = 0; i < 3; i++) { }
            return i;
        }""")
        labels = [b.label for b in module.functions["main"].blocks]
        for prefix in ("for.cond", "for.body", "for.step", "for.end"):
            assert any(label.startswith(prefix) for label in labels)

    def test_needs_check_flags(self):
        module = lower("""
        int main(void) {
            int a[4];
            int b = 1;
            a[0] = b;      /* array store: checked */
            b = 2;         /* scalar slot store: unchecked */
            return a[0];
        }""")
        fn = module.functions["main"]
        stores = [i for b in fn.blocks for i in b.instrs
                  if isinstance(i, irdef.Store)]
        assert any(s.needs_check for s in stores)
        assert any(not s.needs_check for s in stores)

    def test_ptr_flags_on_loads_stores(self):
        module = lower("""
        int main(void) {
            long *p = (long*)malloc(8);
            long *q = p;
            free(q);
            return 0;
        }""")
        fn = module.functions["main"]
        assert any(isinstance(i, irdef.Store) and i.ptr_value
                   for b in fn.blocks for i in b.instrs)
        assert any(isinstance(i, irdef.Load) and i.ptr_result
                   for b in fn.blocks for i in b.instrs)

    def test_string_literal_becomes_global(self):
        module = lower("""
        int main(void) { return (int)strlen("abc"); }""")
        strings = [g for g in module.globals.values() if g.is_string]
        assert len(strings) == 1
        assert strings[0].data == b"abc\x00"

    def test_width_annotations_for_int_math(self):
        module = lower("""
        int main(void) { int a = 1; int b = a * 3; return b; }""")
        fn = module.functions["main"]
        muls = [i for b in fn.blocks for i in b.instrs
                if isinstance(i, irdef.BinOp) and i.op == "mul"]
        assert muls and muls[0].width == 4

    def test_long_math_native_width(self):
        module = lower("""
        int main(void) { long a = 1; long b = a * 3; return (int)b; }""")
        fn = module.functions["main"]
        muls = [i for b in fn.blocks for i in b.instrs
                if isinstance(i, irdef.BinOp) and i.op == "mul"]
        assert muls and muls[0].width == 0


class TestBlockLocalInvariant:
    """Programs whose naive lowering would leak vregs across blocks."""

    CASES = [
        "int main(void) { int a = 1 ? 2 : 3; return a; }",
        "int main(void) { int a = 5; int b = a + (a > 2 ? 1 : 0); return b; }",
        "int main(void) { int x[4]; x[1 > 0 ? 0 : 1] = 2; return x[0]; }",
        """int f(int a, int b) { return a + b; }
           int main(void) { return f(1 ? 2 : 3, 4 && 5); }""",
        "int main(void) { int a = 1 && (2 || 0); return a; }",
        """int main(void) { long *p = (long*)malloc(8);
           p[0] = 1 ? 7 : 9; p[0] += 0 ? 1 : 2; free(p); return 0; }""",
        """int main(void) { int c = 1; int *p; int x = 4; int y = 5;
           p = c ? &x : &y; *p = 6; return x; }""",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_verifies(self, source):
        lower(source)


class TestVerifier:
    def make_fn(self):
        fn = irdef.Function("f", LONG, [])
        block = fn.add_block("entry")
        return fn, block

    def test_empty_block_rejected(self):
        fn, _ = self.make_fn()
        with pytest.raises(IRError):
            verify_function(fn)

    def test_missing_terminator(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_terminator_in_middle(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Ret(v))
        block.instrs.append(irdef.IConst(fn.new_vreg(), 2))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_use_before_def(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        w = fn.new_vreg()
        block.instrs.append(irdef.BinOp(w, "add", v, v))
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Ret(w))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_cross_block_use(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Jmp("next"))
        nxt = fn.add_block("next")
        nxt.instrs.append(irdef.Ret(v))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_double_definition(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.IConst(v, 2))
        block.instrs.append(irdef.Ret(v))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_branch_to_missing_block(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Br(v, "nowhere", "entry"))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_unknown_local(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.AddrLocal(v, "ghost"))
        block.instrs.append(irdef.Ret(v))
        with pytest.raises(IRError):
            verify_function(fn)

    def test_valid_function_passes(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Ret(v))
        verify_function(fn)

    def test_case_shadowed_labels_rejected(self):
        """Labels differing only by case would shadow each other in
        any case-insensitive assembler; the verifier must name both."""
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Jmp("Loop"))
        upper = fn.add_block("Loop")
        upper.instrs.append(irdef.Jmp("loop"))
        lower_blk = fn.add_block("loop")
        w = fn.new_vreg()
        lower_blk.instrs.append(irdef.IConst(w, 0))
        lower_blk.instrs.append(irdef.Ret(w))
        with pytest.raises(IRError) as exc:
            verify_function(fn)
        message = str(exc.value)
        assert "'Loop'" in message and "'loop'" in message
        assert "case" in message

    def test_call_arity_mismatch_rejected(self):
        module = lower("int f(int a, int b) { return a + b; } "
                       "int main(void) { return f(1, 2); }")
        main = module.functions["main"]
        call = next(i for b in main.blocks for i in b.instrs
                    if isinstance(i, irdef.Call))
        call.args = call.args[:1]
        with pytest.raises(IRError) as exc:
            verify_function(main, module)
        assert "f" in str(exc.value)

    def test_call_arity_checked_at_module_level(self):
        module = lower("int f(int a) { return a; } "
                       "int main(void) { return f(1); }")
        fn = module.functions["main"]
        call = next(i for b in fn.blocks for i in b.instrs
                    if isinstance(i, irdef.Call))
        call.args = list(call.args) + [call.args[0]]
        with pytest.raises(IRError):
            verify_module(module)

    def test_unreachable_block_tolerated_by_default(self):
        fn, block = self.make_fn()
        v = fn.new_vreg()
        block.instrs.append(irdef.IConst(v, 1))
        block.instrs.append(irdef.Ret(v))
        dead = fn.add_block("dead")
        w = fn.new_vreg()
        dead.instrs.append(irdef.IConst(w, 2))
        dead.instrs.append(irdef.Ret(w))
        verify_function(fn)
        assert unreachable_blocks(fn) == ["dead"]
        with pytest.raises(IRError) as exc:
            verify_function(fn, allow_unreachable=False)
        assert "dead" in str(exc.value)

    def test_lowered_module_passes_module_checks(self):
        module = lower("int f(int a, int b) { return a + b; } "
                       "int main(void) { return f(3, 4); }")
        for fn in module.functions.values():
            verify_function(fn, module)


class TestModule:
    def test_dump_renders(self):
        module = lower("int main(void) { return 0; }")
        text = module.dump()
        assert "func main:" in text and "entry:" in text
