"""Tests for the IR validator (type/SSA/flatness) and the IR interpreter."""

import pytest

from repro.ir import (
    IRSB,
    Binop,
    ByteState,
    CCall,
    Const,
    Dirty,
    Exit,
    Get,
    HelperRegistry,
    IRFlatnessError,
    IRInterpreter,
    IRTypeError,
    IMark,
    ITE,
    JumpKind,
    Load,
    Put,
    RdTmp,
    Store,
    Ty,
    Unop,
    WrTmp,
    c1,
    c32,
    check_flat,
    validate,
)


def _block(next_=None):
    sb = IRSB(guest_addr=0x1000)
    sb.next = next_ if next_ is not None else c32(0x1004)
    return sb


class TestTypecheck:
    def test_ok_block(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, Get(0, Ty.I32)), Put(4, RdTmp(t))]
        validate(sb)

    def test_binop_arg_mismatch(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, Binop("Add32", c32(1), Const(Ty.I8, 1)))]
        with pytest.raises(IRTypeError):
            validate(sb)

    def test_tmp_declared_type_mismatch(self):
        sb = _block()
        t = sb.new_tmp(Ty.I8)
        sb.stmts = [WrTmp(t, c32(1))]
        with pytest.raises(IRTypeError):
            validate(sb)

    def test_ssa_double_write_rejected(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, c32(1)), WrTmp(t, c32(2))]
        with pytest.raises(IRTypeError, match="SSA"):
            validate(sb)

    def test_read_before_write_rejected(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [Put(0, RdTmp(t)), WrTmp(t, c32(1))]
        with pytest.raises(IRTypeError, match="before write"):
            validate(sb)

    def test_exit_guard_must_be_i1(self):
        sb = _block()
        sb.stmts = [Exit(c32(1), 0x2000, JumpKind.Boring)]
        with pytest.raises(IRTypeError):
            validate(sb)

    def test_next_must_be_i32(self):
        sb = _block(next_=Const(Ty.I8, 1))
        with pytest.raises(IRTypeError):
            validate(sb)

    def test_store_address_must_be_i32(self):
        sb = _block()
        sb.stmts = [Store(Const(Ty.I8, 0), c32(1))]
        with pytest.raises(IRTypeError):
            validate(sb)

    def test_ite_branches_must_agree(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, ITE(c1(1), c32(1), Const(Ty.I8, 1)))]
        with pytest.raises(IRTypeError):
            validate(sb)


class TestFlatness:
    def test_nested_operand_rejected(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, Binop("Add32", Binop("Add32", c32(1), c32(2)), c32(3)))]
        with pytest.raises(IRFlatnessError):
            check_flat(sb)

    def test_put_data_must_be_atom(self):
        sb = _block()
        sb.stmts = [Put(0, Get(4, Ty.I32))]
        with pytest.raises(IRFlatnessError):
            check_flat(sb)

    def test_flat_block_passes(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        u = sb.new_tmp(Ty.I32)
        sb.stmts = [
            WrTmp(t, Get(0, Ty.I32)),
            WrTmp(u, Binop("Add32", RdTmp(t), c32(1))),
            Put(0, RdTmp(u)),
        ]
        check_flat(sb)


class TestInterpreter:
    def test_arith_and_state(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [
            WrTmp(t, Binop("Mul32", Get(0, Ty.I32), c32(3))),
            Put(4, RdTmp(t)),
        ]
        st = ByteState()
        st.put(0, Ty.I32, 7)
        nxt, jk, icnt = IRInterpreter().run_block(sb, st)
        assert st.get(4, Ty.I32) == 21
        assert (nxt, jk, icnt) == (0x1004, JumpKind.Boring, 0)

    def test_memory(self):
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [
            Store(c32(0x100), c32(0xDEAD)),
            WrTmp(t, Load(Ty.I32, c32(0x100))),
            Put(0, RdTmp(t)),
        ]
        st = ByteState()
        IRInterpreter().run_block(sb, st)
        assert st.get(0, Ty.I32) == 0xDEAD

    def test_exit_taken_and_not_taken(self):
        # The IMark count includes a taken exit's own instruction and
        # stops there.
        for guard, want in ((1, (0x2000, 1)), (0, (0x1004, 2))):
            sb = _block()
            sb.stmts = [IMark(0x1000, 2), Exit(c1(guard), 0x2000, JumpKind.Boring),
                        IMark(0x1002, 2)]
            nxt, _, icnt = IRInterpreter().run_block(sb, ByteState())
            assert (nxt, icnt) == want

    def test_ite_laziness(self):
        # The untaken branch is not evaluated (no spurious division etc.),
        # because the interpreter only walks the selected side.
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, ITE(c1(1), c32(5), c32(7))), Put(0, RdTmp(t))]
        st = ByteState()
        IRInterpreter().run_block(sb, st)
        assert st.get(0, Ty.I32) == 5

    def test_ccall_pure_helper(self):
        helpers = HelperRegistry()
        helpers.register_pure("triple", lambda x: (x * 3) & 0xFFFFFFFF)
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, CCall(Ty.I32, "triple", (c32(5),))), Put(0, RdTmp(t))]
        st = ByteState()
        IRInterpreter(helpers).run_block(sb, st)
        assert st.get(0, Ty.I32) == 15

    def test_dirty_guard_and_env(self):
        calls = []
        helpers = HelperRegistry()
        helpers.register_dirty("probe", lambda env, x: calls.append((env, x)) or 9)
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [
            Dirty("probe", (c32(1),), guard=c1(0), tmp=None, retty=None),
            WrTmp(t, c32(0)),
            Put(0, RdTmp(t)),
        ]
        env = object()
        interp = IRInterpreter(helpers, env=env)
        interp.run_block(sb, ByteState())
        assert calls == []  # guard false: not called
        sb2 = _block()
        t2 = sb2.new_tmp(Ty.I32)
        sb2.stmts = [Dirty("probe", (c32(7),), tmp=t2, retty=Ty.I32), Put(0, RdTmp(t2))]
        st = ByteState()
        interp.run_block(sb2, st)
        assert calls == [(env, 7)]
        assert st.get(0, Ty.I32) == 9

    def test_ccall_to_dirty_helper_rejected(self):
        helpers = HelperRegistry()
        helpers.register_dirty("impure", lambda env: 0)
        sb = _block()
        t = sb.new_tmp(Ty.I32)
        sb.stmts = [WrTmp(t, CCall(Ty.I32, "impure", ()))]
        with pytest.raises(RuntimeError, match="non-pure"):
            IRInterpreter(helpers).run_block(sb, ByteState())


class TestHelperRegistry:
    def test_duplicate_rejected(self):
        h = HelperRegistry()
        h.register_pure("f", lambda: 0)
        with pytest.raises(ValueError):
            h.register_pure("f", lambda: 1)

    def test_addresses_are_distinct(self):
        h = HelperRegistry()
        a = h.register_pure("f", lambda: 0)
        b = h.register_pure("g", lambda: 1)
        assert a.address != b.address
        assert a.address >= HelperRegistry.ADDRESS_BASE

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            HelperRegistry().lookup("nope")
