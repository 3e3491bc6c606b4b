"""The chained dispatch loop's correctness story (``--chaining``, alias
``--perf``).

Chaining changes *how* control reaches the next translation — Boring,
Call and Ret links followed without a look-up, made and severed through
the chain registry — and the pygen/traces tiers change how a block
executes, but neither may change *what* the program computes.  This
suite proves it three ways:

* differentially: random programs (the same hypothesis generator as
  ``tests/test_differential.py``) run under Nulgrind and Memcheck with
  chaining on, chaining off, and on the reference CPU, and the full
  architected state, data segment, exit code and error reports must
  agree — including under pathologically tiny caches that force constant
  eviction;
* by regression: FIFO eviction, client-requested discards, munmap and
  self-modifying code must sever chain links eagerly so no stale
  ``chain_next``/``chain_call``/``chain_ret`` or compiled runner is ever
  executed;
* at the unit level: the chain registry's link/sever semantics, the
  insert-time hook, and every inline operator template the pygen
  emitter uses.
"""

from __future__ import annotations

import collections
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import asm_image, native, programs, ref_run, vg
from repro import Options, assemble, run_tool
from repro.backend.hostcpu import HostCPU
from repro.backend.pygen import OP_INLINE
from repro.core.translate import Translation
from repro.core.transtab import CHAIN_SLOTS, ChainRegistry, TranslationTable
from repro.ir.ops import get_op


def perf_options(**kw) -> Options:
    kw.setdefault("log_target", "capture")
    kw.setdefault("chaining", True)
    return Options(**kw)


def _assert_matches_ref(res, ref_ts, ref_data, data_seg, label):
    sched = res.core.scheduler
    ts = sched.threads[1]
    ref_ts.pc = ts.pc  # both are one-past-halt; keep the comparison strict
    diffs = ref_ts.describe_diff(ts)
    assert not diffs, f"architected state differs ({label}): {diffs}"
    got = sched.memory.read_raw(data_seg.addr, len(data_seg.data))
    assert got == ref_data, f"data segment differs ({label})"


# ---------------------------------------------------------------------------
# Differential: chaining on == chaining off == reference CPU.
# ---------------------------------------------------------------------------


@settings(max_examples=110, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.sampled_from(["none", "memcheck"]))
def test_random_program_differential_perf(source, tool):
    img = assemble(source, filename="rand")
    ref_ts, ref_data, data_seg = ref_run(img)

    plain = run_tool(tool, img, options=Options(log_target="capture"))
    fast = run_tool(tool, img, options=perf_options())
    _assert_matches_ref(fast, ref_ts, ref_data, data_seg, f"chained/{tool}")
    assert fast.exit_code == plain.exit_code
    assert fast.stdout == plain.stdout
    # Same error reports, in the same order (Memcheck's instrumentation
    # must be oblivious to how blocks are dispatched).
    assert [(e.kind, e.addr) for e in fast.errors] == [
        (e.kind, e.addr) for e in plain.errors
    ]


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_program_perf_survives_tiny_caches(source):
    """Constant FIFO eviction + conflict misses must not change results.

    A 48-entry translation table forces eviction rounds mid-run (severing
    chains while they are hot) and a 16-entry dispatcher cache forces
    conflict misses constantly.
    """
    img = assemble(source, filename="rand")
    ref_ts, ref_data, data_seg = ref_run(img)
    res = run_tool(
        "none",
        img,
        options=perf_options(
            transtab_entries=48, dispatch_cache_size=16
        ),
    )
    _assert_matches_ref(res, ref_ts, ref_data, data_seg, "tiny-caches")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs(), st.sampled_from(["none", "memcheck"]))
def test_random_program_differential_codegen_tiers(source, tool):
    """The pygen and traces tiers must be bit-identical to the closure
    engine: same architected state, data segment, output, error reports
    and guest instruction count."""
    img = assemble(source, filename="rand")
    ref_ts, ref_data, data_seg = ref_run(img)

    plain = run_tool(tool, img, options=Options(log_target="capture",
                                                codegen="closures"))
    for label, opts in (
        ("pygen", perf_options(codegen="pygen")),
        ("traces", perf_options(codegen="traces", trace_threshold=2)),
    ):
        res = run_tool(tool, img, options=opts)
        _assert_matches_ref(res, ref_ts, ref_data, data_seg,
                            f"{label}/{tool}")
        assert res.exit_code == plain.exit_code, label
        assert res.stdout == plain.stdout, label
        assert res.outcome.guest_insns == plain.outcome.guest_insns, label
        assert [(e.kind, e.addr) for e in res.errors] == [
            (e.kind, e.addr) for e in plain.errors
        ], label


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_program_pygen_survives_tiny_caches(source):
    """Eviction rounds must discard pygen-tier blocks as safely as
    closure-tier ones (same transtab path, same chain severing)."""
    img = assemble(source, filename="rand")
    ref_ts, ref_data, data_seg = ref_run(img)
    res = run_tool(
        "none",
        img,
        options=perf_options(
            codegen="pygen",
            transtab_entries=48, dispatch_cache_size=16
        ),
    )
    _assert_matches_ref(res, ref_ts, ref_data, data_seg, "pygen-tiny-caches")


def test_differential_example_budget():
    """The harness above covers >= 200 random programs per full run."""
    budget = 110 + 50  # examples per @given above
    # test_differential.py adds 60 + 20 through the same generator.
    assert budget + 80 >= 200


# ---------------------------------------------------------------------------
# Eviction / invalidation regressions.
# ---------------------------------------------------------------------------

CALL_HEAVY_SRC = """
        .text
main:   movi r6, 400
        movi r7, 0
loop:   mov  r0, r6
        call fn1
        add  r7, r0
        call fn2
        add  r7, r0
        call fn3
        add  r7, r0
        dec  r6
        jnz  loop
        push r7
        call putint
        addi sp, 4
        movi r0, 0
        ret
fn1:    addi r0, 3
        ret
fn2:    movi r0, 2
        mul  r0, r6
        ret
fn3:    mov  r0, r6
        andi r0, 15
        ret
"""


@pytest.mark.parametrize("codegen", ["closures", "pygen", "traces"])
def test_fifo_eviction_with_live_chains_matches_native(codegen):
    nat = native(CALL_HEAVY_SRC)
    res = vg(
        CALL_HEAVY_SRC,
        options=perf_options(codegen=codegen, trace_threshold=3,
                             transtab_entries=12, dispatch_cache_size=16),
    )
    assert res.stdout == nat.stdout
    assert res.exit_code == nat.exit_code
    tab = res.core.scheduler.transtab
    assert tab.stats.evict_rounds > 0, "fixture too large to force eviction"
    assert tab.chains.links_severed > 0, "eviction never cut a live chain"
    # Whatever the churn, no stored translation may hold a link to a dead
    # one, and no dead translation may still be linked from anywhere.
    for t in tab.all_translations():
        for slot in ("chain_next", "chain_call", "chain_ret"):
            succ = getattr(t, slot)
            assert succ is None or not succ.dead, (slot, hex(t.guest_addr))


# ---------------------------------------------------------------------------
# The one loop's chaining policy.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("codegen", ["closures", "pygen", "traces"])
def test_chaining_off_touches_no_chain_slot(codegen):
    """The paper loop (chaining off) neither fills nor follows a link,
    whichever tier the blocks run in: every transfer is a look-up."""
    res = vg(CALL_HEAVY_SRC,
             options=perf_options(codegen=codegen, chaining=False,
                                  trace_threshold=3))
    assert res.stdout == native(CALL_HEAVY_SRC).stdout
    tab = res.core.scheduler.transtab
    for t in tab.all_translations():
        for slot in CHAIN_SLOTS:
            assert getattr(t, slot) is None, (slot, hex(t.guest_addr))
    assert tab.chains.links_made == 0 and len(tab.chains) == 0
    assert res.core.scheduler.dispatcher.stats.chained == 0


@pytest.mark.parametrize("codegen", ["closures", "pygen", "traces"])
def test_every_link_goes_through_the_registry(codegen):
    """With chaining on, every filled slot is a chain-registry record, so
    eviction, munmap and SMC flushes can sever it."""
    res = vg(CALL_HEAVY_SRC,
             options=perf_options(codegen=codegen, trace_threshold=3))
    assert res.stdout == native(CALL_HEAVY_SRC).stdout
    tab = res.core.scheduler.transtab
    assert tab.stats.evict_rounds == 0 and tab.stats.discarded == 0
    filled = [(t, slot) for t in tab.all_translations()
              for slot in CHAIN_SLOTS if getattr(t, slot) is not None]
    assert filled
    # Nothing died, so every link ever made is still live: one registry
    # record per filled slot, and no slot filled behind its back.
    assert tab.chains.links_made == len(tab.chains) == len(filled)
    # Severing every block cuts each link exactly once.
    for t in tab.all_translations():
        tab.chains.sever(t)
    assert len(tab.chains) == 0
    assert tab.chains.links_severed == len(filled)


#: Polymorphic indirect calls: the loop's Call slot is linked to the first
#: target only, so the other three reach their callees by look-up.
POLY_SRC = """
        .text
main:   movi r6, 2000
        movi r7, 0
loop:   mov  r0, r6
        andi r0, 3
        shl  r0, 2
        ld   r1, [table+r0]
        call r1
        add  r7, r0
        dec  r6
        jnz  loop
        push r7
        call putint
        addi sp, 4
        movi r0, 0
        ret
g0:     movi r0, 1
        ret
g1:     movi r0, 2
        ret
g2:     movi r0, 3
        ret
g3:     movi r0, 4
        ret
        .data
table:  .word g0
        .word g1
        .word g2
        .word g3
"""


def test_each_slot_is_linked_at_most_once(monkeypatch):
    made = collections.Counter()
    keep = []  # hold predecessors so their ids stay unique
    real_chain = TranslationTable.chain

    def counting_chain(self, pred, slot, succ):
        made[(id(pred), slot)] += 1
        keep.append(pred)
        real_chain(self, pred, slot, succ)

    monkeypatch.setattr(TranslationTable, "chain", counting_chain)
    res = vg(POLY_SRC, options=perf_options())
    assert res.stdout.strip() == "5000"
    assert made and max(made.values()) == 1
    tab = res.core.scheduler.transtab
    assert tab.chains.links_made == sum(made.values())
    assert res.core.scheduler.dispatcher.stats.chained > 0


def test_closure_blocks_compile_once_in_chained_loop(monkeypatch):
    """Closure-tier blocks run as the paper loop runs them: compiled to
    a closure list on first execution, then run directly however they
    are reached."""
    compiled = []
    real_compile = HostCPU.compile

    def counting_compile(self, code):
        compiled.append(code)
        return real_compile(self, code)

    monkeypatch.setattr(HostCPU, "compile", counting_compile)
    res = vg(CALL_HEAVY_SRC, options=perf_options(codegen="closures"))
    assert res.stdout == native(CALL_HEAVY_SRC).stdout
    sched = res.core.scheduler
    assert len(compiled) == sched.translator.translations_made
    assert sched.dispatcher.stats.chained > 0
    assert sched.dispatcher.stats.blocks_executed > len(compiled)
    for t in sched.transtab.all_translations():
        assert t.compiled is not None and t.compiled_fn is None


def test_call_ret_chains_are_used():
    res = vg(CALL_HEAVY_SRC, options=perf_options())
    tab = res.core.scheduler.transtab
    linked_slots = set()
    for t in tab.all_translations():
        for slot in ("chain_next", "chain_call", "chain_ret"):
            if getattr(t, slot) is not None:
                linked_slots.add(slot)
    assert linked_slots == {"chain_next", "chain_call", "chain_ret"}
    assert res.core.scheduler.dispatcher.stats.chained > 0


@pytest.mark.parametrize("codegen", ["closures", "pygen", "traces"])
def test_smc_discard_mid_run_under_perf(codegen):
    """Rewriting already-translated code must discard the old translation,
    sever its chains, and never execute the stale compiled runner —
    whichever codegen tier the stale block was in."""
    src = """
        .text
main:   movi r0, 7          ; mmap(0, 4096, rwx)
        movi r1, 0
        movi r2, 4096
        movi r3, 7
        syscall
        mov  r6, r0
        ; write a tiny function: movi r0, 5 ; ret
        movi r1, 0x11
        stb  [r6], r1
        movi r1, 0
        stb  [r6+1], r1
        sti  [r6+2], 5
        movi r1, 3
        stb  [r6+6], r1
        call r6
        push r0
        call putint
        addi sp, 4
        ; now patch the immediate: the same address must return 9
        sti  [r6+2], 9
        call r6
        push r0
        call putint
        addi sp, 4
        movi r0, 0
        ret
"""
    res = vg(src, options=perf_options(smc_check="all", codegen=codegen))
    assert res.stdout.split() == ["5", "9"]
    sched = res.core.scheduler
    assert sched.transtab.stats.discarded >= 1
    assert sched.dispatcher.stats.smc_flushes >= 1


def test_munmap_discard_under_perf(run_both):
    src = """
        .text
main:   movi r0, 7
        movi r1, 0
        movi r2, 4096
        movi r3, 7
        syscall
        mov  r6, r0
        movi r1, 0x11
        stb  [r6], r1
        movi r1, 0
        stb  [r6+1], r1
        sti  [r6+2], 5
        movi r1, 3
        stb  [r6+6], r1
        call r6
        push r0
        call putint
        addi sp, 4
        movi r0, 8
        mov  r1, r6
        movi r2, 4096
        syscall
        movi r0, 0
        ret
"""
    nat = native(src)
    res = vg(src, options=perf_options())
    assert res.stdout == nat.stdout == "5\n"
    assert res.core.scheduler.transtab.stats.discarded >= 1


# ---------------------------------------------------------------------------
# Unit: chain registry and table integration.
# ---------------------------------------------------------------------------


def _mk(addr: int, code: bytes = b"") -> Translation:
    return Translation(guest_addr=addr, code=code, ranges=((addr, 8),))


class TestChainRegistry:
    def test_link_sets_slot_and_counts(self):
        reg = ChainRegistry()
        a, b = _mk(0x100), _mk(0x200)
        reg.link(a, "chain_next", b)
        assert a.chain_next is b
        assert reg.links_made == 1 and len(reg) == 1

    def test_relink_replaces_old_target(self):
        reg = ChainRegistry()
        a, b, c = _mk(0x100), _mk(0x200), _mk(0x300)
        reg.link(a, "chain_next", b)
        reg.link(a, "chain_next", c)
        assert a.chain_next is c
        assert len(reg) == 1  # the a->b record is gone
        reg.sever(b)  # must be a no-op for a's slot now
        assert a.chain_next is c

    def test_link_same_target_is_noop(self):
        reg = ChainRegistry()
        a, b = _mk(0x100), _mk(0x200)
        reg.link(a, "chain_next", b)
        reg.link(a, "chain_next", b)
        assert reg.links_made == 1 and len(reg) == 1

    def test_sever_cuts_incoming_and_outgoing(self):
        reg = ChainRegistry()
        a, b, c = _mk(0x100), _mk(0x200), _mk(0x300)
        reg.link(a, "chain_next", b)   # incoming to b
        reg.link(b, "chain_call", c)   # outgoing from b
        reg.sever(b)
        assert a.chain_next is None
        assert b.chain_call is None
        assert reg.links_severed == 2
        assert len(reg) == 0

    def test_identity_not_equality(self):
        """Two field-equal Translations must be tracked separately
        (Translation is a dataclass: == is field-wise)."""
        reg = ChainRegistry()
        a1, a2, b = _mk(0x100), _mk(0x100), _mk(0x200)
        assert a1 == a2 and a1 is not a2
        reg.link(a1, "chain_next", b)
        reg.link(a2, "chain_next", b)
        reg.sever(b)
        assert a1.chain_next is None and a2.chain_next is None
        assert reg.links_severed == 2


class TestTableChainIntegration:
    def test_eviction_severs_links(self):
        tab = TranslationTable(entries=8)
        ts = [_mk(0x1000 + 8 * i) for i in range(8)]
        for t in ts:
            tab.insert(t)
        # Chain the first two oldest together; the next insert evicts them.
        tab.chain(ts[0], "chain_next", ts[1])
        tab.chain(ts[1], "chain_ret", ts[0])
        tab.insert(_mk(0x9000))
        assert ts[0].dead and ts[0].chain_next is None
        assert ts[1].chain_ret is None
        assert tab.chains.links_severed >= 2

    def test_replace_same_address_kills_old(self):
        tab = TranslationTable(entries=8)
        old, other = _mk(0x1000), _mk(0x2000)
        tab.insert(old)
        tab.insert(other)
        tab.chain(other, "chain_next", old)
        tab.insert(_mk(0x1000))  # same guest address: replaces
        assert old.dead
        assert other.chain_next is None

    def test_discard_severs(self):
        tab = TranslationTable(entries=8)
        a, b = _mk(0x1000), _mk(0x2000)
        tab.insert(a)
        tab.insert(b)
        tab.chain(a, "chain_next", b)
        assert tab.discard(0x2000)
        assert a.chain_next is None and b.dead

    def test_insert_time_compiler_runs_eagerly(self):
        compiled = []
        tab = TranslationTable(entries=8)
        tab.set_compiler(lambda t: compiled.append(t) or setattr(
            t, "compiled_fn", lambda ts: ("Boring", 0)))
        t = _mk(0x1000)
        tab.insert(t)
        assert compiled == [t]
        assert t.compiled_fn is not None
        tab.insert(t)  # already compiled: not recompiled
        assert compiled == [t]


# ---------------------------------------------------------------------------
# Unit: the inline op templates.
# ---------------------------------------------------------------------------


def test_op_inline_templates_match_op_table():
    """Every inline expression the pygen emitter may emit must agree
    with the registered semantic function on random and edge inputs."""
    rng = random.Random(1234)
    for name, tmpl in sorted(OP_INLINE.items()):
        op = get_op(name)
        cases = []
        for _ in range(64):
            cases.append([rng.randrange(1 << t.bits) for t in op.args])
        edges = [0, 1]
        for t in op.args:
            edges += [(1 << t.bits) - 1, 1 << (t.bits - 1)]
        for v in edges:
            cases.append([min(v, (1 << t.bits) - 1) for t in op.args])
        for vals in cases:
            env = dict(zip("ab", vals))
            expr = tmpl.format(a="a", b="b") if len(vals) > 1 else tmpl.format(a="a")
            got = eval(expr, {}, env)
            assert int(got) == int(op.apply(*vals)), (name, vals)
