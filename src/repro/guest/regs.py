"""vx32 guest register model and ThreadState layout.

The ThreadState is a per-thread block of memory holding all guest and
shadow registers between code blocks (Section 3.4 of the paper).  The
layout deliberately mirrors the offsets visible in the paper's figures:

* integer register *i* lives at byte offset ``4*i`` (so ``r3`` is at 12,
  just as ``%ebx`` is at 12 in Figure 1),
* the four condition-code thunk values live at 32, 36, 40 and 44
  (Figure 1's "eflags val1..val4"),
* the program counter lives at 60 (Figure 1's ``%eip``),
* the *shadow* of the register at offset X lives at X + 320 (Figure 2's
  ``sh(%eax)`` at 320 and ``sh(%ebx)`` at 332).
"""

from __future__ import annotations

# -- integer registers -------------------------------------------------------

NUM_GPRS = 8

#: Canonical GPR names.  r4 is the stack pointer and r5 the frame pointer by
#: software convention (the hardware only distinguishes r4, which push/pop,
#: call and ret use implicitly).
GPR_NAMES = ("r0", "r1", "r2", "r3", "sp", "fp", "r6", "r7")

#: Aliases accepted by the assembler.
GPR_ALIASES = {name: i for i, name in enumerate(GPR_NAMES)}
GPR_ALIASES["r4"] = 4
GPR_ALIASES["r5"] = 5

SP = 4
FP = 5

NUM_FREGS = 8
FREG_NAMES = tuple(f"f{i}" for i in range(NUM_FREGS))

NUM_VREGS = 8
VREG_NAMES = tuple(f"v{i}" for i in range(NUM_VREGS))

# -- ThreadState offsets -----------------------------------------------------


def gpr_offset(i: int) -> int:
    """ThreadState offset of integer register *i*."""
    if not 0 <= i < NUM_GPRS:
        raise ValueError(f"bad GPR index {i}")
    return 4 * i


OFFSET_CC_OP = 32
OFFSET_CC_DEP1 = 36
OFFSET_CC_DEP2 = 40
OFFSET_CC_NDEP = 44
#: Emulation-note slot (unused flag bits, emulation warnings).
OFFSET_EMNOTE = 48
#: Address of the instruction that raised the current syscall/trap.
OFFSET_IP_AT_SYSCALL = 52
#: Scratch slot used by client requests.
OFFSET_CLREQ_ARGS = 56
OFFSET_PC = 60


def freg_offset(i: int) -> int:
    """ThreadState offset of F64 register *i*."""
    if not 0 <= i < NUM_FREGS:
        raise ValueError(f"bad FP register index {i}")
    return 64 + 8 * i


def vreg_offset(i: int) -> int:
    """ThreadState offset of V128 register *i*."""
    if not 0 <= i < NUM_VREGS:
        raise ValueError(f"bad SIMD register index {i}")
    return 128 + 16 * i


#: First byte past the architected guest state.
GUEST_STATE_SIZE = 320

#: Shadow state: shadow of guest offset X is at X + SHADOW_OFFSET.
SHADOW_OFFSET = 320

#: Total ThreadState size: guest state plus one full shadow of it.
THREADSTATE_SIZE = GUEST_STATE_SIZE + SHADOW_OFFSET

#: The JIT back-end spills host registers into a per-thread area just past
#: the shadow state (16-byte slots, so V128 values spill too).
SPILL_AREA_BASE = THREADSTATE_SIZE
SPILL_SLOT_SIZE = 16
NUM_SPILL_SLOTS = 512
SPILL_AREA_SIZE = SPILL_SLOT_SIZE * NUM_SPILL_SLOTS

#: Frame area the generated call sequences save caller-saved registers to.
CALL_SAVE_BASE = THREADSTATE_SIZE + SPILL_AREA_SIZE
CALL_SAVE_SIZE = 128

#: Full size of a ThreadState allocation, including spill and call-save areas.
TOTAL_STATE_SIZE = THREADSTATE_SIZE + SPILL_AREA_SIZE + CALL_SAVE_SIZE


def shadow(offset: int) -> int:
    """Shadow-state offset for the guest-state byte offset *offset*."""
    if not 0 <= offset < GUEST_STATE_SIZE:
        raise ValueError(f"offset {offset} outside guest state")
    return offset + SHADOW_OFFSET


#: ThreadState offsets (offset, size, name) of all architected registers,
#: used by tools and by the differential-testing harness.
def architected_slots():
    slots = [(gpr_offset(i), 4, GPR_NAMES[i]) for i in range(NUM_GPRS)]
    slots.append((OFFSET_PC, 4, "pc"))
    slots += [(freg_offset(i), 8, FREG_NAMES[i]) for i in range(NUM_FREGS)]
    slots += [(vreg_offset(i), 16, VREG_NAMES[i]) for i in range(NUM_VREGS)]
    return slots


# -- condition-code thunk ----------------------------------------------------

# The thunk describes how to (re)compute the flags from the most recent
# flag-setting operation: CC_OP says which operation, CC_DEP1/CC_DEP2 its
# operands (or its result, for LOGIC), CC_NDEP any extra state.  Flags are
# only materialised when a conditional branch or setcc needs them.

CC_OP_COPY = 0   # DEP1 holds the flags themselves
CC_OP_ADD = 1    # DEP1 + DEP2
CC_OP_SUB = 2    # DEP1 - DEP2
CC_OP_LOGIC = 3  # DEP1 is the result; C=O=0
CC_OP_SHL = 4    # DEP1 result, DEP2 last bit shifted out
CC_OP_SHR = 5    # DEP1 result, DEP2 last bit shifted out
CC_OP_INC = 6    # DEP1 result; C preserved in NDEP
CC_OP_DEC = 7    # DEP1 result; C preserved in NDEP
CC_OP_MUL = 8    # DEP1, DEP2 operands; C=O=(full result != widened result)

CC_OP_NAMES = {
    CC_OP_COPY: "COPY",
    CC_OP_ADD: "ADD",
    CC_OP_SUB: "SUB",
    CC_OP_LOGIC: "LOGIC",
    CC_OP_SHL: "SHL",
    CC_OP_SHR: "SHR",
    CC_OP_INC: "INC",
    CC_OP_DEC: "DEC",
    CC_OP_MUL: "MUL",
}

# Flag bits within a materialised flags word.
FLAG_C = 0x1
FLAG_Z = 0x2
FLAG_S = 0x4
FLAG_O = 0x8

# Condition codes for jcc/setcc, in pairs (cond, negation = cond ^ 1).
COND_Z = 0x0    # equal / zero
COND_NZ = 0x1
COND_B = 0x2    # below (unsigned <)
COND_NB = 0x3
COND_BE = 0x4   # below or equal (unsigned <=)
COND_NBE = 0x5
COND_S = 0x6    # negative
COND_NS = 0x7
COND_L = 0x8    # less (signed <)
COND_NL = 0x9
COND_LE = 0xA   # less or equal (signed <=)
COND_NLE = 0xB
COND_O = 0xC    # overflow
COND_NO = 0xD

COND_NAMES = {
    COND_Z: "z",
    COND_NZ: "nz",
    COND_B: "b",
    COND_NB: "nb",
    COND_BE: "be",
    COND_NBE: "nbe",
    COND_S: "s",
    COND_NS: "ns",
    COND_L: "l",
    COND_NL: "nl",
    COND_LE: "le",
    COND_NLE: "nle",
    COND_O: "o",
    COND_NO: "no",
}

#: Suffixes accepted in assembly for conditional instructions, with synonyms.
COND_BY_NAME = {name: code for code, name in COND_NAMES.items()}
COND_BY_NAME.update(
    {
        "e": COND_Z,
        "ne": COND_NZ,
        "lt": COND_L,
        "ge": COND_NL,
        "le": COND_LE,
        "gt": COND_NLE,
        "ltu": COND_B,
        "geu": COND_NB,
        "leu": COND_BE,
        "gtu": COND_NBE,
    }
)


def calculate_flags(cc_op: int, dep1: int, dep2: int, ndep: int) -> int:
    """Materialise the C/Z/S/O flags word from a condition-code thunk.

    This is the reference semantics; the disassembler exposes it to IR as
    the clean helper ``vx32g_calculate_flags`` and the optimiser knows how
    to partially evaluate it (Section 3.7, Phase 2).
    """
    M32 = 0xFFFFFFFF
    TOP = 0x80000000
    if cc_op == CC_OP_COPY:
        return dep1 & (FLAG_C | FLAG_Z | FLAG_S | FLAG_O)
    if cc_op == CC_OP_ADD:
        res = (dep1 + dep2) & M32
        c = int(res < dep1)
        o = int(bool((~(dep1 ^ dep2)) & (dep1 ^ res) & TOP))
    elif cc_op == CC_OP_SUB:
        res = (dep1 - dep2) & M32
        c = int(dep1 < dep2)
        o = int(bool((dep1 ^ dep2) & (dep1 ^ res) & TOP))
    elif cc_op == CC_OP_LOGIC:
        res = dep1 & M32
        c = 0
        o = 0
    elif cc_op in (CC_OP_SHL, CC_OP_SHR):
        res = dep1 & M32
        c = dep2 & 1
        o = 0
    elif cc_op == CC_OP_INC:
        res = dep1 & M32
        c = ndep & FLAG_C
        o = int(res == TOP)
    elif cc_op == CC_OP_DEC:
        res = dep1 & M32
        c = ndep & FLAG_C
        o = int(res == TOP - 1)
    elif cc_op == CC_OP_MUL:
        full = dep1 * dep2
        res = full & M32
        c = o = int(full != res)
    else:
        raise ValueError(f"bad CC_OP {cc_op}")
    flags = 0
    if c:
        flags |= FLAG_C
    if res == 0:
        flags |= FLAG_Z
    if res & TOP:
        flags |= FLAG_S
    if o:
        flags |= FLAG_O
    return flags


def evaluate_cond(cond: int, flags: int) -> int:
    """Evaluate condition code *cond* against a materialised flags word."""
    c = bool(flags & FLAG_C)
    z = bool(flags & FLAG_Z)
    s = bool(flags & FLAG_S)
    o = bool(flags & FLAG_O)
    base = cond & ~1
    if base == COND_Z:
        r = z
    elif base == COND_B:
        r = c
    elif base == COND_BE:
        r = c or z
    elif base == COND_S:
        r = s
    elif base == COND_L:
        r = s != o
    elif base == COND_LE:
        r = z or (s != o)
    elif base == COND_O:
        r = o
    else:
        raise ValueError(f"bad condition {cond}")
    if cond & 1:
        r = not r
    return int(r)
