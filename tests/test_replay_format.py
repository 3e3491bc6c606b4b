"""Record/replay log format: round-trips, stability, corruption rejection.

The log is the crash-triage artifact — it must be byte-stable (the same
recording always serializes to the same bytes), self-validating (magic,
version, content hash), and loud about contract mismatches.  The
determinism audit at the bottom is the leak detector: two records of the
same run must produce byte-identical logs, including across interpreter
processes with different hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options, run_tool
from repro.core.replay import (
    FORMAT_VERSION,
    MAGIC,
    Event,
    EventLog,
    ReplayDivergence,
    ReplayFormatError,
    build_contract,
    check_contract,
    pack_obj,
    read_uvarint,
    unpack_obj,
    write_uvarint,
)

from .helpers import asm_image

# ---------------------------------------------------------------------------
# varints and the canonical object packer
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**64))
def test_uvarint_round_trip(n):
    buf = bytearray()
    write_uvarint(buf, n)
    m, pos = read_uvarint(bytes(buf), 0)
    assert m == n
    assert pos == len(buf)


def test_uvarint_rejects_negative_and_truncated():
    with pytest.raises(ValueError):
        write_uvarint(bytearray(), -1)
    buf = bytearray()
    write_uvarint(buf, 300)
    with pytest.raises(ReplayFormatError):
        read_uvarint(bytes(buf[:1]), 0)


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_obj = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


@given(_obj)
def test_pack_obj_round_trip(obj):
    packed = pack_obj(obj)
    out = unpack_obj(packed)

    def norm(x):
        if isinstance(x, tuple):
            return [norm(i) for i in x]
        if isinstance(x, list):
            return [norm(i) for i in x]
        if isinstance(x, dict):
            return {k: norm(v) for k, v in x.items()}
        return x

    assert norm(out) == norm(obj)
    # Byte-stability: re-packing the unpacked value is identical.
    assert pack_obj(out) == packed


def test_pack_obj_rejects_unknown_types_and_trailing_bytes():
    with pytest.raises(TypeError):
        pack_obj(object())
    with pytest.raises(ReplayFormatError):
        unpack_obj(pack_obj(1) + b"x")
    with pytest.raises(ReplayFormatError):
        unpack_obj(b"")


# ---------------------------------------------------------------------------
# EventLog wire format
# ---------------------------------------------------------------------------

_events = st.lists(
    st.builds(
        Event,
        kind=st.integers(1, 9),
        tid=st.integers(0, 1000),
        insns=st.integers(0, 2**48),
        args=st.tuples() | st.tuples(st.integers(0, 2**32))
        | st.tuples(*(st.integers(0, 2**32) for _ in range(4))),
        blob=st.binary(max_size=48),
    ),
    max_size=30,
)
_meta = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=12), st.booleans(),
              st.none()),
    max_size=6,
)


@given(meta=_meta, events=_events,
       checkpoints=st.lists(st.binary(min_size=1, max_size=200), max_size=3))
@settings(deadline=None)
def test_event_log_round_trip_and_stability(meta, events, checkpoints):
    log = EventLog(meta)
    for ev in events:
        log.append(ev)
    log.checkpoints.extend(checkpoints)
    data = log.to_bytes()
    loaded = EventLog.from_bytes(data)
    assert loaded.meta == meta
    assert loaded.events == events
    assert loaded.checkpoints == checkpoints
    # Stable re-serialization: load → save → identical bytes.
    assert loaded.to_bytes() == data


def _sample_log() -> EventLog:
    log = EventLog({"contract": {"tool": "none"}})
    log.append(Event(1, 1, 0))
    log.append(Event(2, 1, 10, (3, 0, 0, 2)))
    log.append(Event(9, 1, 20, (0, 0, 0, 4, 4, 0, 0)))
    return log


def test_bad_magic_rejected():
    data = _sample_log().to_bytes()
    with pytest.raises(ReplayFormatError, match="not a record/replay log"):
        EventLog.from_bytes(b"NOPE" + data[len(MAGIC):])
    with pytest.raises(ReplayFormatError, match="too short"):
        EventLog.from_bytes(b"RR")


def test_version_mismatch_rejected():
    import struct

    data = bytearray(_sample_log().to_bytes())
    struct.pack_into("<H", data, len(MAGIC), FORMAT_VERSION + 1)
    with pytest.raises(ReplayFormatError, match="format version"):
        EventLog.from_bytes(bytes(data))


def test_content_hash_tamper_rejected():
    data = bytearray(_sample_log().to_bytes())
    data[-1] ^= 0x01  # flip a bit in the body
    with pytest.raises(ReplayFormatError, match="content hash mismatch"):
        EventLog.from_bytes(bytes(data))


def test_truncated_body_rejected():
    data = _sample_log().to_bytes()
    # Truncation invalidates the hash first; both paths are format errors.
    with pytest.raises(ReplayFormatError):
        EventLog.from_bytes(data[: len(data) - 4])


def test_load_missing_file_is_format_error(tmp_path):
    with pytest.raises(ReplayFormatError, match="cannot read log"):
        EventLog.load(str(tmp_path / "nope.rrlog"))


# ---------------------------------------------------------------------------
# the record/replay contract
# ---------------------------------------------------------------------------


def test_contract_ignores_codegen_but_not_quantum():
    a = build_contract(Options(codegen="closures", chaining=False), "none")
    b = build_contract(Options(codegen="pygen", chaining=True), "none")
    check_contract(a, b)  # tier changes are fine
    c = build_contract(Options(dispatch_quantum=17), "none")
    with pytest.raises(ReplayFormatError, match="dispatch_quantum"):
        check_contract(a, c)


def test_contract_mismatch_rejected_end_to_end(tmp_path):
    src = """
        .text
main:   movi r0, 5
        ret
"""
    img = asm_image(src)
    log = str(tmp_path / "run.rrlog")
    run_tool("none", img, options=Options(log_target="capture", record=log))
    with pytest.raises(ReplayFormatError, match="incompatible"):
        run_tool("none", img,
                 options=Options(log_target="capture", replay=log,
                                 thread_timeslice=123))


# ---------------------------------------------------------------------------
# real logs: byte-stable round trip + divergence reporting
# ---------------------------------------------------------------------------

_LOOP_SRC = """
        .text
main:   movi r0, 0
        movi r1, 0
loop:   add  r0, r1
        inc  r1
        cmp  r1, 300
        jnz  loop
        andi r0, 255
        ret
"""


def test_recorded_log_reserializes_byte_identically(tmp_path):
    img = asm_image(_LOOP_SRC)
    log_path = str(tmp_path / "run.rrlog")
    run_tool("none", img,
             options=Options(log_target="capture", record=log_path,
                             checkpoint_every=400))
    raw = open(log_path, "rb").read()
    assert EventLog.from_bytes(raw).to_bytes() == raw


def test_recorded_engine_is_outside_the_contract(tmp_path):
    # The ``recorded`` block names the engine a log was made under —
    # codegen tier and chaining — but replay never checks it: a chained
    # pygen recording replays under the paper loop's closure tier.
    img = asm_image(_LOOP_SRC)
    log_path = str(tmp_path / "run.rrlog")
    rec = run_tool("none", img,
                   options=Options(log_target="capture", record=log_path,
                                   codegen="pygen", chaining=True))
    recorded = EventLog.load(log_path).meta["recorded"]
    assert recorded["codegen"] == "pygen"
    assert recorded["chaining"] is True
    assert "perf" not in recorded
    rep = run_tool("none", img,
                   options=Options(log_target="capture", replay=log_path,
                                   codegen="closures", chaining=False))
    assert (rep.exit_code, rep.stdout) == (rec.exit_code, rec.stdout)
    assert rep.stats()["replay"]["divergences"] == 0


def test_divergence_reports_event_index_and_pc(tmp_path):
    img = asm_image(_LOOP_SRC)
    log_path = str(tmp_path / "run.rrlog")
    run_tool("none", img, options=Options(log_target="capture",
                                          record=log_path))
    other = asm_image("""
        .text
main:   movi r0, 9
        ret
""")
    with pytest.raises(ReplayDivergence) as exc_info:
        run_tool("none", other,
                 options=Options(log_target="capture", replay=log_path))
    msg = str(exc_info.value)
    assert "event #" in msg
    assert "pc=" in msg
    assert "guest_insns=" in msg
    assert exc_info.value.index >= 0


# ---------------------------------------------------------------------------
# determinism audit (nondeterminism-leak detector)
# ---------------------------------------------------------------------------

_AUDIT_SRC = """
        .text
main:   movi  r0, 11          ; sigaction(SIGALRM, handler)
        movi  r1, 14
        movi  r2, handler
        syscall
        movi  r0, 13          ; alarm(200)
        movi  r1, 200
        syscall
        movi  r0, 14          ; thread_create(worker, 0, 5)
        movi  r1, worker
        movi  r2, 0
        movi  r3, 5
        syscall
        mov   r6, r0
        movi  r2, 0
        movi  r3, 700
mloop:  add   r2, r3
        dec   r3
        jnz   mloop
        mov   r1, r6
        movi  r0, 16          ; join
        syscall
        add   r0, r2
        ld    r1, [hits]
        add   r0, r1
        andi  r0, 255
        ret
worker: ld    r1, [sp+4]
        movi  r2, 0
wl:     add   r2, r1
        dec   r1
        jnz   wl
        mov   r1, r2
        movi  r0, 15          ; thread_exit
        syscall
handler:
        ld    r1, [hits]
        inc   r1
        st    [hits], r1
        movi  r0, 13          ; re-arm alarm(250)
        movi  r1, 250
        syscall
        ret
.data
hits:   .word 0
"""


def _record_bytes(tmp_dir: str, **opt_kw) -> bytes:
    img = asm_image(_AUDIT_SRC)
    path = os.path.join(tmp_dir, "audit.rrlog")
    run_tool("none", img,
             options=Options(log_target="capture", record=path,
                             thread_timeslice=300, **opt_kw))
    with open(path, "rb") as f:
        return f.read()


def test_double_record_is_byte_identical(tmp_path):
    """Two records of the same threaded/signalling run in one process
    produce byte-identical logs — any divergence is a nondeterminism
    leak in the engine itself."""
    a = _record_bytes(str(tmp_path))
    b = _record_bytes(str(tmp_path))
    assert a == b


def test_double_record_with_checkpoints_is_byte_identical(tmp_path):
    a = _record_bytes(str(tmp_path), checkpoint_every=500)
    b = _record_bytes(str(tmp_path), checkpoint_every=500)
    assert a == b


def test_record_is_stable_across_hash_seeds(tmp_path):
    """Recordings from separate interpreter processes with different
    PYTHONHASHSEED values are byte-identical: nothing in the engine may
    depend on dict/set iteration order seeded by the process hash."""
    prog = tmp_path / "audit.s"
    prog.write_text(_AUDIT_SRC)
    logs = []
    codes = []
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for seed in ("0", "1"):
        out = str(tmp_path / f"seed{seed}.rrlog")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.abspath(src_dir))
        env.pop("REPRO_ENGINE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--tool=none",
             f"--record={out}", "--thread-timeslice=300",
             "--checkpoint-every=700", str(prog)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode not in (2, 97), proc.stderr
        codes.append(proc.returncode)
        with open(out, "rb") as f:
            logs.append(f.read())
    assert codes[0] == codes[1]
    assert logs[0] == logs[1]
