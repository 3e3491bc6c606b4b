"""S5.4b — heavyweight shadow-value tools: speed vs robustness.

Paper: TaintTrace (5.5x) and LIFT (3.5x) are much *faster* than Memcheck
(22x) — "partly because they are doing a simpler analysis...  More
importantly, they are faster because they are less robust and have more
limited instrumentation capabilities": neither handles FP or SIMD code,
neither handles threads, and the C&A frameworks they sit on give no
shadow registers or events system.

We reproduce both halves:

* speed: the C&A taint tool is faster than the D&R taint tool, which is
  faster than Memcheck (simpler analysis < byte taint < bit definedness);
* robustness: on a workload that launders tainted data through FP code,
  the D&R tool still flags the tainted jump; the C&A tool silently loses
  it (a false negative) while its unhandled-FP counter shows why.
"""

import time

from repro import Options, assemble, build_source, run_native, run_tool
from repro.baseline.ca_tools import CATaint
from repro.baseline.framework import CARunner
from repro.workloads.suite import build

from conftest import SCALE, geomean, save_and_show

PROGRAMS = ("gzip", "mcf", "parser")

FP_LAUNDER = """
        .text
main:   movi r0, 2           ; read(0, buf, 4): tainted input
        movi r1, 0
        movi r2, buf
        movi r3, 4
        syscall
        ld   r1, [buf]
        andi r1, 3
        ficvt f0, r1         ; taint flows through the FP unit...
        fcvti r1, f0
        addi r1, t0
        jmp  r1              ; ...into a control transfer
t0:     movi r0, 0
        ret
        .data
buf:    .word 0
"""


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_ca_taint(image, stdin=b""):
    tool = CATaint()
    runner = CARunner(image, tool, stdin=stdin)
    orig = runner.kernel.syscall

    def tainting(engine, tid, num, a1, a2, a3):
        r = orig(engine, tid, num, a1, a2, a3)
        if num == 2 and isinstance(r, int) and r > 0:
            tool.taint_range(a2, r)
        return r

    runner.kernel.syscall = tainting
    runner.run()
    return tool


def test_heavyweight_comparison(benchmark, capsys):
    def sweep():
        rows = []
        for name in PROGRAMS:
            wl = build(name, scale=SCALE)
            t_nat = _time(lambda: run_native(wl.image))
            rows.append({
                "name": name,
                "ca-taint": _time(lambda: _run_ca_taint(wl.image)) / t_nat,
                "dr-taint": _time(
                    lambda: run_tool("taintcheck", wl.image,
                                     options=Options(log_target="capture"))
                ) / t_nat,
                "memcheck": _time(
                    lambda: run_tool("memcheck", wl.image,
                                     options=Options(log_target="capture"))
                ) / t_nat,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    cols = ("ca-taint", "dr-taint", "memcheck")
    gm = {c: geomean([r[c] for r in rows]) for c in cols}

    lines = [
        "Section 5.4: heavyweight shadow-value tools (slow-down vs native)",
        "",
        f"{'program':8s}" + "".join(f"{c:>10}" for c in cols),
    ]
    for r in rows:
        lines.append(f"{r['name']:8s}" + "".join(f"{r[c]:>10.1f}" for c in cols))
    lines.append(f"{'geomean':8s}" + "".join(f"{gm[c]:>10.1f}" for c in cols))
    lines += [
        "",
        "(paper: TaintTrace 5.5x / LIFT 3.5x  <  Memcheck 22x — the fast",
        " tools are fast because they do less and handle less)",
        "",
        "robustness half — taint laundered through FP code:",
    ]

    image = assemble(build_source(FP_LAUNDER), filename="launder")
    dr = run_tool("taintcheck", image,
                  options=Options(log_target="capture"), stdin=b"\0\0\0\0")
    ca = _run_ca_taint(image, stdin=b"\0\0\0\0")
    lines += [
        f"  D&R taintcheck: {len(dr.errors)} tainted-jump alert(s)  "
        "(shadow FP registers just work)",
        f"  C&A taint tool: {ca.tainted_jumps} alert(s), "
        f"{ca.unhandled_fp_simd} unhandled FP/SIMD instruction(s)  "
        "(false negative, like TaintTrace/LIFT)",
    ]

    # -- shape checks --------------------------------------------------------------
    assert gm["ca-taint"] < gm["dr-taint"] < gm["memcheck"]
    assert len(dr.errors) == 1
    assert ca.tainted_jumps == 0 and ca.unhandled_fp_simd > 0

    save_and_show(capsys, "heavyweight", lines)
