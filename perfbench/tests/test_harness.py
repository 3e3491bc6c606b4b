"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from harness import layers
from harness.bench import (
    Bench,
    Outcome,
    PreconditionError,
    Workload,
    check_cache_state,
)
from harness.metrics import end_to_end_values, tail
from harness.spans import (
    Patches,
    Span,
    Tracer,
    call_counts,
    read_chrome_trace,
    self_times,
    span_self,
    write_chrome_trace,
)


def ticking_clock(*times):
    it = iter(times)
    return lambda: next(it)


def nested_spans():
    """job [0,10] > translate [1,6] > (disasm [2,3], opt1 [3,5]);
    job > dispatch [6,9]."""
    t = Tracer(clock=ticking_clock(0, 1, 2, 3, 3, 5, 6, 6, 9, 10))
    t.job = 7
    job = t.open("job")
    tr = t.open("core.translate")
    d = t.open("frontend.disasm")
    t.close(d)
    o = t.open("opt.opt1")
    t.close(o)
    t.close(tr)
    disp = t.open("core.dispatch")
    t.close(disp)
    t.close(job)
    return t.spans


def test_self_time_subtracts_direct_children_only():
    spans = nested_spans()
    assert span_self(spans) == [2, 2, 1, 2, 3]
    assert self_times(spans) == {
        "job": 2, "core.translate": 2, "frontend.disasm": 1,
        "opt.opt1": 2, "core.dispatch": 3,
    }
    # Self times partition the root span's duration.
    assert sum(span_self(spans)) == spans[0].dur
    assert [s.parent for s in spans] == [None, 0, 1, 1, 0]
    assert {s.job for s in spans} == {7}


def test_self_time_sums_recursive_spans_of_one_name():
    t = Tracer(clock=ticking_clock(0, 1, 3, 4))
    outer = t.open("frontend.disasm")
    inner = t.open("frontend.disasm")
    t.close(inner)
    t.close(outer)
    assert self_times(t.spans) == {"frontend.disasm": 4}
    assert call_counts(t.spans) == {"frontend.disasm": 2}


def test_closing_out_of_order_is_an_error():
    t = Tracer()
    a = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(a)


def test_patches_wrap_methods_and_restore_them():
    class Engine:
        def step(self, x):
            return x + 1

    original = Engine.__dict__["step"]
    t = Tracer()
    p = Patches(t)
    p.wrap(Engine, "step", "core.step",
           on_result=lambda tr, r: tr.count("results", r))
    assert Engine().step(1) == 2
    assert [s.name for s in t.spans] == ["core.step"]
    assert t.counters == {"results": 2}
    p.undo()
    assert Engine.__dict__["step"] is original


def test_merge_rebases_parent_indices():
    t = Tracer()
    t.open("x")
    t.close(0)
    child = [s.as_list() for s in nested_spans()]
    t.merge(child, {"translations": 3})
    assert [s.parent for s in t.spans] == [None, None, 1, 2, 2, 1]
    assert t.counters == {"translations": 3}


@pytest.mark.parametrize("n,rank", [(11, 1), (20, 10), (100, 90), (101, 91)])
def test_tail_leaves_ten_samples_beyond(n, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # n..1, unsorted
    value, pct = tail(samples)
    assert value == float(rank)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == pytest.approx(100.0 * rank / n)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        tail([1.0] * n)


def test_chrome_trace_round_trip(tmp_path):
    spans = nested_spans()
    # Realistic perf_counter magnitudes, not just small integers.
    spans = [Span(s.name, 12345.678901 + s.start * 0.001,
                  12345.678901 + s.end * 0.001, s.parent, s.job)
             for s in spans]
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), spans, {"workload": "exec-hot", "seed": 3})
    doc = json.loads(path.read_text())
    assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
    back, meta = read_chrome_trace(str(path))
    assert meta == {"workload": "exec-hot", "seed": 3}
    assert [(s.name, s.parent, s.job) for s in back] == \
        [(s.name, s.parent, s.job) for s in spans]
    for a, b in zip(back, spans):
        assert a.start == pytest.approx(b.start, abs=1e-9)
        assert a.end == pytest.approx(b.end, abs=1e-9)
    for name, secs in self_times(spans).items():
        assert self_times(back)[name] == pytest.approx(secs, abs=1e-9)


TINY = Workload("tiny", "unit test", "paper", (("none", ()),),
                ("art", "vpr"), scale=0.05, pass_s=1.0)


def tiny_bench(tmp_path, workload=TINY):
    bench = Bench(workload, seed=5, work_dir=str(tmp_path), tracer=Tracer())
    bench.compute_refs()
    bench.images = bench.build_images()
    return bench


def test_injected_output_mismatch_lands_in_failed_jobs(tmp_path):
    bench = tiny_bench(tmp_path)
    ref = bench.refs["art"]
    bench.refs["art"] = dataclasses.replace(ref, stdout=ref.stdout + "x")
    p = bench.run_pass("pass0")
    assert bench.attempted == 2
    assert bench.failures == ["none/art: stdout differs from the reference CPU"]
    walls = [o.wall for o in p.outcomes] * 6  # enough samples for a tail
    values, _ = end_to_end_values(
        walls, sum(o.guest_insns for o in p.outcomes), [p.wall], [0.1], 1024,
        attempted=bench.attempted, failed=len(bench.failures))
    assert values["ok_ratio"] == 0.5


def test_clean_pass_matches_the_oracle(tmp_path):
    bench = tiny_bench(tmp_path)
    p = bench.run_pass("pass0")
    assert bench.failures == []
    assert sorted(o.job.program for o in p.outcomes) == ["art", "vpr"]
    assert all(o.guest_insns == bench.refs[o.job.program].guest_insns
               for o in p.outcomes)


def test_seed_shuffles_job_order_reproducibly(tmp_path):
    wl = dataclasses.replace(
        TINY, programs=("art", "vpr", "gcc", "eon", "mesa", "apsi"))
    ref = SimpleNamespace(stdout="", exit_code=0, guest_insns=0)

    def order(seed, label="pass0"):
        bench = Bench(wl, seed=seed, work_dir=str(tmp_path), tracer=Tracer())
        bench.refs = {p: ref for p in wl.programs}
        bench._call = lambda job, run_id, cache_dir: Outcome(
            job, run_id, exit_code=0)
        return [o.job.program for o in bench.run_pass(label).outcomes]

    assert order(5) == order(5)
    assert order(5) != order(6)
    assert order(5) != order(5, "pass1")
    assert sorted(order(5)) == sorted(wl.programs)


def test_cold_job_in_fresh_process_meets_the_cold_precondition(tmp_path):
    cold = dataclasses.replace(TINY, engine="fast", programs=("art",),
                               cache="cold")
    bench = tiny_bench(tmp_path, cold)
    p = bench.timed_pass(0)  # raises PreconditionError if violated
    assert bench.failures == []
    (out,) = p.outcomes
    assert out.maxrss_kb > 0
    assert out.stats["cache"]["stores"] > 0
    # The same outcome does not pass as a warm one: it missed and wrote.
    with pytest.raises(PreconditionError):
        check_cache_state(out, "warm")


def test_layer_wraps_name_real_functions():
    import importlib

    for _name, module, cls, attr in layers.WRAPS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        assert attr in vars(owner), f"{module}.{cls}.{attr}"
    names = {n for n, *_ in layers.WRAPS} | {n for _a, n in layers.TOOL_WRAPS}
    assert set(layers.PHASES) <= names


def test_benchmark_json_matches_the_harness():
    import os

    import run
    from harness.bench import WORKLOADS

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
