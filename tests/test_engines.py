"""The engine registry (``repro.core.engines``) and ``REPRO_ENGINE``."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import Options
from repro.core.engines import ENGINES
from repro.core.options import BadOption, parse_argv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def no_env_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def test_paper_engine_is_the_default(no_env_engine):
    assert Options() == Options(**ENGINES["paper"].options)


def test_each_rung_changes_one_field():
    rungs = list(ENGINES.values())
    for lower, upper in zip(rungs, rungs[1:]):
        changed = [k for k, v in lower.options.items()
                   if upper.options[k] != v]
        assert len(changed) == 1, (lower, upper)


def test_env_engine_sets_defaults_that_explicit_settings_override(
        monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    o = Options()
    assert (o.chaining, o.codegen) == (True, "traces")
    assert Options(chaining=False).chaining is False
    assert Options(codegen="closures").codegen == "closures"
    assert Options.from_cli_args(["--chaining=no"]).chaining is False
    _, o, _ = parse_argv(["--codegen=closures", "prog.s"])
    assert (o.chaining, o.codegen) == (True, "closures")


def test_unknown_engine_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    with pytest.raises(BadOption, match=re.escape("|".join(ENGINES))):
        Options()


def test_perfbench_flags_match_the_registry(no_env_engine, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from harness.bench import ENGINES as BENCH_ENGINES

    for name in ("paper", "fast"):
        o = Options.from_cli_args(BENCH_ENGINES[name])
        assert (o.chaining, o.codegen) == (
            ENGINES[name].chaining, ENGINES[name].codegen), name
