"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from helpers import asm_image, native, vg
from repro.core import traces as _traces

#: The suites' programs loop a few dozen times, far short of trace
#: break-even, yet test traces forming: they run with BREAK_EVEN_K = 0,
#: which builds every recording when it ends.  The ``break_even_k``
#: fixture restores the shipped constant.
SHIPPED_BREAK_EVEN_K = _traces.BREAK_EVEN_K
_traces.BREAK_EVEN_K = 0
#: For the same reason a block's second run requests a trace recording,
#: not its TRACE_THRESHOLD-th; the ``trace_threshold`` fixture sets
#: another threshold for one test.
_traces.TRACE_THRESHOLD = 2


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink the randomized suites",
    )


def pytest_configure(config):
    # Exported as an env var so test modules can read it at import time
    # (hypothesis @settings decorators are evaluated during collection).
    if config.getoption("--quick"):
        os.environ["REPRO_TEST_QUICK"] = "1"


@pytest.fixture
def run_both():
    """Run a program natively and under a tool; assert identical output."""

    def _run(source: str, tool: str = "none", **kw):
        img = asm_image(source)
        nat = native(img, **{k: v for k, v in kw.items() if k in ("argv", "stdin")})
        res = vg(img, tool, **kw)
        assert res.exit_code == nat.exit_code, (
            f"exit codes differ: native {nat.exit_code} vs {tool} {res.exit_code}"
        )
        assert res.stdout == nat.stdout, (
            f"stdout differs under {tool}:\n  native: {nat.stdout!r}\n"
            f"  tooled: {res.stdout!r}"
        )
        return nat, res

    return _run


@pytest.fixture
def trace_threshold(monkeypatch):
    """Set TRACE_THRESHOLD for one test: ``trace_threshold(5)``."""
    return lambda n: monkeypatch.setattr(_traces, "TRACE_THRESHOLD", n)


@pytest.fixture
def break_even_k(monkeypatch):
    """Trace admission at the shipped BREAK_EVEN_K; returns it."""
    monkeypatch.setattr(_traces, "BREAK_EVEN_K", SHIPPED_BREAK_EVEN_K)
    return SHIPPED_BREAK_EVEN_K
