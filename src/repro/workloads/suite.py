"""The workload suite: 25 SPEC CPU2000-shaped programs.

Stands in for the paper's Table 2 benchmark set (galgel, which the
authors could not build either, is the one missing from their 26 too).
``build(name, scale)`` assembles a program; ``run_reference`` runs it
natively and returns its checksum output, which tool runs are compared
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..guest.asm import assemble
from ..guest.program import VxImage
from ..libc.stubs import build_source
from . import progs_fp, progs_int

#: Table 2's program order: integer programs, then floating-point.
INT_WORKLOADS = (
    "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "mcf", "parser",
    "perlbmk", "twolf", "vortex", "vpr",
)
FP_WORKLOADS = (
    "ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d", "lucas",
    "mesa", "mgrid", "sixtrack", "swim", "wupwise",
)
ALL_WORKLOADS = INT_WORKLOADS + FP_WORKLOADS

_GENERATORS: Dict[str, Callable[[float], str]] = {}
for _name in INT_WORKLOADS:
    _GENERATORS[_name] = getattr(progs_int, _name)
for _name in FP_WORKLOADS:
    _GENERATORS[_name] = getattr(progs_fp, _name)


@dataclass
class BuiltWorkload:
    name: str
    kind: str  # "int" | "fp"
    image: VxImage
    source: str


def source_for(name: str, scale: float = 1.0) -> str:
    """The full assembly source (program + libc) of a workload."""
    try:
        gen = _GENERATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(ALL_WORKLOADS)}"
        ) from None
    return build_source(gen(scale))


def build(name: str, scale: float = 1.0) -> BuiltWorkload:
    """Assemble workload *name* at the given *scale*."""
    src = source_for(name, scale)
    image = assemble(src, filename=name)
    kind = "int" if name in INT_WORKLOADS else "fp"
    return BuiltWorkload(name=name, kind=kind, image=image, source=src)


def run_reference(name: str, scale: float = 1.0,
                  max_insns: Optional[int] = 50_000_000):
    """Natively run a workload; returns its NativeResult (checksum in
    stdout).  Used both as the performance baseline and as the oracle all
    instrumented runs must match."""
    from ..native import run_native

    wl = build(name, scale)
    return run_native(wl.image, max_insns=max_insns)
