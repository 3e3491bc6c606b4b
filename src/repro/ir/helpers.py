"""Registry of helper functions callable from IR.

Two kinds of helper exist, mirroring Valgrind:

* *clean* (pure) helpers, called via ``CCall`` expressions — condition-code
  computation is the canonical example;
* *dirty* helpers, called via ``Dirty`` statements — they may read and write
  guest state and memory (instruction emulations like ``cpuid``, and tool
  helpers like Memcheck's ``helperc_LOADV32le``).

Dirty helpers receive the execution environment as their first argument so
they can reach the ThreadState, guest memory and the running tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class Helper:
    """A registered helper function."""

    name: str
    fn: Callable[..., object]
    pure: bool
    #: Synthetic "address" for pretty-printing, like the paper's
    #: ``helperc_LOADV32le{0x38006504}``.
    address: int


class HelperRegistry:
    """Name -> helper mapping for one framework instance."""

    #: Base of the synthetic helper address space (inside the core's own
    #: load address region, as in real Valgrind).
    ADDRESS_BASE = 0x38003000

    def __init__(self) -> None:
        self._helpers: Dict[str, Helper] = {}
        self._next_addr = self.ADDRESS_BASE

    def register(self, name: str, fn: Callable[..., object], *, pure: bool) -> Helper:
        """Register *fn* under *name*; re-registering a name is an error."""
        if name in self._helpers:
            raise ValueError(f"helper {name!r} already registered")
        h = Helper(name, fn, pure, self._next_addr)
        self._next_addr += 0x10
        self._helpers[name] = h
        return h

    def register_pure(self, name: str, fn: Callable[..., object]) -> Helper:
        return self.register(name, fn, pure=True)

    def register_dirty(self, name: str, fn: Callable[..., object]) -> Helper:
        return self.register(name, fn, pure=False)

    def lookup(self, name: str) -> Helper:
        try:
            return self._helpers[name]
        except KeyError:
            raise KeyError(f"helper {name!r} not registered") from None

    def __contains__(self, name: str) -> bool:
        return name in self._helpers

    def names(self):
        return self._helpers.keys()
