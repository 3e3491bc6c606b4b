"""Function replacement and wrapping (Section 3.13, requirement R8).

Two mechanisms, mirroring Valgrind's redirection machinery:

* **Guest-address redirection**: translation requests for address A are
  satisfied by translating the code at address B instead.  This lets a
  tool replace any *guest* function with another guest function.

* **Host-call interception**: the libc functions reached through `lcall`
  stubs (malloc and friends) can be replaced or wrapped with host
  callables.  A wrapper receives the machine interface and a zero-argument
  callable that invokes the function it displaced — so "a replacement
  function can also call the function it has replaced", which is what
  makes argument/return-value inspection (wrapping) work.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..libc.hostlib import LibC, Machine
from ..libc.stubs import LIBC_INDEX

#: wrapper(machine, call_original) -> None.  r0 carries the return value.
Wrapper = Callable[[Machine, Callable[[], None]], None]


class FunctionRedirector:
    """Holds both redirection tables for one core instance."""

    def __init__(self, libc: LibC):
        self._libc = libc
        self._guest_redirects: Dict[int, int] = {}
        self._libc_wrappers: Dict[int, List[Wrapper]] = {}

    # -- guest-address redirection ------------------------------------------------

    def redirect_guest(self, from_addr: int, to_addr: int) -> None:
        """Make calls/jumps to *from_addr* execute the code at *to_addr*."""
        self._guest_redirects[from_addr] = to_addr

    def resolve(self, addr: int) -> int:
        """Translation-time hook: where should code for *addr* come from?"""
        return self._guest_redirects.get(addr, addr)

    # -- libc (lcall) wrapping -------------------------------------------------------

    def wrap_libc(self, name: str, wrapper: Wrapper) -> None:
        """Wrap the host libc function *name*.  Wrappers stack: the most
        recently added runs first and its ``call_original`` reaches the
        previous one (ending at the real function)."""
        idx = LIBC_INDEX[name]
        self._libc_wrappers.setdefault(idx, []).append(wrapper)

    def replace_libc(self, name: str, fn: Callable[[Machine], Optional[int]]) -> None:
        """Outright replacement: *fn* runs instead of the original (which
        it can still reach through the LibC handle if it wants)."""

        def as_wrapper(machine: Machine, call_original: Callable[[], None]) -> None:
            ret = fn(machine)
            if ret is not None:
                machine.set_reg(0, ret & 0xFFFFFFFF)

        self.wrap_libc(name, as_wrapper)

    def call_libc(self, index: int, machine: Machine) -> None:
        """Dispatch an lcall through any registered wrappers."""
        chain = self._libc_wrappers.get(index)
        if not chain:
            self._libc.call(index, machine)
            return

        def invoke(depth: int) -> None:
            if depth < 0:
                self._libc.call(index, machine)
            else:
                chain[depth](machine, lambda: invoke(depth - 1))

        invoke(len(chain) - 1)
