"""The events system (Section 3.12, Table 1).

The IR describes what client *code* does, but not what system calls do to
registers and memory, nor which memory is allocated when.  The events
system fills that gap: tools register callbacks per event, and the core's
system-call wrappers, loader, and stack-pointer instrumentation invoke
them.

Requirement mapping (Table 1):

=====  ==========================================  ==========================
Req.   Events                                      Called from
=====  ==========================================  ==========================
R4     pre_reg_read, post_reg_write                every system call wrapper
R4     pre_mem_read{,_asciiz}, pre_mem_write,      many system call wrappers
       post_mem_write
R5     new_mem_startup                             the core's code loader
R6     new_mem_mmap, die_mem_munmap                mmap/munmap wrappers
R6     new_mem_brk, die_mem_brk                    brk wrapper
R6     copy_mem_mremap                             mremap wrapper
R7     new_mem_stack, die_mem_stack                instrumentation of SP changes
=====  ==========================================  ==========================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: event name -> (requirement, trigger description, callback signature)
EVENT_SPECS: Dict[str, Tuple[str, str, str]] = {
    "pre_reg_read": ("R4", "every system call wrapper", "(tid, offset, size, name)"),
    "post_reg_write": ("R4", "every system call wrapper", "(tid, offset, size, name)"),
    "pre_mem_read": ("R4", "many system call wrappers", "(tid, addr, size, name)"),
    "pre_mem_read_asciiz": ("R4", "many system call wrappers", "(tid, addr, name)"),
    "pre_mem_write": ("R4", "many system call wrappers", "(tid, addr, size, name)"),
    "post_mem_write": ("R4", "many system call wrappers", "(tid, addr, size, name)"),
    "new_mem_startup": ("R5", "the core's code loader", "(addr, size, r, w, x)"),
    "new_mem_mmap": ("R6", "mmap wrapper", "(addr, size, r, w, x)"),
    "die_mem_munmap": ("R6", "munmap wrapper", "(addr, size)"),
    "new_mem_brk": ("R6", "brk wrapper", "(addr, size, tid)"),
    "die_mem_brk": ("R6", "brk wrapper", "(addr, size)"),
    "copy_mem_mremap": ("R6", "mremap wrapper", "(src, dst, size)"),
    "new_mem_stack": ("R7", "instrumentation of SP changes", "(addr, size)"),
    "die_mem_stack": ("R7", "instrumentation of SP changes", "(addr, size)"),
    # Not in Table 1 but provided by real Valgrind and used by our tools:
    "pre_stack_switch": ("R7", "SP-change heuristic / client requests", "(old_sp, new_sp)"),
}


class EventRegistry:
    """Holds the per-tool event callbacks.

    Tools subscribe with ``events.track_<event>(fn)`` (mirroring Valgrind's
    ``VG_(track_...)``); the core fires them with ``events.fire_<event>``
    or, on hot paths, by reading the callback attribute directly.
    """

    def __init__(self) -> None:
        self._callbacks: Dict[str, Optional[Callable]] = {
            name: None for name in EVENT_SPECS
        }

    def track(self, name: str, fn: Callable) -> None:
        if name not in self._callbacks:
            raise KeyError(f"unknown event {name!r}")
        self._callbacks[name] = fn

    def callback(self, name: str) -> Optional[Callable]:
        return self._callbacks[name]

    def fire(self, name: str, *args) -> None:
        cb = self._callbacks[name]
        if cb is not None:
            cb(*args)

    @property
    def tracks_stack_events(self) -> bool:
        """True if the tool wants SP-change instrumentation (R7)."""
        return (
            self._callbacks["new_mem_stack"] is not None
            or self._callbacks["die_mem_stack"] is not None
        )

    def table1(self) -> List[Tuple[str, str, str, str]]:
        """Regenerate Table 1: (req, event, trigger, tool callback name)."""
        rows = []
        for name, (req, trigger, _sig) in EVENT_SPECS.items():
            cb = self._callbacks[name]
            cbname = getattr(cb, "__qualname__", repr(cb)) if cb else "-"
            rows.append((req, name, trigger, cbname))
        return rows


def __getattr__(name: str):  # pragma: no cover - convenience only
    raise AttributeError(name)


# Give EventRegistry the track_*/fire_* convenience methods.
def _add_convenience(cls) -> None:
    for event in EVENT_SPECS:
        def tracker(self, fn, _event=event):
            self.track(_event, fn)

        def firer(self, *args, _event=event):
            self.fire(_event, *args)

        tracker.__name__ = f"track_{event}"
        tracker.__doc__ = (
            f"Register a callback for {event}{EVENT_SPECS[event][2]} "
            f"({EVENT_SPECS[event][0]}; fired from {EVENT_SPECS[event][1]})."
        )
        firer.__name__ = f"fire_{event}"
        setattr(cls, f"track_{event}", tracker)
        setattr(cls, f"fire_{event}", firer)


_add_convenience(EventRegistry)
