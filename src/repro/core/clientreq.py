"""Client requests (Section 3.11).

A trap-door mechanism letting the client program pass messages and
queries to the core or the tool: the guest executes the ``clreq``
instruction with a request code in r0 and arguments in r1–r3; the result
comes back in r0.  Outside Valgrind the instruction is a cheap no-op that
leaves 0 in r0 — so, as with the real macros, instrumented-aware programs
run unchanged natively.

Core request codes live in the 0x1000 range; tools claim their own ranges
(Memcheck uses 0x4D43xxxx, "MC").
"""

from __future__ import annotations

# -- core request codes ---------------------------------------------------------

RUNNING_ON_VALGRIND = 0x1001
DISCARD_TRANSLATIONS = 0x1002  # (addr, len)
STACK_REGISTER = 0x1003        # (start, end) -> stack id
STACK_DEREGISTER = 0x1004      # (id)
STACK_CHANGE = 0x1005          # (id, start, end)
CLIENT_PRINT = 0x1006          # (str addr) — print via the core's log


def clreq_asm(code: int, a1: str = "0", a2: str = "0", a3: str = "0") -> str:
    """Assembly snippet performing a client request (the "macro" clients
    embed; arguments may be symbols or literals)."""
    return (
        f"        movi r0, {code:#x}\n"
        f"        movi r1, {a1}\n"
        f"        movi r2, {a2}\n"
        f"        movi r3, {a3}\n"
        f"        clreq\n"
    )


class RegisteredStacks:
    """The core's table of client-registered stacks (Section 3.12: the
    client requests that let programs tell Valgrind about stack switches
    the 2MB heuristic cannot see)."""

    def __init__(self) -> None:
        self._stacks: dict = {}
        self._next_id = 1

    def register(self, start: int, end: int) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stacks[sid] = (start, end)
        return sid

    def deregister(self, sid: int) -> bool:
        return self._stacks.pop(sid, None) is not None

    def change(self, sid: int, start: int, end: int) -> bool:
        if sid not in self._stacks:
            return False
        self._stacks[sid] = (start, end)
        return True

    def containing(self, sp: int):
        """Return (id, start, end) of the registered stack holding *sp*."""
        for sid, (start, end) in self._stacks.items():
            if start <= sp < end:
                return sid, start, end
        return None

    def __len__(self) -> int:
        return len(self._stacks)
