"""Self-modifying code handling (Section 3.16).

vx32, like x86, has no explicit flush instruction, so modified code must
be *detected*: a translation records a hash of the original guest bytes
it was derived from, and — for translations the policy says to check —
the hash is recomputed before each execution; a mismatch discards the
translation and retranslates.

"This has a high run-time cost.  Therefore, by default Valgrind only uses
this mechanism for code that is on the stack" — which catches the
on-stack trampolines that are the main source of self-modifying code.
The policy here is the same: ``stack`` (default), ``all``, or ``none``.

Dynamic code generators can instead use the DISCARD_TRANSLATIONS client
request (see :mod:`repro.core.clientreq`).
"""

from __future__ import annotations

from typing import Callable

from .translate import Translation, hash_guest_ranges


class SmcPolicy:
    """Decides which translations get per-execution hash checks, and
    performs the checks."""

    def __init__(self, mode: str, fetch: Callable[[int, int], bytes]):
        if mode not in ("none", "stack", "all"):
            raise ValueError(f"bad SMC mode {mode!r}")
        self.mode = mode
        self._fetch = fetch
        #: (checks done, mismatches) — the SMC bench reads these.
        self.checks = 0
        self.misses = 0

    def should_check(self, t: Translation, stack_base: int, stack_top: int) -> bool:
        """Decide at translation time whether *t* needs per-run checks."""
        if self.mode == "none" or t.smc_hash is None:
            return False
        if self.mode == "all":
            return True
        # "stack": only translations of code that lies on the stack.
        return any(
            start < stack_top and stack_base < start + length
            for start, length in t.ranges
        )

    def recheck(self, t: Translation) -> bool:
        """Recompute the hash; True if the code is unchanged."""
        self.checks += 1
        try:
            ok = hash_guest_ranges(self._fetch, t.ranges) == t.smc_hash
        except Exception:
            ok = False  # code vanished (unmapped): definitely stale
        if not ok:
            self.misses += 1
        return ok
