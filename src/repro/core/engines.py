"""The engine ladder: every named engine, defined once.

The paper measures one engine, Valgrind 3.2.1's dispatcher with no
chaining (Section 3.9).  Each rung below adds one mechanism to the rung
before it, so a test matrix or bench column that iterates this table
covers each mechanism once.  Tests, benches and ``REPRO_ENGINE=NAME``
(the ``chaining`` and ``codegen`` defaults of every ``Options``) read
it; explicit ``--chaining``/``--codegen`` values still override an
engine, so every flag combination stays available.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Engine(NamedTuple):
    """One rung: the Options fields it sets and what it adds."""

    chaining: bool
    codegen: str
    description: str

    @property
    def options(self) -> Dict[str, object]:
        """The engine's Options fields, as keyword arguments."""
        return {"chaining": self.chaining, "codegen": self.codegen}


#: Name -> engine, in ladder order; ``paper`` is ``Options()``.
ENGINES: Dict[str, Engine] = {
    "paper": Engine(False, "closures", "the paper's engine: closure tier, "
                    "direct-mapped dispatcher cache, no chaining"),
    "chained": Engine(True, "closures", "paper plus chaining: block exits "
                      "linked straight to their successors"),
    "pygen": Engine(True, "pygen", "chained plus one compiled Python "
                    "function per block"),
    "fast": Engine(True, "traces", "pygen plus superblock traces over hot "
                   "chains; the benchmark's engine"),
}
