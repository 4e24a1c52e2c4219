"""Pinned configuration of the verifier benchmark and the checkout layout.

Every workload verifies with exactly the configuration that
``examples/figure15_table.py`` runs: the portfolio ``smt, fol, mona, bapa``
(the syntactic prover is prepended by ``verify``), SMT timeout 3.0 s, FOL
timeout 1.5 s, the digest dedup pre-pass on, and one shared sequent cache per
pass.  ``suite.verify_structure`` without a prover list would measure a
different program: its per-row prover tuples omit ``fol`` for
BinarySearchTree, which then proves 50/58 instead of 58/58.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Tuple

PROVERS: Tuple[str, ...] = ("smt", "fol", "mona", "bapa")
PROVER_OPTIONS: Dict[str, dict] = {"smt": {"timeout": 3.0}, "fol": {"timeout": 1.5}}
DEDUP = True

#: The chain ``verify`` actually dispatches (syntactic first).
CHAIN: Tuple[str, ...] = ("syntactic",) + PROVERS

#: The checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark's own runs (stores, traces); never committed.
WORK = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    """The checkout holds no verifier sources to measure."""


def require_program() -> None:
    """Put the checkout's ``src`` on ``sys.path``; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no verifier sources under {SRC} (expected src/repro)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def verify_kwargs() -> dict:
    """Keyword arguments of ``repro.verify`` for the pinned configuration."""
    return {
        "provers": list(PROVERS),
        "prover_options": {k: dict(v) for k, v in PROVER_OPTIONS.items()},
        "dedup": DEDUP,
    }
