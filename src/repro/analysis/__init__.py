"""Static analysis over specifications and guarded commands.

This package sits between the frontend (:mod:`repro.java`, :mod:`repro.spec`)
and VC generation (:mod:`repro.vcgen`): it checks specifications for
well-formedness, methods for frame (``modifies``) violations, and guarded
commands for unreachable code and reachable ``assume`` statements — all
*before* any prover runs.  Its available-assumes analysis
(:mod:`repro.analysis.discharge`) flags asserts that dataflow facts alone
settle (lint CFG03); proving trivial sequents is the syntactic prover's job
(:mod:`repro.provers.syntactic`).
"""

from .cfg import CFG, BasicBlock, DataflowAnalysis, build_cfg, run_dataflow  # noqa: F401
from .diagnostics import Diagnostic, Severity  # noqa: F401
from .linter import LintReport, lint_program, lint_source  # noqa: F401

__all__ = [
    "CFG",
    "BasicBlock",
    "DataflowAnalysis",
    "build_cfg",
    "run_dataflow",
    "Diagnostic",
    "Severity",
    "LintReport",
    "lint_program",
    "lint_source",
]
