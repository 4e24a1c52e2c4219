"""Dominated asserts: proof obligations settled by dataflow facts alone.

:class:`AvailableAssumes` is a forward *must* dataflow analysis over the
CFG of a desugared method body: at each program point, the set of formulas
assumed (or previously asserted) on **every** path reaching it, with
formulas killed whenever an intervening ``assign``/``havoc`` touches one of
their free variables.  An ``assert`` whose formula is available is
*dominated by an identical assume* and needs no prover;
:func:`find_dominated_asserts` reports those (and the trivially true ones)
for the CFG03 lint.

The sequent-level counterpart is the syntactic prover
(:mod:`repro.provers.syntactic`), which the dispatcher offers every sequent
first: the VC generator's path explorer has already renamed state variables
at every havoc and substituted assignments away, so a dominated assert
becomes a sequent whose goal occurs among its assumptions.  The shape checks
:func:`~repro.provers.syntactic.trivially_true` and
:func:`~repro.provers.syntactic.trivially_false` live there and are shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Union

from ..form import ast as F
from ..form.subst import free_vars_with_builtins
from ..gcl.commands import Assert, Assign, Assume, Command, Havoc
from ..provers.syntactic import trivially_false, trivially_true
from .cfg import CFG, BasicBlock, DataflowAnalysis, build_cfg, run_dataflow


# ---------------------------------------------------------------------------
# CFG view: available assumes as a must-analysis
# ---------------------------------------------------------------------------


class _Universe:
    """Top of the available-assumes lattice: control cannot reach this point,
    so every formula is (vacuously) available."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNIVERSE"


UNIVERSE = _Universe()

Fact = Union[FrozenSet[F.Term], _Universe]


def _kill(fact: Fact, variables: Sequence[str]) -> Fact:
    if isinstance(fact, _Universe):
        return fact
    touched = set(variables)
    return frozenset(
        formula for formula in fact
        if not (free_vars_with_builtins(formula) & touched)
    )


def _has(fact: Fact, formula: F.Term) -> bool:
    if isinstance(fact, _Universe):
        return True
    return formula in fact


class AvailableAssumes(DataflowAnalysis):
    """Forward must-analysis: formulas assumed/asserted on every path."""

    direction = "forward"

    def boundary(self) -> Fact:
        return frozenset()

    def join(self, facts: Sequence[Fact]) -> Fact:
        live = [fact for fact in facts if not isinstance(fact, _Universe)]
        if not live:
            return UNIVERSE
        joined = live[0]
        for fact in live[1:]:
            joined = joined & fact
        return joined

    def transfer(self, block: BasicBlock, fact: Fact) -> Fact:
        for cmd in block.commands:
            fact = self.transfer_command(cmd, fact)
        return fact

    @staticmethod
    def transfer_command(cmd: Command, fact: Fact) -> Fact:
        if isinstance(fact, _Universe):
            return fact
        if isinstance(cmd, Assume):
            if cmd.formula == F.FALSE or trivially_false(cmd.formula):
                return UNIVERSE
            return fact | {cmd.formula}
        if isinstance(cmd, Assert):
            # assert-then-assume: the formula holds afterwards on this path.
            return fact | {cmd.formula}
        if isinstance(cmd, Assign):
            return _kill(fact, (cmd.variable,))
        if isinstance(cmd, Havoc):
            return _kill(fact, cmd.variables)
        return fact


@dataclass
class DominatedAssert:
    """An assert provable from the must-available assumes at its site."""

    command: Assert
    block: int
    reason: str  # 'assumption', 'trivial' or 'unreachable' (vacuous: dead code)


def find_dominated_asserts(command: Command, cfg: Optional[CFG] = None) -> List[DominatedAssert]:
    """Find every assert in a desugared command that static analysis alone
    discharges: dominated by an identical assume with no intervening
    havoc/assign of its free variables, or trivially true."""
    if cfg is None:
        cfg = build_cfg(command)
    result = run_dataflow(cfg, AvailableAssumes())
    dominated: List[DominatedAssert] = []
    for index in sorted(cfg.reachable_blocks()):
        fact = result.inputs.get(index)
        if fact is None:
            continue
        for cmd in cfg.block(index).commands:
            if isinstance(cmd, Assert):
                if trivially_true(cmd.formula):
                    dominated.append(DominatedAssert(cmd, index, "trivial"))
                elif isinstance(fact, _Universe):
                    # Past an in-block ``assume False``: vacuously true
                    # because control never gets here (dead code, not a
                    # discharged obligation).
                    dominated.append(DominatedAssert(cmd, index, "unreachable"))
                elif _has(fact, cmd.formula):
                    dominated.append(DominatedAssert(cmd, index, "assumption"))
            fact = AvailableAssumes.transfer_command(cmd, fact)
    return dominated
