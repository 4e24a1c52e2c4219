"""The first-order prover interface (the role of SPASS and E in Figure 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional

from ..form import ast as F
from ..provers.base import Deadline, PhaseTimer, Prover, ProverAnswer, Seconds, Verdict
from ..vcgen.sequent import Sequent
from .clausify import ClausificationError
from .hol2fol import translate_sequent
from .resolution import ResolutionProver
from .terms import Clause


#: Goal operators the untyped FOL translation erases the semantics of:
#: ``card`` (BAPA's fragment) and integer arithmetic/order, which become
#: uninterpreted symbols with no theory axioms behind them.  ``minus`` is
#: deliberately ungated: the parser overloads it as set difference, which
#: translates (and proves) fine.
_GATED_OPS = (frozenset(F.ARITH_OPS) - {"minus"}) | {"card"}


def _outside_fragment(goal: F.Term) -> bool:
    return any(
        isinstance(sub, F.Var) and sub.name in _GATED_OPS for sub in F.subterms(goal)
    )


class FirstOrderProver(Prover):
    """Proves sequents by refutation with the resolution engine.

    The sequent is first translated to clauses by :mod:`repro.fol.hol2fol`
    (which applies the sound approximation rewrites), then the saturation
    loop searches for the empty clause within the configured limits.

    Search strategy (see :mod:`repro.fol.resolution` for the semantics):

    * ``strategy="sos"`` (default) restricts inference to a set of
      support: the negated goal's clauses plus every input clause without
      a positive literal — the *semantic* set of support induced by the
      all-atoms-true interpretation, which satisfies the non-support side
      and therefore keeps the SOS restriction refutationally complete.
      Axiom–axiom saturation is structurally blocked, yet vacuous-path
      obligations still go through: the splitter moves the goal's
      hypotheses into the assumptions, so those are refuted entirely
      inside the assumption set, which a goal-only support never touches.
      ``"fair"`` is the undirected given-clause loop.
    * ``ordering``/``selection`` restrict resolution to KBO-maximal or
      selected-negative literals.

    All three knobs can flip a verdict between PROVED and UNKNOWN; like
    every option, they key the verdict cache.

    Cardinality and arithmetic goals are answered UNSUPPORTED at once: the
    untyped FOL translation erases ``card`` (BAPA's fragment) and the
    integer order/operations (``lt``/``plus``/... become uninterpreted
    symbols with no theory axioms), so saturation could only burn its
    budget on such goals — across the whole suite it proves none of them.
    """

    name = "fol"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        #: Short: across the whole suite every refutation this engine finds
        #: completes in well under a second, so longer budgets are pure
        #: deadline burn on unprovable goals.
        timeout: Seconds = 1.5
        #: Safety nets against memory blow-up (``timeout`` bounds the wall
        #: time), high enough for the backbone-reachability proofs of the
        #: suite's invariant-exit obligations (~100k generated clauses).
        max_processed: int = 6000
        max_generated: int = 200000
        strategy: Literal["sos", "fair"] = "sos"
        ordering: Literal["kbo", "none"] = "kbo"
        selection: Literal["negative", "none"] = "negative"
        #: Backward subsumption (discard active clauses subsumed by a new
        #: one).  On by default: with the subsumption index the scan is
        #: cheap, and discarding dominated active clauses shrinks the
        #: resolution frontier.
        backward_subsumption: bool = True
        #: Translate through a per-attempt :class:`repro.form.intern.TermBank`
        #: (canonical pointer-comparable FOL terms, memoised normalisation);
        #: observationally identical, off reproduces the pre-interning path.
        interning: bool = True

    def _support(self, translation) -> Optional[List[Clause]]:
        """The initial set of support (see the class docstring), or None
        for the fair loop."""
        if self.options.strategy != "sos" or not translation.goal_clauses:
            return None
        support = list(translation.goal_clauses)
        goal_set = set(support)
        for clause in translation.clauses:
            if clause in goal_set:
                continue
            if all(not lit.positive for lit in clause.literals):
                support.append(clause)
        return support

    def attempt(self, sequent: Sequent, deadline: Deadline) -> ProverAnswer:
        timer = PhaseTimer()
        if _outside_fragment(sequent.goal.formula):
            return ProverAnswer(
                Verdict.UNSUPPORTED,
                self.name,
                detail="cardinality/arithmetic goal outside the untyped FOL fragment",
            )
        try:
            with timer("translate"):
                # Imported here, not at module level: repro.form.intern interns
                # this package's terms, so a top-level import would be circular.
                from ..form.intern import TermBank

                bank = TermBank() if self.options.interning else None
                translation = translate_sequent(sequent, bank=bank)
        except ClausificationError as exc:
            # The negated goal has no clause form (assumptions that have none
            # are dropped inside the translation).
            return ProverAnswer(
                Verdict.UNSUPPORTED,
                self.name,
                detail=f"goal outside the FOL fragment: {exc}",
                phases=dict(timer.phases),
            )
        if not translation.clauses:
            # Everything was approximated away; the remaining goal is True.
            return ProverAnswer(
                Verdict.PROVED,
                self.name,
                detail="trivial after approximation",
                phases=dict(timer.phases),
            )
        o = self.options
        engine = ResolutionProver(
            max_processed=o.max_processed, max_generated=o.max_generated, strategy=o.strategy,
            ordering=o.ordering, selection=o.selection, backward_subsumption=o.backward_subsumption,
        )
        with timer("saturate"):
            result = engine.refute(
                translation.clauses, deadline, support=self._support(translation)
            )
        phases = dict(timer.phases)
        if result.refuted:
            detail = (
                f"refutation found ({result.processed} processed, "
                f"{result.generated} generated clauses, strategy={self.options.strategy})"
            )
            return ProverAnswer(Verdict.PROVED, self.name, detail=detail, phases=phases)
        if result.reason == "timeout":
            detail = (
                f"saturation interrupted: {result.processed} clauses processed, "
                f"{result.generated} generated"
            )
            return ProverAnswer(Verdict.TIMEOUT, self.name, detail=detail, phases=phases)
        return ProverAnswer(Verdict.UNKNOWN, self.name, detail=result.reason, phases=phases)
