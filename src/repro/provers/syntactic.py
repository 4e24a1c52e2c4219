"""The built-in syntactic prover (paper Section 6.1).

Before invoking any external prover, Jahob tests whether a sequent is
trivially valid: the goal is (or simplifies to) ``True``, an assumption is
(or simplifies to) ``False``, or the goal occurs among the assumptions
modulo simple validity-preserving transformations (alpha-renaming, symmetry
of equality, double negation, commutativity of conjunction/disjunction).
This is the one place that decides validity by structure alone: the shape
checks :func:`trivially_true` and :func:`trivially_false` run on the raw
formulas too, and the CFG03 lint (:mod:`repro.analysis.discharge`) shares
them.

In practice this discharges a large fraction of the conjuncts of every
verification condition — e.g. the null-dereference checks that recur along
every path, and invariants that are assumed at a call site and must be
re-established unchanged immediately afterwards.
"""

from __future__ import annotations

from typing import Iterable, List

from ..form import ast as F
from ..form.rewrite import simplify
from ..form.subst import alpha_equal, free_vars
from ..vcgen.sequent import Sequent
from .base import Deadline, Prover, ProverAnswer, Verdict


def trivially_true(term: F.Term) -> bool:
    """Syntactic validity: true in every interpretation, by shape alone."""
    if isinstance(term, F.BoolLit):
        return term.value
    if isinstance(term, F.Eq):
        return term.lhs == term.rhs
    if isinstance(term, F.Iff):
        return term.lhs == term.rhs or (trivially_true(term.lhs) and trivially_true(term.rhs))
    if isinstance(term, F.And):
        return all(trivially_true(sub) for sub in term.args)
    if isinstance(term, F.Or):
        return any(trivially_true(sub) for sub in term.args)
    if isinstance(term, F.Implies):
        return trivially_true(term.rhs) or trivially_false(term.lhs)
    if isinstance(term, F.Not):
        return trivially_false(term.arg)
    if isinstance(term, F.Quant):
        return trivially_true(term.body)
    return False


def trivially_false(term: F.Term) -> bool:
    """Syntactic unsatisfiability: false in every interpretation, by shape alone."""
    if isinstance(term, F.BoolLit):
        return not term.value
    if isinstance(term, F.Not):
        return trivially_true(term.arg)
    if isinstance(term, F.And):
        return any(trivially_false(sub) for sub in term.args)
    if isinstance(term, F.Or):
        return all(trivially_false(sub) for sub in term.args)
    return False


def _normalize(term: F.Term) -> F.Term:
    """Simplify and normalise a formula for syntactic comparison."""
    term = simplify(term)
    # Normalise commutative connective argument order structurally.
    return _sort_commutative(term)


def _sort_commutative(term: F.Term) -> F.Term:
    from ..form.printer import to_str

    if isinstance(term, F.And):
        args = tuple(sorted((_sort_commutative(a) for a in term.args), key=to_str))
        return F.And(args) if len(args) > 1 else (args[0] if args else F.TRUE)
    if isinstance(term, F.Or):
        args = tuple(sorted((_sort_commutative(a) for a in term.args), key=to_str))
        return F.Or(args) if len(args) > 1 else (args[0] if args else F.FALSE)
    if isinstance(term, F.Not):
        return F.Not(_sort_commutative(term.arg))
    if isinstance(term, F.Eq):
        lhs = _sort_commutative(term.lhs)
        rhs = _sort_commutative(term.rhs)
        if to_str(lhs) > to_str(rhs):
            lhs, rhs = rhs, lhs
        return F.Eq(lhs, rhs)
    if isinstance(term, F.Iff):
        lhs = _sort_commutative(term.lhs)
        rhs = _sort_commutative(term.rhs)
        if to_str(lhs) > to_str(rhs):
            lhs, rhs = rhs, lhs
        return F.Iff(lhs, rhs)
    if isinstance(term, F.Implies):
        return F.Implies(_sort_commutative(term.lhs), _sort_commutative(term.rhs))
    if isinstance(term, F.App):
        return F.App(
            _sort_commutative(term.func), tuple(_sort_commutative(a) for a in term.args)
        )
    if isinstance(term, (F.Quant, F.Lambda, F.SetCompr)):
        body = _sort_commutative(term.body)
        if isinstance(term, F.Quant):
            return F.Quant(term.kind, term.params, body)
        if isinstance(term, F.Lambda):
            return F.Lambda(term.params, body)
        return F.SetCompr(term.params, body)
    if isinstance(term, F.TupleTerm):
        return F.TupleTerm(tuple(_sort_commutative(i) for i in term.items))
    if isinstance(term, F.Old):
        return F.Old(_sort_commutative(term.term))
    if isinstance(term, F.Ite):
        return F.Ite(
            _sort_commutative(term.cond),
            _sort_commutative(term.then),
            _sort_commutative(term.els),
        )
    return term


def _match(
    pattern: F.Term,
    target: F.Term,
    holes: frozenset,
    sigma: dict,
    target_bound: frozenset = frozenset(),
) -> bool:
    """One-way syntactic matching: bind the ``holes`` of ``pattern`` so it
    equals ``target``; extends ``sigma`` in place.  Conservative under
    binders: a shadowed hole stops being a hole, and a hole never binds to a
    term containing a variable bound by an enclosing *target* binder (such a
    binding would capture the variable and make the instance unsound)."""
    if isinstance(pattern, F.Var) and pattern.name in holes:
        if target_bound and free_vars(target) & target_bound:
            return False
        bound = sigma.get(pattern.name)
        if bound is None:
            sigma[pattern.name] = target
            return True
        return bound == target
    if type(pattern) is not type(target):
        return False
    if isinstance(pattern, F.Var):
        return pattern.name == target.name
    if isinstance(pattern, (F.BoolLit, F.IntLit)):
        return pattern == target
    if isinstance(pattern, F.App):
        return (
            len(pattern.args) == len(target.args)
            and _match(pattern.func, target.func, holes, sigma, target_bound)
            and all(
                _match(p, t, holes, sigma, target_bound)
                for p, t in zip(pattern.args, target.args)
            )
        )
    if isinstance(pattern, F.Eq):
        return _match(pattern.lhs, target.lhs, holes, sigma, target_bound) and _match(
            pattern.rhs, target.rhs, holes, sigma, target_bound
        )
    if isinstance(pattern, F.Not):
        return _match(pattern.arg, target.arg, holes, sigma, target_bound)
    if isinstance(pattern, (F.And, F.Or)):
        return len(pattern.args) == len(target.args) and all(
            _match(p, t, holes, sigma, target_bound)
            for p, t in zip(pattern.args, target.args)
        )
    if isinstance(pattern, (F.Implies, F.Iff)):
        return _match(pattern.lhs, target.lhs, holes, sigma, target_bound) and _match(
            pattern.rhs, target.rhs, holes, sigma, target_bound
        )
    if isinstance(pattern, F.TupleTerm):
        return len(pattern.items) == len(target.items) and all(
            _match(p, t, holes, sigma, target_bound)
            for p, t in zip(pattern.items, target.items)
        )
    if isinstance(pattern, F.Old):
        return _match(pattern.term, target.term, holes, sigma, target_bound)
    if isinstance(pattern, F.Ite):
        return (
            _match(pattern.cond, target.cond, holes, sigma, target_bound)
            and _match(pattern.then, target.then, holes, sigma, target_bound)
            and _match(pattern.els, target.els, holes, sigma, target_bound)
        )
    if isinstance(pattern, (F.Quant, F.Lambda, F.SetCompr)):
        if isinstance(pattern, F.Quant) and pattern.kind != getattr(target, "kind", None):
            return False
        if tuple(p[0] for p in pattern.params) != tuple(p[0] for p in target.params):
            return False
        inner_holes = holes - {p[0] for p in pattern.params}
        inner_bound = target_bound | {p[0] for p in target.params}
        return _match(pattern.body, target.body, inner_holes, sigma, inner_bound)
    return pattern == target


def _matches(goal: F.Term, assumption: F.Term) -> bool:
    """Goal occurs in the assumption modulo simple transformations."""
    if goal == assumption or alpha_equal(goal, assumption):
        return True
    # Symmetric equality.
    if isinstance(goal, F.Eq) and isinstance(assumption, F.Eq):
        if goal.lhs == assumption.rhs and goal.rhs == assumption.lhs:
            return True
    # Double negation.
    if isinstance(assumption, F.Not) and isinstance(assumption.arg, F.Not):
        return _matches(goal, assumption.arg.arg)
    if isinstance(goal, F.Not) and isinstance(goal.arg, F.Not):
        return _matches(goal.arg.arg, assumption)
    # A conjunction assumption yields each of its conjuncts.
    if isinstance(assumption, F.And):
        return any(_matches(goal, a) for a in assumption.args)
    # An Iff assumption yields both implications' shape; treat as equality of sides.
    if isinstance(goal, F.Iff) and isinstance(assumption, F.Iff):
        if goal.lhs == assumption.rhs and goal.rhs == assumption.lhs:
            return True
    return False


class SyntacticProver(Prover):
    """Discharges trivially valid sequents by syntactic inspection."""

    name = "syntactic"

    def options_signature(self) -> str:
        # The syntactic check is a bounded structural scan that never times
        # out, so its one option cannot affect a verdict: the key is empty.
        return ""

    def attempt(self, seq: Sequent, deadline: Deadline) -> ProverAnswer:
        goal = _normalize(seq.goal.formula)
        if goal == F.TRUE or trivially_true(seq.goal.formula):
            return ProverAnswer(Verdict.PROVED, self.name, detail="goal is True")

        # Reflexivity and other goals that simplify to True are covered above;
        # now look for the goal (or a contradiction) among the assumptions.
        assumptions: List[F.Term] = []
        for labeled in seq.assumptions:
            norm = _normalize(labeled.formula)
            if norm == F.FALSE or trivially_false(labeled.formula):
                return ProverAnswer(
                    Verdict.PROVED, self.name, detail="assumption is False"
                )
            assumptions.append(norm)

        for assumption in assumptions:
            if _matches(goal, assumption):
                return ProverAnswer(
                    Verdict.PROVED, self.name, detail="goal occurs in assumptions"
                )

        # Guarded modus ponens: the goal is an instance of a universally
        # quantified assumption `ALL xs. A1 & ... & An --> G'` whose
        # instantiated antecedents are all among the assumptions.  Sound: it
        # concludes exactly one instance of a formula that is assumed valid.
        # This is the shape of every invariant-exit obligation discharged by
        # an `assume`d or invariant-carried quantified fact (the splitter
        # has already instantiated the goal side).
        for assumption in assumptions:
            if self._quantified_instance(goal, assumption, assumptions):
                return ProverAnswer(
                    Verdict.PROVED,
                    self.name,
                    detail="instance of quantified assumption with assumed antecedents",
                )

        # Contradictory pair of assumptions: A and ~A.
        negated = {a.arg for a in assumptions if isinstance(a, F.Not)}
        for assumption in assumptions:
            if assumption in negated:
                return ProverAnswer(
                    Verdict.PROVED, self.name, detail="contradictory assumptions"
                )

        # Goal of the form A --> G where G is assumed, or ~A with A known false.
        if isinstance(goal, F.Implies):
            for assumption in assumptions:
                if _matches(goal.rhs, assumption):
                    return ProverAnswer(
                        Verdict.PROVED, self.name, detail="conclusion of goal assumed"
                    )
            if _matches(goal.rhs, goal.lhs):
                return ProverAnswer(Verdict.PROVED, self.name, detail="A --> A")

        # A conjunction goal whose every conjunct is assumed.  Simplification
        # flattens nested conjunctions, so `(A & B) & C |- A & B` lands here.
        if isinstance(goal, F.And) and all(
            any(_matches(conjunct, assumption) for assumption in assumptions)
            for conjunct in goal.args
        ):
            return ProverAnswer(
                Verdict.PROVED, self.name, detail="each goal conjunct assumed"
            )

        detail = "goal is False" if goal == F.FALSE else ""
        return ProverAnswer(Verdict.UNKNOWN, self.name, detail=detail)

    @staticmethod
    def _quantified_instance(
        goal: F.Term, assumption: F.Term, assumptions: List[F.Term]
    ) -> bool:
        """True when ``goal`` is ``G'σ`` for an assumption
        ``ALL xs. A1 & ... & An --> G'`` (or a conjunct of ``G'``) with every
        ``Aiσ`` among ``assumptions`` and σ binding all of ``xs``."""
        if not (isinstance(assumption, F.Quant) and assumption.kind == "ALL"):
            return False
        holes = frozenset(name for name, _ in assumption.params)
        body = assumption.body
        if isinstance(body, F.Implies):
            antecedent, consequent = body.lhs, body.rhs
        else:
            antecedent, consequent = None, body
        conjuncts = consequent.args if isinstance(consequent, F.And) else (consequent,)
        for conjunct in conjuncts:
            sigma: dict = {}
            if not _match(_normalize(conjunct), goal, holes, sigma):
                continue
            if not holes <= set(sigma):
                continue  # an unbound hole would make the instance ambiguous
            if antecedent is None:
                return True
            from ..form.subst import substitute

            needed = antecedent.args if isinstance(antecedent, F.And) else (antecedent,)
            if all(
                any(
                    _matches(_normalize(substitute(a, sigma)), known)
                    for known in assumptions
                )
                for a in needed
            ):
                return True
        return False
