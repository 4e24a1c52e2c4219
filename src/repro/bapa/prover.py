"""The BAPA prover interface (the role of the BAPA decision procedure in Figure 1).

BAPA — Boolean Algebra with Presburger Arithmetic — decides formulas that mix
set algebra, symbolic cardinalities and linear integer arithmetic.  The
paper's sized-list example (Section 2.2) is the canonical client: the
invariant ``size = card content`` generates sequents that neither the
first-order prover (no cardinality reasoning) nor the SMT interface (no set
algebra) can discharge alone.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..form import ast as F
from ..form.rewrite import expand_field_writes, nnf, simplify
from ..form.subst import beta_reduce
from ..provers.approximation import approximate, relevant_assumptions
from ..provers.base import Deadline, Prover, ProverAnswer, Verdict
from ..smt.lia import Feasibility
from ..vcgen.sequent import Sequent
from .venn import BapaError, conjunction_satisfiable


def _is_bapa_atom(atom: F.Term) -> bool:
    """Atoms the BAPA decision procedure understands."""
    allowed_ops = {
        "union", "inter", "setdiff", "minus", "insert", "card", "elem", "subseteq",
        "plus", "times", "uminus", "lt", "lte", "gt", "gte", "emptyset", "univ",
    }
    for sub in F.subterms(atom):
        if isinstance(sub, (F.Lambda, F.SetCompr, F.Quant)):
            return False
        if isinstance(sub, F.Var) and F.is_builtin(sub.name):
            if sub.name not in allowed_ops and sub.name not in ("null", "alloc", "Object_alloc", "arrayLength"):
                return False
    return True


def _collect_set_vars(formulas: List[F.Term]) -> Set[str]:
    """Names that are used as sets (operands of set algebra, card or elem)."""
    from ..form.printer import to_str

    set_vars: Set[str] = set()

    def note(term: F.Term) -> None:
        if isinstance(term, F.Var):
            set_vars.add(term.name)
        elif isinstance(term, F.Old):
            note(term.term)
        elif isinstance(term, F.App):
            set_vars.add(to_str(term))

    for formula in formulas:
        for sub in F.subterms(formula):
            if F.is_app_of(sub, "card"):
                note(sub.args[0])
            elif F.is_app_of(sub, "elem") and len(sub.args) == 2:
                note(sub.args[1])
            elif F.is_app_of(sub, "subseteq"):
                note(sub.args[0])
                note(sub.args[1])
            elif isinstance(sub, F.App) and isinstance(sub.func, F.Var) and sub.func.name in (
                "union", "inter", "setdiff"
            ):
                for arg in sub.args:
                    note(arg)
            elif F.is_app_of(sub, "insert") and len(sub.args) == 2:
                # The first argument of insert is an element, not a set.
                note(sub.args[1])
    return set_vars


def _to_dnf(formula: F.Term, max_disjuncts: int = 256) -> List[List[Tuple[F.Term, bool]]]:
    """Convert an NNF formula into a list of conjunctions of literals."""
    if isinstance(formula, F.BoolLit):
        return [] if not formula.value else [[]]
    if isinstance(formula, F.Not):
        return [[(formula.arg, False)]]
    if isinstance(formula, F.Or):
        out: List[List[Tuple[F.Term, bool]]] = []
        for arg in formula.args:
            out.extend(_to_dnf(arg, max_disjuncts))
            if len(out) > max_disjuncts:
                raise BapaError("DNF blow-up")
        return out
    if isinstance(formula, F.And):
        out = [[]]
        for arg in formula.args:
            parts = _to_dnf(arg, max_disjuncts)
            new_out = []
            for existing in out:
                for part in parts:
                    new_out.append(existing + part)
                    if len(new_out) > max_disjuncts:
                        raise BapaError("DNF blow-up")
            out = new_out
        return out
    if isinstance(formula, F.Quant):
        raise BapaError("quantifier in the BAPA fragment")
    return [[(formula, True)]]


_INT_MARKERS = ("card", "plus", "minus", "times", "uminus", "arrayLength")


def _looks_integer(term: F.Term) -> bool:
    if isinstance(term, F.IntLit):
        return True
    return any(F.is_app_of(term, op) for op in _INT_MARKERS) or any(
        isinstance(sub, F.IntLit) or (isinstance(sub, F.Var) and sub.name in _INT_MARKERS)
        for sub in F.subterms(term)
    )


def _split_integer_disequalities(formula: F.Term) -> F.Term:
    """Rewrite ``a ~= b`` over integers into ``a < b | b < a`` (valid over Z).

    The conjunctive Venn reduction cannot express an integer disequality
    directly, but the disjunctive split is handled by the DNF layer.
    """
    from ..form.rewrite import map_subterms

    def rewrite(node: F.Term) -> F.Term:
        if (
            isinstance(node, F.Not)
            and isinstance(node.arg, F.Eq)
            and (_looks_integer(node.arg.lhs) or _looks_integer(node.arg.rhs))
        ):
            return F.Or((F.app("lt", node.arg.lhs, node.arg.rhs), F.app("lt", node.arg.rhs, node.arg.lhs)))
        return node

    return map_subterms(formula, rewrite)


class BapaProver(Prover):
    """Decides sequents in the quantifier-free BAPA fragment."""

    name = "bapa"

    def attempt(self, sequent: Sequent, deadline: Deadline) -> ProverAnswer:
        prepared = relevant_assumptions(sequent.restricted(), rounds=2)
        assumptions = [
            simplify(expand_field_writes(beta_reduce(a.formula))) for a in prepared.assumptions
        ]
        goal = simplify(expand_field_writes(beta_reduce(prepared.goal.formula)))

        # Approximate away everything the fragment cannot express.
        assumptions = [
            simplify(approximate(a, _is_bapa_atom, positive=False)) for a in assumptions
        ]
        goal = simplify(approximate(goal, _is_bapa_atom, positive=True))
        if isinstance(goal, F.BoolLit) and not goal.value:
            return ProverAnswer(Verdict.UNSUPPORTED, self.name, detail="goal outside BAPA fragment")

        # Quantified assumptions are outside the quantifier-free fragment;
        # dropping an assumption is always sound.
        assumptions = [
            a
            for a in assumptions
            if not (isinstance(a, F.BoolLit) and a.value)
            and not any(isinstance(sub, F.Quant) for sub in F.subterms(a))
        ]
        refutation = F.mk_and(tuple(assumptions) + (F.mk_not(goal),))
        refutation = _split_integer_disequalities(nnf(refutation))

        set_vars = _collect_set_vars(assumptions + [goal])
        closed = 0
        try:
            disjuncts = _to_dnf(refutation)
            for literals in disjuncts:
                deadline.checkpoint(
                    detail=lambda: (
                        f"{closed} of {len(disjuncts)} refutation branches closed"
                    )
                )
                feasibility = conjunction_satisfiable(literals, set_vars, deadline)
                if feasibility is Feasibility.GAVE_UP:
                    return ProverAnswer(
                        Verdict.UNKNOWN, self.name, detail="gave up: Fourier-Motzkin row cap"
                    )
                if feasibility:
                    return ProverAnswer(
                        Verdict.UNKNOWN, self.name, detail="refutation branch is satisfiable"
                    )
                closed += 1
        except BapaError as exc:
            return ProverAnswer(Verdict.UNSUPPORTED, self.name, detail=str(exc))
        detail = f"all {max(len(disjuncts), 1)} refutation branches closed"
        return ProverAnswer(Verdict.PROVED, self.name, detail=detail)
