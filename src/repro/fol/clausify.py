"""Clausification: HOL formulas (already first-order in shape) to CNF clauses,
and :func:`term_to_fol`, the one HOL-to-FOL term encoding of the FOL and SMT provers.

The pipeline is the textbook one: negation normal form, Skolemization of
existential quantifiers (with Skolem functions over the enclosing universal
variables), removal of universal quantifiers, and distribution of
disjunction over conjunction, with a size cap that aborts pathological
blow-ups (the caller then simply fails to prove the sequent, which is
sound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from ..form import ast as F
from ..form.rewrite import nnf, simplify
from .terms import Clause, FApp, FTerm, FVar, Literal

if TYPE_CHECKING:  # import cycle: form.intern interns this module's terms
    from ..form.intern import TermBank


#: Builds an application node: ``FApp`` itself, or a :class:`TermBank`'s
#: hash-consing ``fapp``.
FAppBuilder = Callable[[str, Tuple[FTerm, ...]], FApp]


class ClausificationError(Exception):
    """Raised when a formula cannot be clausified (e.g. residual lambdas)."""


@dataclass
class Clausifier:
    """Stateful clausifier producing standardised-apart clauses.

    With a :class:`TermBank` attached, every produced FOL term is the
    bank's canonical node, so downstream structural comparisons (the
    congruence closure's dictionaries, the resolution indexes) hit the
    pointer-identity fast path of :class:`FApp.__eq__`; the bank's
    normalisation memo also short-circuits the ``simplify(nnf(...))``
    preamble for formulas seen before.
    """

    max_clauses: int = 4000
    bank: Optional["TermBank"] = None
    _var_counter: int = 0
    _skolem_counter: int = 0

    def fresh_var(self, base: str) -> FVar:
        self._var_counter += 1
        return FVar(f"V_{base}_{self._var_counter}")

    def fresh_skolem(self) -> str:
        self._skolem_counter += 1
        return f"sk_{self._skolem_counter}"

    # -- formula -> clauses ---------------------------------------------------

    def clausify(self, formula: F.Term) -> List[Clause]:
        """Clausify one formula (conjoined with previously produced clauses)."""
        if self.bank is not None:
            formula = self.bank.normalised(formula)
        else:
            formula = simplify(nnf(formula))
        matrix = self._transform(formula, {}, [])
        clauses = [Clause(tuple(lits)) for lits in matrix]
        return [c for c in clauses if not c.is_tautology()]

    def _transform(
        self,
        formula: F.Term,
        bound: Dict[str, FTerm],
        universals: List[FVar],
    ) -> List[List[Literal]]:
        """Return a CNF matrix (list of lists of literals)."""
        if isinstance(formula, F.BoolLit):
            return [] if formula.value else [[]]
        if isinstance(formula, F.And):
            out: List[List[Literal]] = []
            for arg in formula.args:
                out.extend(self._transform(arg, bound, universals))
                if len(out) > self.max_clauses:
                    raise ClausificationError("CNF blow-up")
            return out
        if isinstance(formula, F.Or):
            parts = [self._transform(arg, bound, universals) for arg in formula.args]
            out = [[]]
            for part in parts:
                if not part:  # True disjunct
                    return []
                new_out = []
                for existing in out:
                    for clause in part:
                        new_out.append(existing + clause)
                        if len(new_out) > self.max_clauses:
                            raise ClausificationError("CNF blow-up")
                out = new_out
            return out
        if isinstance(formula, F.Quant):
            if formula.kind == "ALL":
                new_bound = dict(bound)
                new_universals = list(universals)
                for name, _typ in formula.params:
                    var = self.fresh_var(name)
                    new_bound[name] = var
                    new_universals.append(var)
                return self._transform(formula.body, new_bound, new_universals)
            # Existential: Skolemize over the enclosing universals.
            new_bound = dict(bound)
            for name, _typ in formula.params:
                skolem = FApp(self.fresh_skolem(), tuple(universals))
                new_bound[name] = skolem
            return self._transform(formula.body, new_bound, universals)
        if isinstance(formula, F.Not):
            literal = self._atom_to_literal(formula.arg, bound, positive=False)
            return [[literal]]
        literal = self._atom_to_literal(formula, bound, positive=True)
        return [[literal]]

    # -- atoms ------------------------------------------------------------------

    def _atom_to_literal(self, atom: F.Term, bound: Dict[str, FTerm], positive: bool) -> Literal:
        fapp: FAppBuilder = self.bank.fapp if self.bank is not None else FApp
        if isinstance(atom, F.Eq):
            return Literal(
                positive,
                "=",
                (term_to_fol(atom.lhs, bound, fapp), term_to_fol(atom.rhs, bound, fapp)),
            )
        if isinstance(atom, F.Iff):
            # Residual boolean equivalence between atoms: encode as equality of
            # reified boolean terms (rare; kept sound by using a dedicated symbol).
            return Literal(
                positive,
                "iff",
                (term_to_fol(atom.lhs, bound, fapp), term_to_fol(atom.rhs, bound, fapp)),
            )
        if isinstance(atom, F.App) and isinstance(atom.func, F.Var) and atom.func.name not in bound:
            args = tuple(term_to_fol(a, bound, fapp) for a in atom.args)
            return Literal(positive, atom.func.name, args)
        if isinstance(atom, F.Var) and atom.name not in bound:
            return Literal(positive, atom.name, ())
        if isinstance(atom, (F.App, F.Var)):
            # A bound boolean variable, or an application whose head is not a
            # free predicate symbol (e.g. a bound higher-order variable):
            # reify the term and assert that it holds.
            return Literal(positive, "holds", (term_to_fol(atom, bound, fapp),))
        raise ClausificationError(f"cannot clausify atom {atom!r}")


def uncurry(term: F.App) -> Tuple[F.Term, List[F.Term]]:
    """Flatten a curried application ``((f a) b)`` into ``(f, [a, b])``."""
    head = term.func
    args = list(term.args)
    while isinstance(head, F.App):
        args = list(head.args) + args
        head = head.func
    return head, args


def term_to_fol(
    term: F.Term,
    bound: Mapping[str, FTerm],
    fapp: FAppBuilder = FApp,
) -> FTerm:
    """Encode a HOL term in the first-order term language.

    This is the only HOL-to-FOL term encoding: the clausifier, the SMT
    prover's theory check and the E-matcher's term graph all go through
    it, so a term means the same node in each.  Integer and boolean
    literals become the constants ``$int_N``, ``$true`` and ``$false``,
    tuples ``$pair`` applications, curried applications are flattened,
    and an application of a bound name ``x`` becomes ``$apply(x, ...)``.
    ``bound`` maps bound names to their FOL terms; ``fapp`` builds the
    applications (a :class:`TermBank`'s ``fapp`` hash-conses them).

    Raises :class:`ClausificationError` on anything that is not a
    first-order term: a binder, ``if-then-else``, ``old``, or a formula in
    term position.
    """
    if isinstance(term, F.Var):
        if term.name in bound:
            return bound[term.name]
        return fapp(term.name, ())
    if isinstance(term, F.IntLit):
        return fapp(f"$int_{term.value}", ())
    if isinstance(term, F.BoolLit):
        return fapp("$true" if term.value else "$false", ())
    if isinstance(term, F.TupleTerm):
        return fapp("$pair", tuple(term_to_fol(i, bound, fapp) for i in term.items))
    if isinstance(term, F.App):
        head, args = uncurry(term)
        if isinstance(head, F.Var):
            encoded = tuple(term_to_fol(a, bound, fapp) for a in args)
            if head.name in bound:
                return fapp("$apply", (bound[head.name],) + encoded)
            return fapp(head.name, encoded)
        raise ClausificationError(f"higher-order term {term!r}")
    if isinstance(term, (F.Quant, F.Lambda, F.SetCompr)):
        raise ClausificationError(f"binder in term position: {term!r}")
    if isinstance(term, F.Ite):
        raise ClausificationError("if-then-else must be eliminated before clausification")
    if isinstance(term, F.Old):
        raise ClausificationError("old() must be resolved before clausification")
    if isinstance(term, (F.And, F.Or, F.Not, F.Implies, F.Iff, F.Eq)):
        # A formula in term position (a boolean-valued field argument).  The
        # untyped term language has no sound name for it, so it is not encoded.
        raise ClausificationError(f"formula in term position: {term!r}")
    raise ClausificationError(f"cannot translate term {term!r}")
