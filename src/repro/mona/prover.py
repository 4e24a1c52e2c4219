"""The MONA-role prover: deciding the monadic fragment of sequents with WS1S.

The original Jahob uses MONA (monadic second-order logic over strings and
trees) for complete reasoning about reachability along list and tree
backbones.  This reproduction re-implements the WS1S engine itself
(:mod:`repro.mona.ws1s`), and uses it to decide the *monadic* fragment of
sequents: formulas built from

* object variables (free or quantified),
* ground object terms (treated as uninterpreted constants),
* ground set-valued terms (treated as set constants),
* membership, set inclusion and equality atoms, and
* the propositional connectives and quantifiers over objects.

Soundness and completeness for this fragment follow from the finite model
property of monadic first-order logic: a sequent in the fragment is valid
over arbitrary object universes iff its relativisation to an arbitrary
finite universe (a second-order variable ``$U``) is valid, and the latter is
exactly what the WS1S decision procedure checks.

Reachability along backbones (the part of MONA's role that needs the
structure-exposing encodings of field constraint analysis) is mostly
delegated to the first-order prover's reachability axioms in this
reproduction (see DESIGN.md for the documented deviation) — but the sound
monadic abstraction of :mod:`repro.mona.reach` is applied first: base
backbone closures with ground sources become uninterpreted reach-*sets*,
and closures through one ``fieldWrite`` are unfolded by the escape/suffix
path decomposition at assumption-like polarity, so obligations whose
reachability content is set-shaped (the alloc/backbone invariants) can be
*decided* here instead of searched for by resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..form import ast as F
from ..form.printer import to_str
from ..form.rewrite import expand_set_equalities, expand_set_literals, simplify
from ..form.subst import free_vars
from ..provers.approximation import relevant_assumptions, rewrite_sequent
from ..provers.base import Deadline, Prover, ProverAnswer, Seconds, Verdict
from ..vcgen.sequent import Sequent
from . import ws1s
from .reach import decompose_reachability
from .ws1s import CompilationLimit, Compiler


class FragmentError(Exception):
    """Raised when a formula is outside the monadic fragment."""


class _Encoder:
    """Translates monadic HOL formulas into WS1S formulas."""

    UNIVERSE = "$U"

    def __init__(self, set_terms: Optional[Set[str]] = None) -> None:
        self.point_names: Dict[str, str] = {}
        self.set_names: Dict[str, str] = {}
        self.set_terms: Set[str] = set(set_terms or ())

    # -- name management -------------------------------------------------------

    def point_var(self, term: F.Term, bound: Set[str]) -> str:
        if isinstance(term, F.Var) and term.name in bound:
            return "p_" + term.name
        if free_vars(term) & bound:
            raise FragmentError(f"non-ground point term under a binder: {to_str(term)}")
        key = to_str(term)
        return self.point_names.setdefault(key, f"c{len(self.point_names)}_{_sanitize(key)}")

    def set_var(self, term: F.Term, bound: Set[str]) -> str:
        if free_vars(term) & bound:
            raise FragmentError(f"set term depends on a bound variable: {to_str(term)}")
        key = to_str(term)
        return self.set_names.setdefault(key, f"S{len(self.set_names)}_{_sanitize(key)}")

    # -- terms ------------------------------------------------------------------

    def _is_set_like(self, term: F.Term) -> bool:
        if isinstance(term, F.Old):
            return self._is_set_like(term.term)
        if isinstance(term, F.Var):
            return term.name in ("alloc", "Object_alloc", "emptyset", "univ")
        if isinstance(term, F.App) and isinstance(term.func, F.Var):
            return term.func.name in ("union", "inter", "setdiff", "minus", "insert")
        return False

    # -- formulas ---------------------------------------------------------------

    def encode(self, formula: F.Term, bound: Set[str]) -> ws1s.WS1SFormula:
        if isinstance(formula, F.BoolLit):
            return ws1s.TrueW() if formula.value else ws1s.FalseW()
        if isinstance(formula, F.Not):
            return ws1s.NotW(self.encode(formula.arg, bound))
        if isinstance(formula, F.And):
            return ws1s.AndW(tuple(self.encode(a, bound) for a in formula.args))
        if isinstance(formula, F.Or):
            return ws1s.OrW(tuple(self.encode(a, bound) for a in formula.args))
        if isinstance(formula, F.Implies):
            return ws1s.ImpliesW(self.encode(formula.lhs, bound), self.encode(formula.rhs, bound))
        if isinstance(formula, F.Iff):
            return ws1s.IffW(self.encode(formula.lhs, bound), self.encode(formula.rhs, bound))
        if isinstance(formula, F.Quant):
            return self._encode_quant(formula, bound)
        if isinstance(formula, F.Eq):
            return self._encode_eq(formula, bound)
        if F.is_app_of(formula, "elem") and len(formula.args) == 2:
            element, target = formula.args
            point = self.point_var(element, bound)
            if isinstance(target, (F.SetCompr,)):
                raise FragmentError("set comprehension in membership")
            collection = self.set_var(target, bound)
            return ws1s.InW(point, collection)
        if F.is_app_of(formula, "subseteq") and len(formula.args) == 2:
            return ws1s.SubsetW(
                self.set_var(formula.args[0], bound), self.set_var(formula.args[1], bound)
            )
        raise FragmentError(f"atom outside the monadic fragment: {to_str(formula)}")

    def _encode_quant(self, formula: F.Quant, bound: Set[str]) -> ws1s.WS1SFormula:
        from ..form.types import OBJ

        body_bound = set(bound)
        names = []
        for name, typ in formula.params:
            if typ is not None and typ != OBJ:
                raise FragmentError(f"quantifier over non-object sort: {typ}")
            body_bound.add(name)
            names.append(name)
        inner = self.encode(formula.body, body_bound)
        for name in reversed(names):
            var = "p_" + name
            guard = ws1s.InW(var, self.UNIVERSE)
            if formula.kind == "ALL":
                inner = ws1s.forall1(var, ws1s.ImpliesW(guard, inner))
            else:
                inner = ws1s.Exists1W(var, ws1s.AndW((guard, inner)))
        return inner

    def _encode_eq(self, formula: F.Eq, bound: Set[str]) -> ws1s.WS1SFormula:
        lhs, rhs = formula.lhs, formula.rhs
        if self._is_set_like(lhs) or self._is_set_like(rhs):
            raise FragmentError("unexpanded set equality")
        # Boolean equality between formulas (the parser produces Eq for '=')
        if _looks_like_formula(lhs) or _looks_like_formula(rhs):
            return ws1s.IffW(self.encode(lhs, bound), self.encode(rhs, bound))
        lhs_is_set = to_str(lhs) in self.set_terms
        rhs_is_set = to_str(rhs) in self.set_terms
        if lhs_is_set or rhs_is_set:
            return ws1s.SetEqW(self.set_var(lhs, bound), self.set_var(rhs, bound))
        return ws1s.EqPosW(self.point_var(lhs, bound), self.point_var(rhs, bound))


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)[:24]


def _looks_like_formula(term: F.Term) -> bool:
    return isinstance(term, (F.And, F.Or, F.Not, F.Implies, F.Iff, F.Quant, F.BoolLit)) or (
        isinstance(term, F.App)
        and isinstance(term.func, F.Var)
        and term.func.name in ("elem", "subseteq", "lt", "lte", "gt", "gte")
    )


def _collect_set_terms(formulas: List[F.Term]) -> Set[str]:
    """Printed forms of terms used in set positions (2nd arg of elem, subseteq)."""
    names: Set[str] = set()
    for formula in formulas:
        for sub in F.subterms(formula):
            if F.is_app_of(sub, "elem") and len(sub.args) == 2:
                names.add(to_str(sub.args[1]))
            elif F.is_app_of(sub, "subseteq") and len(sub.args) == 2:
                names.add(to_str(sub.args[0]))
                names.add(to_str(sub.args[1]))
    return names


def _fragment_atoms_only(formula: F.Term) -> bool:
    """Quick check that a formula contains no operators outside the fragment."""
    banned = (
        set(F.ARITH_OPS)
        | set(F.REACH_OPS)
        | {"card", "fieldWrite", "arrayWrite", "arrayRead", "arrayLength", "finite"}
    )
    for sub in F.subterms(formula):
        if isinstance(sub, (F.Lambda, F.SetCompr, F.IntLit, F.Ite, F.Old)):
            return False
        if isinstance(sub, F.Var) and sub.name in banned:
            return False
    return True


# "minus" stays ungated: the parser overloads it as set difference, which
# both this engine and the FOL translation handle fine.
_GATED_OPS = (frozenset(F.ARITH_OPS) - {"minus"}) | {"card"}


def _mentions_gated_ops(goal: F.Term) -> bool:
    return any(
        isinstance(sub, F.Var) and sub.name in _GATED_OPS for sub in F.subterms(goal)
    )


class MonaProver(Prover):
    """Decides sequents in the monadic fragment via the WS1S engine."""

    name = "mona"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        #: When the WS1S engine decides a suite obligation it does so in well
        #: under a second; every longer attempt ends in an automaton blow-up
        #: or deadline expiry.  The default budget is therefore short —
        #: whole-suite profiling showed the previous 10 s default was pure
        #: deadline burn on goals the engine never decides (it found no
        #: extra proofs anywhere).
        timeout: Seconds = 2.0
        #: The automaton compiler's caps: they bound the search and
        #: therefore decide between PROVED and UNKNOWN.
        max_states: int = 20000
        max_tracks: int = 12

    def options_signature(self) -> str:
        # Fields in declaration order (the key predates the sorted default).
        # The reach tag versions the repro.mona.reach preprocessing, which
        # decides what MONA can prove: other versions' UNKNOWNs must miss.
        o = self.options
        return (f"timeout={o.timeout!r};max_states={o.max_states};max_tracks={o.max_tracks}"
                ";reach=escape-suffix-v1")

    def attempt(self, sequent: Sequent, deadline: Deadline) -> ProverAnswer:
        # Goals mentioning ``card`` or integer arithmetic are answered
        # UNSUPPORTED *before* the reachability decomposition and rewrite
        # pipeline run: those operators never rewrite away, so such goals
        # could only reach the (late) fragment check after burning the
        # whole preprocessing cost.
        if _mentions_gated_ops(sequent.goal.formula):
            return ProverAnswer(
                Verdict.UNSUPPORTED,
                self.name,
                detail="cardinality/arithmetic goal outside the monadic fragment",
            )
        # Backbone reachability must be abstracted *before* the standard
        # rewrites: expanding fieldWrite reads would dissolve the written
        # backbones into Ite case splits no decomposition matches (the same
        # ordering constraint as in repro.fol.hol2fol).
        sequent = decompose_reachability(sequent)
        prepared = rewrite_sequent(relevant_assumptions(sequent.restricted(), rounds=2))
        formulas = [a.formula for a in prepared.assumptions] + [prepared.goal.formula]

        # Expand any residual set algebra so only memberships remain.
        set_terms = _collect_set_terms(formulas)
        expanded = []
        for formula in formulas:
            formula = expand_set_equalities(formula, set_terms)
            formula = expand_set_literals(formula)
            expanded.append(simplify(formula))
        *assumptions, goal = expanded

        if not _fragment_atoms_only(goal):
            return ProverAnswer(Verdict.UNSUPPORTED, self.name, detail="goal outside monadic fragment")
        usable_assumptions = [a for a in assumptions if _fragment_atoms_only(a)]

        encoder = _Encoder(set_terms)
        try:
            encoded_goal = encoder.encode(goal, set())
        except FragmentError as exc:
            return ProverAnswer(Verdict.UNSUPPORTED, self.name, detail=str(exc))
        encoded_assumptions = []
        max_constants = self.options.max_tracks - 1
        for assumption in usable_assumptions:
            if len(encoder.point_names) + len(encoder.set_names) >= max_constants:
                # Track budget reached: further assumptions are dropped
                # (sound) rather than blowing up the automaton alphabet.
                break
            try:
                encoded_assumptions.append(encoder.encode(assumption, set()))
            except FragmentError:
                # Dropping an assumption is always sound (Section 4.4).
                continue

        # Relativise: free point constants live in the universe, free set
        # constants are subsets of it.
        side_conditions: List[ws1s.WS1SFormula] = []
        for name in encoder.point_names.values():
            side_conditions.append(ws1s.InW(name, encoder.UNIVERSE))
        for name in encoder.set_names.values():
            side_conditions.append(ws1s.SubsetW(name, encoder.UNIVERSE))

        hypotheses = tuple(side_conditions) + tuple(encoded_assumptions)
        if hypotheses:
            implication: ws1s.WS1SFormula = ws1s.ImpliesW(ws1s.AndW(hypotheses), encoded_goal)
        else:
            implication = encoded_goal

        first_order = list(encoder.point_names.values())
        compiler = Compiler(self.options.max_states, self.options.max_tracks)
        try:
            if ws1s.is_valid(implication, first_order, compiler, deadline):
                return ProverAnswer(
                    Verdict.PROVED,
                    self.name,
                    detail=f"WS1S valid ({len(first_order)} point vars, {len(encoder.set_names)} set vars)",
                )
        except CompilationLimit as exc:
            return ProverAnswer(Verdict.UNKNOWN, self.name, detail=f"automaton blow-up: {exc}")
        return ProverAnswer(Verdict.UNKNOWN, self.name, detail="WS1S counterexample exists")
