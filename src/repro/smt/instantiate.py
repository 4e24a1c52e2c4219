"""Quantifier instantiation for the SMT prover: E-matching.

Modern SMT solvers handle quantified assumptions by *E-matching*: the solver
infers trigger patterns for each universally quantified assumption, matches
the patterns against the congruence closure's term graph (so matching is
modulo the equalities the current candidate model asserts, not merely
syntactic), and asserts the resulting ground instances incrementally, one
DPLL(T) round at a time.  This module implements that engine
(:class:`EMatchEngine`); it is the prover's only instantiation engine, and
its bounded ground enumeration (rule 4) covers the quantifiers that
matching cannot feed.

Trigger inference and instantiation rules
-----------------------------------------

For a universal ``ALL x1 ... xn. body`` the engine selects *triggers* —
pattern sets matched against the E-graph — as follows:

1. *Candidate patterns* are the application subterms of ``body`` with a
   named head, containing at least one bound variable and no binder or
   logical connective, whose head is not an arithmetic operator and not a
   functional-update constructor (``fieldWrite`` / ``arrayWrite`` — both are
   expanded away before instantiation, and arithmetic terms make unstable
   patterns).  Equalities are never patterns (the classic rule: an equality
   trigger would fire on every merge).
2. *Mono-patterns first*: candidates covering **all** bound variables are
   preferred; among them, patterns that contain another candidate as a
   subterm are discarded (the smaller pattern matches strictly more often),
   and the ``max_triggers`` smallest survivors each become an alternative
   single-pattern trigger (their match sets are unioned).
3. *Multi-patterns*: when no single candidate covers every variable, a
   multi-pattern is assembled greedily — repeatedly add the candidate
   covering the most not-yet-covered variables (smallest first on ties) —
   and becomes one trigger whose patterns are matched jointly, threading
   one substitution through all of them.
4. *Fallback*: a quantifier with no trigger, or whose triggers produce no
   match in the first round (e.g. reflexivity ``ALL x. r x x``, whose only
   pattern has a repeated variable and therefore matches no term until an
   ``r``-loop already exists), is instantiated by bounded ground
   enumeration instead: every parameter ranges over the smallest ground
   terms of its sort harvested from the asserted formulas
   (``max_candidates_per_sort`` of them, ``null`` / ``0`` when there are
   none), and at most ``max_instances_per_formula`` combinations are
   tried.  Set-, function- and tuple-sorted parameters are never
   enumerated.  The enumeration is re-armed every round until one of its
   instances is actually asserted.

Matching is *equivalence-aware*: a pattern position accepts any member of
the target equivalence class with the right head symbol, and bound
variables bind whole classes.  Substitutions map each variable to its
class's *representative* term (the smallest member), so congruent matches
collapse to one instance and existential witnesses below the instance are
shared per representative (see :class:`SkolemSupply`).

Soundness
---------

Every emitted instance is a substitution instance of its source quantifier
(the property pinned by ``tests/smt/test_instantiation_properties.py``), so
asserting it is sound.  Existentials are skolemized *per instance*, after
substitution, with witnesses memoised by the printed form of the
existential subformula — never shared across genuinely different instances.
(The previous engine skolemized ``EX`` below a universal with one constant
shared by every later instance, which is a real unsoundness — now pinned by
a regression test.)  Anything that remains quantified after the configured
rounds is soundly weakened away.  When a cap (``ematch_rounds``,
``max_ematch_instances``) cuts the search, the prover's UNKNOWN answer says
so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..fol.clausify import ClausificationError, term_to_fol, uncurry
from ..fol.terms import FApp, FTerm, FVar
from ..form import ast as F
from ..form.intern import TermBank
from ..form.printer import to_str
from ..form.rewrite import nnf, simplify
from ..form.subst import free_vars, fresh_name, substitute
from ..form.types import INT, OBJ, Type
from ..provers.base import Deadline, check_fields
from .congruence import CongruenceClosure


@dataclass(frozen=True)
class InstantiationConfig:
    """Limits of the E-matching engine; the SMT prover's ``instantiation``
    option, so part of its ``options_signature`` (and therefore of the
    sequent-cache key): verdicts computed under one configuration are never
    replayed under another.  Checked when built, like the prover options."""

    # -- fallback enumeration (rule 4) ----------------------------------------
    #: Ground candidates tried per parameter.
    max_candidates_per_sort: int = 8
    #: Instances the enumeration asserts per quantifier.
    max_instances_per_formula: int = 64
    # -- E-matching limits ----------------------------------------------------
    #: Alternative single-pattern triggers kept per quantifier.
    max_triggers: int = 3
    #: Instantiation rounds inside the DPLL(T) loop.
    ematch_rounds: int = 12
    #: New instances asserted per round, per quantifier (matching is
    #: deterministic, goal-relevant quantifiers are processed first).
    max_instances_per_quantifier_round: int = 24
    #: New instances asserted per round (across all quantifiers).
    max_instances_per_round: int = 100
    #: Total instances the engine may ever assert.
    max_ematch_instances: int = 2000
    #: Witness-chain bound: an instance whose substitution mentions a
    #: generation-``n`` Skolem witness may only create new witnesses of
    #: generation ``n+1``, and generations beyond this cap are not created
    #: at all.  This cuts the classic matching loop where an existential
    #: invariant's witness re-feeds the trigger that produced it
    #: (``... -> EX m. ...`` chased through its own witness forever).
    max_skolem_generation: int = 2
    #: E-matching substitutions may only bind terms up to this size —
    #: the other classic divergence (one-step unfolding axioms minting
    #: ``next (next (next ...))`` chains, each feeding the next round's
    #: match) is cut at the term level.  Sized to admit witness-shaped
    #: terms (tuples of field reads) while rejecting unfolding chains.
    max_substitution_size: int = 8

    def __post_init__(self) -> None:
        check_fields(self)


class GroundHarvest:
    """The fallback enumeration's ground candidate terms, split into
    object-like and integer-like, fed one formula at a time: the engine's
    ground set only grows, so each round adds the formulas asserted since
    the last one instead of re-walking all."""

    def __init__(self) -> None:
        self._obj_terms: List[F.Term] = []
        self._int_terms: List[F.Term] = []
        self._seen: Set[str] = set()
        #: Names used in function position anywhere in the harvested formulas.
        self._heads: Set[str] = set()

    def add(self, formula: F.Term) -> None:
        # Names bound by any binder inside this formula; a subterm is a
        # candidate only if it does not mention any of them (program
        # variables, fields and specification variables are free names and
        # are perfectly good instantiation candidates).
        bound_names = set()
        for sub in F.subterms(formula):
            if isinstance(sub, (F.Quant, F.Lambda, F.SetCompr)):
                bound_names.update(name for name, _ in sub.params)
            elif isinstance(sub, F.App) and isinstance(sub.func, F.Var):
                self._heads.add(sub.func.name)
        for sub in F.subterms(formula):
            if isinstance(sub, (F.Quant, F.Lambda, F.SetCompr)):
                continue
            if free_vars(sub) & bound_names:
                continue
            kind = _classify_candidate(sub)
            if kind is None:
                continue
            key = to_str(sub)
            if key in self._seen:
                continue
            self._seen.add(key)
            if kind == "obj":
                self._obj_terms.append(sub)
            else:
                self._int_terms.append(sub)

    def candidates(self) -> Tuple[List[F.Term], List[F.Term]]:
        """(object-like, integer-like) candidates, smallest first."""
        heads = self._heads
        # Names used in function position (fields, arrays) are not useful
        # instantiation candidates for object quantifiers; drop the bare names.
        obj_terms = [t for t in self._obj_terms if not (isinstance(t, F.Var) and t.name in heads)]
        int_terms = [t for t in self._int_terms if not (isinstance(t, F.Var) and t.name in heads)]
        # Prefer small candidate terms (variables and single field reads).
        obj_terms.sort(key=F.term_size)
        int_terms.sort(key=F.term_size)
        obj_terms = [t for t in obj_terms if F.term_size(t) <= 4]
        int_terms = [t for t in int_terms if F.term_size(t) <= 4]
        return obj_terms, int_terms


def _classify_candidate(term: F.Term) -> Optional[str]:
    if isinstance(term, F.IntLit):
        return "int"
    if isinstance(term, F.Var):
        if term.name in ("null",):
            return "obj"
        if F.is_builtin(term.name):
            return None
        return "obj"
    if isinstance(term, F.App) and isinstance(term.func, F.Var):
        name = term.func.name
        if name in ("plus", "minus", "times", "uminus", "card", "arrayLength", "div", "mod"):
            return "int"
        if name in F.SET_OPS or name in F.REACH_OPS or name in ("lt", "lte", "gt", "gte", "elem", "subseteq", "fieldWrite", "arrayWrite", "tree", "tree2"):
            return None
        return "obj"
    return None


class SkolemSupply:
    """Fresh witness constants for skolemized existentials.

    Witnesses are memoised by *key* — the printed form of the existential
    subformula being skolemized — so the same asserted fact always receives
    the same witness (two syntactically identical instances of a quantified
    assumption share their existential witness: one witness satisfies both,
    so the sharing is sound and keeps the ground problem small).  Distinct
    instances print differently and therefore never share.
    """

    def __init__(self) -> None:
        self._counter = 0
        self._memo: Dict[Tuple[str, str], F.Var] = {}
        self._names: List[str] = []

    def fresh(self, base: str) -> F.Var:
        self._counter += 1
        name = f"sk_{base}_{self._counter}"
        self._names.append(name)
        return F.Var(name)

    def witness(self, key: str, base: str) -> F.Var:
        memo_key = (key, base)
        if memo_key not in self._memo:
            self._memo[memo_key] = self.fresh(base)
        return self._memo[memo_key]

    def known_names(self) -> List[str]:
        """Every witness name minted so far (in creation order)."""
        return self._names


def skolemize_existentials(formula: F.Term, supply: SkolemSupply) -> F.Term:
    """Replace positively-occurring existentials *outside universal scope*
    by witness constants.

    The formula must already be in negation normal form.  Existentials in
    the scope of a universal quantifier are left alone: their witness
    depends on the universal's variables, so a constant would be an unsound
    strengthening of the assertion — they are skolemized per ground
    instance instead, after the universal has been instantiated.
    """
    if isinstance(formula, F.Quant) and formula.kind == "EX":
        key = to_str(formula)
        mapping = {name: supply.witness(key, name) for name, _ in formula.params}
        return skolemize_existentials(substitute(formula.body, mapping), supply)
    if isinstance(formula, F.Quant):
        return formula  # a universal: skolemize only after instantiation
    if isinstance(formula, F.And):
        return F.mk_and(tuple(skolemize_existentials(a, supply) for a in formula.args))
    if isinstance(formula, F.Or):
        return F.mk_or(tuple(skolemize_existentials(a, supply) for a in formula.args))
    return formula


def hoist_universals(formula: F.Term) -> F.Term:
    """Pull a universal out of a disjunction: ``A | (ALL y. B)`` becomes
    ``ALL y. (A | B)`` (equivalent when ``y`` is not free in ``A``; bound
    variables are renamed when they would capture).  This is what lets a
    nested-universal instance — ``ALL x. P x --> (ALL y. Q x y)``
    instantiated at ``x`` — re-enter the quantifier pool instead of being
    weakened away as an unhandled residual quantifier.
    """
    if isinstance(formula, F.Quant) and formula.kind == "ALL":
        return F.Quant(formula.kind, formula.params, hoist_universals(formula.body))
    if isinstance(formula, F.Or):
        for position, arg in enumerate(formula.args):
            if isinstance(arg, F.Quant) and arg.kind == "ALL":
                rest = formula.args[:position] + formula.args[position + 1:]
                rest_free: Set[str] = set()
                for other in rest:
                    rest_free |= free_vars(other)
                params = []
                renaming: Dict[str, F.Term] = {}
                avoid = rest_free | free_vars(arg.body)
                for name, typ in arg.params:
                    if name in rest_free:
                        new_name = fresh_name(name, avoid)
                        avoid.add(new_name)
                        renaming[name] = F.Var(new_name)
                        params.append((new_name, typ))
                    else:
                        params.append((name, typ))
                body = substitute(arg.body, renaming) if renaming else arg.body
                return F.Quant(
                    "ALL",
                    tuple(params),
                    hoist_universals(F.mk_or(tuple(rest) + (body,))),
                )
    return formula


def drop_remaining_quantifiers(formula: F.Term) -> F.Term:
    """Replace any leftover quantified subformula by ``True`` (weakening).

    The formula is one of the asserted members of the refutation set, so
    weakening it is sound: if the weakened set is unsatisfiable, so is the
    original.
    """
    if isinstance(formula, F.Quant):
        return F.TRUE
    if isinstance(formula, F.And):
        return F.mk_and(tuple(drop_remaining_quantifiers(a) for a in formula.args))
    if isinstance(formula, F.Or):
        return F.mk_or(tuple(drop_remaining_quantifiers(a) for a in formula.args))
    return formula


def _param_candidates(
    param_type: Optional[Type],
    obj_candidates: Sequence[F.Term],
    int_candidates: Sequence[F.Term],
) -> Sequence[F.Term]:
    if param_type == INT:
        return int_candidates or (F.IntLit(0),)
    if param_type == OBJ or param_type is None:
        return obj_candidates or (F.NULL,)
    # Sets, functions and tuples are not instantiated by this heuristic.
    return ()


def _has_quantifier(formula: F.Term) -> bool:
    return any(isinstance(sub, F.Quant) for sub in F.subterms(formula))


# ---------------------------------------------------------------------------
# Trigger inference
# ---------------------------------------------------------------------------

#: Heads that never serve as trigger patterns: arithmetic (unstable under
#: the LIA solver's reasoning) and functional updates (expanded away before
#: instantiation; a surviving one indicates an unexpanded read).
_EXCLUDED_TRIGGER_HEADS = frozenset(F.ARITH_OPS) | {"fieldWrite", "arrayWrite"}

_LOGICAL_NODES = (F.And, F.Or, F.Not, F.Implies, F.Iff, F.Eq, F.Ite,
                  F.Quant, F.Lambda, F.SetCompr)


@dataclass(frozen=True)
class Trigger:
    """One trigger: patterns matched jointly (a singleton is a mono-pattern)."""

    patterns: Tuple[F.Term, ...]


#: An instantiation substitution, by printed value: ``((name, value), ...)``.
_SubstitutionKey = Tuple[Tuple[str, str], ...]


@dataclass
class _Quantifier:
    """A pooled universally quantified assertion with its inferred triggers."""

    formula: F.Quant
    triggers: Tuple[Trigger, ...]
    #: Instantiation-substitution keys already emitted (per quantifier).
    emitted: Set[_SubstitutionKey] = field(default_factory=set)
    #: Instances the relevancy filter deferred, by substitution key: the
    #: raw and normalised instance and its Skolem generation (built once,
    #: reused when a later match hits the key) plus the round that last
    #: deferred it (under one round's valuation a repeat is skipped).
    deferred: Dict[_SubstitutionKey, Tuple[F.Term, F.Term, int, int]] = field(
        default_factory=dict
    )
    matched_instances: int = 0
    fallback_done: bool = False

    @property
    def params(self) -> Tuple[Tuple[str, Optional[Type]], ...]:
        return self.formula.params


def _is_term_shaped(term: F.Term) -> bool:
    """No logical connective or binder anywhere inside ``term``."""
    return not any(isinstance(sub, _LOGICAL_NODES) for sub in F.subterms(term))


def _contains_subterm(haystack: F.Term, needle: F.Term) -> bool:
    return any(sub == needle for sub in F.subterms(haystack) if sub is not haystack)


def infer_triggers(formula: F.Quant, config: InstantiationConfig) -> Tuple[Trigger, ...]:
    """Infer the trigger set of one universal (see the module docstring)."""
    bound = {name for name, _ in formula.params}
    candidates: List[F.Term] = []
    seen: Set[str] = set()
    body = nnf(formula.body)
    #: Atoms occurring negated in the NNF body — the quantifier's
    #: *hypotheses*.  Preferred as patterns: an instance matched on its
    #: hypotheses constrains the model that produced the match, whereas one
    #: matched on its conclusion usually needs terms that do not exist yet.
    negated: Set[str] = {
        to_str(sub.arg) for sub in F.subterms(body) if isinstance(sub, F.Not)
    }
    for sub in F.subterms(body):
        if not (isinstance(sub, F.App) and isinstance(sub.func, F.Var)):
            continue
        head = sub.func.name
        if head in _EXCLUDED_TRIGGER_HEADS or head in bound:
            continue
        pattern_vars = free_vars(sub) & bound
        if not pattern_vars:
            continue
        if not _is_term_shaped(sub):
            continue
        key = to_str(sub)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(sub)

    if not candidates:
        return ()
    candidates.sort(
        key=lambda t: (F.term_size(t), to_str(t) not in negated, to_str(t))
    )

    full = [c for c in candidates if free_vars(c) & bound == bound]
    if full:
        # Keep minimal patterns: a pattern containing an already-kept full
        # cover as a subterm matches strictly less often — drop it.
        kept: List[F.Term] = []
        for candidate in full:
            if any(_contains_subterm(candidate, existing) for existing in kept):
                continue
            kept.append(candidate)
            if len(kept) >= config.max_triggers:
                break
        return tuple(Trigger((pattern,)) for pattern in kept)

    # Multi-pattern: greedily cover all bound variables, hypotheses first.
    ordered = sorted(
        candidates,
        key=lambda t: (to_str(t) not in negated, F.term_size(t), to_str(t)),
    )
    covered: Set[str] = set()
    patterns: List[F.Term] = []
    while covered != bound:
        best = None
        best_gain = 0
        for candidate in ordered:
            gain = len((free_vars(candidate) & bound) - covered)
            if gain > best_gain:
                best, best_gain = candidate, gain
        if best is None:
            return ()  # some variable occurs in no candidate: no trigger
        patterns.append(best)
        covered |= free_vars(best) & bound
    return (Trigger(tuple(patterns)),)


# ---------------------------------------------------------------------------
# The E-matching engine
# ---------------------------------------------------------------------------


@dataclass
class InstanceRecord:
    """Provenance of one emitted instance (exercised by the property tests)."""

    source: F.Quant
    substitution: Dict[str, F.Term]
    #: The raw substitution instance of the quantifier body — before
    #: simplification and per-instance skolemization.
    instance: F.Term
    #: ``"ematch"`` or ``"fallback"`` (ground enumeration for trigger-less
    #: quantifiers).
    via: str


@dataclass
class EMatchStats:
    quantifiers: int = 0
    triggers: int = 0
    rounds: int = 0
    instances: int = 0
    dropped: int = 0


class EMatchEngine:
    """Incremental E-matching instantiation, driven by the DPLL(T) loop.

    The prover constructs one engine per attempt, asserts the prepared
    formulas through it (conjunctions are split, top-level existentials
    skolemized, universals pooled with inferred triggers), takes the
    initial ground problem from :attr:`ground`, and calls :meth:`round`
    whenever the SAT core finds a theory-consistent model: the engine
    rebuilds the congruence closure from every ground term asserted so far
    plus the equalities the model satisfies, matches all triggers against
    it, and returns the new ground instances to assert.  An empty return
    means the quantified assumptions have nothing more to say about the
    current model — the prover then answers UNKNOWN.
    """

    def __init__(
        self,
        assertions: Sequence[F.Term],
        config: Optional[InstantiationConfig] = None,
        deadline: Optional[Deadline] = None,
        bank: Optional[TermBank] = None,
    ) -> None:
        self.config = config or InstantiationConfig()
        self.deadline = deadline or Deadline.never()
        #: Per-attempt term bank: instances share interned subterm objects,
        #: so printing and normalisation of the shared DAG are memoised by
        #: identity.  ``None`` runs the engine without hash-consing.
        self.bank = bank
        self._printed = bank.printed if bank is not None else to_str
        self.supply = SkolemSupply()
        #: Witness generation per Skolem constant name (see
        #: ``InstantiationConfig.max_skolem_generation``).
        self._skolem_generation: Dict[str, int] = {}
        self.stats = EMatchStats()
        self.records: List[InstanceRecord] = []
        self.quantifiers: List[_Quantifier] = []
        #: Ground formulas accumulated so far (initial + instances).
        self.ground: List[F.Term] = []
        #: Fallback candidates harvested from ``ground[:_harvested_upto]``.
        self._fallback_harvest = GroundHarvest()
        self._harvested_upto = 0
        #: Applications of the term graph are hash-consed (through a private
        #: bank when the engine runs without one), so the congruence
        #: closure's term-to-id lookups hit on identity.
        self._fapp = (bank if bank is not None else TermBank()).fapp
        #: HOL preimage of every ground node translated so far, for
        #: substitution extraction.
        self.backmap: Dict[FTerm, F.Term] = {}
        #: Ground HOL terms/atoms interned for matching, by printed form.
        self._term_pool: Dict[str, FTerm] = {}
        self._asserted: Set[str] = set()
        for assertion in assertions:
            self._assert(self._normalise(assertion))

    def _normalise(self, formula: F.Term) -> F.Term:
        """``simplify(nnf(...))`` — through the bank's identity-keyed memo
        (and interned) when one is attached."""
        if self.bank is not None:
            return self.bank.normalised(formula)
        return simplify(nnf(formula))

    # -- assertion intake ------------------------------------------------------

    def _assert(self, formula: F.Term) -> None:
        formula = hoist_universals(skolemize_existentials(formula, self.supply))
        if self.bank is not None:
            # Canonicalise so every later per-node cache (printing, NNF,
            # harvest) hits on the shared subterm objects.
            formula = self.bank.intern(formula)
        if isinstance(formula, F.And):
            for arg in formula.args:
                self._assert(arg)
            return
        if isinstance(formula, F.Quant) and formula.kind == "ALL":
            self._pool(formula)
            return
        formula = drop_remaining_quantifiers(formula)
        if isinstance(formula, F.BoolLit) and formula.value:
            return
        key = self._printed(formula)
        if key in self._asserted:
            return
        self._asserted.add(key)
        self.ground.append(formula)
        self._harvest(formula)

    def _pool(self, formula: F.Quant) -> None:
        triggers = infer_triggers(formula, self.config)
        self.quantifiers.append(_Quantifier(formula=formula, triggers=triggers))
        self.stats.quantifiers += 1
        self.stats.triggers += len(triggers)

    def _harvest(self, formula: F.Term) -> None:
        """Intern every ground term (and application atom) of a formula."""
        for sub in F.subterms(formula):
            if isinstance(sub, (F.App, F.Var, F.IntLit, F.TupleTerm)):
                if not _is_term_shaped(sub):
                    continue
                translated = self.translate(sub)
                if translated is not None:
                    self._term_pool.setdefault(self._printed(sub), translated)

    def translate(self, node: F.Term, bound: AbstractSet[str] = frozenset()) -> Optional[FTerm]:
        """``node`` as a term-graph node (the shared encoding,
        :func:`repro.fol.clausify.term_to_fol`), bound names as FOL
        variables; None for anything that is not a first-order term and
        for applications of a bound name, which are never matched.  Every
        ground node of the result is back-mapped to its HOL preimage."""
        try:
            out = term_to_fol(node, {name: FVar(name) for name in bound}, self._fapp)
        except ClausificationError:
            return None
        if bound and any(
            isinstance(sub, FApp) and sub.func == "$apply" for sub in _fterm_nodes(out)
        ):
            return None
        self._record(node, out, bound)
        return out

    def _record(self, node: F.Term, out: FTerm, bound: AbstractSet[str]) -> None:
        """Back-map ``out`` and its ground sub-nodes, children first.  A
        node already back-mapped has all its sub-nodes back-mapped too."""
        if isinstance(out, FVar) or out in self.backmap:
            return
        if isinstance(node, F.TupleTerm):
            children: Sequence[F.Term] = node.items
        elif isinstance(node, F.App):
            children = uncurry(node)[1]
        else:
            children = ()
        for child, sub in zip(children, out.args):
            self._record(child, sub, bound)
        if not (bound and free_vars(node) & bound):
            self.backmap.setdefault(out, node)

    # -- the per-round matcher -------------------------------------------------

    def round(
        self,
        model_equalities: Sequence[Tuple[F.Term, F.Term]] = (),
        valuation: Optional[Dict[str, bool]] = None,
    ) -> List[F.Term]:
        """One instantiation round; returns the new ground formulas.

        ``model_equalities`` are the equality atoms the current candidate
        model asserts — they (plus congruence) define the equivalence
        classes patterns are matched against.  Matching more coarsely than
        the model can only produce extra instances, which are sound
        regardless (every instance is a substitution instance).

        ``valuation`` maps printed atoms to their truth value in the
        candidate model; instances that already evaluate to ``True`` under
        it are *deferred* (not asserted, not marked emitted): they cannot
        refute the current model, and a later model that falsifies them
        will pick them up again.  This is the classic relevancy filter that
        keeps saturating axiom sets (transitivity!) from flooding the SAT
        core with satisfied clauses.
        """
        if self.stats.instances >= self.config.max_ematch_instances:
            return []
        self.stats.rounds += 1
        cc = CongruenceClosure()
        for translated in self._term_pool.values():
            cc.intern(translated)
        for lhs, rhs in model_equalities:
            left = self.translate(lhs)
            right = self.translate(rhs)
            if left is not None and right is not None:
                cc.assert_equal(left, right)
        cc.close()
        classes = cc.members_by_class()
        representatives = self._representatives(cc, classes)

        produced: List[F.Term] = []
        #: Candidate lists for the fallback enumeration, computed lazily
        #: once per round (the ground set does not change mid-round).
        fallback_candidates: Optional[Tuple[List[F.Term], List[F.Term]]] = None
        # Snapshot: _emit may pool nested-universal instances, and those
        # belong to the *next* round (their terms are not in this round's
        # term graph yet — matching them now would only hit the fallback).
        for quantifier in list(self.quantifiers):
            self.deadline.checkpoint(
                every=4, detail=lambda: f"E-matching: {self.stats.instances} instances"
            )
            per_quantifier = 0
            for trigger in quantifier.triggers:
                for substitution in self._match_trigger(trigger, quantifier, cc, classes):
                    mapping = self._extract(substitution, representatives)
                    if mapping is None:
                        continue
                    new = self._emit(quantifier, mapping, "ematch", produced, valuation)
                    if new:
                        quantifier.matched_instances += 1
                        per_quantifier += 1
                    if (
                        per_quantifier >= self.config.max_instances_per_quantifier_round
                        or self._round_full(produced)
                    ):
                        break
                if (
                    per_quantifier >= self.config.max_instances_per_quantifier_round
                    or self._round_full(produced)
                ):
                    break
            if quantifier.matched_instances == 0:
                # A quantifier whose triggers have *never* matched:
                # bounded ground enumeration.  Re-armed every round until
                # an instance is actually asserted — relevancy-deferred
                # instances must be reconsidered under the next model, or
                # a trigger-less quantifier could never block any model.
                # (Quantifiers whose triggers do produce matches never
                # fall back: enumeration would only add junk instances.)
                if fallback_candidates is None:
                    for formula in self.ground[self._harvested_upto:]:
                        self._fallback_harvest.add(formula)
                    self._harvested_upto = len(self.ground)
                    obj_candidates, int_candidates = self._fallback_harvest.candidates()
                    if F.NULL not in obj_candidates:
                        obj_candidates.append(F.NULL)
                    fallback_candidates = (obj_candidates, int_candidates)
                self._fallback(quantifier, produced, valuation, fallback_candidates)
            if self._round_full(produced):
                break

        for formula in produced:
            self._harvest(formula)
        self.ground.extend(produced)
        return produced

    def _round_full(self, produced: List[F.Term]) -> bool:
        return (
            len(produced) >= self.config.max_instances_per_round
            or self.stats.instances >= self.config.max_ematch_instances
        )

    # -- matching --------------------------------------------------------------

    def _match_trigger(
        self,
        trigger: Trigger,
        quantifier: _Quantifier,
        cc: CongruenceClosure,
        classes: Dict[FTerm, List[FTerm]],
    ) -> Iterator[Dict[str, FTerm]]:
        """All joint matches of a trigger's patterns: substitutions mapping
        bound variable names to equivalence-class roots."""
        bound = {name for name, _ in quantifier.params}
        patterns = []
        for pattern in trigger.patterns:
            translated = self.translate(pattern, bound=bound)
            if translated is None:
                return
            patterns.append(translated)

        def match_sequence(index: int, subst: Dict[str, FTerm]) -> Iterator[Dict[str, FTerm]]:
            if index == len(patterns):
                yield dict(subst)
                return
            pattern = patterns[index]
            assert isinstance(pattern, FApp)
            for occurrence in cc.apps_with_head(pattern.func, len(pattern.args)):
                self.deadline.checkpoint(
                    every=64,
                    detail=lambda: f"E-matching: {self.stats.instances} instances",
                )
                for extended in self._match_args(pattern, occurrence, subst, cc, classes):
                    yield from match_sequence(index + 1, extended)

        yield from match_sequence(0, {})

    def _match_args(
        self,
        pattern: FApp,
        occurrence: FApp,
        subst: Dict[str, FTerm],
        cc: CongruenceClosure,
        classes: Dict[FTerm, List[FTerm]],
    ) -> Iterator[Dict[str, FTerm]]:
        def match_positions(position: int, current: Dict[str, FTerm]) -> Iterator[Dict[str, FTerm]]:
            if position == len(pattern.args):
                yield current
                return
            sub_pattern = pattern.args[position]
            target = cc.find(occurrence.args[position])
            yield from self._match_term(
                sub_pattern, target, current, cc, classes,
                lambda extended: match_positions(position + 1, extended),
            )

        yield from match_positions(0, dict(subst))

    def _match_term(
        self,
        pattern: FTerm,
        target_root: FTerm,
        subst: Dict[str, FTerm],
        cc: CongruenceClosure,
        classes: Dict[FTerm, List[FTerm]],
        continuation,
    ) -> Iterator[Dict[str, FTerm]]:
        """Match one pattern position against one equivalence class."""
        if isinstance(pattern, FVar):
            bound_to = subst.get(pattern.name)
            if bound_to is not None:
                # Both are class roots as ``cc.find`` stores them: one
                # object per class.
                if bound_to is target_root:
                    yield from continuation(subst)
                return
            extended = dict(subst)
            extended[pattern.name] = target_root
            yield from continuation(extended)
            return
        assert isinstance(pattern, FApp)
        if not any(isinstance(v, FVar) for v in _fterm_nodes(pattern)):
            # Ground subpattern: it matches iff it is interned in the class.
            if pattern in cc and cc.find(pattern) == target_root:
                yield from continuation(subst)
            return
        for member in classes.get(target_root, ()):
            if not isinstance(member, FApp):
                continue
            if member.func != pattern.func or len(member.args) != len(pattern.args):
                continue

            def match_positions(position: int, current: Dict[str, FTerm], member=member):
                if position == len(pattern.args):
                    yield from continuation(current)
                    return
                yield from self._match_term(
                    pattern.args[position],
                    cc.find(member.args[position]),
                    current,
                    cc,
                    classes,
                    lambda extended: match_positions(position + 1, extended),
                )

            yield from match_positions(0, subst)

    # -- substitution extraction and emission ----------------------------------

    def _representatives(
        self, cc: CongruenceClosure, classes: Dict[FTerm, List[FTerm]]
    ) -> Dict[FTerm, F.Term]:
        """The HOL representative of every class: the smallest member that
        has a HOL preimage (deterministic: ties broken by printed form)."""
        representatives: Dict[FTerm, F.Term] = {}
        backmap = self.backmap
        for root, members in classes.items():
            best: Optional[F.Term] = None
            best_key = None
            for member in members:
                hol = backmap.get(member)
                if hol is None:
                    continue
                key = (F.term_size(hol), self._printed(hol))
                if best_key is None or key < best_key:
                    best, best_key = hol, key
            if best is not None:
                representatives[root] = best
        return representatives

    def _extract(
        self, substitution: Dict[str, FTerm], representatives: Dict[FTerm, F.Term]
    ) -> Optional[Dict[str, F.Term]]:
        mapping: Dict[str, F.Term] = {}
        for name, root in substitution.items():
            hol = representatives.get(root)
            if hol is None:
                return None
            if F.term_size(hol) > self.config.max_substitution_size:
                self.stats.dropped += 1
                return None
            mapping[name] = hol
        return mapping

    def _emit(
        self,
        quantifier: _Quantifier,
        mapping: Dict[str, F.Term],
        via: str,
        produced: List[F.Term],
        valuation: Optional[Dict[str, bool]] = None,
    ) -> bool:
        """Assert one instance (if complete and new); returns True when new."""
        params = quantifier.params
        if set(mapping) != {name for name, _ in params}:
            return False
        key = tuple(
            sorted((name, self._printed(value)) for name, value in mapping.items())
        )
        if key in quantifier.emitted:
            return False
        built = quantifier.deferred.get(key)
        if built is not None:
            raw, normalised, generation, deferred_in = built
            if deferred_in == self.stats.rounds:
                return False  # already deferred under this round's valuation
        else:
            raw = substitute(quantifier.formula.body, mapping)
            normalised = self._normalise(raw)
            # A pure function of the key: every witness in the substitution
            # got its generation when it was minted.
            generation = max(
                (
                    self._skolem_generation.get(name, 0)
                    for value in mapping.values()
                    for name in free_vars(value)
                ),
                default=0,
            )
        if generation >= self.config.max_skolem_generation and _has_quantifier(normalised):
            # Witness-chain cut: this instance would mint witnesses beyond
            # the generation cap (an existential chased through its own
            # witness); drop it for good.
            quantifier.emitted.add(key)
            self.stats.dropped += 1
            return False
        if valuation is not None and _evaluates_true(
            normalised, valuation, self._printed
        ):
            # Satisfied by the candidate model: deferred, not emitted (a
            # later model that falsifies it re-discovers the match).
            quantifier.deferred[key] = (raw, normalised, generation, self.stats.rounds)
            return False
        quantifier.emitted.add(key)
        quantifier.deferred.pop(key, None)
        self.records.append(
            InstanceRecord(
                source=quantifier.formula,
                substitution=dict(mapping),
                instance=raw,
                via=via,
            )
        )
        self.stats.instances += 1
        already_minted = len(self.supply.known_names())
        instance = skolemize_existentials(normalised, self.supply)
        instance = hoist_universals(instance)
        for name in self.supply.known_names()[already_minted:]:
            self._skolem_generation[name] = generation + 1
        if isinstance(instance, F.Quant) and instance.kind == "ALL":
            # A nested universal: pool it for the following rounds.
            self._pool(instance)
            return True
        instance = drop_remaining_quantifiers(instance)
        if isinstance(instance, F.BoolLit) and instance.value:
            return True
        if self.bank is not None:
            instance = self.bank.intern(instance)
        printed_instance = self._printed(instance)
        if printed_instance in self._asserted:
            return True
        self._asserted.add(printed_instance)
        produced.append(instance)
        return True

    def _fallback(
        self,
        quantifier: _Quantifier,
        produced: List[F.Term],
        valuation: Optional[Dict[str, bool]],
        candidates_by_sort: Tuple[List[F.Term], List[F.Term]],
    ) -> None:
        """Bounded ground enumeration for quantifiers E-matching cannot feed.

        ``candidates_by_sort`` is the round's shared (object, integer)
        candidate harvest — computed once per round, not per quantifier.
        """
        if quantifier.fallback_done:
            return
        obj_candidates, int_candidates = candidates_by_sort
        candidate_lists = []
        for _name, typ in quantifier.params:
            candidates = _param_candidates(typ, obj_candidates, int_candidates)
            if not candidates:
                return
            candidate_lists.append(
                list(candidates)[: self.config.max_candidates_per_sort]
            )
        total = 1
        for candidates in candidate_lists:
            total *= len(candidates)
        count = 0
        attempted = 0
        for combo in itertools.product(*candidate_lists):
            if count >= self.config.max_instances_per_formula or self._round_full(produced):
                break
            attempted += 1
            mapping = {name: value for (name, _), value in zip(quantifier.params, combo)}
            if self._emit(quantifier, mapping, "fallback", produced, valuation):
                count += 1
        # Whatever the caps kept the loop from reaching is genuinely lost.
        self.stats.dropped += total - attempted
        # Latch only on actual progress: if every candidate instance was
        # deferred by the relevancy filter, the next model must retry.
        if count > 0:
            quantifier.fallback_done = True


def _fterm_nodes(term: FTerm) -> Iterator[FTerm]:
    yield term
    if isinstance(term, FApp):
        for arg in term.args:
            yield from _fterm_nodes(arg)


def _evaluates_true(
    formula: F.Term, valuation: Dict[str, bool], printed=to_str
) -> bool:
    """Three-valued evaluation: True only when the formula is certainly
    true under the candidate model's atom valuation (unknown atoms make the
    result unknown, never true).  ``printed`` renders atoms to valuation
    keys (a bank's identity-memoised printer when interning is on)."""
    result = _eval3(formula, valuation, printed)
    return result is True


def _eval3(formula: F.Term, valuation: Dict[str, bool], printed) -> Optional[bool]:
    if isinstance(formula, F.BoolLit):
        return formula.value
    if isinstance(formula, F.Not):
        inner = _eval3(formula.arg, valuation, printed)
        return None if inner is None else not inner
    if isinstance(formula, F.And):
        verdict: Optional[bool] = True
        for arg in formula.args:
            inner = _eval3(arg, valuation, printed)
            if inner is False:
                return False
            if inner is None:
                verdict = None
        return verdict
    if isinstance(formula, F.Or):
        verdict = False
        for arg in formula.args:
            inner = _eval3(arg, valuation, printed)
            if inner is True:
                return True
            if inner is None:
                verdict = None
        return verdict
    if isinstance(formula, F.Implies):
        return _eval3(F.Or((F.mk_not(formula.lhs), formula.rhs)), valuation, printed)
    if isinstance(formula, F.Eq) and formula.lhs == formula.rhs:
        return True
    return valuation.get(printed(formula))
