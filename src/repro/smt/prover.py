"""The SMT-style prover (the CVC3 / Z3 role in Figure 1).

A lazy SMT loop over ground formulas:

1. the sequent is prepared by :func:`repro.fol.hol2fol.prepare_sequent`,
   the preparation the first-order translation shares: reachability
   constructs are reified into ``rtc_*`` predicates with their sound
   axiom sets, then the sequent is rewritten and approximated into the
   ground fragment (:mod:`repro.provers.approximation`),
2. quantifiers are handled by incremental E-matching against the
   congruence closure's term graph (:mod:`repro.smt.instantiate`), with a
   bounded ground enumeration for quantifiers that have no usable trigger,
3. the ground refutation problem is Tseitin-encoded into CNF and solved by
   the DPLL core (:mod:`repro.smt.sat`),
4. every propositional model is checked against the theories — congruence
   closure for equality/uninterpreted functions and Fourier–Motzkin for
   linear integer arithmetic — and refuted models are blocked with a new
   clause; a theory-consistent model triggers an instantiation round (its
   equalities refine the term graph), and only when no new instance can be
   generated does the prover give up,
5. except when the sequent is plainly false: before giving up, the final
   model seeds the exact finite-countermodel check of
   :mod:`repro.provers.countermodel`, and a countermodel of the original
   sequent turns the answer into ``REFUTED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..fol.clausify import ClausificationError, FAppBuilder, term_to_fol
from ..fol.hol2fol import prepare_sequent
from ..fol.terms import FApp
from ..form import ast as F
from ..form.intern import TermBank
from ..form.printer import to_str
from ..provers.approximation import is_ground_smt_atom
from ..provers.base import (
    Deadline, DeadlineExpired, PhaseTimer, Prover, ProverAnswer, Seconds, Verdict,
)
from ..vcgen.sequent import Sequent
from .congruence import euf_conflict_tags
from .instantiate import EMatchEngine, InstantiationConfig
from .lia import check_lia, is_arith_atom
from .sat import SatSolver


class _TseitinEncoder:
    """CNF encoding of ground formulas; atoms are shared by printed form.

    ``printed`` renders atoms to their sharing key — a
    :class:`repro.form.intern.TermBank`'s identity-memoised printer when
    interning is on, plain ``to_str`` otherwise.
    """

    def __init__(self, printed=to_str) -> None:
        self.atom_ids: Dict[str, int] = {}
        self.atoms: Dict[int, F.Term] = {}
        self.clauses: List[List[int]] = []
        self._printed = printed
        self._next = 0

    def _fresh(self) -> int:
        self._next += 1
        return self._next

    def atom_literal(self, atom: F.Term) -> int:
        key = self._printed(atom)
        if key not in self.atom_ids:
            self.atom_ids[key] = self._fresh()
            self.atoms[self.atom_ids[key]] = atom
        return self.atom_ids[key]

    def assert_formula(self, formula: F.Term) -> None:
        literal = self.encode(formula)
        self.clauses.append([literal])

    def encode(self, formula: F.Term) -> int:
        if isinstance(formula, F.BoolLit):
            literal = self._fresh()
            if formula.value:
                self.clauses.append([literal])
            else:
                self.clauses.append([-literal])
            return literal
        if isinstance(formula, F.Not):
            return -self.encode(formula.arg)
        if isinstance(formula, F.And):
            out = self._fresh()
            literals = [self.encode(a) for a in formula.args]
            for lit in literals:
                self.clauses.append([-out, lit])
            self.clauses.append([out] + [-lit for lit in literals])
            return out
        if isinstance(formula, F.Or):
            out = self._fresh()
            literals = [self.encode(a) for a in formula.args]
            self.clauses.append([-out] + literals)
            for lit in literals:
                self.clauses.append([out, -lit])
            return out
        if isinstance(formula, F.Implies):
            return self.encode(F.Or((F.Not(formula.lhs), formula.rhs)))
        if isinstance(formula, F.Iff):
            out = self._fresh()
            a = self.encode(formula.lhs)
            b = self.encode(formula.rhs)
            self.clauses.append([-out, -a, b])
            self.clauses.append([-out, a, -b])
            self.clauses.append([out, a, b])
            self.clauses.append([out, -a, -b])
            return out
        # Atom.
        return self.atom_literal(formula)

    @property
    def num_vars(self) -> int:
        return self._next


_INT_MARKERS = ("card", "plus", "minus", "times", "uminus", "arrayLength", "div", "mod")


def _looks_integer(term: F.Term) -> bool:
    if isinstance(term, F.IntLit):
        return True
    return any(
        isinstance(sub, F.IntLit) or (isinstance(sub, F.Var) and sub.name in _INT_MARKERS)
        for sub in F.subterms(term)
    )


def _split_integer_disequalities(formula: F.Term) -> F.Term:
    """Rewrite ``~(a = b)`` over integers into ``a < b | b < a`` (valid over Z),
    so the convex linear-arithmetic solver can refute it."""
    from ..form.rewrite import map_subterms

    def rewrite(node: F.Term) -> F.Term:
        if (
            isinstance(node, F.Not)
            and isinstance(node.arg, F.Eq)
            and (_looks_integer(node.arg.lhs) or _looks_integer(node.arg.rhs))
        ):
            return F.And(
                (
                    node,
                    F.Or(
                        (
                            F.app("lt", node.arg.lhs, node.arg.rhs),
                            F.app("lt", node.arg.rhs, node.arg.lhs),
                        )
                    ),
                )
            )
        return node

    return map_subterms(formula, rewrite)


def _mentions_card(formula: F.Term) -> bool:
    """True when the formula applies the ``card`` operator anywhere."""
    return F.mentions(formula, "card")


class SmtProver(Prover):
    """The ground SMT prover of the portfolio.

    The ``instantiation`` option sets the E-matching limits
    (:class:`repro.smt.instantiate.InstantiationConfig`).

    Cardinality goals are answered UNSUPPORTED at once: the ground SMT
    fragment has no cardinality reasoning (BAPA's job), so those attempts
    could only burn their budget in the E-matcher.
    """

    name = "smt"

    @dataclass(frozen=True)
    class Options(Prover.Options):
        #: Whole-suite profiling: with the interned terms and incremental
        #: trail every suite proof this engine finds lands comfortably
        #: inside 3s, so the previous 5s default spent its last two seconds
        #: exclusively on goals the engine never decides.
        timeout: Seconds = 3.0
        max_theory_iterations: int = 300
        instantiation: InstantiationConfig = InstantiationConfig()
        #: Hash-cons terms through a per-attempt :class:`TermBank` (identity
        #: sharing + memoised printing/normalisation).  Off reproduces the
        #: pre-interning engine for benchmarking.
        interning: bool = True
        #: Keep the SAT core's trail across DPLL(T) iterations (resume from
        #: the highest consistent decision level after each blocking clause)
        #: instead of re-solving from scratch.
        incremental: bool = True

    # -- main entry point ------------------------------------------------------

    def attempt(self, sequent: Sequent, deadline: Deadline) -> ProverAnswer:
        timer = PhaseTimer()
        try:
            return self._attempt(sequent, deadline, timer)
        except DeadlineExpired as exc:
            exc.phases = dict(timer.phases)
            raise

    def _attempt(
        self, sequent: Sequent, deadline: Deadline, timer: PhaseTimer
    ) -> ProverAnswer:
        with timer("translate"):
            # Reachability becomes rtc_* predicates (ground atoms the
            # congruence closure treats as uninterpreted); their sound
            # axioms are quantified assumptions for the instantiation engine.
            prepared, axioms = prepare_sequent(sequent, is_ground_smt_atom)

        goal = prepared.goal.formula
        if isinstance(goal, F.BoolLit) and goal.value:
            return ProverAnswer(
                Verdict.PROVED,
                self.name,
                detail="goal trivial after approximation",
                phases=dict(timer.phases),
            )
        if _mentions_card(goal):
            return ProverAnswer(
                Verdict.UNSUPPORTED,
                self.name,
                detail="cardinality goal outside the ground SMT fragment",
                phases=dict(timer.phases),
            )

        # Sequent formulas before axioms: instantiation rounds process
        # quantifiers in assertion order, so the goal-relevant invariants
        # consume the per-round budget before the saturating axiom sets.
        assertions = [a.formula for a in prepared.assumptions] + [F.Not(goal)] + axioms

        bank = TermBank() if self.options.interning else None
        printed = bank.printed if bank is not None else to_str
        config = self.options.instantiation
        with timer("instantiation"):
            engine = EMatchEngine(assertions, config, deadline, bank=bank)
            # Instantiation is purely model-driven: the first SAT model of
            # the ground skeleton triggers round 1.  (An eager modelless
            # round floods the SAT core with unfilterable instances — with
            # no valuation, nothing counts as satisfied.)
            ground = list(engine.ground)
        if deadline.expired():
            return self._answer(
                Verdict.TIMEOUT, engine,
                f"timeout during grounding: {len(ground)} ground formulas",
                timer,
            )

        encoder = _TseitinEncoder(printed=printed)
        with timer("clausify"):
            for formula in ground:
                simplified = _split_integer_disequalities(formula)
                if isinstance(simplified, F.BoolLit) and simplified.value:
                    continue
                encoder.assert_formula(simplified)

        if not encoder.clauses:
            return self._answer(
                Verdict.UNKNOWN, engine, "nothing to refute", timer
            )

        fapp = bank.fapp if bank is not None else FApp
        #: Per-attempt memo of SAT variable -> EUF literal translation (one
        #: variable per distinct atom, so this is keyed O(1) instead of by
        #: printed form).
        euf_memo: Dict[int, object] = {}
        solver = SatSolver(encoder.num_vars, incremental=self.options.incremental)
        solver.add_clauses(encoder.clauses)
        encoded_upto = len(encoder.clauses)
        theory_conflicts = 0

        for _iteration in range(self.options.max_theory_iterations):
            atoms = len(encoder.atom_ids)
            if deadline.expired():
                return self._answer(
                    Verdict.TIMEOUT, engine,
                    f"timeout in DPLL(T) loop: {_iteration} iterations, "
                    f"{theory_conflicts} theory conflicts",
                    timer,
                )
            with timer("sat"):
                result = solver.solve(deadline=deadline)
            if not result.satisfiable:
                return self._answer(
                    Verdict.PROVED, engine,
                    f"unsat: {atoms} atoms, "
                    f"{theory_conflicts} theory conflicts",
                    timer,
                )
            with timer("theory"):
                blocking = self._theory_conflict(
                    result.assignment, encoder, fapp, deadline, euf_memo
                )
            if blocking is not None:
                theory_conflicts += 1
                solver.add_clause(blocking)
                continue
            # Theory-consistent model: let the model's equalities refine the
            # term graph and instantiate once more.
            if engine.stats.rounds < config.ematch_rounds:
                with timer("instantiation"):
                    pooled_before = len(engine.quantifiers)
                    new_instances = engine.round(
                        self._model_equalities(result.assignment, encoder),
                        valuation=self._model_valuation(result.assignment, encoder),
                    )
                if new_instances:
                    with timer("clausify"):
                        for formula in new_instances:
                            simplified = _split_integer_disequalities(formula)
                            if isinstance(simplified, F.BoolLit) and simplified.value:
                                continue
                            encoder.assert_formula(simplified)
                        solver.add_clauses(encoder.clauses[encoded_upto:])
                        encoded_upto = len(encoder.clauses)
                    continue
                if len(engine.quantifiers) > pooled_before:
                    # No ground formula yet, but a nested-universal instance
                    # was pooled: the next round can match it — that is
                    # progress, not saturation.
                    continue
            with timer("countermodel"):
                refuted = self._countermodel(sequent, result.assignment, encoder, deadline)
            if refuted is not None:
                return ProverAnswer(
                    Verdict.REFUTED,
                    self.name,
                    detail=refuted,
                    instances=engine.stats.instances,
                    phases=dict(timer.phases),
                )
            detail = "theory-consistent propositional model found"
            cap = self._ematch_cap_reached(engine)
            if cap is not None:
                # The search was cut, not exhausted: a larger cap may prove it.
                detail += f"; E-matching stopped at {cap}"
            return self._answer(Verdict.UNKNOWN, engine, detail, timer)

        return self._answer(
            Verdict.UNKNOWN, engine, "theory conflict limit reached", timer
        )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _countermodel(
        sequent: Sequent,
        assignment: Dict[int, bool],
        encoder: "_TseitinEncoder",
        deadline: Deadline,
    ) -> Optional[str]:
        """Try to turn the theory-consistent model into a checked finite
        countermodel of the *original* sequent; its description, or None.

        The propositional model belongs to the sliced and approximated
        problem, so it only seeds the search: the finder checks every
        assumption of ``sequent`` itself.  Imported here, on this exit only,
        so attempts that prove never load the finder.
        """
        from ..provers.countermodel import find_countermodel

        model = [
            (atom, assignment[var_id])
            for var_id, atom in encoder.atoms.items()
            if var_id in assignment
        ]
        found = find_countermodel(sequent, model, deadline)
        return found.describe() if found is not None else None

    @staticmethod
    def _model_equalities(
        assignment: Dict[int, bool], encoder: "_TseitinEncoder"
    ) -> List[Tuple[F.Term, F.Term]]:
        """The equality atoms the candidate model asserts (true literals)."""
        equalities = []
        for var_id, atom in encoder.atoms.items():
            if assignment.get(var_id) and isinstance(atom, F.Eq):
                equalities.append((atom.lhs, atom.rhs))
        return equalities

    @staticmethod
    def _model_valuation(
        assignment: Dict[int, bool], encoder: "_TseitinEncoder"
    ) -> Dict[str, bool]:
        """Printed-atom truth values of the candidate model (the engine's
        relevancy filter: instances true under it cannot refute it)."""
        valuation: Dict[str, bool] = {}
        printed = encoder._printed
        for var_id, atom in encoder.atoms.items():
            value = assignment.get(var_id)
            if value is not None:
                valuation[printed(atom)] = value
        return valuation

    def _ematch_cap_reached(self, engine: EMatchEngine) -> Optional[str]:
        """The E-matching cap the engine has hit (``name=value``), or None."""
        config = self.options.instantiation
        if engine.stats.instances >= config.max_ematch_instances:
            return f"max_ematch_instances={config.max_ematch_instances}"
        if engine.stats.rounds >= config.ematch_rounds:
            return f"ematch_rounds={config.ematch_rounds}"
        return None

    def _answer(
        self,
        verdict: Verdict,
        engine: EMatchEngine,
        detail: str,
        timer: Optional[PhaseTimer] = None,
    ) -> ProverAnswer:
        stats = engine.stats
        detail += (
            f" [ematch: {stats.instances} instances, "
            f"{stats.rounds} rounds, {stats.quantifiers} quantifiers]"
        )
        if stats.dropped:
            detail += f" ({stats.dropped} instances dropped by limits)"
        return ProverAnswer(
            verdict,
            self.name,
            detail=detail,
            instances=stats.instances,
            phases=dict(timer.phases) if timer is not None else {},
        )

    # -- theory checking -------------------------------------------------------

    def _theory_conflict(
        self,
        assignment: Dict[int, bool],
        encoder: _TseitinEncoder,
        fapp: FAppBuilder,
        deadline: Optional[Deadline] = None,
        euf_memo: Optional[Dict[int, object]] = None,
    ) -> Optional[List[int]]:
        """Check the assigned theory atoms; return a blocking clause or None.

        The blocking clause is a *minimized* conflict core (greedy deletion
        filtering within the failing theory), not the whole assignment: a
        clause over every theory atom excludes a single model from an
        exponential space, whereas a small core acts as a reusable theory
        lemma and lets the SAT core's clause learning prune properly.
        """
        literals: List[Tuple[int, bool, F.Term]] = []
        for var_id, atom in encoder.atoms.items():
            if var_id not in assignment:
                continue
            literals.append((var_id, assignment[var_id], atom))

        # EUF: one proof-producing closure run yields the exact conflict
        # core (the tags are signed literals, so the blocking clause is
        # their negation directly).
        equalities, disequalities, true_atoms, false_atoms = [], [], [], []
        for var_id, value, atom in literals:
            translated = self._translate_euf(var_id, atom, fapp, euf_memo)
            if translated is None:
                continue
            tag = var_id if value else -var_id
            if translated[0] == "eq":
                (equalities if value else disequalities).append(
                    (translated[1], translated[2], tag)
                )
            else:
                (true_atoms if value else false_atoms).append((translated[1], tag))
        core_tags = euf_conflict_tags(equalities, disequalities, true_atoms, false_atoms)
        if core_tags is not None:
            if core_tags:
                return [-tag for tag in core_tags]
            # An empty core means the closure could not produce a complete
            # explanation (or, impossibly, a conflict from zero tagged
            # inputs).  A partial core would block too much — degrade to
            # blocking the whole assignment, which is always sound.
            return [
                -(var_id if value else -var_id) for var_id, value, _ in literals
            ]

        # Positive equalities between terms the selected arithmetic atoms
        # mention go to LIA as well (``i = j`` against ``i < j``): EUF
        # knows no order, and ``is_arith_atom`` only takes an equality with
        # an arithmetic side.  Sound: each is an asserted equality between
        # terms LIA already treats as unknowns.
        unknowns = {
            sub for _v, _value, atom in literals if is_arith_atom(atom)
            for sub in F.subterms(atom)
        }
        arith_literals = [
            entry for entry in literals
            if is_arith_atom(entry[2])
            or (
                entry[1]
                and isinstance(entry[2], F.Eq)
                and entry[2].lhs in unknowns
                and entry[2].rhs in unknowns
            )
        ]
        if not self._lia_consistent(arith_literals, deadline):
            core = self._deletion_filter(
                arith_literals,
                lambda subset: self._lia_consistent(subset, deadline),
                deadline,
            )
            return [-(v if value else -v) for v, value, _ in core]
        return None

    #: Cores larger than this are not minimized (each deletion test is a
    #: full theory check; past this size just block the conjunction).  An
    #: unminimized core blocks a single model out of an exponential space —
    #: effectively a non-terminating enumeration — so the bound sits far
    #: above the atom counts the instantiation limits allow.
    _MAX_CORE_MINIMIZATION = 600

    def _translate_euf(
        self,
        var_id: int,
        atom: F.Term,
        fapp: FAppBuilder,
        memo: Optional[Dict[int, object]],
    ):
        """Translate an atom into its EUF literal payload, once per atom.

        Returns ``("eq", lhs, rhs)`` or ``("atom", term)`` (or ``None`` for
        untranslatable atoms); memoised per SAT variable (one variable per
        distinct atom, so the key is an O(1) int; the caller owns the
        per-attempt memo) so repeated conflict checks pay no translation
        cost.
        """
        if memo is None:
            memo = {}
        key = var_id
        if key in memo:
            return memo[key]
        try:
            if isinstance(atom, F.Eq):
                translated = (
                    "eq",
                    term_to_fol(atom.lhs, {}, fapp),
                    term_to_fol(atom.rhs, {}, fapp),
                )
            else:
                translated = ("atom", term_to_fol(atom, {}, fapp))
        except ClausificationError:
            translated = None
        memo[key] = translated
        return translated

    @staticmethod
    def _lia_consistent(
        literals: List[Tuple[int, bool, F.Term]], deadline: Optional[Deadline]
    ) -> bool:
        return check_lia([(atom, value) for _v, value, atom in literals], deadline)

    def _deletion_filter(
        self,
        literals: List,
        consistent,
        deadline: Optional[Deadline],
    ) -> List:
        """Unsat-core minimization: chunked shrinking (halve while a half
        stays inconsistent) followed by literal-by-literal deletion.  Sound
        for blocking regardless of how far it gets (any superset of a
        conflict is a conflict)."""
        if len(literals) > self._MAX_CORE_MINIMIZATION:
            return literals
        core = list(literals)
        # Chunk phase: real cores are tiny (an equality chain plus one
        # disequality), so halving typically reaches them in log rounds.
        while len(core) > 8:
            if deadline is not None and deadline.expired():
                return core
            half = len(core) // 2
            if not consistent(core[:half]):
                core = core[:half]
            elif not consistent(core[half:]):
                core = core[half:]
            else:
                break  # the conflict straddles both halves
        index = 0
        while index < len(core):
            if deadline is not None and deadline.expired():
                break
            trial = core[:index] + core[index + 1:]
            if not consistent(trial):
                core = trial
            else:
                index += 1
        return core
