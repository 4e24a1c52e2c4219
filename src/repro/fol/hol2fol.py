"""Translation of HOL sequents into first-order clause sets.

Implements the translation described in the paper (Section 6.2 and reference
[14]): after the standard approximation rewrites, set expressions are
represented through the binary membership predicate, reachability through
fresh ``rtc_f`` predicates equipped with sound (but incomplete) axioms, the
``tree [f]`` assumption is replaced by its first-order consequences, and
linear arithmetic receives a small incomplete axiomatisation of the ordering.
Atoms outside the fragment (cardinality, residual higher-order constructs)
are removed by the polarity-directed approximation of Figure 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..form import ast as F
from ..form.parser import parse_formula
from ..form.rewrite import map_subterms, simplify
from ..form.subst import free_vars, substitute
from ..provers.approximation import (
    drop_unsupported_assumptions,
    is_first_order_atom,
    relevant_assumptions,
    rewrite_sequent,
    standard_rewrites,
)
from ..vcgen.sequent import Labeled, Sequent
from .clausify import ClausificationError, Clausifier
from .terms import Clause


@dataclass
class Translation:
    """The result of translating a sequent: clauses for refutation.

    ``goal_clauses`` are the clauses of the *negated goal* — the natural
    initial set of support for the resolution engine's ``strategy="sos"``
    (they are also the tail of ``clauses``; provenance is kept separately so
    the prover does not have to reverse-engineer it).
    """

    clauses: List[Clause]
    goal_clauses: List[Clause] = field(default_factory=list)
    used_reachability: bool = False
    used_arithmetic: bool = False


# ---------------------------------------------------------------------------
# Reachability handling
# ---------------------------------------------------------------------------


def _backbone_field(relation: F.Term) -> Optional[str]:
    """Recognise ``{(x, y). y = x..f}`` (or the symmetric equation); return ``f``."""
    if isinstance(relation, F.SetCompr) and len(relation.params) == 2:
        x_name, y_name = relation.params[0][0], relation.params[1][0]
        body = relation.body
        if isinstance(body, F.Eq):
            lhs, rhs = body.lhs, body.rhs
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if (
                    isinstance(a, F.Var)
                    and a.name == y_name
                    and isinstance(b, F.App)
                    and isinstance(b.func, F.Var)
                    and len(b.args) == 1
                    and isinstance(b.args[0], F.Var)
                    and b.args[0].name == x_name
                ):
                    return b.func.name
    return None


def _backbone_components(relation: F.Term):
    """Decompose ``{(x, y). D1 | ... | Dk}`` into backbone components.

    Each disjunct must be a single-field equation ``y = x..f`` (component
    ``("field", f)``) or a read of a functional update
    ``y = (fieldWrite f a b) x`` with ``a``/``b`` independent of the bound
    pair (component ``("written", f, a, b)``).  Returns the component list,
    or ``None`` when any disjunct falls outside these shapes.
    """
    if not (isinstance(relation, F.SetCompr) and len(relation.params) == 2):
        return None
    x_name, y_name = relation.params[0][0], relation.params[1][0]
    bound = {x_name, y_name}
    disjuncts = relation.body.args if isinstance(relation.body, F.Or) else (relation.body,)
    components = []
    for disjunct in disjuncts:
        single = F.SetCompr(relation.params, disjunct)
        fld = _backbone_field(single)
        if fld is not None:
            components.append(("field", fld))
            continue
        if not isinstance(disjunct, F.Eq):
            return None
        for lhs, rhs in ((disjunct.lhs, disjunct.rhs), (disjunct.rhs, disjunct.lhs)):
            if (
                isinstance(rhs, F.Var)
                and rhs.name == y_name
                and isinstance(lhs, F.App)
                and len(lhs.args) == 1
                and isinstance(lhs.args[0], F.Var)
                and lhs.args[0].name == x_name
                and F.is_app_of(lhs.func, "fieldWrite")
                and len(lhs.func.args) == 3
            ):
                fun, addr, value = lhs.func.args
                if (
                    isinstance(fun, F.Var)
                    and not (free_vars(addr) & bound)
                    and not (free_vars(value) & bound)
                ):
                    components.append(("written", fun.name, addr, value))
                    break
        else:
            return None
    return components


class ReachabilityUses:
    """Collects the reachability relations a sequent mentions, so exactly the
    matching sound axiom sets are added.

    * ``fields`` — single-field backbones (``rtc_f`` / ``tc_f``);
    * ``unions`` — multi-field backbones such as the left/right tree
      backbone (``rtc_left_right``);
    * ``written`` — backbones through one functional update
      ``fieldWrite f a b``, keyed so one predicate is shared by every
      occurrence of the same update in the sequent.
    """

    def __init__(self) -> None:
        self.fields: Set[str] = set()
        self.unions: Set[Tuple[str, ...]] = set()
        self.written: Dict[str, Tuple[str, Tuple[str, ...], str, F.Term, F.Term]] = {}
        self._unknown: Dict[Tuple[bool, str], str] = {}

    def unknown_pred(self, strict: bool, relation: Optional[F.Term]) -> str:
        """A fresh uninterpreted predicate per distinct unrecognised
        relation (and strictness).  One *shared* predicate would be unsound:
        reachability over one relation could prove reachability over a
        different one.  Distinct relations get distinct predicates; no
        axioms are added, so each is a sound abstraction of its relation."""
        from ..form.printer import to_str

        key = (strict, to_str(relation) if relation is not None else "?")
        if key not in self._unknown:
            self._unknown[key] = f"reach_unknown{len(self._unknown)}"
        return self._unknown[key]

    def union_pred(self, fields: Tuple[str, ...]) -> str:
        if len(fields) == 1:
            self.fields.add(fields[0])
            return "rtc_" + fields[0]
        self.unions.add(fields)
        return "rtc_" + "_".join(fields)

    def written_pred(
        self, fields: Tuple[str, ...], written_field: str, addr: F.Term, value: F.Term
    ) -> str:
        from ..form.printer import to_str

        key = f"{','.join(fields)}|{written_field}|{to_str(addr)}|{to_str(value)}"
        if key not in self.written:
            pred = f"rtcw{len(self.written)}_" + "_".join(fields)
            # The escape/suffix axioms relate the written backbone to the
            # un-written one, so the base relation's axioms are needed too.
            self.union_pred(fields)
            self.written[key] = (pred, fields, written_field, addr, value)
        return self.written[key][0]


def rewrite_reachability(term: F.Term, uses: "ReachabilityUses") -> F.Term:
    """Replace reachability constructs by applications of ``rtc`` predicates.

    ``(u, v) : {(x, y). y = x..f}^*``            becomes ``rtc_f u v``
    ``rtrancl_pt (% x y. y = x..f) u v``         becomes ``rtc_f u v``
    ``(u, v) : {(x, y). y = x..f | y = x..g}^*`` becomes ``rtc_f_g u v``
    ``(u, v) : {(x, y). y = (fieldWrite f a b) x | ...}^*``
                                                 becomes ``rtcwN_... u v``

    Reachability through unrecognised relations is reified with a fresh
    uninterpreted predicate per distinct relation (sound: no axioms are
    added, and distinct relations never share a predicate).
    """

    def resolve(inner: F.Term, strict: bool) -> Optional[str]:
        """The predicate name for one relation, or None (unrecognised)."""
        fld = _backbone_field(inner)
        if fld is not None:
            uses.fields.add(fld)
            return ("tc_" if strict else "rtc_") + fld
        if strict:
            # tc over unions/updates has no axiom set; reify uninterpreted.
            return None
        components = _backbone_components(inner)
        if components is None:
            return None
        plain = tuple(sorted(c[1] for c in components if c[0] == "field"))
        written = [c for c in components if c[0] == "written"]
        if not written:
            return uses.union_pred(plain) if plain else None
        if len(written) > 1:
            return None  # two simultaneous updates: out of scope, reify
        _, wfield, addr, value = written[0]
        fields = tuple(sorted(set(plain) | {wfield}))
        return uses.written_pred(fields, wfield, addr, value)

    def rewrite(node: F.Term) -> F.Term:
        if (
            F.is_app_of(node, "elem")
            and len(node.args) == 2
            and isinstance(node.args[0], F.TupleTerm)
            and len(node.args[0].items) == 2
        ):
            pair, target = node.args
            inner = None
            if F.is_app_of(target, "rtrancl") or F.is_app_of(target, "trancl"):
                inner = target.args[0]
            if inner is not None:
                strict = F.is_app_of(target, "trancl")
                pred = resolve(inner, strict)
                if pred is None:
                    pred = uses.unknown_pred(strict, inner)
                return F.app(pred, pair.items[0], pair.items[1])
        if F.is_app_of(node, "rtrancl_pt") and len(node.args) == 3:
            predicate = node.args[0]
            inner = (
                F.SetCompr(predicate.params, predicate.body)
                if isinstance(predicate, F.Lambda) and len(predicate.params) == 2
                else None
            )
            pred = resolve(inner, False) if inner is not None else None
            if pred is None:
                pred = uses.unknown_pred(False, inner if inner is not None else predicate)
            return F.app(pred, node.args[1], node.args[2])
        return node

    return map_subterms(term, rewrite)


def reachability_axioms(field_name: str, has_tree: bool) -> List[F.Term]:
    """Sound first-order facts about ``rtc_f`` (and ``tc_f``).

    Every formula returned here is true in the intended semantics where
    ``rtc_f`` denotes reflexive transitive closure of the function ``f``, so
    adding them as assumptions is sound.  They are of course incomplete
    (induction is not first-order expressible).
    """
    rtc = f"rtc_{field_name}"
    tc = f"tc_{field_name}"
    f = field_name
    axioms = [
        f"ALL x. {rtc} x x",
        f"ALL x. {rtc} x (x..{f})",
        f"ALL x y z. {rtc} x y & {rtc} y z --> {rtc} x z",
        f"ALL x y. {rtc} x y --> x = y | {rtc} (x..{f}) y",
        f"ALL x y. {rtc} x y & x ~= y --> {tc} x y",
        f"ALL x y. {tc} x y --> {rtc} x y",
        f"ALL x y. {tc} x y --> {rtc} (x..{f}) y",
        f"ALL x y. {rtc} x y & x ~= null --> x = y | {tc} x y",
        f"ALL y. {rtc} null y --> y = null",
    ]
    if has_tree:
        # Consequences of the backbone being a forest (no sharing, no cycles).
        axioms += [
            f"ALL x y. {rtc} x y & {rtc} y x --> x = y",
            f"ALL x y. x..{f} = y..{f} & x..{f} ~= null --> x = y",
            f"ALL x. x ~= null --> ~ {tc} x x",
        ]
    return [parse_formula(a) for a in axioms]


def _instantiate_axioms(
    texts: List[str], names: Dict[str, str], terms: Optional[Dict[str, F.Term]] = None
) -> List[F.Term]:
    """Parse axiom skeletons and substitute the real identifiers/terms.

    Field incarnations (``left#2``) and written-backbone address/value terms
    cannot appear in parser input, so the skeletons use placeholder names
    that are substituted after parsing.
    """
    mapping: Dict[str, F.Term] = {k: F.Var(v) for k, v in names.items()}
    mapping.update(terms or {})
    return [substitute(parse_formula(t), mapping) for t in texts]


def union_backbone_axioms(
    fields: Tuple[str, ...], single_fields_used: Optional[Set[str]] = None
) -> List[F.Term]:
    """Sound first-order facts about ``rtc_f_g``, reachability through the
    union of several function-field backbones (e.g. the left/right tree
    backbone).  Each axiom is true when the predicate denotes the reflexive
    transitive closure of the union relation, so adding them is sound;
    induction remains inexpressible, so they are incomplete."""
    names = {"PRD_": "rtc_" + "_".join(fields)}
    for index, field_name in enumerate(fields):
        names[f"fld{index}_"] = field_name
    fld = [f"fld{index}_" for index in range(len(fields))]
    steps = " | ".join(f"PRD_ (qx..{f}) qy" for f in fld)
    texts = [
        "ALL qx. PRD_ qx qx",
        *(f"ALL qx. PRD_ qx (qx..{f})" for f in fld),
        "ALL qx qy qz. PRD_ qx qy & PRD_ qy qz --> PRD_ qx qz",
        f"ALL qx qy. PRD_ qx qy --> qx = qy | {steps}",
        # null's fields are all null in the heap model, so nothing but null
        # is reachable from it.
        "ALL qy. PRD_ null qy --> qy = null",
    ]
    # Every single-field closure the sequent also mentions is included in
    # the union's closure.
    for index, field_name in enumerate(fields):
        if field_name in (single_fields_used or ()):
            names[f"sng{index}_"] = "rtc_" + field_name
            texts.append(f"ALL qx qy. sng{index}_ qx qy --> PRD_ qx qy")
    return _instantiate_axioms(texts, names)


def written_backbone_axioms(
    pred: str,
    fields: Tuple[str, ...],
    written_field: str,
    addr: F.Term,
    value: F.Term,
) -> List[F.Term]:
    """Sound facts about reachability through ``fieldWrite f a b`` backbones.

    ``pred`` denotes the reflexive transitive closure of the relation whose
    ``written_field`` component reads through the update ``f(a := b)``; the
    *base* predicate ``R`` is the closure of the same union without the
    update.  The two are bridged by the sound (path-decomposition) axioms:

    * *escape*:  a ``pred``-path either never uses the rewritten edge
      ``a -> b`` and is an ``R``-path, or its prefix up to the first use is
      an ``R``-path to ``a``;
    * *suffix*:  symmetrically, the path is an ``R``-path or its suffix
      after the last use of the rewritten edge is an ``R``-path from ``b``.

    Together with unfolding they let provers reason about invariants
    re-established after a heap mutation (the put/insert exit obligations)
    without any induction.  ``addr``/``value`` are arbitrary ground terms;
    they are substituted into the parsed axiom skeletons.
    """
    names = {
        "PRD_": pred,
        "BSE_": "rtc_" + "_".join(fields),
        "wfd_": written_field,
    }
    others = [f for f in fields if f != written_field]
    for index, field_name in enumerate(others):
        names[f"fld{index}_"] = field_name
    other = [f"fld{index}_" for index in range(len(others))]
    other_steps = "".join(f" | PRD_ (qx..{g}) qy" for g in other)
    texts = [
        "ALL qx. PRD_ qx qx",
        "ALL qx qy qz. PRD_ qx qy & PRD_ qy qz --> PRD_ qx qz",
        # Steps: the rewritten edge itself, the written field away from the
        # written address, and the untouched fields everywhere.
        "PRD_ wa_ wb_",
        "ALL qx. qx = wa_ | PRD_ qx (qx..wfd_)",
        *(f"ALL qx. PRD_ qx (qx..{g})" for g in other),
        # Escape and suffix decompositions (see docstring).
        "ALL qx qy. PRD_ qx qy --> BSE_ qx qy | BSE_ qx wa_",
        "ALL qx qy. PRD_ qx qy --> BSE_ qx qy | BSE_ wb_ qy",
        # Base-path escape, the converse direction: a *base* path either
        # never steps through the rewritten edge ``wa_ -> wa_..wfd_`` (every
        # other edge survives the update, so it is a written path too) or
        # its prefix up to the first use is a base path to ``wa_``.  This is
        # what lifts pre-state reachability facts (e.g. the reverse content
        # invariant's witnesses) across a heap mutation when the written
        # address is known to be off the old backbone.
        "ALL qx qy. BSE_ qx qy --> PRD_ qx qy | BSE_ qx wa_",
        # One-step unfolding.
        "ALL qx qy. PRD_ qx qy --> qx = qy | (qx = wa_ & PRD_ wb_ qy)"
        " | (qx ~= wa_ & PRD_ (qx..wfd_) qy)" + other_steps,
        # Nothing leaves null unless null itself was written.
        "ALL qy. PRD_ null qy --> qy = null | wa_ = null",
    ]
    return _instantiate_axioms(texts, names, {"wa_": addr, "wb_": value})


_ARITH_AXIOMS = [
    # A (deliberately) partial axiomatisation of the integer ordering and of
    # successor facts, mirroring the paper's incomplete arithmetic support.
    "ALL x y z. x <= y & y <= z --> x <= z",
    "ALL x y. x <= y & y <= x --> x = y",
    "ALL x. x <= x",
    "ALL x y. x < y --> x <= y",
    "ALL x y. x < y --> x ~= y",
    "ALL x y. x <= y & x ~= y --> x < y",
    "ALL x y. x < y --> ~ (y < x)",
    "ALL x y. x <= y | y <= x",
]


def _contains_arith(term: F.Term) -> bool:
    for sub in F.subterms(term):
        if isinstance(sub, F.Var) and sub.name in ("lt", "lte", "gt", "gte", "plus", "minus"):
            return True
    return False


def _normalise_comparisons(term: F.Term) -> F.Term:
    """Rewrite > and >= in terms of < and <= so the axioms above apply."""

    def rewrite(node: F.Term) -> F.Term:
        if F.is_app_of(node, "gt") and len(node.args) == 2:
            return F.app("lt", node.args[1], node.args[0])
        if F.is_app_of(node, "gte") and len(node.args) == 2:
            return F.app("lte", node.args[1], node.args[0])
        return node

    return map_subterms(term, rewrite)


# ---------------------------------------------------------------------------
# Sequent translation
# ---------------------------------------------------------------------------


def reify_reachability(sequent: Sequent) -> Tuple[Sequent, List[F.Term]]:
    """Reify the sequent's reachability constructs into ``rtc_*`` predicate
    applications and return the matching sound axiom set (un-rewritten HOL
    formulas).

    Shared by the first-order translation below and by the SMT prover
    (whose E-matching engine instantiates the same axioms against its
    congruence closure).  Reachability must be recognised *before* the
    standard rewrites: expanding fieldWrite reads would dissolve the
    ``{(x, y). y = (fieldWrite f a b) x}`` backbones into Ite case splits
    that no axiom set matches.
    """
    has_tree = any(
        F.is_app_of(sub, "tree") or F.is_app_of(sub, "tree2")
        for labeled in sequent.assumptions
        for sub in F.subterms(labeled.formula)
    )
    uses = ReachabilityUses()
    assumptions = [
        Labeled(rewrite_reachability(a.formula, uses), a.labels)
        for a in sequent.assumptions
    ]
    goal = Labeled(rewrite_reachability(sequent.goal.formula, uses), sequent.goal.labels)
    reified = Sequent(tuple(assumptions), goal, (), sequent.origin, sequent.env)

    axioms: List[F.Term] = []
    for field_name in sorted(uses.fields):
        axioms.extend(reachability_axioms(field_name, has_tree))
    for union_fields in sorted(uses.unions):
        axioms.extend(union_backbone_axioms(union_fields, uses.fields))
    for pred, fields, written_field, addr, value in sorted(
        uses.written.values(), key=lambda w: w[0]
    ):
        axioms.extend(written_backbone_axioms(pred, fields, written_field, addr, value))
    return reified, axioms


def prepare_sequent(
    sequent: Sequent, keep_atom: Callable[[F.Term], bool]
) -> Tuple[Sequent, List[F.Term]]:
    """The preparation the SMT and first-order provers share: the sequent
    restricted to its relevant assumptions, its reachability reified
    (:func:`reify_reachability`), the standard rewrites applied, and the
    atoms ``keep_atom`` rejects approximated away; plus the reachability
    axioms, run through the same rewrites (they may read fields of
    arbitrary address/value terms).  Each prover passes its own atom
    filter."""
    sequent = relevant_assumptions(sequent.restricted())
    sequent, axioms = reify_reachability(sequent)
    sequent = rewrite_sequent(sequent)
    sequent = drop_unsupported_assumptions(sequent, keep_atom)
    return sequent, [standard_rewrites(a) for a in axioms]


def translate_sequent(
    sequent: Sequent, max_clauses: int = 4000, bank=None
) -> Translation:
    """Translate a sequent into a clause set whose unsatisfiability proves it.

    ``bank`` (a :class:`repro.form.intern.TermBank`) makes the clausifier
    produce canonical, pointer-comparable FOL terms and memoises the
    normalisation preamble; the clause set is observationally identical.
    """
    # Atoms outside the first-order fragment (cardinality, tree [...],
    # residual lambdas) are dropped -- sound by the approximation scheme.
    sequent, reach_axioms = prepare_sequent(sequent, is_first_order_atom)

    formulas: List[F.Term] = []
    used_arith = False
    for labeled in sequent.assumptions:
        formula = _normalise_comparisons(labeled.formula)
        used_arith = used_arith or _contains_arith(formula)
        formulas.append(formula)
    goal_formula = _normalise_comparisons(sequent.goal.formula)
    used_arith = used_arith or _contains_arith(goal_formula)

    axioms = list(reach_axioms)
    if used_arith:
        axioms.extend(parse_formula(a) for a in _ARITH_AXIOMS)

    clausifier = Clausifier(max_clauses=max_clauses, bank=bank)
    clauses: List[Clause] = []
    for formula in axioms + formulas:
        try:
            clauses.extend(clausifier.clausify(formula))
        except ClausificationError:
            # An assumption that cannot be clausified is simply dropped (sound).
            continue
    # The goal is negated for refutation; failure to clausify it is fatal for
    # this prover (but only means "unknown", never unsoundness).
    goal_clauses = clausifier.clausify(F.Not(goal_formula))
    clauses.extend(goal_clauses)
    return Translation(
        clauses=clauses,
        goal_clauses=goal_clauses,
        used_reachability=bool(reach_axioms),
        used_arithmetic=used_arith,
    )
