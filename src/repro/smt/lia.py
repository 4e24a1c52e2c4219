"""Linear integer arithmetic conflict detection (the arithmetic theory solver).

Asserted arithmetic literals are normalised into linear constraints
``sum(c_i * x_i) <= b`` over *atoms* (maximal non-arithmetic subterms are
treated as integer unknowns).  Satisfiability over the rationals is then
decided by Fourier–Motzkin elimination over integer rows: each constraint
(built with ``fractions.Fraction`` coefficients) is scaled to integers once,
and every combined row is divided by the gcd of its entries.  Scaling a row
by a positive factor does not change the half-space it denotes, so this is
exact rational elimination without per-operation fraction normalisation.

Soundness argument: the solver reports a *conflict* only when the constraint
system has no rational solution, which implies it has no integer solution
either; therefore a conflict can never cause Jahob to prove an invalid
sequent.  When the rational relaxation is satisfiable the solver simply
reports "consistent", which at worst makes the SMT prover answer *unknown*.
Strict inequalities between integer-sorted terms are tightened
(``x < y`` becomes ``x <= y - 1``), which is valid over the integers and
increases the number of genuine conflicts detected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from ..form import ast as F
from ..provers.base import Deadline


#: A linear expression: mapping from atom keys to coefficients plus a constant.
#: The empty key ``""`` is reserved for the constant term.
Linear = Dict[str, Fraction]


class NonLinearError(Exception):
    """Raised when an expression is not linear (e.g. a product of unknowns)."""


@dataclass
class Constraint:
    """``coeffs . vars <= bound`` (non-strict, integer-tightened)."""

    coeffs: Dict[str, Fraction]
    bound: Fraction

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        return f"{terms} <= {self.bound}"


def _combine(a: Linear, b: Linear, factor: Fraction) -> Linear:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, Fraction(0)) + factor * coeff
        if out[key] == 0 and key:
            del out[key]
    return out


class LinearizeContext:
    """Maps non-arithmetic subterms to fresh unknown names."""

    def __init__(self) -> None:
        self._atoms: Dict[str, F.Term] = {}

    def key_for(self, term: F.Term) -> str:
        from ..form.printer import to_str

        key = to_str(term)
        self._atoms[key] = term
        return key

    @property
    def atoms(self) -> Dict[str, F.Term]:
        return dict(self._atoms)


def linearize(term: F.Term, ctx: LinearizeContext) -> Linear:
    """Translate an integer-sorted HOL term into a linear expression."""
    if isinstance(term, F.IntLit):
        return {"": Fraction(term.value)}
    if F.is_app_of(term, "plus") and len(term.args) == 2:
        return _combine(linearize(term.args[0], ctx), linearize(term.args[1], ctx), Fraction(1))
    if F.is_app_of(term, "minus") and len(term.args) == 2:
        return _combine(linearize(term.args[0], ctx), linearize(term.args[1], ctx), Fraction(-1))
    if F.is_app_of(term, "uminus") and len(term.args) == 1:
        return _combine({}, linearize(term.args[0], ctx), Fraction(-1))
    if F.is_app_of(term, "times") and len(term.args) == 2:
        lhs, rhs = term.args
        if isinstance(lhs, F.IntLit):
            return _combine({}, linearize(rhs, ctx), Fraction(lhs.value))
        if isinstance(rhs, F.IntLit):
            return _combine({}, linearize(lhs, ctx), Fraction(rhs.value))
        raise NonLinearError(f"non-linear product {term!r}")
    if F.is_app_of(term, "card") and len(term.args) == 1:
        # Cardinalities are integer unknowns for this solver (BAPA handles
        # their set-algebraic meaning); they are additionally non-negative.
        return {ctx.key_for(term): Fraction(1)}
    # Any other term is an opaque integer unknown.
    return {ctx.key_for(term): Fraction(1)}


def literal_to_constraints(
    atom: F.Term, positive: bool, ctx: LinearizeContext
) -> Optional[List[Constraint]]:
    """Translate an (possibly negated) arithmetic atom into constraints.

    Returns ``None`` when the atom is not arithmetic.
    """
    if isinstance(atom, F.Eq):
        kind = "eq"
        lhs, rhs = atom.lhs, atom.rhs
    elif F.is_app_of(atom, "lt") and len(atom.args) == 2:
        kind = "lt"
        lhs, rhs = atom.args
    elif F.is_app_of(atom, "lte") and len(atom.args) == 2:
        kind = "lte"
        lhs, rhs = atom.args
    elif F.is_app_of(atom, "gt") and len(atom.args) == 2:
        kind = "lt"
        lhs, rhs = atom.args[1], atom.args[0]
    elif F.is_app_of(atom, "gte") and len(atom.args) == 2:
        kind = "lte"
        lhs, rhs = atom.args[1], atom.args[0]
    else:
        return None

    try:
        left = linearize(lhs, ctx)
        right = linearize(rhs, ctx)
    except NonLinearError:
        return None

    diff = _combine(left, right, Fraction(-1))  # lhs - rhs
    constant = diff.pop("", Fraction(0))

    def le(coeffs: Dict[str, Fraction], bound: Fraction) -> Constraint:
        return Constraint(dict(coeffs), bound)

    neg = {k: -v for k, v in diff.items()}

    if kind == "eq":
        if positive:
            return [le(diff, -constant), le(neg, constant)]
        # A disequality is not convex; handled by the EUF solver instead.
        return []
    if kind == "lte":
        if positive:
            return [le(diff, -constant)]  # lhs - rhs <= 0
        return [le(neg, constant - 1)]  # ~(lhs <= rhs)  ==  rhs <= lhs - 1
    if kind == "lt":
        if positive:
            return [le(diff, -constant - 1)]  # lhs <= rhs - 1
        return [le(neg, constant)]  # ~(lhs < rhs)  ==  rhs <= lhs
    return None


def is_arith_atom(atom: F.Term) -> bool:
    """Atoms the LIA solver contributes constraints for."""
    if isinstance(atom, F.Eq):
        return _is_int_term(atom.lhs) or _is_int_term(atom.rhs)
    return any(F.is_app_of(atom, op) for op in ("lt", "lte", "gt", "gte"))


def _is_int_term(term: F.Term) -> bool:
    if isinstance(term, F.IntLit):
        return True
    return any(
        F.is_app_of(term, op) for op in ("plus", "minus", "times", "uminus", "card", "arrayLength", "div", "mod")
    )


class Feasibility(Enum):
    """What Fourier–Motzkin elimination established about a system.

    ``GAVE_UP`` means the elimination passed its row cap and established
    nothing; it is truthy like ``FEASIBLE`` because treating it as
    consistent is the sound reading for a refutation procedure.
    """

    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"
    GAVE_UP = "gave up"

    def __bool__(self) -> bool:
        return self is not Feasibility.INFEASIBLE


def fourier_motzkin_consistent(
    constraints: List[Constraint],
    max_constraints: int = 4000,
    deadline: Optional[Deadline] = None,
) -> bool:
    """Decide rational satisfiability of a conjunction of <= constraints.

    Returns False only when the system is definitely infeasible; gives up
    (returns True) if the elimination blows past ``max_constraints``.
    :func:`fourier_motzkin` tells the give-up apart.
    """
    return bool(fourier_motzkin(constraints, max_constraints, deadline))


def fourier_motzkin(
    constraints: List[Constraint],
    max_constraints: int = 4000,
    deadline: Optional[Deadline] = None,
) -> Feasibility:
    """Fourier–Motzkin elimination over a conjunction of <= constraints.

    ``INFEASIBLE`` is definite; ``GAVE_UP`` is returned as soon as the
    elimination blows past ``max_constraints`` rows.  ``deadline`` is
    polled per constraint combination during elimination.

    Rows are kept as integers: each input row is scaled by the lcm of its
    denominators, and eliminating ``x`` between a lower row ``l``
    (``l_x < 0``) and an upper row ``u`` (``u_x > 0``) forms
    ``u_x * l + (-l_x) * u`` divided by its gcd.  Every row is a positive
    multiple of the row exact rational elimination would produce, so
    signs, the variable order and the row counts — hence the answer and
    the give-up point — are those of the rational procedure.
    """
    system = [_integer_row(c) for c in constraints]
    # Quick constant check.
    system = [c for c in system if not _drop_if_trivial(c)]
    for coeffs, bound in system:
        if not coeffs and bound < 0:
            return Feasibility.INFEASIBLE

    variables = sorted({v for coeffs, _ in system for v in coeffs})
    eliminated = 0
    for variable in variables:
        lower = []  # constraints giving  l <= x  (coeff < 0)
        upper = []  # constraints giving  x <= u  (coeff > 0)
        rest = []
        for coeffs, bound in system:
            coeff = coeffs.get(variable, 0)
            if coeff > 0:
                upper.append((coeffs, bound, coeff))
            elif coeff < 0:
                lower.append((coeffs, bound, -coeff))  # |coeff|
            else:
                rest.append((coeffs, bound))
        new_system = rest
        for lower_coeffs, lower_bound, lower_coeff in lower:
            for upper_coeffs, upper_bound, upper_coeff in upper:
                if deadline is not None:
                    deadline.checkpoint(
                        every=32,
                        detail=lambda: (
                            f"Fourier-Motzkin interrupted: {eliminated} of "
                            f"{len(variables)} unknowns eliminated, {len(new_system)} constraints"
                        ),
                    )
                # Combine to eliminate `variable`: scale each row by the
                # other row's |coefficient| of it.
                coeffs = {key: value * upper_coeff for key, value in lower_coeffs.items()}
                for key, value in upper_coeffs.items():
                    coeffs[key] = coeffs.get(key, 0) + value * lower_coeff
                coeffs.pop(variable, None)
                coeffs = {k: v for k, v in coeffs.items() if v != 0}
                bound = lower_bound * upper_coeff + upper_bound * lower_coeff
                if not coeffs:
                    if bound < 0:
                        return Feasibility.INFEASIBLE
                    continue
                divisor = gcd(bound, *coeffs.values())
                if divisor > 1:
                    coeffs = {k: v // divisor for k, v in coeffs.items()}
                    bound //= divisor
                new_system.append((coeffs, bound))
        if len(new_system) > max_constraints:
            return Feasibility.GAVE_UP
        system = new_system
        eliminated += 1
    for coeffs, bound in system:
        if not coeffs and bound < 0:
            return Feasibility.INFEASIBLE
    return Feasibility.FEASIBLE


def _integer_row(constraint: Constraint) -> Tuple[Dict[str, int], int]:
    """``constraint`` scaled by the lcm of its denominators: the same
    half-space with integer coefficients."""
    values = list(constraint.coeffs.values()) + [constraint.bound]
    scale = lcm(*(Fraction(v).denominator for v in values))
    coeffs = {
        key: int(Fraction(value) * scale) for key, value in constraint.coeffs.items()
    }
    return coeffs, int(Fraction(constraint.bound) * scale)


def _drop_if_trivial(entry) -> bool:
    coeffs, bound = entry
    return not coeffs and bound >= 0


def check_lia(
    literals: List[Tuple[F.Term, bool]], deadline: Optional[Deadline] = None
) -> bool:
    """Check consistency of a set of (atom, polarity) arithmetic literals.

    Cardinality unknowns receive an implicit non-negativity constraint.
    """
    ctx = LinearizeContext()
    constraints: List[Constraint] = []
    for atom, positive in literals:
        translated = literal_to_constraints(atom, positive, ctx)
        if translated:
            constraints.extend(translated)
    for key, term in ctx.atoms.items():
        if F.is_app_of(term, "card") or F.is_app_of(term, "arrayLength"):
            constraints.append(Constraint({key: Fraction(-1)}, Fraction(0)))
    if not constraints:
        return True
    return fourier_motzkin_consistent(constraints, deadline=deadline)
