"""Reduction of BAPA (Boolean Algebra with Presburger Arithmetic) to
linear integer arithmetic via Venn regions.

The decision procedure follows the algorithm of the paper's references
[43, 46] (Kuncak, Nguyen, Rinard): a quantifier-free formula over set
variables ``S1..Sn`` with cardinality terms is translated by introducing one
non-negative integer unknown per *Venn region* (each of the ``2**n``
intersections of the sets and their complements).  Every set-algebra atom
becomes a statement about sums of region variables:

* ``card(E)``       -> the sum of the regions contained in ``E``;
* ``E1 = E2``       -> the regions in the symmetric difference are empty;
* ``E1 subseteq E2``-> the regions in ``E1 - E2`` are empty;
* ``x : E``         -> treated by introducing the singleton set ``{x}`` as an
  additional set variable with ``card {x} = 1``.

The resulting linear constraints are checked for satisfiability by the exact
rational Fourier–Motzkin procedure shared with the SMT arithmetic solver
(with integer tightening of strict bounds); infeasibility of the rational
relaxation soundly establishes unsatisfiability over the integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..form import ast as F
from ..form.printer import to_str
from ..provers.base import Deadline
from ..smt.lia import Constraint, Feasibility, fourier_motzkin


class BapaError(Exception):
    """Raised when a formula lies outside the quantifier-free BAPA fragment."""


# ---------------------------------------------------------------------------
# Set expressions
# ---------------------------------------------------------------------------


class VennSpace:
    """The collection of set variables of one BAPA problem."""

    def __init__(self) -> None:
        self.variables: List[str] = []

    def index_of(self, name: str) -> int:
        if name not in self.variables:
            self.variables.append(name)
        return self.variables.index(name)

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def all_regions(self) -> range:
        return range(1 << self.dimension)

    def regions_of_variable(self, name: str) -> FrozenSet[int]:
        index = self.index_of(name)
        return frozenset(r for r in self.all_regions() if r & (1 << index))

    def universe(self) -> FrozenSet[int]:
        return frozenset(self.all_regions())

    def empty(self) -> FrozenSet[int]:
        return frozenset()

    def region_var(self, region: int) -> str:
        return f"$region_{region}"


def _set_expr(term: F.Term, space: VennSpace, singletons: Dict[str, str]) -> FrozenSet[int]:
    """Translate a HOL set term into the union of Venn regions it denotes."""
    if isinstance(term, F.Var):
        if term.name == "emptyset":
            return space.empty()
        if term.name == "univ":
            return space.universe()
        return space.regions_of_variable(term.name)
    if isinstance(term, F.Old):
        return _set_expr(term.term, space, singletons)
    if isinstance(term, F.App) and isinstance(term.func, F.Var):
        name = term.func.name
        if name == "union":
            return _set_expr(term.args[0], space, singletons) | _set_expr(term.args[1], space, singletons)
        if name == "inter":
            return _set_expr(term.args[0], space, singletons) & _set_expr(term.args[1], space, singletons)
        if name in ("setdiff", "minus"):
            return _set_expr(term.args[0], space, singletons) - _set_expr(term.args[1], space, singletons)
        if name == "insert":
            element = term.args[0]
            singleton = _singleton_variable(element, space, singletons)
            return singleton | _set_expr(term.args[1], space, singletons)
        # A set-valued application (e.g. ``cnt x``) is an opaque set variable.
        return space.regions_of_variable(to_str(term))
    if isinstance(term, F.SetCompr):
        raise BapaError(f"set comprehension outside the BAPA fragment: {term!r}")
    raise BapaError(f"not a BAPA set expression: {term!r}")


def _singleton_variable(element: F.Term, space: VennSpace, singletons: Dict[str, str]) -> FrozenSet[int]:
    key = to_str(element)
    name = singletons.setdefault(key, f"$single_{len(singletons)}")
    return space.regions_of_variable(name)


# ---------------------------------------------------------------------------
# Linear constraints over region variables
# ---------------------------------------------------------------------------


@dataclass
class BapaProblem:
    """A conjunction of BAPA literals reduced to linear constraints."""

    space: VennSpace = field(default_factory=VennSpace)
    singletons: Dict[str, str] = field(default_factory=dict)
    constraints: List[Constraint] = field(default_factory=list)
    #: integer unknowns other than region variables (from arithmetic atoms)
    int_atoms: Dict[str, F.Term] = field(default_factory=dict)

    def _card_coeffs(self, regions: FrozenSet[int]) -> Dict[str, Fraction]:
        return {self.space.region_var(r): Fraction(1) for r in regions}

    def add_emptiness(self, regions: FrozenSet[int]) -> None:
        # sum of regions <= 0 (each region is also >= 0)
        if regions:
            self.constraints.append(Constraint(self._card_coeffs(regions), Fraction(0)))

    def add_nonempty(self, regions: FrozenSet[int]) -> None:
        # sum of regions >= 1
        coeffs = {k: -v for k, v in self._card_coeffs(regions).items()}
        if not coeffs:
            # The empty union can never be non-empty: record an inconsistency.
            self.constraints.append(Constraint({}, Fraction(-1)))
            return
        self.constraints.append(Constraint(coeffs, Fraction(-1)))

    def finalize(self) -> List[Constraint]:
        out = list(self.constraints)
        # Region variables are non-negative integers.
        for region in self.space.all_regions():
            out.append(Constraint({self.space.region_var(region): Fraction(-1)}, Fraction(0)))
        # Singleton sets have cardinality exactly one.
        for singleton in self.singletons.values():
            regions = self.space.regions_of_variable(singleton)
            coeffs = self._card_coeffs(regions)
            out.append(Constraint(dict(coeffs), Fraction(1)))
            out.append(Constraint({k: -v for k, v in coeffs.items()}, Fraction(-1)))
        return out


def _linearize_int(term: F.Term, problem: BapaProblem) -> Dict[str, Fraction]:
    """Integer terms: linear combinations of cardinalities, literals and unknowns."""
    if isinstance(term, F.IntLit):
        return {"": Fraction(term.value)}
    if isinstance(term, F.Old):
        return _linearize_int(term.term, problem)
    if F.is_app_of(term, "plus"):
        return _merge(_linearize_int(term.args[0], problem), _linearize_int(term.args[1], problem), 1)
    if F.is_app_of(term, "minus"):
        return _merge(_linearize_int(term.args[0], problem), _linearize_int(term.args[1], problem), -1)
    if F.is_app_of(term, "uminus"):
        return _merge({}, _linearize_int(term.args[0], problem), -1)
    if F.is_app_of(term, "times"):
        lhs, rhs = term.args
        if isinstance(lhs, F.IntLit):
            return _merge({}, _linearize_int(rhs, problem), lhs.value)
        if isinstance(rhs, F.IntLit):
            return _merge({}, _linearize_int(lhs, problem), rhs.value)
        raise BapaError("non-linear product")
    if F.is_app_of(term, "card"):
        regions = _set_expr(term.args[0], problem.space, problem.singletons)
        return {problem.space.region_var(r): Fraction(1) for r in regions}
    # Opaque integer unknown (e.g. the program variable ``size``).
    key = to_str(term)
    problem.int_atoms[key] = term
    return {key: Fraction(1)}


def _merge(a: Dict[str, Fraction], b: Dict[str, Fraction], factor) -> Dict[str, Fraction]:
    out = dict(a)
    factor = Fraction(factor)
    for key, value in b.items():
        out[key] = out.get(key, Fraction(0)) + factor * value
        if out[key] == 0 and key:
            del out[key]
    return out


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------


_INT_SIDE_MARKERS = ("card", "plus", "minus", "times", "uminus", "arrayLength", "div", "mod")


def _looks_integer_side(term: F.Term) -> bool:
    """Heuristic sort test used to route equalities to the right encoding."""
    if isinstance(term, F.IntLit):
        return True
    for sub in F.subterms(term):
        if isinstance(sub, F.IntLit):
            return True
        if isinstance(sub, F.Var) and sub.name in _INT_SIDE_MARKERS:
            return True
    return False


def _is_set_term(term: F.Term, set_vars: Set[str]) -> bool:
    if isinstance(term, F.Var):
        return term.name in set_vars or term.name in ("emptyset", "univ")
    if isinstance(term, F.Old):
        return _is_set_term(term.term, set_vars)
    if isinstance(term, F.App) and isinstance(term.func, F.Var):
        if term.func.name in ("union", "inter", "setdiff", "minus", "insert"):
            return True
        return term.func.name in set_vars
    return False


def add_literal(atom: F.Term, positive: bool, problem: BapaProblem, set_vars: Set[str]) -> None:
    """Add one BAPA literal to the problem; raises BapaError outside the fragment."""
    if isinstance(atom, F.Eq):
        lhs, rhs = atom.lhs, atom.rhs
        if _is_set_term(lhs, set_vars) or _is_set_term(rhs, set_vars):
            left = _set_expr(lhs, problem.space, problem.singletons)
            right = _set_expr(rhs, problem.space, problem.singletons)
            if positive:
                problem.add_emptiness((left - right) | (right - left))
            else:
                # Sets differ: some region of the symmetric difference is non-empty.
                # This is a disjunction over regions; approximate by requiring the
                # symmetric difference to be non-empty as a whole (equivalent).
                problem.add_nonempty((left - right) | (right - left))
            return
        if not (_looks_integer_side(lhs) or _looks_integer_side(rhs)):
            # Equality between elements: encode each element as a singleton
            # set; element equality is singleton equality, disequality is
            # disjointness.  (Any element model induces a set model, so the
            # reduction never reports a spurious inconsistency.)
            left = _singleton_variable(lhs, problem.space, problem.singletons)
            right = _singleton_variable(rhs, problem.space, problem.singletons)
            if positive:
                problem.add_emptiness((left - right) | (right - left))
            else:
                problem.add_emptiness(left & right)
            return
        # Integer equality.
        left_coeffs = _linearize_int(lhs, problem)
        right_coeffs = _linearize_int(rhs, problem)
        diff = _merge(left_coeffs, right_coeffs, -1)
        constant = diff.pop("", Fraction(0))
        if positive:
            problem.constraints.append(Constraint(dict(diff), -constant))
            problem.constraints.append(Constraint({k: -v for k, v in diff.items()}, constant))
        else:
            raise BapaError("integer disequalities are outside the conjunctive fragment")
        return
    if F.is_app_of(atom, "subseteq"):
        left = _set_expr(atom.args[0], problem.space, problem.singletons)
        right = _set_expr(atom.args[1], problem.space, problem.singletons)
        if positive:
            problem.add_emptiness(left - right)
        else:
            problem.add_nonempty(left - right)
        return
    if F.is_app_of(atom, "elem"):
        element, target = atom.args
        singleton = _singleton_variable(element, problem.space, problem.singletons)
        target_regions = _set_expr(target, problem.space, problem.singletons)
        if positive:
            problem.add_emptiness(singleton - target_regions)
        else:
            problem.add_emptiness(singleton & target_regions)
        return
    comparisons = {"lt": "lt", "lte": "lte", "gt": "gt", "gte": "gte"}
    for name in comparisons:
        if F.is_app_of(atom, name):
            lhs, rhs = atom.args
            if name == "gt":
                lhs, rhs, name = rhs, lhs, "lt"
            elif name == "gte":
                lhs, rhs, name = rhs, lhs, "lte"
            left_coeffs = _linearize_int(lhs, problem)
            right_coeffs = _linearize_int(rhs, problem)
            diff = _merge(left_coeffs, right_coeffs, -1)
            constant = diff.pop("", Fraction(0))
            if name == "lte":
                if positive:
                    problem.constraints.append(Constraint(dict(diff), -constant))
                else:
                    problem.constraints.append(
                        Constraint({k: -v for k, v in diff.items()}, constant - 1)
                    )
            else:  # lt
                if positive:
                    problem.constraints.append(Constraint(dict(diff), -constant - 1))
                else:
                    problem.constraints.append(
                        Constraint({k: -v for k, v in diff.items()}, constant)
                    )
            return
    raise BapaError(f"literal outside the BAPA fragment: {to_str(atom)}")


def conjunction_satisfiable(
    literals: Sequence[Tuple[F.Term, bool]],
    set_vars: Set[str],
    deadline: Optional[Deadline] = None,
) -> Feasibility:
    """Decide (soundly refute) satisfiability of a conjunction of BAPA literals.

    ``INFEASIBLE`` (falsy) only when the conjunction is definitely
    unsatisfiable; ``GAVE_UP`` when the elimination hit its row cap.
    Raises :class:`BapaError` when a literal is outside the fragment.
    ``deadline`` is polled per literal translated (each translation
    enumerates up to ``2**dimension`` Venn regions) and per elimination step
    of the underlying rational solver.
    """
    # First pass: discover every set variable and singleton so that region
    # indices are stable (the Venn space must not grow while constraints are
    # being emitted, otherwise earlier constraints would refer to regions of
    # a smaller space).
    discovery = BapaProblem()
    for atom, positive in literals:
        if deadline is not None:
            deadline.checkpoint(
                detail=lambda: (
                    f"Venn discovery interrupted: {1 << discovery.space.dimension} "
                    f"regions over {discovery.space.dimension} set variables"
                )
            )
        add_literal(atom, positive, discovery, set_vars)
    if discovery.space.dimension > 6:
        raise BapaError("too many set variables for Venn-region reduction")

    problem = BapaProblem()
    problem.space.variables = list(discovery.space.variables)
    problem.singletons = dict(discovery.singletons)
    for atom, positive in literals:
        if deadline is not None:
            deadline.checkpoint(
                detail=lambda: (
                    f"Venn translation interrupted: {1 << problem.space.dimension} "
                    f"regions, {len(problem.constraints)} constraints emitted"
                )
            )
        add_literal(atom, positive, problem, set_vars)
    return fourier_motzkin(problem.finalize(), deadline=deadline)
