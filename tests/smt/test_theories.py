"""Theory solvers of the SMT prover: congruence closure and linear arithmetic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fol.terms import FApp, FVar, const
from repro.form.parser import parse_formula as parse
from repro.smt.congruence import CongruenceClosure, check_euf, euf_conflict_tags
from repro.smt.lia import (
    Constraint,
    Feasibility,
    check_lia,
    fourier_motzkin,
    fourier_motzkin_consistent,
)
from fractions import Fraction


a, b, c, d = const("a"), const("b"), const("c"), const("d")


def f(*args):
    return FApp("f", args)


# -- congruence closure -------------------------------------------------------------


def test_euf_transitivity():
    assert not check_euf([(a, b), (b, c)], [(a, c)])


def test_euf_congruence():
    assert not check_euf([(a, b)], [(f(a), f(b))])


def test_euf_nested_congruence():
    assert not check_euf([(a, b)], [(f(f(a)), f(f(b)))])


def test_euf_consistent_assignment():
    assert check_euf([(a, b)], [(c, d)])


def test_euf_predicates_via_reification():
    # p(a) true and p(b) false with a = b is inconsistent.
    assert not check_euf([(a, b)], [], true_atoms=[FApp("p", (a,))], false_atoms=[FApp("p", (b,))])


def test_euf_predicates_consistent():
    assert check_euf([], [], true_atoms=[FApp("p", (a,))], false_atoms=[FApp("p", (b,))])


def test_equivalence_classes():
    cc = CongruenceClosure()
    cc.assert_equal(a, b)
    cc.assert_equal(c, d)
    assert cc.check()
    classes = cc.equivalence_classes()
    assert any({a, b} <= cls for cls in classes)
    assert not any({a, c} <= cls for cls in classes)


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=20, deadline=None)
def test_euf_chain_property(n):
    """A chain a0=a1=...=an always contradicts a0 != an (any length)."""
    constants = [const(f"k{i}") for i in range(n + 1)]
    equalities = [(constants[i], constants[i + 1]) for i in range(n)]
    assert not check_euf(equalities, [(constants[0], constants[-1])])
    assert check_euf(equalities[:-1], [(constants[0], constants[-1])])


# -- linear integer arithmetic -----------------------------------------------------------


def _lits(*pairs):
    return [(parse(text), positive) for text, positive in pairs]


def test_lia_transitivity_conflict():
    assert not check_lia(_lits(("x < y", True), ("y < z", True), ("z < x", True)))


def test_lia_equality_and_strict():
    assert not check_lia(_lits(("x = y", True), ("x < y", True)))


def test_lia_consistent():
    assert check_lia(_lits(("x < y", True), ("y < z", True)))


def test_lia_negated_inequality():
    # ~(x <= y) and ~(y <= x) cannot both hold.
    assert not check_lia(_lits(("x <= y", False), ("y <= x", False)))


def test_lia_integer_tightening():
    # x < y < x + 1 has no integer solution.
    assert not check_lia(_lits(("x < y", True), ("y < x + 1", True)))


def test_lia_cardinality_nonnegative():
    assert not check_lia(_lits(("card S < 0", True)))


def test_lia_constants():
    assert not check_lia(_lits(("x = 3", True), ("x = 4", True)))
    assert check_lia(_lits(("x = 3", True), ("y = 4", True)))


def test_lia_coefficients():
    assert not check_lia(_lits(("2 * x < 4", True), ("3 <= x", True)))


def test_fourier_motzkin_direct():
    constraints = [
        Constraint({"x": Fraction(1)}, Fraction(5)),       # x <= 5
        Constraint({"x": Fraction(-1)}, Fraction(-7)),      # x >= 7
    ]
    assert not fourier_motzkin_consistent(constraints)


def test_fourier_motzkin_feasible():
    constraints = [
        Constraint({"x": Fraction(1), "y": Fraction(-1)}, Fraction(0)),   # x <= y
        Constraint({"y": Fraction(1)}, Fraction(10)),
    ]
    assert fourier_motzkin_consistent(constraints)


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
@settings(max_examples=40, deadline=None)
def test_lia_interval_property(low, high):
    """low <= x <= high is consistent exactly when low <= high."""
    literals = _lits((f"{low} <= x", True), (f"x <= {high}", True))
    assert check_lia(literals) == (low <= high)


# -- differential tests for the integer kernels ----------------------------------------


def _reference_fourier_motzkin(constraints, max_constraints=4000):
    """Fourier-Motzkin elimination on ``Fraction`` rows: the rational
    procedure the integer-row kernel must agree with answer for answer
    (including where it gives up at ``max_constraints``)."""
    system = [(dict(c.coeffs), c.bound) for c in constraints]
    system = [(coeffs, bound) for coeffs, bound in system if coeffs or bound < 0]
    for coeffs, bound in system:
        if not coeffs and bound < 0:
            return False
    variables = sorted({v for coeffs, _ in system for v in coeffs})
    for variable in variables:
        lower, upper, rest = [], [], []
        for coeffs, bound in system:
            coeff = coeffs.get(variable, Fraction(0))
            if coeff > 0:
                upper.append((coeffs, bound, coeff))
            elif coeff < 0:
                lower.append((coeffs, bound, coeff))
            else:
                rest.append((coeffs, bound))
        new_system = rest
        for lower_coeffs, lower_bound, lower_coeff in lower:
            for upper_coeffs, upper_bound, upper_coeff in upper:
                scale_low = Fraction(1) / -lower_coeff
                scale_up = Fraction(1) / upper_coeff
                coeffs = {}
                for key, value in lower_coeffs.items():
                    coeffs[key] = coeffs.get(key, Fraction(0)) + value * scale_low
                for key, value in upper_coeffs.items():
                    coeffs[key] = coeffs.get(key, Fraction(0)) + value * scale_up
                coeffs.pop(variable, None)
                coeffs = {k: v for k, v in coeffs.items() if v != 0}
                bound = lower_bound * scale_low + upper_bound * scale_up
                if not coeffs:
                    if bound < 0:
                        return False
                    continue
                new_system.append((coeffs, bound))
        if len(new_system) > max_constraints:
            return True
        system = new_system
    return not any(not coeffs and bound < 0 for coeffs, bound in system)


def _random_value(rng, fractional):
    numerator = rng.randint(-6, 6)
    if fractional and rng.random() < 0.4:
        return Fraction(numerator, rng.randint(2, 7))
    return Fraction(numerator)


def _random_system(rng, fractional):
    names = ["x", "y", "z", "w", "v"][: rng.randint(1, 5)]
    system = []
    for _ in range(rng.randint(1, 9)):
        coeffs = {}
        for name in rng.sample(names, rng.randint(0, len(names))):
            coeffs[name] = _random_value(rng, fractional)
        system.append(Constraint(coeffs, _random_value(rng, fractional)))
    return system


@pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
def test_integer_fourier_motzkin_agrees_with_fraction_reference(fractional):
    rng = random.Random(20261017 + fractional)
    answers = []
    for _ in range(400):
        system = _random_system(rng, fractional)
        expected = _reference_fourier_motzkin(system)
        assert fourier_motzkin_consistent(system) == expected, system
        answers.append(expected)
    # The corpus exercises both answers.
    assert any(answers) and not all(answers)


def test_integer_fourier_motzkin_gives_up_where_the_reference_does():
    rng = random.Random(7)
    gave_up = 0
    for _ in range(400):
        system = _random_system(rng, fractional=True)
        limit = rng.randint(1, 6)
        expected = _reference_fourier_motzkin(system, max_constraints=limit)
        assert fourier_motzkin_consistent(system, max_constraints=limit) == expected, (
            system, limit)
        if expected and not _reference_fourier_motzkin(system):
            # Consistent only because of the cap: the give-up is reported
            # as such, never as feasibility.
            assert fourier_motzkin(system, max_constraints=limit) is Feasibility.GAVE_UP
            gave_up += 1
    # Some systems are infeasible but exceed the small limit: the give-up
    # point itself is compared, not only the easy answers.
    assert gave_up > 0


def test_fourier_motzkin_on_fractional_coefficients():
    # x/2 <= 1/3 and x >= 2/3 + 1/7 is infeasible over the rationals.
    infeasible = [
        Constraint({"x": Fraction(1, 2)}, Fraction(1, 3)),
        Constraint({"x": Fraction(-1)}, -Fraction(2, 3) - Fraction(1, 7)),
    ]
    assert not fourier_motzkin_consistent(infeasible)
    feasible = [
        Constraint({"x": Fraction(1, 2)}, Fraction(1, 3)),
        Constraint({"x": Fraction(-1)}, -Fraction(2, 3)),
    ]
    assert fourier_motzkin_consistent(feasible)


def test_find_returns_the_interned_object_for_an_equal_query():
    stored = f(a)
    cc = CongruenceClosure()
    cc.intern(stored)
    query = FApp("f", (const("a"),))
    assert query is not stored
    assert query in cc
    assert cc.find(query) is stored
    assert FApp("f", (const("b"),)) not in cc
    # After a merge the root is still one of the interned objects.
    cc.assert_equal(f(b), stored)
    cc.close()
    root = cc.find(FApp("f", (const("a"),)))
    assert root is stored or root == f(b)
    assert cc.find(f(b)) is root


def test_members_by_class_lists_interning_order_and_matches_classes():
    cc = CongruenceClosure()
    cc.assert_equal(f(a), c)         # interns f(a), a, c
    cc.assert_equal(a, b)            # interns b
    cc.intern(f(b))                  # congruent to f(a) once closed
    cc.intern(d)
    cc.close()
    classes = cc.members_by_class()
    order = [f(a), a, c, b, f(b), d]
    for root, members in classes.items():
        assert cc.find(root) is root
        assert members == sorted(members, key=order.index)
        assert all(cc.find(member) is root for member in members)
    assert sorted(map(frozenset, classes.values()), key=len) == sorted(
        map(frozenset, cc.equivalence_classes()), key=len)
    assert {frozenset(m) for m in classes.values()} == {
        frozenset({f(a), c, f(b)}), frozenset({a, b}), frozenset({d})}


def _reference_euf(equalities, disequalities):
    """Naive congruence closure over a term list: merge, then propagate
    congruence by comparing every pair of applications to a fixed point."""
    terms = []

    def add(term):
        if term not in terms:
            terms.append(term)
            for arg in getattr(term, "args", ()):
                add(arg)

    for lhs, rhs in list(equalities) + list(disequalities):
        add(lhs)
        add(rhs)
    cls = {term: {term} for term in terms}

    def merge(s, t):
        if cls[s] is not cls[t]:
            joined = cls[s] | cls[t]
            for member in joined:
                cls[member] = joined

    for lhs, rhs in equalities:
        merge(lhs, rhs)
    changed = True
    while changed:
        changed = False
        for s in terms:
            for t in terms:
                if (s.args and t.args and s.func == t.func and len(s.args) == len(t.args)
                        and cls[s] is not cls[t]
                        and all(cls[x] is cls[y] for x, y in zip(s.args, t.args))):
                    merge(s, t)
                    changed = True
    return all(cls[lhs] is not cls[rhs] for lhs, rhs in disequalities)


def _random_ground_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([a, b, c, d])
    if rng.random() < 0.5:
        return f(_random_ground_term(rng, depth - 1))
    return FApp("g", (_random_ground_term(rng, depth - 1), _random_ground_term(rng, depth - 1)))


def test_congruence_closure_agrees_with_naive_reference_and_cores_conflict():
    rng = random.Random(1017)
    verdicts = []
    for _ in range(300):
        equalities = [(_random_ground_term(rng, 2), _random_ground_term(rng, 2))
                      for _ in range(rng.randint(0, 5))]
        disequalities = [(_random_ground_term(rng, 3), _random_ground_term(rng, 3))
                         for _ in range(rng.randint(1, 3))]
        expected = _reference_euf(equalities, disequalities)
        assert check_euf(equalities, disequalities) == expected
        verdicts.append(expected)
        tagged_eq = [(lhs, rhs, ("eq", i)) for i, (lhs, rhs) in enumerate(equalities)]
        tagged_ne = [(lhs, rhs, ("ne", i)) for i, (lhs, rhs) in enumerate(disequalities)]
        core = euf_conflict_tags(tagged_eq, tagged_ne)
        assert (core is None) == expected
        if core:
            # The explanation is itself a conflict.
            kept_eq = [(l, r) for l, r, tag in tagged_eq if tag in core]
            kept_ne = [(l, r) for l, r, tag in tagged_ne if tag in core]
            assert not _reference_euf(kept_eq, kept_ne)
    assert any(verdicts) and not all(verdicts)
