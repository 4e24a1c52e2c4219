"""The SMT-role prover on ground and quantified sequents (validity and soundness)."""

import pytest

from repro.form.parser import parse_formula as parse
from repro.smt.prover import SmtProver
from repro.smt.sat import SatSolver
from repro.vcgen.sequent import sequent


def _proves(assumptions, goal, timeout=4.0):
    seq = sequent([parse(a) for a in assumptions], parse(goal))
    return SmtProver(timeout=timeout).prove(seq).proved


VALID = [
    # propositional / equality
    (["p", "p --> q"], "q"),
    (["a = b", "b = c"], "a = c"),
    (["a = b", "p a"], "p b"),
    (["a ~= b", "a = c"], "c ~= b"),
    # heap updates
    (["n1 ~= n2", "(fieldWrite next n1 root) n2 = q"], "next n2 = q"),
    ([], "(fieldWrite next n root) n = root"),
    (["(arrayWrite arrayState a i v) a i = w"], "v = w"),
    # arithmetic
    (["x < y", "y < z"], "x < z"),
    (["size = 0"], "size + 1 = 1"),
    (["0 <= i", "i < n", "n <= m"], "i < m"),
    # quantifier instantiation
    (["ALL x. x : S --> x ~= null", "a : S"], "a ~= null"),
    (["ALL x. x : S --> x..f : S", "a : S"], "a..f..f : S"),
    (["ALL x. p x"], "p a & p b"),
    # membership after expansion
    (["x : A"], "x : A Un B"),
    (["x : A Int B"], "x : A"),
    (["x ~: A Un B"], "x ~: A"),
    (["content1 = content Un {e}", "x : content"], "x : content1"),
]


@pytest.mark.parametrize("assumptions, goal", VALID)
def test_proves_valid_sequents(assumptions, goal):
    assert _proves(assumptions, goal)


INVALID = [
    (["p --> q", "q"], "p"),
    (["a = b"], "a = c"),
    ([], "x < y"),
    (["x <= y"], "x < y"),
    (["ALL x. x : S --> x ~= null"], "a ~= null"),
    (["x : A Un B"], "x : A"),
    (["(fieldWrite next n1 root) n2 = q"], "next n2 = q"),  # n1 may equal n2
    (["content1 = content Un {e}"], "x : content1"),
]


@pytest.mark.parametrize("assumptions, goal", INVALID)
def test_never_proves_invalid_sequents(assumptions, goal):
    assert not _proves(assumptions, goal, timeout=2.5)


@pytest.mark.parametrize(
    "assumptions, goal, proved",
    [
        (["i = j"], "~(i < j)", True),
        (["i = j"], "i <= j", True),
        (["i = j"], "i < j", False),
        (["f a = g b"], "f a <= g b", True),
        (["i = j", "j < k"], "i < k", True),
        (["f a = g b"], "f a < c", False),
    ],
)
def test_asserted_equalities_reach_linear_arithmetic(assumptions, goal, proved):
    """A plain equality between the unknowns of the arithmetic atoms is an
    arithmetic fact: EUF knows no order, so LIA must see it."""
    assert _proves(assumptions, goal, timeout=2.5) == proved


# -- the SAT core ------------------------------------------------------------------------


def test_sat_simple_satisfiable():
    solver = SatSolver(2)
    solver.add_clauses([[1, 2], [-1, 2]])
    result = solver.solve()
    assert result.satisfiable
    assert result.assignment[2] is True


def test_sat_simple_unsatisfiable():
    solver = SatSolver(1)
    solver.add_clauses([[1], [-1]])
    assert not solver.solve().satisfiable


def test_sat_unit_propagation_chain():
    solver = SatSolver(4)
    solver.add_clauses([[1], [-1, 2], [-2, 3], [-3, 4], [-4]])
    assert not solver.solve().satisfiable


def test_sat_incremental_blocking():
    solver = SatSolver(2)
    solver.add_clauses([[1, 2]])
    first = solver.solve()
    assert first.satisfiable
    blocking = [-(v if val else -v) for v, val in first.assignment.items()]
    solver.add_clause(blocking)
    second = solver.solve()
    # Still satisfiable (a different assignment exists for [1, 2]).
    assert second.satisfiable


def _brute_force_satisfiable(num_vars, clauses):
    return any(
        all(
            any((lit > 0) == bool((model >> (abs(lit) - 1)) & 1) for lit in clause)
            for clause in clauses
        )
        for model in range(1 << num_vars)
    )


@pytest.mark.parametrize("seed", range(12))
def test_sat_agrees_with_brute_force_on_random_cnfs(seed):
    """Differential fuzz of the CDCL core: verdicts match exhaustive model
    enumeration, returned models really satisfy the clauses, and re-solving
    (with the persisted learned clauses) agrees — including after a
    blocking clause, the lazy SMT loop's usage pattern."""
    import random

    rng = random.Random(seed)
    for _ in range(60):
        num_vars = rng.randint(1, 9)
        clauses = [
            [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 30))
        ]
        solver = SatSolver(num_vars)
        solver.add_clauses(clauses)
        expected = _brute_force_satisfiable(num_vars, clauses)
        result = solver.solve()
        assert result.satisfiable == expected, (seed, clauses)
        if not expected:
            continue
        model = result.assignment
        assert all(
            any((lit > 0) == model.get(abs(lit), False) for lit in clause)
            for clause in clauses
        ), (seed, clauses, model)
        # Incremental blocking: the remaining problem must still agree.
        blocking = [-(v if val else -v) for v, val in model.items()]
        solver.add_clause(blocking)
        assert solver.solve().satisfiable == _brute_force_satisfiable(
            num_vars, clauses + [blocking]
        ), (seed, clauses, blocking)


@pytest.mark.parametrize("seed", range(8))
def test_sat_incremental_trail_agrees_with_scratch(seed):
    """Differential test of the persistent-trail engine: one incremental
    solver fed a stream of blocking clauses answers exactly like a fresh
    from-scratch solver rebuilt on the accumulated clause set each step —
    the lazy DPLL(T) loop's usage pattern."""
    import random

    rng = random.Random(seed)
    for _ in range(25):
        num_vars = rng.randint(2, 9)
        clauses = [
            [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 25))
        ]
        incremental = SatSolver(num_vars, incremental=True)
        incremental.add_clauses(clauses)
        accumulated = list(clauses)
        for _step in range(6):
            scratch = SatSolver(num_vars, incremental=False)
            scratch.add_clauses(accumulated)
            live = incremental.solve()
            reference = scratch.solve()
            assert live.satisfiable == reference.satisfiable, (seed, accumulated)
            assert live.satisfiable == _brute_force_satisfiable(num_vars, accumulated)
            if not live.satisfiable:
                break
            model = live.assignment
            assert all(
                any((lit > 0) == model.get(abs(lit), False) for lit in clause)
                for clause in accumulated
            ), (seed, accumulated, model)
            blocking = [-(v if val else -v) for v, val in model.items()]
            incremental.add_clause(blocking)
            accumulated.append(blocking)


@pytest.mark.parametrize("seed", range(6))
def test_sat_assumptions_agree_and_do_not_poison(seed):
    """``solve(assumptions=...)`` answers like a scratch solver with the
    assumptions added as unit clauses, and an unsat-under-assumptions
    answer leaves the solver reusable (assumption levels retract)."""
    import random

    rng = random.Random(seed)
    for _ in range(25):
        num_vars = rng.randint(2, 8)
        clauses = [
            [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 20))
        ]
        assumptions = [
            rng.choice([-1, 1]) * v
            for v in rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
        ]
        solver = SatSolver(num_vars, incremental=True)
        solver.add_clauses(clauses)
        plain = solver.solve().satisfiable
        under = solver.solve(assumptions=assumptions).satisfiable
        expected = _brute_force_satisfiable(
            num_vars, clauses + [[lit] for lit in assumptions]
        )
        assert under == expected, (seed, clauses, assumptions)
        # The assumption levels must fully retract: the plain problem's
        # verdict is unchanged afterwards.
        assert solver.solve().satisfiable == plain, (seed, clauses, assumptions)


def test_sat_learned_clauses_and_trail_survive_between_solves():
    """The incremental engine keeps its clause database (learned clauses
    included) and its level-0 trail across ``solve()`` calls instead of
    rebuilding from scratch."""
    pigeons, holes = 4, 3
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    # Drop one at-most-one clause so the instance is (barely) satisfiable:
    # the solver must conflict and learn on the way to a model.
    satisfiable_clauses = clauses[:-1]
    solver = SatSolver(pigeons * holes, incremental=True)
    solver.add_clauses(satisfiable_clauses)
    assert solver.solve().satisfiable
    learned_after_first = len(solver._learned)
    db_after_first = len(solver._db)
    assert solver.solve().satisfiable
    # Nothing was thrown away between the calls.
    assert len(solver._learned) >= learned_after_first
    assert len(solver._db) >= db_after_first
    # Adding back the dropped clause plus a contradiction flips to UNSAT
    # on the same solver object.
    solver.add_clause(clauses[-1])
    final = solver.solve()
    assert final.satisfiable == _brute_force_satisfiable(pigeons * holes, clauses)


def test_sat_refutes_pigeonhole():
    """PHP(4,3) — 4 pigeons in 3 holes — is UNSAT and needs real search
    (clause learning), not just unit propagation."""
    pigeons, holes = 4, 3
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    solver = SatSolver(pigeons * holes)
    solver.add_clauses(clauses)
    assert not solver.solve().satisfiable
