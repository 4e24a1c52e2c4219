"""The syntactic prover is the one place that decides structural validity.

It subsumes the retired static-discharge pre-pass: a copy of that pass's
classifier is kept below as the reference, and every sequent the reference
would have discharged must come back PROVED from :class:`SyntacticProver`,
over the suite's sequents and over seeded generated ones.  A truth-table
check keeps the prover honest in the other direction.
"""

import dataclasses
import itertools
import random

import pytest

from repro import suite
from repro.core.report import format_table
from repro.core.verifier import verify, verify_class
from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.form.printer import to_str
from repro.provers.base import Verdict
from repro.provers.dispatcher import DispatchConfig, Dispatcher
from repro.provers.syntactic import SyntacticProver
from repro.vcgen.sequent import sequent

# -- the reference: the retired pre-pass's classifier, verbatim ------------------------


def _ref_trivially_true(term):
    if isinstance(term, F.BoolLit):
        return term.value
    if isinstance(term, F.Eq):
        return term.lhs == term.rhs
    if isinstance(term, F.Iff):
        return term.lhs == term.rhs or (
            _ref_trivially_true(term.lhs) and _ref_trivially_true(term.rhs)
        )
    if isinstance(term, F.And):
        return all(_ref_trivially_true(sub) for sub in term.args)
    if isinstance(term, F.Or):
        return any(_ref_trivially_true(sub) for sub in term.args)
    if isinstance(term, F.Implies):
        return _ref_trivially_true(term.rhs) or _ref_trivially_false(term.lhs)
    if isinstance(term, F.Not):
        return _ref_trivially_false(term.arg)
    if isinstance(term, F.Quant):
        return _ref_trivially_true(term.body)
    return False


def _ref_trivially_false(term):
    if isinstance(term, F.BoolLit):
        return not term.value
    if isinstance(term, F.Not):
        return _ref_trivially_true(term.arg)
    if isinstance(term, F.And):
        return any(_ref_trivially_false(sub) for sub in term.args)
    if isinstance(term, F.Or):
        return all(_ref_trivially_false(sub) for sub in term.args)
    return False


def _reference_classify(seq):
    """The discharge reason the retired pre-pass gave a sequent, or None
    when it left the sequent to the provers."""
    goal = seq.goal.formula
    if _ref_trivially_true(goal):
        return "trivial"
    forms = [assumption.formula for assumption in seq.assumptions]
    available = set(forms)
    if goal in available:
        return "assumption"
    if isinstance(goal, F.Eq) and F.Eq(goal.rhs, goal.lhs) in available:
        return "symmetric-equality"
    for formula in forms:
        if isinstance(formula, F.And) and goal in formula.args:
            return "conjunct"
    for formula in forms:
        if _ref_trivially_false(formula):
            return "contradiction"
        if isinstance(formula, F.Not) and formula.arg in available:
            return "contradiction"
    return None


# -- seeded sequent generators ---------------------------------------------------------

ATOMS = (F.Var("p"), F.Var("q"), F.Var("r"))
OBJECTS = (F.Var("x"), F.Var("y"), F.Var("a"), F.Var("b"))


def _formula(rng, depth, quantifiers=True):
    """A random formula over ``p``/``q``/``r``, ``True``/``False`` and (with
    ``quantifiers``) object equalities and ``ALL z.``; connectives are built
    directly, so conjunctions nest the way the parser never builds them."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45 or (roll < 0.85 and not quantifiers):
            return rng.choice(ATOMS)
        if roll < 0.85:
            return F.Eq(rng.choice(OBJECTS), rng.choice(OBJECTS))
        return F.BoolLit(rng.random() < 0.5)
    kind = rng.randrange(6 if quantifiers else 5)
    sub = lambda: _formula(rng, depth - 1, quantifiers)  # noqa: E731
    if kind == 0:
        return F.Not(sub())
    if kind == 1:
        return F.And(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return F.Or(tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return F.Implies(sub(), sub())
    if kind == 4:
        return F.Iff(sub(), sub())
    return F.Quant("ALL", (("z", None),), sub())


def _generated_sequent(rng, depth, quantifiers=True):
    """A random sequent, biased towards the shapes the reference discharges:
    the goal assumed verbatim, mirrored, as a conjunct, or a negated pair."""
    goal = _formula(rng, depth, quantifiers)
    assumptions = [_formula(rng, depth, quantifiers) for _ in range(rng.randint(0, 3))]
    roll = rng.random()
    if roll < 0.15:
        assumptions.append(goal)
    elif roll < 0.3 and isinstance(goal, F.Eq):
        assumptions.append(F.Eq(goal.rhs, goal.lhs))
    elif roll < 0.45:
        conjuncts = [goal] + [_formula(rng, 1, quantifiers) for _ in range(rng.randint(1, 2))]
        rng.shuffle(conjuncts)
        assumptions.append(F.And(tuple(conjuncts)))
    elif roll < 0.6 and assumptions:
        assumptions.append(F.Not(rng.choice(assumptions)))
    rng.shuffle(assumptions)
    return sequent(assumptions, goal)


def _show(seq):
    assumptions = ", ".join(to_str(a.formula) for a in seq.assumptions)
    return f"{assumptions} |- {to_str(seq.goal.formula)}"


# -- subsumption -----------------------------------------------------------------------


def test_every_suite_sequent_the_reference_discharges_is_proved(suite_sequents):
    prover = SyntacticProver()
    discharged = [seq for seq in suite_sequents if _reference_classify(seq)]
    assert len(discharged) >= 70
    for seq in discharged:
        assert prover.prove(seq).proved, f"{seq.origin}: {_show(seq)}"


def test_every_generated_sequent_the_reference_discharges_is_proved():
    rng = random.Random(19)
    prover = SyntacticProver()
    reasons = {}
    for _ in range(8000):
        seq = _generated_sequent(rng, depth=rng.choice((2, 3)))
        reason = _reference_classify(seq)
        if reason is None:
            continue
        reasons[reason] = reasons.get(reason, 0) + 1
        assert prover.prove(seq).proved, f"{reason}: {_show(seq)}"
    assert sum(reasons.values()) >= 5000
    assert set(reasons) == {
        "trivial", "assumption", "symmetric-equality", "conjunct", "contradiction",
    }


# -- soundness -------------------------------------------------------------------------


def _evaluate(term, valuation):
    if isinstance(term, F.BoolLit):
        return term.value
    if isinstance(term, F.Var):
        return valuation[term.name]
    if isinstance(term, F.Not):
        return not _evaluate(term.arg, valuation)
    if isinstance(term, F.And):
        return all(_evaluate(arg, valuation) for arg in term.args)
    if isinstance(term, F.Or):
        return any(_evaluate(arg, valuation) for arg in term.args)
    if isinstance(term, F.Implies):
        return not _evaluate(term.lhs, valuation) or _evaluate(term.rhs, valuation)
    if isinstance(term, F.Iff):
        return _evaluate(term.lhs, valuation) == _evaluate(term.rhs, valuation)
    raise TypeError(term)


def _valid(seq):
    for values in itertools.product((False, True), repeat=len(ATOMS)):
        valuation = dict(zip((atom.name for atom in ATOMS), values))
        if all(_evaluate(a.formula, valuation) for a in seq.assumptions) and not _evaluate(
            seq.goal.formula, valuation
        ):
            return False
    return True


def test_every_propositional_proof_is_valid_by_truth_table():
    rng = random.Random(7)
    prover = SyntacticProver()
    proved = 0
    for _ in range(5000):
        seq = _generated_sequent(rng, depth=3, quantifiers=False)
        if prover.prove(seq).proved:
            proved += 1
            assert _valid(seq), _show(seq)
    assert proved >= 1500


# -- what the prover gained from the fold ----------------------------------------------


def _answer(assumptions, goal):
    return SyntacticProver().prove(sequent([parse(a) for a in assumptions], parse(goal)))


@pytest.mark.parametrize(
    "assumptions, goal, detail",
    [
        (["False"], "False", "assumption is False"),
        (["p", "~p"], "False", "contradictory assumptions"),
        (["~(ALL z. x = x)"], "False", "assumption is False"),
    ],
)
def test_false_goal_is_proved_from_contradictory_assumptions(assumptions, goal, detail):
    answer = _answer(assumptions, goal)
    assert answer.verdict is Verdict.PROVED
    assert answer.detail == detail


def test_false_goal_without_contradiction_stays_unknown():
    answer = _answer(["p"], "False")
    assert answer.verdict is Verdict.UNKNOWN
    assert answer.detail == "goal is False"


# -- dispatch and reports without the tier --------------------------------------


def _kinds():
    return [
        sequent([parse("p")], parse("x = x")),
        sequent([parse("a = b")], parse("b = a")),
        sequent([parse("p & q")], parse("q")),
        sequent([parse("p"), parse("~p")], parse("r")),
        sequent([parse("p")], parse("~(~p)")),
    ]


def test_dispatch_credits_every_kind_to_syntactic(executor):
    result = Dispatcher(DispatchConfig(["syntactic"], **executor)).prove_all(_kinds())
    assert result.proved == 5
    assert [o.prover for o in result.outcomes] == ["syntactic"] * 5
    assert set(result.stats) == {"syntactic"}
    assert result.stats["syntactic"].proved == 5


def test_reports_and_table_have_one_trivial_sequent_column():
    source = suite.source("SinglyLinkedList")
    report = verify(source, method="isEmpty", class_name="SinglyLinkedList",
                    provers=["syntactic"])
    assert report.proved_sequents == report.proved_by("syntactic") == 1
    assert "Static" not in report.format()
    table = verify_class(source, class_name="SinglyLinkedList",
                         provers=["syntactic", "smt"], methods=["isEmpty"])
    header = format_table([table], ["syntactic", "smt"]).splitlines()[0].split()
    assert header == ["Data", "Structure", "Syntactic", "smt", "Total", "Time", "Verified"]


def test_verdicts_and_dispatch_settings():
    assert [verdict.value for verdict in Verdict] == [
        "proved", "unknown", "unsupported", "timeout", "refuted",
    ]
    assert [field.name for field in dataclasses.fields(DispatchConfig)] == [
        "provers", "prover_options", "sequent_budget", "dedup", "workers",
    ]
