"""VC generation and splitting (Figures 10 and 13)."""

import pytest

from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.form.typecheck import standard_env
from repro.java.resolver import parse_program
from repro.vcgen.sequent import Labeled, Sequent, sequent
from repro.vcgen.splitter import split_goal
from repro.vcgen.vcgen import generate_method_vc

SOURCE = """
class Counter {
    private static int count;
    /*: public static ghost specvar total :: "int" = "0";
        invariant TotalInv: "total = count";
    */
    public static void increment()
    /*: requires "True" modifies total ensures "total = old total + 1" */
    {
        count = count + 1;
        //: total := "total + 1";
    }

    public static void reset()
    /*: requires "True" modifies total ensures "total = 0" */
    {
        count = 0;
        //: total := "0";
    }

    public static int get()
    /*: requires "True" ensures "result = total" */
    {
        return count;
    }

    public static void conditional(int x)
    /*: requires "True" modifies total ensures "total >= old total" */
    {
        if (x > 0) {
            count = count + x;
            //: total := "total + x";
        } else {
            count = count;
        }
    }
}
"""


# -- splitting (Figure 13) ------------------------------------------------------------


def test_split_conjunction_goal():
    result = split_goal((), Labeled(parse("p & q & r")), standard_env())
    assert len(result.sequents) == 3


def test_split_implication_moves_hypotheses():
    result = split_goal((), Labeled(parse("p & q --> r")), standard_env())
    assert len(result.sequents) == 1
    assumptions = [a.formula for a in result.sequents[0].assumptions]
    assert parse("p") in assumptions and parse("q") in assumptions


def test_split_universal_freshens_variable():
    result = split_goal((), Labeled(parse("ALL x. x : S --> x : T")), standard_env())
    assert len(result.sequents) == 1
    goal = result.sequents[0].goal.formula
    assert not isinstance(goal, F.Quant)


def test_split_eliminates_goal_present_in_assumptions():
    assumption = Labeled(parse("p"), ("h",))
    result = split_goal((assumption,), Labeled(parse("p & q")), standard_env())
    assert result.proved_during_splitting == 1
    assert len(result.sequents) == 1


def test_split_true_goal_counts_as_proved():
    result = split_goal((), Labeled(F.TRUE), standard_env())
    assert result.proved_during_splitting == 1
    assert not result.sequents


def test_split_preserves_labels_and_hints():
    result = split_goal(
        (Labeled(parse("p"), ("pre",)),),
        Labeled(parse("q & r"), ("post",)),
        standard_env(),
        hints=("pre",),
        origin="Class.method:post",
    )
    for seq in result.sequents:
        assert seq.goal.labels == ("post",)
        assert seq.hints == ("pre",)
        assert seq.origin == "Class.method:post"


# -- sequents ---------------------------------------------------------------------------


def test_sequent_to_implication():
    s = sequent([parse("p"), parse("q")], parse("r"))
    assert isinstance(s.to_implication(), F.Implies)


def test_sequent_pretty_lists_assumptions():
    s = sequent([parse("p")], parse("q"), origin="X.m:post")
    text = s.pretty()
    assert "X.m:post" in text and "p" in text and "q" in text


# -- per-method VC generation --------------------------------------------------------------


@pytest.fixture(scope="module")
def program():
    return parse_program(SOURCE)


def test_vc_contains_postcondition_obligation(program):
    vc = generate_method_vc(program, "Counter", "increment")
    origins = {s.origin for s in vc.sequents}
    assert any("post" in origin for origin in origins) or vc.proved_during_splitting > 0


def test_vc_contains_invariant_obligation(program):
    vc = generate_method_vc(program, "Counter", "increment")
    labels = {label for s in vc.sequents for label in s.goal.labels}
    assert any("inv-exit" in label for label in labels) or vc.proved_during_splitting > 0


def test_vc_assumes_precondition_and_invariants(program):
    vc = generate_method_vc(program, "Counter", "get")
    for s in vc.sequents:
        labels = {label for a in s.assumptions for label in a.labels}
        assert any(label.startswith("inv:") for label in labels)


def test_old_variables_are_snapshotted(program):
    vc = generate_method_vc(program, "Counter", "increment")
    found_old = False
    for s in vc.sequents:
        for a in s.assumptions:
            if any(label.startswith("old:") for label in a.labels):
                found_old = True
    assert found_old


def test_branching_method_generates_obligations_for_both_paths(program):
    vc = generate_method_vc(program, "Counter", "conditional")
    assert vc.paths >= 2
    assert len(vc.sequents) >= 2


def test_frame_condition_added_for_unmodified_public_specvars(program):
    # `get` does not list `total` in modifies, so the frame conjunct
    # total = old total is part of its postcondition obligations.
    vc = generate_method_vc(program, "Counter", "get", include_frame=True)
    frameless = generate_method_vc(program, "Counter", "get", include_frame=False)
    assert vc.proved_during_splitting + len(vc.sequents) >= frameless.proved_during_splitting + len(
        frameless.sequents
    )


def test_vc_generation_is_deterministic(program):
    first = generate_method_vc(program, "Counter", "increment")
    second = generate_method_vc(program, "Counter", "increment")
    assert len(first.sequents) == len(second.sequents)
    assert [s.origin for s in first.sequents] == [s.origin for s in second.sequents]
