"""Dominated asserts: trivial truth and the available-assumes analysis."""

from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.analysis.cfg import build_cfg, run_dataflow
from repro.analysis.discharge import UNIVERSE, AvailableAssumes, find_dominated_asserts
from repro.gcl.commands import Assert, Assign, Assume, Choice, Havoc, seq
from repro.provers.syntactic import trivially_false, trivially_true


# -- trivial truth -----------------------------------------------------------------


def test_trivially_true_shapes():
    for text in ["True", "x = x", "True & x = x", "p | True",
                 "q --> True", "False --> p", "ALL x. x = x"]:
        assert trivially_true(parse(text)), text


def test_not_trivially_true():
    for text in ["p", "x = y", "p & q", "p | q", "p --> q", "~p"]:
        assert not trivially_true(parse(text)), text


def test_trivially_false_shapes():
    for text in ["False", "~True", "p & False", "False | False"]:
        assert trivially_false(parse(text)), text
    assert not trivially_false(parse("p & q"))
    assert not trivially_false(parse("p | True"))


# -- available assumes -------------------------------------------------------------


def test_assume_becomes_available_and_assign_kills():
    p = parse("x = null")
    fact = AvailableAssumes.transfer_command(Assume(p), frozenset())
    assert p in fact
    fact = AvailableAssumes.transfer_command(Assign("x", parse("y")), fact)
    assert p not in fact


def test_havoc_kills_only_touched_formulas():
    p, q = parse("x = null"), parse("y = null")
    fact = frozenset({p, q})
    fact = AvailableAssumes.transfer_command(Havoc(("x",)), fact)
    assert fact == frozenset({q})


def test_assume_false_is_top():
    fact = AvailableAssumes.transfer_command(Assume(F.FALSE), frozenset())
    assert fact is UNIVERSE
    # Top absorbs any further command.
    assert AvailableAssumes.transfer_command(Assign("x", parse("y")), fact) is UNIVERSE


def test_join_is_intersection_ignoring_dead_paths():
    analysis = AvailableAssumes()
    p, q = parse("p"), parse("q")
    joined = analysis.join([frozenset({p, q}), frozenset({p})])
    assert joined == frozenset({p})
    assert analysis.join([UNIVERSE, frozenset({p})]) == frozenset({p})
    assert analysis.join([UNIVERSE, UNIVERSE]) is UNIVERSE


def test_dominated_assert_found():
    p = parse("x ~= null")
    command = seq(Assume(p), Assert(p, label="null-check"))
    dominated = find_dominated_asserts(command)
    assert [d.reason for d in dominated] == ["assumption"]


def test_intervening_assign_blocks_domination():
    p = parse("x ~= null")
    command = seq(Assume(p), Assign("x", parse("y")), Assert(p))
    assert find_dominated_asserts(command) == []


def test_must_analysis_needs_both_branches():
    p = parse("p")
    one_side = seq(
        Choice(Assume(p), Assume(parse("q"))),
        Assert(p),
    )
    assert find_dominated_asserts(one_side) == []
    both_sides = seq(
        Choice(Assume(p), seq(Assume(parse("q")), Assume(p))),
        Assert(p),
    )
    assert [d.reason for d in find_dominated_asserts(both_sides)] == ["assumption"]


def test_trivial_assert_reported_with_trivial_reason():
    command = seq(Assume(parse("p")), Assert(parse("x = x")))
    assert [d.reason for d in find_dominated_asserts(command)] == ["trivial"]


def test_assert_then_assume_makes_formula_available():
    p = parse("p")
    command = seq(Assert(p), Assert(p))
    # The second assert is dominated by the first (assert-then-assume).
    dominated = find_dominated_asserts(command)
    assert len(dominated) == 1 and dominated[0].reason == "assumption"


def test_assert_after_cut_is_vacuous():
    command = seq(Assume(F.FALSE), Assert(parse("p")))
    assert [d.reason for d in find_dominated_asserts(command)] == ["unreachable"]


def test_cfg_can_be_shared():
    p = parse("p")
    command = seq(Assume(p), Assert(p))
    cfg = build_cfg(command)
    assert find_dominated_asserts(command, cfg) == find_dominated_asserts(command)


def test_run_dataflow_produces_exit_fact():
    p = parse("p")
    cfg = build_cfg(seq(Assume(p), Assign("z", parse("1"))))
    result = run_dataflow(cfg, AvailableAssumes())
    assert p in result.outputs[cfg.exit]
