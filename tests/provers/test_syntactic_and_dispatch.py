"""Syntactic prover, approximation, relevance selection and the dispatcher."""

import importlib.util
from pathlib import Path

import pytest

from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.provers.approximation import (
    approximate,
    drop_unsupported_assumptions,
    is_first_order_atom,
    is_ground_smt_atom,
    relevant_assumptions,
    rewrite_sequent,
)
from repro.provers import dispatcher
from repro.provers.base import ProverRegistry, ProverStats, Verdict
from repro.provers.dispatcher import (
    DEFAULT_ORDER,
    DispatchConfig,
    Dispatcher,
    PROVER_ALIASES,
    make_provers,
    resolve_prover_names,
)
from repro.provers.syntactic import SyntacticProver
from repro.vcgen.sequent import Labeled, Sequent, sequent


def _syntactic(assumptions, goal):
    return SyntacticProver().prove(sequent([parse(a) for a in assumptions], parse(goal)))


# -- syntactic prover ----------------------------------------------------------------


@pytest.mark.parametrize(
    "assumptions, goal",
    [
        ([], "True"),
        ([], "x = x"),
        (["p"], "p"),
        (["x ~= null"], "x ~= null"),
        (["p & q"], "q"),
        (["a = b"], "b = a"),
        (["False"], "anything = everything"),
        (["p", "~p"], "q"),
        (["ALL x. x : S --> x ~= null"], "ALL x. x : S --> x ~= null"),
        (["x : A Un {}"], "x : A"),  # via simplification
        (["p", "q"], "q"),
        # Shapes only the raw checks see: simplification keeps `p <-> p`.
        ([], "~(p <-> p) --> q"),
        (["~(ALL z. x = x)"], "p"),
        # Simplification flattens the assumption; the goal's conjuncts match.
        (["(p & q) & r"], "p & q"),
    ],
)
def test_syntactic_proves_trivial_sequents(assumptions, goal):
    assert _syntactic(assumptions, goal).proved


@pytest.mark.parametrize(
    "assumptions, goal",
    [
        ([], "p"),
        (["p"], "q"),
        (["p | q"], "p"),
        (["a = b", "b = c"], "a = c"),  # needs real equality reasoning
        (["~p", "q"], "r"),  # no complementary pair: ~p alone is not false
    ],
)
def test_syntactic_does_not_overreach(assumptions, goal):
    assert not _syntactic(assumptions, goal).proved


# -- guarded modus ponens (quantified-assumption instances) --------------------------


@pytest.mark.parametrize(
    "assumptions, goal",
    [
        # Plain instance of a guarded universal with both antecedents assumed.
        (
            ["ALL m. m ~= null & m : S --> m..key : content", "a ~= null", "a : S"],
            "a..key : content",
        ),
        # Conjunction consequent: the goal matches one conjunct.
        (
            ["ALL m. m : S --> m : alloc & m..key : content", "a : S"],
            "a..key : content",
        ),
        # Unguarded universal instance.
        (["ALL x. x..f : T", "unrelated"], "c..f : T"),
        # Instantiation at a complex term.
        (
            ["ALL m. m ~= null & (root, m) : {(u, v). u..next = v}^* --> m : alloc",
             "b..next ~= null",
             "(root, b..next) : {(u, v). u..next = v}^*"],
            "b..next : alloc",
        ),
    ],
)
def test_syntactic_modus_ponens_on_quantified_assumptions(assumptions, goal):
    assert _syntactic(assumptions, goal).proved


@pytest.mark.parametrize(
    "assumptions, goal",
    [
        # Antecedent not assumed: must not conclude the instance.
        (["ALL m. m ~= null & m : S --> m..key : content", "a : S"], "a..key : content"),
        # Wrong instance shape.
        (["ALL m. m : S --> m..key : content", "a : S"], "b..key : content"),
        # Existential assumption gives no instances.
        (["EX m. m : S & m..key : content", "a : S"], "a..key : content"),
        # Variable capture: binding the hole y to the target's bound x would
        # turn `ALL y. EX x. P x y` into the invalid `EX x. P x x`.
        (["ALL y. EX x. P x y"], "EX x. P x x"),
        # Same capture shape through a nested universal.
        (["ALL y. ALL x. R x --> Q x y"], "ALL x. R x --> Q x x"),
    ],
)
def test_syntactic_modus_ponens_stays_sound(assumptions, goal):
    assert not _syntactic(assumptions, goal).proved


# -- approximation (Figure 14) ----------------------------------------------------------


def test_approximation_replaces_unsupported_positive_atom_with_false():
    formula = parse("card A = 3")
    result = approximate(formula, lambda atom: False, positive=True)
    assert result == F.FALSE


def test_approximation_replaces_unsupported_negative_atom_with_true():
    formula = parse("card A = 3")
    result = approximate(formula, lambda atom: False, positive=False)
    assert result == F.TRUE


def test_approximation_keeps_supported_atoms():
    formula = parse("x : A & card A = 3")
    result = approximate(formula, lambda atom: not F.is_app_of(atom, "card") and "card" not in repr(atom), positive=False)
    # The membership atom stays, the cardinality atom is weakened away.
    assert "elem" in repr(result) or ":" in repr(result)


def test_approximation_is_polarity_aware_under_negation():
    formula = F.Not(parse("card A = 3"))
    positive = approximate(formula, lambda atom: False, positive=True)
    assert positive == F.FALSE  # ~True


def test_drop_unsupported_assumptions_removes_trivial_ones():
    seq = sequent([parse("card A = 3"), parse("x : A")], parse("x : A"))
    reduced = drop_unsupported_assumptions(seq, is_ground_smt_atom)
    kept = [a.formula for a in reduced.assumptions]
    assert parse("x : A") in kept
    assert all("card" not in repr(f) for f in kept)


def test_atom_filters():
    assert is_first_order_atom(parse("x : A"))
    assert not is_first_order_atom(parse("card A = 3"))
    assert not is_ground_smt_atom(parse("(x, y) : R^*"))
    assert is_ground_smt_atom(parse("x < y"))


# -- relevance-based assumption selection (Section 4.4) -----------------------------------


def test_relevant_assumptions_keeps_connected_chain():
    seq = sequent(
        [parse("a = b"), parse("b = c"), parse("unrelated : Other")],
        parse("a = c"),
    )
    reduced = relevant_assumptions(seq)
    kept = [a.formula for a in reduced.assumptions]
    assert parse("a = b") in kept and parse("b = c") in kept
    assert parse("unrelated : Other") not in kept


def test_relevant_assumptions_never_drops_everything_needed():
    seq = sequent([parse("x : S")], parse("x : S"))
    reduced = relevant_assumptions(seq)
    assert len(reduced.assumptions) == 1


def test_rewrite_sequent_expands_memberships():
    seq = sequent([parse("x : A Un B")], parse("x : B Un A"))
    rewritten = rewrite_sequent(seq)
    assert isinstance(rewritten.assumptions[0].formula, F.Or)


# -- hints ("by" clauses) -------------------------------------------------------------------


def test_by_hints_select_assumptions():
    seq = Sequent(
        assumptions=(
            Labeled(parse("p"), ("lemma1",)),
            Labeled(parse("q"), ("lemma2",)),
        ),
        goal=Labeled(parse("p")),
        hints=("lemma1",),
    )
    restricted = seq.restricted()
    assert len(restricted.assumptions) == 1
    assert restricted.assumptions[0].labels == ("lemma1",)


def test_by_hints_fall_back_when_nothing_matches():
    seq = Sequent(
        assumptions=(Labeled(parse("p"), ("lemma1",)),),
        goal=Labeled(parse("p")),
        hints=("nonexistent",),
    )
    assert len(seq.restricted().assumptions) == 1


# -- dispatcher ------------------------------------------------------------------------------


def test_resolve_prover_aliases():
    # A name with no alias (the paper's interactive provers) passes through.
    assert resolve_prover_names(["spass", "e", "Z3", "cvc3", "isabelle"]) == [
        "fol", "fol", "smt", "smt", "isabelle",
    ]
    for alias, engine in PROVER_ALIASES.items():
        assert resolve_prover_names([alias]) == [engine]


@pytest.mark.parametrize("name", ["interactive", "isabelle", "coq"])
def test_interactive_prover_names_are_unknown(name):
    """No engine answers to the interactive engine's name or to the paper's
    interactive provers; asking for one is an error naming it."""
    with pytest.raises(KeyError, match=f"unknown prover '{name}'"):
        make_provers(["smt", name])


def test_for_verify_puts_syntactic_first_once():
    """The default chain already starts with syntactic; a chain without it
    gets it prepended, and no chain runs it twice."""
    assert DispatchConfig.for_verify().provers == DEFAULT_ORDER
    assert DispatchConfig.for_verify(DEFAULT_ORDER).provers == DEFAULT_ORDER
    assert DispatchConfig.for_verify(DEFAULT_ORDER[1:]).provers == DEFAULT_ORDER
    assert DispatchConfig.for_verify(["z3", "spass"]).provers == ("syntactic", "smt", "fol")


def test_make_provers_known_names():
    provers = make_provers(["syntactic", "smt", "bapa"])
    assert [p.name for p in provers] == ["syntactic", "smt", "bapa"]


def test_make_provers_unknown_name():
    with pytest.raises(KeyError):
        make_provers(["no-such-prover"])


def test_dispatcher_first_success_wins_and_stats_recorded():
    seqs = [
        sequent([parse("p")], parse("p")),                      # syntactic
        sequent([parse("x < y"), parse("y < z")], parse("x < z")),  # smt
    ]
    dispatcher = Dispatcher(make_provers(["syntactic", "smt"]))
    result = dispatcher.prove_all(seqs)
    assert result.proved == 2
    assert result.all_proved
    assert result.proved_by("syntactic") == 1
    assert result.proved_by("smt") == 1
    assert result.stats["syntactic"].attempted == 2  # tried first on both


def test_dispatcher_records_unproved():
    dispatcher = Dispatcher(make_provers(["syntactic"]))
    result = dispatcher.prove_all([sequent([], parse("p"))])
    assert not result.all_proved
    assert len(result.unproved()) == 1


def test_prover_stats_accumulate():
    stats = ProverStats()
    from repro.provers.base import ProverAnswer

    stats.record(ProverAnswer(Verdict.PROVED, "x", time=0.5))
    stats.record(ProverAnswer(Verdict.UNKNOWN, "x", time=0.25))
    assert stats.attempted == 2
    assert stats.proved == 1
    assert stats.time == pytest.approx(0.75)


def test_default_order_contains_all_engines(monkeypatch):
    """The default chain is every engine, in the benchmark's order: no engine
    is registered outside it, and the benchmark measures this chain."""
    assert DEFAULT_ORDER == ("syntactic", "smt", "fol", "mona", "bapa")
    monkeypatch.setattr(dispatcher, "registry", ProverRegistry())
    dispatcher._register_default_provers()
    assert set(dispatcher.registry.known()) == set(DEFAULT_ORDER)
    path = Path(__file__).resolve().parents[2] / "perfbench" / "config.py"
    spec = importlib.util.spec_from_file_location("perfbench_config", path)
    config = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(config)
    assert DEFAULT_ORDER == config.CHAIN


def test_a_prover_registered_first_does_not_hide_the_builtins(monkeypatch):
    monkeypatch.setattr(dispatcher, "registry", ProverRegistry())
    dispatcher.registry.register("mine", SyntacticProver)
    assert [prover.name for prover in make_provers(["smt", "mine"])] == ["smt", "syntactic"]
