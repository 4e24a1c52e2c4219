"""Property tests for the E-matching instantiation engine.

Three properties pin the engine:

* *instantiation soundness*: every instance the E-matcher emits is a
  substitution instance of its source quantifier — recomputing
  ``substitute(source.body, substitution)`` reproduces the recorded
  instance exactly, the substitution's domain is the quantifier's
  parameters, and every bound value is a ground term;
* *per-instance skolemization*: existential witnesses are never shared
  across different instances of one quantifier (the shared-constant
  skolemization of the previous engine was a genuine unsoundness, pinned
  here by a regression sequent it used to prove);
* *agreement with fair resolution*: on random quantified problems and on
  a valid/invalid sequent corpus, the SMT prover agrees with the fair
  resolution baseline wherever it decides — the engines may differ in
  power, never in direction.

A cap that cuts the E-matching search is named in the UNKNOWN answer.
"""

import random

import pytest

from repro.fol.prover import FirstOrderProver
from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.form.printer import to_str
from repro.form.subst import free_vars, substitute
from repro.provers.base import Verdict
from repro.smt.instantiate import (
    EMatchEngine,
    InstantiationConfig,
    Trigger,
    infer_triggers,
)
from repro.smt.prover import SmtProver
from repro.vcgen.sequent import sequent

# ---------------------------------------------------------------------------
# Random quantified problems (seeded: every run sees the same corpus)
# ---------------------------------------------------------------------------

_CONSTANTS = ["a", "b", "c", "d"]
_UNARY = ["p", "q"]
_BINARY = ["r", "s"]
_FUNCTIONS = ["f", "g"]


def _random_ground_term(rng, depth=0):
    if depth >= 2 or rng.random() < 0.6:
        return F.Var(rng.choice(_CONSTANTS))
    return F.app(rng.choice(_FUNCTIONS), _random_ground_term(rng, depth + 1))


def _random_atom(rng, variables):
    def term():
        if variables and rng.random() < 0.5:
            return F.Var(rng.choice(variables))
        if rng.random() < 0.3:
            base = F.Var(rng.choice(variables)) if variables and rng.random() < 0.5 else _random_ground_term(rng, 1)
            return F.app(rng.choice(_FUNCTIONS), base)
        return _random_ground_term(rng)

    if rng.random() < 0.5:
        return F.app(rng.choice(_UNARY), term())
    return F.app(rng.choice(_BINARY), term(), term())


def _random_quantifier(rng) -> F.Quant:
    arity = rng.randint(1, 2)
    variables = ["x", "y"][:arity]
    n_hyp = rng.randint(1, 2)
    hypotheses = [_random_atom(rng, variables) for _ in range(n_hyp)]
    conclusion = _random_atom(rng, variables)
    body = F.mk_implies(F.mk_and(tuple(hypotheses)), conclusion)
    if rng.random() < 0.3:
        # An existential conclusion: exercises per-instance skolemization.
        body = F.mk_implies(
            F.mk_and(tuple(hypotheses)),
            F.mk_exists((("w", None),), F.app(rng.choice(_BINARY), F.Var(variables[0]), F.Var("w"))),
        )
    return F.Quant("ALL", tuple((v, None) for v in variables), body)


def _random_ground_facts(rng):
    facts = []
    for _ in range(rng.randint(2, 6)):
        facts.append(_random_atom(rng, []))
    if rng.random() < 0.5:
        facts.append(F.Eq(_random_ground_term(rng), _random_ground_term(rng)))
    return facts


@pytest.mark.parametrize("seed", range(40))
def test_every_emitted_instance_is_a_substitution_instance(seed):
    rng = random.Random(seed)
    quantifiers = [_random_quantifier(rng) for _ in range(rng.randint(1, 4))]
    facts = _random_ground_facts(rng)
    engine = EMatchEngine(list(quantifiers) + facts, InstantiationConfig())
    engine.round()
    engine.round([(e.lhs, e.rhs) for e in facts if isinstance(e, F.Eq)])
    assert engine.records, f"seed {seed}: engine emitted nothing (corpus too thin)"
    for record in engine.records:
        params = {name for name, _ in record.source.params}
        assert set(record.substitution) == params, (
            f"seed {seed}: substitution domain {set(record.substitution)} != {params}"
        )
        for value in record.substitution.values():
            assert not free_vars(value) & params, (
                f"seed {seed}: non-ground substitution value {to_str(value)}"
            )
        recomputed = substitute(record.source.body, record.substitution)
        assert recomputed == record.instance, (
            f"seed {seed}: recorded instance is not the substitution instance\n"
            f"  source: {to_str(record.source)}\n"
            f"  subst: {{{', '.join(f'{k}: {to_str(v)}' for k, v in record.substitution.items())}}}\n"
            f"  recorded: {to_str(record.instance)}\n"
            f"  recomputed: {to_str(recomputed)}"
        )


@pytest.mark.parametrize("seed", range(20))
def test_ematch_never_proves_what_fair_resolution_refutes(seed):
    """Randomized cross-engine agreement: whenever the SMT prover proves
    assumptions |- goal from a random corpus, the fair resolution baseline
    proves it too."""
    rng = random.Random(1000 + seed)
    quantifiers = [_random_quantifier(rng) for _ in range(rng.randint(1, 3))]
    facts = _random_ground_facts(rng)
    goal = _random_atom(rng, [])
    seq = sequent(list(quantifiers) + facts, goal)
    fair = FirstOrderProver(
        timeout=10.0, strategy="fair", ordering="none", selection="none",
        max_processed=20000, max_generated=400000,
    )
    if SmtProver(timeout=4.0).prove(seq).proved:
        assert fair.prove(seq).proved, (
            f"seed {seed}: smt proved a sequent fair resolution "
            f"cannot: {to_str(seq.to_implication())}"
        )


# ---------------------------------------------------------------------------
# The skolemization regression (shared witness under a universal)
# ---------------------------------------------------------------------------


def test_shared_skolem_regression_is_not_provable():
    """``ALL x. EX y. f y = x, a ~= b |- p (f a)`` is invalid; the previous
    engine skolemized the existential with one constant shared by every
    instance and *proved* it.  Neither the SMT prover nor fair resolution
    may."""
    seq = sequent([parse("ALL x. EX y. f y = x"), parse("a ~= b")], parse("p (f a)"))
    answer = SmtProver(timeout=5.0).prove(seq)
    assert not answer.proved, f"smt proved an invalid sequent: {answer.detail}"
    assert not _fair_verdict(["ALL x. EX y. f y = x", "a ~= b"], "p (f a)")


def test_distinct_instances_get_distinct_witnesses():
    """Two instances of one existential-conclusion quantifier must not share
    a witness constant; identical instances must share (economy)."""
    quantifier = parse("ALL x. p x --> (EX y. r x y)")
    engine = EMatchEngine(
        [quantifier, parse("p a"), parse("p b")], InstantiationConfig()
    )
    engine.round()
    witnesses = {}
    for formula in engine.ground:
        text = to_str(formula)
        for constant in ("a", "b"):
            if f"r {constant} sk_" in text:
                witnesses[constant] = text.split(f"r {constant} ")[1].split()[0].rstrip(")")
    assert set(witnesses) == {"a", "b"}, f"expected instances for a and b: {witnesses}"
    assert witnesses["a"] != witnesses["b"]


# ---------------------------------------------------------------------------
# Corpus agreement: E-matching vs fair resolution
# ---------------------------------------------------------------------------

_VALID = [
    (["p", "p --> q"], "q"),
    (["ALL x. p x --> q x", "p a"], "q a"),
    (["ALL x. x : S --> x ~= null", "a : S"], "a ~= null"),
    (["ALL x. x : S --> x..f : S", "a : S"], "a..f..f : S"),
    (["ALL x. p x"], "p a & p b"),
    (["ALL x y. r x y --> r y x", "r a b"], "r b a"),
    (["ALL x y z. r x y & r y z --> r x z", "r a b", "r b c"], "r a c"),
    (["EX x. p x", "ALL x. p x --> q x"], "EX x. q x"),
    (["a = b", "ALL x. p x --> q x", "p a"], "q b"),
]

_INVALID = [
    (["p --> q", "q"], "p"),
    (["ALL x. p x --> q x"], "q a"),
    (["ALL x. x : S --> x ~= null"], "a ~= null"),
    (["EX x. p x"], "p a"),
    (["ALL x. EX y. r x y", "a ~= b"], "r a a"),
    (["ALL x. p x | q x"], "p a"),
]


def _smt_verdict(assumptions, goal):
    seq = sequent([parse(a) for a in assumptions], parse(goal))
    return SmtProver(timeout=5.0).prove(seq).proved


def _fair_verdict(assumptions, goal):
    seq = sequent([parse(a) for a in assumptions], parse(goal))
    return FirstOrderProver(
        timeout=5.0, strategy="fair", ordering="none", selection="none"
    ).prove(seq).proved


@pytest.mark.parametrize("assumptions, goal", _VALID)
def test_ematch_and_fair_prove_valid_sequents(assumptions, goal):
    assert _smt_verdict(assumptions, goal)
    assert _fair_verdict(assumptions, goal)


@pytest.mark.parametrize("assumptions, goal", _INVALID)
def test_no_engine_proves_invalid_sequents(assumptions, goal):
    assert not _smt_verdict(assumptions, goal)
    assert not _fair_verdict(assumptions, goal)


def test_nested_universal_instances_are_pooled_and_matched():
    """``ALL x. p x --> (ALL y. r x y)`` instantiated at ``x`` yields a
    universal in ``y``: the instance must be hoisted back into the
    quantifier pool and matched in a later round, not weakened away."""
    seq = sequent(
        [parse("ALL x. p x --> (ALL y. r x y)"), parse("p a")], parse("r a b")
    )
    assert SmtProver(timeout=5.0).prove(seq).proved
    invalid = sequent([parse("ALL x. p x --> (ALL y. r x y)")], parse("r a b"))
    assert not SmtProver(timeout=3.0).prove(invalid).proved


# ---------------------------------------------------------------------------
# Trigger inference
# ---------------------------------------------------------------------------


def test_mono_pattern_prefers_minimal_covering_subterm():
    quantifier = parse("ALL x. p (f x) --> q (f x)")
    triggers = infer_triggers(quantifier, InstantiationConfig())
    assert triggers, "expected at least one trigger"
    # f x covers x and is a subterm of p (f x)/q (f x): it must be the
    # (only kind of) kept pattern head.
    heads = {to_str(t.patterns[0]) for t in triggers}
    assert "f x" in heads


def test_multi_pattern_covers_all_variables_with_hypotheses_first():
    quantifier = parse("ALL x y z. r x y & r y z --> r x z")
    triggers = infer_triggers(quantifier, InstantiationConfig())
    assert len(triggers) == 1
    patterns = [to_str(p) for p in triggers[0].patterns]
    # The hypothesis pair {r x y, r y z}, not the conclusion r x z.
    assert patterns == ["r x y", "r y z"]


def test_reflexivity_has_a_degenerate_trigger_and_uses_fallback():
    quantifier = parse("ALL x. r x x")
    engine = EMatchEngine([quantifier, parse("p a"), parse("p b")], InstantiationConfig())
    engine.round()
    texts = [to_str(g) for g in engine.ground]
    assert any("r a a" in t for t in texts)
    assert any(r.via == "fallback" for r in engine.records)


def test_arithmetic_heads_are_not_triggers():
    quantifier = parse("ALL x. x + 1 > x")
    triggers = infer_triggers(quantifier, InstantiationConfig())
    assert triggers == ()


# ---------------------------------------------------------------------------
# E-matching caps are loud
# ---------------------------------------------------------------------------

#: Two instances prove it; with one, no conclusion reaches ``s a``.
_CHAIN = sequent(
    [parse("ALL x. p x --> q x"), parse("ALL x. q x --> s x"), parse("p a")],
    parse("s a"),
)
#: ``q (f a)`` exists only after round 1, so matching ``q x`` needs round 2.
_TWO_ROUNDS = sequent(
    [parse("ALL x. p x --> q (f x)"), parse("ALL x. q x --> s"), parse("p a")],
    parse("s"),
)


@pytest.mark.parametrize("seq, config, cap", [
    (_CHAIN, InstantiationConfig(max_ematch_instances=1), "max_ematch_instances=1"),
    (_TWO_ROUNDS, InstantiationConfig(ematch_rounds=1), "ematch_rounds=1"),
], ids=["instance-cap", "round-cap"])
def test_capped_ematch_yields_unknown_naming_the_cap(seq, config, cap):
    """Under a cap the needed instance is never asserted: the prover must
    answer UNKNOWN (never a wrong verdict) and say which cap cut the
    search."""
    answer = SmtProver(timeout=5.0, instantiation=config).prove(seq)
    assert answer.verdict is Verdict.UNKNOWN, answer.detail
    assert f"E-matching stopped at {cap}" in answer.detail, answer.detail
    # The same sequent proves under default limits (the cap, not the
    # engine, is what lost it), and a proof names no cap.
    proved = SmtProver(timeout=5.0).prove(seq)
    assert proved.proved, proved.detail
    assert "stopped at" not in proved.detail


def test_instantiation_takes_only_a_config():
    assert SmtProver().options.instantiation == InstantiationConfig()
    for wrong in ("ground", {"ematch_rounds": 1}, None):
        with pytest.raises(ValueError, match="instantiation must be .*InstantiationConfig"):
            SmtProver(instantiation=wrong)
