"""Property tests for the set-of-support + ordered resolution engine.

Three properties pin the new strategy layer to the trusted baseline (the
PR-2 engine: ``strategy="fair"``, ``ordering="none"``, ``selection="none"``):

* *soundness relative to fair*: on randomly generated clause sets, whenever
  SOS+ordered resolution derives the empty clause, the fair strategy (run
  with generous limits) derives it too — the restrictions may lose proofs,
  never invent them;
* *relative completeness*: on a corpus of small valid and invalid sequents,
  the SOS+ordered prover and the fair prover return the same verdicts;
* *index exactness*: the top-symbol literal index retrieves exactly the
  resolution partners the naive all-pairs scan finds, and the subsumption
  index agrees clause-for-clause with the naive subsumer scan.
"""

import random

import pytest

from repro.fol.index import LiteralIndex, SubsumptionIndex, UnitIndex
from repro.fol.prover import FirstOrderProver
from repro.fol.resolution import ResolutionProver, _resolvents
from repro.fol.terms import (
    Clause,
    FApp,
    FVar,
    Literal,
    subsumes,
    unify_literals,
    apply_subst_clause,
)
from repro.form.parser import parse_formula as parse
from repro.vcgen.sequent import sequent

# ---------------------------------------------------------------------------
# Random clause generation (seeded: every run sees the same corpus)
# ---------------------------------------------------------------------------

_PREDICATES = [("p", 1), ("q", 1), ("r", 2)]
_CONSTANTS = ["a", "b", "c"]
_VARIABLES = ["X", "Y"]


def _random_term(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if roll < 0.4:
        return FVar(rng.choice(_VARIABLES))
    if roll < 0.85 or depth >= 1:
        return FApp(rng.choice(_CONSTANTS), ())
    return FApp("f", (_random_term(rng, depth + 1),))


def _random_literal(rng: random.Random) -> Literal:
    pred, arity = rng.choice(_PREDICATES)
    args = tuple(_random_term(rng) for _ in range(arity))
    return Literal(rng.random() < 0.55, pred, args)


def _random_clause(rng: random.Random) -> Clause:
    return Clause(tuple(_random_literal(rng) for _ in range(rng.randint(1, 3))))


def _random_clause_set(rng: random.Random):
    return [_random_clause(rng) for _ in range(rng.randint(3, 8))]


def _canonical(clause: Clause) -> str:
    """Alpha-rename variables in order of appearance, for multiset comparison."""
    mapping = {}

    def canon_term(term):
        if isinstance(term, FVar):
            if term.name not in mapping:
                mapping[term.name] = FVar(f"V{len(mapping)}")
            return mapping[term.name]
        return FApp(term.func, tuple(canon_term(a) for a in term.args))

    return " | ".join(
        str(Literal(lit.positive, lit.pred, tuple(canon_term(a) for a in lit.args)))
        for lit in clause.literals
    )


# ---------------------------------------------------------------------------
# Soundness: SOS+ordered refutations are fair refutations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_sos_ordered_never_refutes_what_fair_cannot(seed):
    rng = random.Random(seed)
    clauses = _random_clause_set(rng)
    # Seed the support the way the prover does: the all-negative clauses
    # (the semantic set of support of the all-atoms-true interpretation).
    support = [c for c in clauses if all(not lit.positive for lit in c.literals)]
    restricted = ResolutionProver(
        max_seconds=2.0, strategy="sos", ordering="kbo", selection="negative"
    )
    result = restricted.refute(clauses, support=support)
    if not result.refuted:
        return
    fair = ResolutionProver(
        max_seconds=10.0,
        max_processed=20000,
        max_generated=400000,
        strategy="fair",
        ordering="none",
        selection="none",
    )
    assert fair.refute(clauses).refuted, (
        f"seed {seed}: SOS+ordered refuted a clause set the fair baseline "
        f"does not refute: {[str(c) for c in clauses]}"
    )


# ---------------------------------------------------------------------------
# Relative completeness: same verdicts on a small sequent corpus
# ---------------------------------------------------------------------------

_VALID = [
    (["p --> q", "p"], "q"),
    (["ALL x. p x --> q x", "p a"], "q a"),
    (["ALL x y. r x y --> r y x", "r a b"], "r b a"),
    (["ALL x y z. r x y & r y z --> r x z", "r a b", "r b c"], "r a c"),
    (["a = b", "p a"], "p b"),
    (["f a = b", "a = c"], "f c = b"),
    (["ALL x. x : S --> x : T", "a : S"], "a : T"),
    (["EX x. p x", "ALL x. p x --> q x"], "EX x. q x"),
    (["ALL x. p x | q x", "ALL x. ~ p x"], "q a"),
    ([], "(ALL x. p x) --> p a"),
    # Inconsistent assumptions: provable only through assumption-side
    # resolution — the case that forced the semantic (negative-clause) seed.
    # (The goal must share a symbol with the contradiction, or the
    # relevance filter soundly drops it for both strategies.)
    (["p a", "~ p a"], "p b"),
]

_INVALID = [
    (["p --> q", "q"], "p"),
    (["p a"], "p b"),
    (["ALL x. p x --> q x"], "q a"),
    (["a = b"], "a = c"),
    ([], "p a"),
    (["EX x. p x"], "p a"),
    (["r a b", "r b c"], "r a c"),
]


def _verdict(assumptions, goal, **options):
    seq = sequent([parse(a) for a in assumptions], parse(goal))
    return FirstOrderProver(timeout=5.0, **options).prove(seq).proved


@pytest.mark.parametrize("assumptions, goal", _VALID)
def test_sos_agrees_with_fair_on_valid_sequents(assumptions, goal):
    assert _verdict(assumptions, goal, strategy="fair", ordering="none", selection="none")
    assert _verdict(assumptions, goal, strategy="sos", ordering="kbo", selection="negative")


@pytest.mark.parametrize("assumptions, goal", _INVALID)
def test_sos_agrees_with_fair_on_invalid_sequents(assumptions, goal):
    assert not _verdict(assumptions, goal, strategy="fair", ordering="none", selection="none")
    assert not _verdict(assumptions, goal, strategy="sos", ordering="kbo", selection="negative")


# ---------------------------------------------------------------------------
# Index exactness: retrieval == all-pairs scan
# ---------------------------------------------------------------------------


def _resolvents_via_index(probe: Clause, actives):
    index = LiteralIndex()
    for clause_id, clause in enumerate(actives):
        index.add(clause_id, clause)
    out = []
    for i, literal in enumerate(probe.literals):
        for _cid, partner, j in index.resolution_candidates(literal):
            other = partner.literals[j]
            mgu = unify_literals(literal, other)
            if mgu is None:
                continue
            rest1 = probe.literals[:i] + probe.literals[i + 1:]
            rest2 = partner.literals[:j] + partner.literals[j + 1:]
            out.append(apply_subst_clause(Clause(rest1 + rest2), mgu))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_literal_index_finds_exactly_the_all_pairs_partners(seed):
    rng = random.Random(1000 + seed)
    actives = [_random_clause_set(rng), _random_clause_set(rng)][0]
    probe = _random_clause(rng)
    # Standardise apart, as the engine does before any inference.
    from repro.fol.terms import rename_clause

    actives = [rename_clause(c, f"_g{i}") for i, c in enumerate(actives)]
    probe = rename_clause(probe, "_probe")
    naive = [r for other in actives for r in _resolvents(probe, other)]
    indexed = _resolvents_via_index(probe, actives)
    assert sorted(map(_canonical, indexed)) == sorted(map(_canonical, naive)), (
        f"seed {seed}: index and all-pairs scan disagree"
    )


@pytest.mark.parametrize("seed", range(40))
def test_subsumption_index_agrees_with_naive_scan(seed):
    rng = random.Random(2000 + seed)
    actives = _random_clause_set(rng)
    index = SubsumptionIndex()
    for clause in actives:
        index.add(clause)
    for _ in range(10):
        probe = _random_clause(rng)
        naive = any(subsumes(general, probe) for general in actives)
        assert index.subsumed(probe) == naive


def test_unit_index_deletion_is_the_unit_resolvent():
    index = UnitIndex()
    index.add(Clause((Literal(True, "p", (FApp("a", ()),)),)))  # p(a)
    # q(X) | ~p(a): unit deletion must remove ~p(a).
    clause = Clause((
        Literal(True, "q", (FVar("X"),)),
        Literal(False, "p", (FApp("a", ()),)),
    ))
    simplified = index.simplify_clause(clause)
    assert simplified is not None
    assert [lit.pred for lit in simplified.literals] == ["q"]
    # p(a) | q(X) is an instance of the unit: the whole clause is redundant.
    subsumed = Clause((
        Literal(True, "p", (FApp("a", ()),)),
        Literal(True, "q", (FVar("X"),)),
    ))
    assert index.simplify_clause(subsumed) is None


# ---------------------------------------------------------------------------
# Backward subsumption (flagged) against the fair baseline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_backward_subsumption_never_refutes_what_fair_cannot(seed):
    """Backward subsumption deletes redundant active clauses; it may lose
    proofs (within limits), never invent them."""
    rng = random.Random(3000 + seed)
    clauses = _random_clause_set(rng)
    support = [c for c in clauses if all(not lit.positive for lit in c.literals)]
    pruned = ResolutionProver(
        max_seconds=2.0, strategy="sos", ordering="kbo", selection="negative",
        backward_subsumption=True,
    )
    result = pruned.refute(clauses, support=support)
    if not result.refuted:
        return
    fair = ResolutionProver(
        max_seconds=10.0,
        max_processed=20000,
        max_generated=400000,
        strategy="fair",
        ordering="none",
        selection="none",
    )
    assert fair.refute(clauses).refuted, (
        f"seed {seed}: backward subsumption refuted a clause set the fair "
        f"baseline does not refute: {[str(c) for c in clauses]}"
    )


@pytest.mark.parametrize("assumptions, goal", _VALID)
def test_backward_subsumption_agrees_on_valid_sequents(assumptions, goal):
    assert _verdict(assumptions, goal, backward_subsumption=True)


@pytest.mark.parametrize("assumptions, goal", _INVALID)
def test_backward_subsumption_agrees_on_invalid_sequents(assumptions, goal):
    assert not _verdict(assumptions, goal, backward_subsumption=True)


def test_literal_index_remove_drops_every_entry_of_the_clause():
    index = LiteralIndex()
    kept = Clause((Literal(True, "p", (FApp("a", ()),)),))
    gone = Clause((Literal(True, "p", (FApp("b", ()),)), Literal(False, "q", (FVar("X"),))))
    index.add(1, kept)
    index.add(2, gone)
    index.remove(2)
    probe_p = Literal(False, "p", (FVar("Y"),))
    assert [cid for cid, _c, _i in index.resolution_candidates(probe_p)] == [1]
    probe_q = Literal(True, "q", (FApp("c", ()),))
    assert list(index.resolution_candidates(probe_q)) == []


def test_backward_subsumption_removes_subsumed_active_clause():
    """p(X) activated after p(a) | q(b) must evict it: the only resolvent
    against ~p(c) then comes through the subsumer (the proof still closes)."""
    clauses = [
        Clause((Literal(True, "p", (FApp("a", ()),)), Literal(True, "q", (FApp("b", ()),)))),
        Clause((Literal(True, "p", (FVar("X"),)),)),
        Clause((Literal(False, "p", (FApp("c", ()),)),)),
    ]
    pruned = ResolutionProver(
        max_seconds=2.0, strategy="fair", ordering="none", selection="none",
        backward_subsumption=True,
    )
    assert pruned.refute(clauses).refuted


# ---------------------------------------------------------------------------
# Strategy knobs key the verdict cache
# ---------------------------------------------------------------------------


def test_strategy_knobs_are_part_of_the_options_signature():
    base = FirstOrderProver()
    assert "strategy='sos'" in base.options_signature()
    assert "ordering='kbo'" in base.options_signature()
    assert "selection='negative'" in base.options_signature()
    assert "backward_subsumption=True" in base.options_signature()
    fair = FirstOrderProver(strategy="fair", ordering="none", selection="none")
    assert base.options_signature() != fair.options_signature()
    pruning = FirstOrderProver(backward_subsumption=False)
    assert base.options_signature() != pruning.options_signature()
