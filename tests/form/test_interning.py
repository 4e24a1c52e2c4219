"""Property tests of the hash-consing layer (``repro.form.intern``).

Interning is a pure performance device: the canonical term must be
observationally identical to the raw one (printer output, sequent digests,
prover verdicts), and banks must stay per-run — the verify daemon keeps
prover processes alive across requests, so a shared bank would leak terms
between requests.
"""

import pytest

from repro.fol.terms import FVar
from repro.form import ast as F
from repro.form.intern import TermBank
from repro.form.parser import parse_formula as parse
from repro.form.printer import to_str
from repro.form.rewrite import nnf, simplify
from repro.smt.prover import SmtProver
from repro.vcgen.sequent import sequent

FORMULAS = [
    "p & q --> r",
    "ALL x. x : S --> x ~= null",
    "a = b & b = c --> a = c",
    "x : A Un (B Int C)",
    "~(i < n) | arrayState a i = v",
    "ALL x. ALL y. next x = y --> rtrancl_pt (% a b. next a = b) x y",
    "(fieldWrite next n1 root) n2 = q & n1 ~= n2",
    "EX x. x : content & x ~= e",
    "card S <= 1 & S ~= {}",
    "size = 0 --> size + 1 = 1",
]


@pytest.mark.parametrize("text", FORMULAS)
def test_intern_is_canonical_and_idempotent(text):
    bank = TermBank()
    term = parse(text)
    copy = parse(text)
    interned = bank.intern(term)
    assert bank.intern(copy) is interned
    assert bank.intern(interned) is interned
    assert bank.is_interned(interned)


@pytest.mark.parametrize("text", FORMULAS)
def test_interned_terms_print_identically(text):
    bank = TermBank()
    term = parse(text)
    assert to_str(bank.intern(term)) == to_str(term)
    assert bank.printed(bank.intern(term)) == to_str(term)


@pytest.mark.parametrize("text", FORMULAS)
def test_bank_normalisation_matches_plain_pipeline(text):
    bank = TermBank()
    term = parse(text)
    assert to_str(bank.normalised(term)) == to_str(simplify(nnf(term)))


def test_sequent_digests_are_interning_invariant():
    bank = TermBank()
    assumptions = [parse(t) for t in FORMULAS[:4]]
    goal = parse("a = c")
    raw = sequent(assumptions, goal)
    interned = sequent([bank.intern(a) for a in assumptions], bank.intern(goal))
    assert raw.digest() == interned.digest()


VERDICT_CASES = [
    (["a = b", "b = c"], "a = c"),
    (["ALL x. x : S --> x ~= null", "a : S"], "a ~= null"),
    (["x : A Int B"], "x : A"),
    (["p", "p --> q"], "q"),
    (["x < y", "y < z"], "x < z"),
    (["p"], "q"),  # invalid: must stay unproved either way
    (["a : S"], "a ~= null"),  # invalid
]


@pytest.mark.parametrize("assumptions,goal", VERDICT_CASES)
def test_interning_never_changes_verdicts(assumptions, goal):
    seq = sequent([parse(a) for a in assumptions], parse(goal))
    on = SmtProver(timeout=4.0, interning=True).prove(seq)
    off = SmtProver(timeout=4.0, interning=False).prove(seq)
    assert on.verdict == off.verdict


def test_each_attempt_gets_a_fresh_bank(monkeypatch):
    """Two requests through the same prover object never share a TermBank
    (the daemon keeps prover processes alive across requests)."""
    import repro.smt.prover as smt_prover

    created = []

    class RecordingBank(TermBank):
        def __init__(self):
            super().__init__()
            created.append(self)

    monkeypatch.setattr(smt_prover, "TermBank", RecordingBank)
    prover = SmtProver(timeout=4.0)
    seq1 = sequent([parse("a = b"), parse("b = c")], parse("a = c"))
    seq2 = sequent([parse("p"), parse("p --> q")], parse("q"))
    assert prover.prove(seq1).proved
    assert prover.prove(seq2).proved
    assert len(created) == 2
    assert created[0] is not created[1]


def test_fol_terms_intern_to_pointer_equal_nodes():
    bank = TermBank()
    a = bank.fapp("f", (bank.fapp("a"), FVar("X")))
    b = bank.fapp("f", (bank.fapp("a"), FVar("X")))
    assert a is b
