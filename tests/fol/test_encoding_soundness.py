"""Soundness of the HOL-to-FOL term encoding on two invalid sequents.

* A bound boolean (or predicate) variable must not turn into the free
  symbol of the same name: ``b |- b & (ALL (b::bool). b)`` is false for
  ``b = True``.
* A formula in term position has no sound name in the untyped term
  language.  Naming it by a hash merges two different formulas whenever
  their hashes collide, which makes ``f (a_i = b) = c |- f (a_j = b) = c``
  provable; the encoder rejects such terms instead.
"""

import pytest

from repro.fol.clausify import Clausifier
from repro.fol.prover import FirstOrderProver
from repro.fol.terms import FVar
from repro.form import ast as F
from repro.form.parser import parse_formula as parse
from repro.provers.base import Verdict
from repro.provers.dispatcher import make_provers
from repro.vcgen.sequent import sequent

PORTFOLIO = ("syntactic", "smt", "fol", "mona", "bapa")
OPTIONS = {"smt": {"timeout": 2.0}, "fol": {"timeout": 2.0}}


def _no_prover_proves(seq):
    for prover in make_provers(PORTFOLIO, **OPTIONS):
        answer = prover.prove(seq)
        assert answer.verdict is not Verdict.PROVED, (prover.name, answer.detail)
        assert "internal error" not in answer.detail, (prover.name, answer.detail)


@pytest.mark.parametrize(
    "assumption, goal",
    [
        ("b", "b & (ALL (b::bool). b)"),
        ("p x", "p x & (ALL p. p x)"),
    ],
)
def test_bound_boolean_and_predicate_variables_are_not_captured(assumption, goal):
    _no_prover_proves(sequent([parse(assumption)], parse(goal)))


def test_bound_boolean_atoms_go_through_holds():
    clauses = Clausifier().clausify(parse("ALL (b::bool) p. b | p x"))
    (literals,) = [clause.literals for clause in clauses]
    preds = sorted(lit.pred for lit in literals)
    assert preds == ["holds", "holds"]
    assert all(isinstance(lit.args[0], FVar) or lit.args[0].func == "$apply" for lit in literals)


def _colliding_names():
    """Two names ``a_i``, ``a_j`` whose formulas ``a_i = b`` hash to the same
    value modulo 10**8 under the running hash seed (a birthday search)."""
    seen = {}
    for i in range(200000):
        key = abs(hash(F.Eq(F.Var(f"a{i}"), F.Var("b")))) % 10**8
        if key in seen:
            return f"a{seen[key]}", f"a{i}"
        seen[key] = i
    pytest.fail("no hash collision among 200000 formulas")


def test_hash_colliding_formulas_in_term_position_are_not_merged():
    first, second = _colliding_names()
    seq = sequent([parse(f"f ({first} = b) = c")], parse(f"f ({second} = b) = c"))
    _no_prover_proves(seq)
    answer = FirstOrderProver(timeout=2.0).prove(seq)
    assert answer.verdict is Verdict.UNSUPPORTED
    assert "formula in term position" in answer.detail

