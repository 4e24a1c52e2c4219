"""The prover kernels do the same work, only faster.

E-matching reuses the instances it already built, congruence closure runs
on integer ids and Fourier–Motzkin on integer rows.  None of that may
change *what* the engines do: the same instances in the same order, the
same merges and conflict cores, the same elimination.  The details below
were recorded with the dictionary-keyed closure, the ``Fraction``
elimination and the rebuild-every-match E-matcher (SMT at 30 s, BAPA at
60 s; every attempt finished well inside its budget).  They count atoms,
theory conflicts, instances, rounds, quantifiers and dropped instances, so
any change in the work the kernels do changes a string here.
"""

import pytest

from repro import suite
from repro.bapa.prover import BapaProver
from repro.java.resolver import parse_program
from repro.provers.base import Verdict
from repro.smt.prover import SmtProver
from repro.vcgen.vcgen import generate_method_vc

#: (structure, method, origin, index among sequents of that origin) ->
#: (verdict, detail).
SMT_PINNED = {
    ("AssocList", "put", "inv-exit:BackboneAlloc", 0): (
        Verdict.PROVED,
        "unsat: 384 atoms, 57 theory conflicts [ematch: 349 instances, 4 rounds, "
        "27 quantifiers] (996 instances dropped by limits)",
    ),
    ("AssocList", "put", "inv-exit:ReachPairs", 0): (
        Verdict.PROVED,
        "unsat: 365 atoms, 42 theory conflicts [ematch: 360 instances, 4 rounds, "
        "26 quantifiers] (986 instances dropped by limits)",
    ),
    ("AssocList", "put", "inv-exit:ContentStored", 0): (
        Verdict.PROVED,
        "unsat: 424 atoms, 34 theory conflicts [ematch: 357 instances, 4 rounds, "
        "29 quantifiers] (997 instances dropped by limits)",
    ),
    ("HashTable", "put", "inv-exit:ReachPairs", 0): (
        Verdict.PROVED,
        "unsat: 365 atoms, 32 theory conflicts [ematch: 363 instances, 4 rounds, "
        "24 quantifiers] (1007 instances dropped by limits)",
    ),
    ("HashTable", "put", "inv-exit:SizeInv", 0): (
        Verdict.UNKNOWN,
        "theory-consistent propositional model found [ematch: 318 instances, "
        "7 rounds, 15 quantifiers] (530 instances dropped by limits)",
    ),
}

#: Both attempts stop at Fourier–Motzkin's row cap.  Their verdict is as
#: recorded; the detail names the give-up instead of claiming the refutation
#: branch satisfiable, which the capped elimination never established.
BAPA_PINNED = {
    ("PriorityQueue", "insert", "inv-exit:SizeInv", 0): (
        Verdict.UNKNOWN, "gave up: Fourier-Motzkin row cap",
    ),
    ("PriorityQueue", "insert", "inv-exit:SizeInv", 1): (
        Verdict.UNKNOWN, "gave up: Fourier-Motzkin row cap",
    ),
}


def _suite_sequent(structure, method, origin, index):
    program = parse_program(suite.source(structure))
    vc = generate_method_vc(program, structure, method)
    matching = [s for s in vc.sequents if s.origin == f"{structure}.{method}:{origin}"]
    return matching[index]


@pytest.mark.parametrize("key", SMT_PINNED, ids=lambda k: f"{k[0]}.{k[1]}:{k[2]}#{k[3]}")
def test_smt_does_the_pinned_work(key):
    answer = SmtProver(timeout=30.0).prove(_suite_sequent(*key))
    assert (answer.verdict, answer.detail) == SMT_PINNED[key]


@pytest.mark.parametrize("key", BAPA_PINNED, ids=lambda k: f"{k[0]}.{k[1]}:{k[2]}#{k[3]}")
def test_bapa_does_the_pinned_work(key):
    answer = BapaProver(timeout=60.0).prove(_suite_sequent(*key))
    assert (answer.verdict, answer.detail) == BAPA_PINNED[key]
