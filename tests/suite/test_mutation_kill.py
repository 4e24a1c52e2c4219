"""Mutation-kill smoke: a broken program must not verify.

Three fully verified methods each get three seeded source mutations — drop
a conjunct the method relies on, an off-by-one, a swapped field.  Every
mutant must leave at least one sequent unproved.  How many mutants the
countermodel check also *refutes* is pinned: a refuted sequent shows the
mutant is really broken, not just beyond the provers.  The ``ArrayList``
mutants stay merely unproved because its ``KeyRange`` invariant quantifies
over ``int``, which the evaluator never guesses.
"""

import pytest

from repro import suite, verify

#: (structure, method) -> [(mutation kind, original text, mutated text)].
MUTANTS = {
    ("SinglyLinkedList", "add"): [
        ("drop conjunct",
         'requires "x ~= null & x ~: content"\n        modifies content\n'
         '        ensures "content = old content Un {x}" */\n    {\n        Node n',
         'requires "x ~: content"\n        modifies content\n'
         '        ensures "content = old content Un {x}" */\n    {\n        Node n'),
        ("off by one", "n.next = first;", "n.next = first.next;"),
        ("swap field", "n.data = x;", "first.data = x;"),
    ],
    ("CircularList", "add"): [
        ("drop conjunct", 'requires "x ~= null & x ~: content"', 'requires "x ~: content"'),
        ("off by one", "Node second = head.next;", "Node second = head.next.next;"),
        ("swap field", "n.prev = n;", "n.next = n;"),
    ],
    ("ArrayList", "get"): [
        ("drop conjunct", 'invariant ArrayInv: "elems ~= null & size <= arrayLength elems"',
         'invariant ArrayInv: "elems ~= null"'),
        ("off by one", "return elems[i];", "return elems[i + 1];"),
        ("swap field", "return elems[i];", "return elems[size];"),
    ],
}

#: Mutants with at least one sequent refuted by a checked countermodel.
REFUTED_MUTANTS = 6

CASES = [
    (structure, method, kind, old, new)
    for (structure, method), mutations in MUTANTS.items()
    for kind, old, new in mutations
]


def _verify(structure, method, source):
    return verify(
        source, method=method, class_name=structure,
        provers=["smt", "fol", "mona", "bapa"],
        prover_options={"smt": {"timeout": 3.0}, "fol": {"timeout": 1.5}},
        dedup=True,
    )


@pytest.mark.parametrize("structure,method", list(MUTANTS))
def test_the_pristine_methods_verify(structure, method):
    assert _verify(structure, method, suite.source(structure)).succeeded


def test_every_mutant_leaves_a_sequent_unproved():
    refuted = 0
    for structure, method, kind, old, new in CASES:
        source = suite.source(structure)
        assert source.count(old) == 1, (structure, kind)
        report = _verify(structure, method, source.replace(old, new))
        assert report.unproved_origins, f"{structure}.{method} {kind} mutant verified"
        refuted += bool(report.refuted)
        print(f"{structure}.{method} [{kind}]: {len(report.unproved_origins)} unproved, "
              f"{len(report.refuted)} refuted")
    print(f"{refuted} of {len(CASES)} mutants refuted")
    assert refuted == REFUTED_MUTANTS
