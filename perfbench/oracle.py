"""The benchmark's correctness oracle.

Two kinds of checks turn a wrong answer into a failed operation:

* **Pinned counts.**  Each contracted method of the ten Figure 15 structures
  must prove at least as many sequents as it did when the benchmark was
  defined (198 of 214 in total), out of exactly the same number of split
  sequents.  A daemon answer is held to the same local expectation.

  The provers' budgets are wall-clock timeouts, and a few suite proofs take
  half or more of theirs (``AssocList.put``'s SMT proofs run 1.5-3.0 s
  against 3.0 s), so on a slow or shared host such a proof can run out of
  time.  In the cold pass, where every sequent's answers are seen, a
  sequent that was proved at pinning and now comes back unproved after a
  TIMEOUT is a missed proof, which ``proved_share`` reports; only an
  unproved sequent on which no prover ran out of time -- every prover gave
  a definite "cannot" -- beyond the pinned open ones is a failure.
* **Controls.**  A handful of known-invalid sequents goes through the same
  prover chain as the suite; any PROVED answer on one of them is a failure.
  A proof of a false sequent looks exactly like a success, so only a control
  whose expected answer is "not proved" can catch a vacuous or unsound proof.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence, Tuple

#: (structure, method) -> (proved, total) at the commit that defined the
#: benchmark, under the pinned configuration of ``config.py``.
PINNED: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("AssocList", "put"): (9, 9),
    ("AssocList", "lookup"): (8, 8),
    ("AssocList", "clear"): (2, 2),
    ("SpaceSubdivisionTree", "clear"): (0, 0),
    ("SpaceSubdivisionTree", "isEmpty"): (1, 1),
    ("SpaceSubdivisionTree", "insert"): (14, 14),
    ("SpanningTree", "init"): (7, 7),
    ("SpanningTree", "addEdge"): (8, 8),
    ("SpanningTree", "inTree"): (6, 6),
    ("HashTable", "size"): (1, 1),
    ("HashTable", "put"): (9, 11),
    ("HashTable", "lookup"): (9, 9),
    ("BinarySearchTree", "clear"): (2, 2),
    ("BinarySearchTree", "isEmpty"): (1, 1),
    ("BinarySearchTree", "contains"): (7, 7),
    ("BinarySearchTree", "insert"): (48, 48),
    ("PriorityQueue", "size"): (1, 1),
    ("PriorityQueue", "isEmpty"): (1, 1),
    ("PriorityQueue", "insert"): (13, 20),
    ("ArrayList", "size"): (1, 1),
    ("ArrayList", "isEmpty"): (1, 1),
    ("ArrayList", "get"): (4, 4),
    ("ArrayList", "add"): (6, 8),
    ("CircularList", "clear"): (0, 0),
    ("CircularList", "isEmpty"): (1, 1),
    ("CircularList", "add"): (14, 14),
    ("SinglyLinkedList", "clear"): (0, 0),
    ("SinglyLinkedList", "add"): (5, 5),
    ("SinglyLinkedList", "isEmpty"): (1, 1),
    ("SinglyLinkedList", "member"): (3, 6),
    ("CursorList", "add"): (8, 8),
    ("CursorList", "reset"): (2, 2),
    ("CursorList", "done"): (2, 2),
    ("CursorList", "next"): (3, 5),
}

#: The origins of the sequents each method left unproved at pinning (the
#: 16 open ones; an origin repeats when the VC splits into several sequents
#: with the same label).
PINNED_OPEN: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("HashTable", "put"): ("inv-exit:SizeInv", "inv-exit:ContentStored"),
    ("PriorityQueue", "insert"): (
        "array-lower-bound", "array-upper-bound", "null-check", "null-check",
        "inv-exit:SizeInv", "inv-exit:SizeInv", "loop-inv-preserved:loopinv1",
    ),
    ("ArrayList", "add"): ("inv-exit:SizeInv", "inv-exit:KeyRange"),
    ("SinglyLinkedList", "member"): (
        "loop-inv-initial:loopinv1", "Found", "loop-inv-preserved:loopinv1",
    ),
    ("CursorList", "next"): ("inv-exit:DoneInv", "inv-exit:CurrentData"),
}

STRUCTURES: Tuple[str, ...] = tuple(dict.fromkeys(s for s, _ in PINNED))

#: Known-invalid sequents (assumptions, goal).  The first is the shared
#: Skolem constant regression that an earlier SMT engine proved; the others
#: are small arithmetic, set and first-order counterexamples, one
#: with nearly contradictory assumptions.
CONTROLS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("ALL x. EX y. f y = x", "a ~= b"), "p (f a)"),
    (("a < b",), "b < a"),
    (("x < y", "y < x + 2"), "x = y"),
    (("x : S", "S Int T = {}"), "x : T"),
    (("ALL x. p x --> q x", "p a"), "q b"),
)


def method_failure(structure: str, method: str, proved: int, total: int) -> str:
    """Why a method report disagrees with its pinned count ('' if it agrees)."""
    expected = PINNED.get((structure, method))
    if expected is None:
        return f"{structure}.{method}: no pinned count"
    want_proved, want_total = expected
    if total != want_total:
        return f"{structure}.{method}: {total} sequents, pinned {want_total}"
    if proved < want_proved:
        return f"{structure}.{method}: proved {proved}/{total}, pinned {want_proved}"
    return ""


def open_failure(structure: str, method: str, total: int, unproved: Sequence[str],
                 timed_out: Mapping[str, int]) -> Tuple[str, int]:
    """Check one method's unproved sequents against its pinned open ones.

    ``unproved`` are the origins of the sequents left unproved (repeats
    kept, as ``MethodReport.unproved_origins`` gives them) and ``timed_out``
    counts, per origin, the unproved ones some prover timed out on.  Returns
    why the method fails ('' if it does not) and how many pinned proofs it
    missed by running out of time.
    """
    want_proved, want_total = PINNED.get((structure, method), (0, -1))
    if total != want_total:
        return method_failure(structure, method, total - len(unproved), total), 0
    prefix = f"{structure}.{method}:"
    pinned_open = Counter(prefix + origin for origin in PINNED_OPEN.get((structure, method), ()))
    definite = Counter(unproved)
    definite.subtract(timed_out)
    wrong = sorted(o for o, n in definite.items() if n > pinned_open[o])
    if wrong:
        return (f"{structure}.{method}: proved {total - len(unproved)}/{total}, pinned "
                f"{want_proved}; no prover timed out on {', '.join(wrong)}"), 0
    return "", max(0, len(unproved) - (want_total - want_proved))


def control_sequents() -> List["Sequent"]:  # noqa: F821 - repro is imported lazily
    from repro.form.parser import parse_formula
    from repro.vcgen.sequent import sequent

    return [
        sequent([parse_formula(a) for a in assumptions], parse_formula(goal),
                origin=f"control{index}")
        for index, (assumptions, goal) in enumerate(CONTROLS)
    ]


def control_failures(proved: Sequence[bool]) -> List[str]:
    """One message per control that came back proved."""
    return [
        f"control {index} proved: {', '.join(CONTROLS[index][0])} |- {CONTROLS[index][1]}"
        for index, flag in enumerate(proved)
        if flag
    ]
