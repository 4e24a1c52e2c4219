"""The verified data structure suite (paper Section 7, Figure 15).

Ten data structures are bundled as mini-Java sources with full functional
specifications.  :data:`STRUCTURES` lists them with the Figure 15 row each
one reproduces.  Every row is verified with the same prover chain,
``repro.provers.dispatcher.DEFAULT_ORDER``, unless the caller names another.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import List, Tuple


@dataclass(frozen=True)
class SuiteEntry:
    """One data structure of the suite."""

    name: str                     # class to verify
    file_name: str                # bundled source file
    description: str
    paper_row: str                # the corresponding row label in Figure 15


#: The ten data structures of Figure 15 plus the sized list of Section 2.2.
STRUCTURES: Tuple[SuiteEntry, ...] = (
    SuiteEntry(
        "AssocList", "AssocList.java",
        "association list: a map stored as a list of key/value pairs",
        "Association List",
    ),
    SuiteEntry(
        "SpaceSubdivisionTree", "SpaceSubdivisionTree.java",
        "three-dimensional space subdivision tree with eight-element child arrays",
        "Space Subdivision Tree",
    ),
    SuiteEntry(
        "SpanningTree", "SpanningTree.java",
        "spanning tree of a graph",
        "Spanning Tree",
    ),
    SuiteEntry(
        "HashTable", "HashTable.java",
        "hash table: a map implemented as an array of bucket lists",
        "Hash Table",
    ),
    SuiteEntry(
        "BinarySearchTree", "BinarySearchTree.java",
        "binary search tree implementing a set",
        "Binary Search Tree",
    ),
    SuiteEntry(
        "PriorityQueue", "PriorityQueue.java",
        "priority queue stored as a binary heap in a dense array",
        "Priority Queue",
    ),
    SuiteEntry(
        "ArrayList", "ArrayList.java",
        "array-backed list implementing a map from a dense integer range",
        "Array List",
    ),
    SuiteEntry(
        "CircularList", "CircularList.java",
        "circular doubly-linked list implementing a set",
        "Circular List",
    ),
    SuiteEntry(
        "SinglyLinkedList", "SinglyLinkedList.java",
        "null-terminated singly-linked list implementing a set",
        "Singly-Linked List",
    ),
    SuiteEntry(
        "CursorList", "CursorList.java",
        "list with a removal cursor for iteration",
        "Cursor List",
    ),
    SuiteEntry(
        "SizedList", "SizedList.java",
        "the sized list of Section 2.2 (Figure 6), combining FOL, MONA and BAPA",
        "Sized List (Section 2.2)",
    ),
)

#: The rows that appear in Figure 15 (the sized list is the Figure 7 example).
FIGURE15_NAMES: Tuple[str, ...] = tuple(e.name for e in STRUCTURES if e.name != "SizedList")


def entries() -> Tuple[SuiteEntry, ...]:
    """All bundled data structures."""
    return STRUCTURES


def entry(name: str) -> SuiteEntry:
    """Look up a suite entry by class name (case-insensitive)."""
    for candidate in STRUCTURES:
        if candidate.name.lower() == name.lower():
            return candidate
    known = ", ".join(e.name for e in STRUCTURES)
    raise KeyError(f"unknown suite structure {name!r}; known: {known}")


def source(name: str) -> str:
    """The mini-Java source text of a bundled data structure."""
    info = entry(name)
    return resources.files("repro.suite").joinpath("data", info.file_name).read_text()


def names() -> List[str]:
    return [e.name for e in STRUCTURES]


def verify_structure(name: str, **options):
    """Verify every contracted method of a bundled structure.

    Returns a :class:`repro.core.report.ClassReport` (one Figure 15 row).

    Mirrors the paper's Figure 7 command line and adds the dispatch-scaling
    flags of :func:`repro.core.verifier.verify_class`::

        jahob List.java -method List.add -usedp spass mona bapa
        ==> verify_structure("SizedList", provers=["spass", "mona", "bapa"],
        ...                  workers=8, cache=SequentCache())

    ``workers=N`` proves the split sequents on a pool of N processes (by
    default one per CPU this process may run on; ``workers=1`` proves
    inline);
    ``cache=SequentCache(...)`` memoises verdicts per normalized sequent, so
    re-running a row (or the whole Figure 15 table) replays prior proofs
    instead of recomputing them.  See ``benchmarks/bench_parallel_dispatch.py``.
    Without ``provers`` (or a ``config=``) the row runs the default chain,
    ``repro.provers.dispatcher.DEFAULT_ORDER``.
    """
    from ..core.verifier import verify_class

    return verify_class(source(name), class_name=entry(name).name, **options)
