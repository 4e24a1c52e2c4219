"""Specification constructs: specification variables, invariants, contracts,
and in-body specification statements (paper Section 3)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..form import ast as F


@dataclass
class SpecVarDecl:
    """A ``specvar`` declaration (ghost or defined, Section 3.2)."""

    name: str
    type_text: str
    is_ghost: bool = False
    is_public: bool = False
    is_static: bool = True
    init_text: Optional[str] = None
    #: 1-based source line of the declaration (0 = unknown).
    line: int = 0


@dataclass
class VarDef:
    """A ``vardefs`` item: the definition of a defined specification variable."""

    name: str
    definition_text: str
    line: int = 0


@dataclass
class Invariant:
    """A class invariant (Section 3.4)."""

    name: str
    formula_text: str
    is_public: bool = False
    line: int = 0


@dataclass
class MethodContract:
    """requires / modifies / ensures (Section 3.3)."""

    requires_text: str = "True"
    modifies: List[str] = field(default_factory=list)
    ensures_text: str = "True"
    #: Source lines of the respective clauses (0 = unknown/absent).
    requires_line: int = 0
    modifies_line: int = 0
    ensures_line: int = 0


@dataclass
class ClassSpec:
    """All specification constructs attached to one class."""

    specvars: List[SpecVarDecl] = field(default_factory=list)
    vardefs: List[VarDef] = field(default_factory=list)
    invariants: List[Invariant] = field(default_factory=list)


# -- in-body specification statements ------------------------------------------------


class SpecStatement:
    """Base class of specification statements inside method bodies (Section 3.5)."""


@dataclass
class GhostAssign(SpecStatement):
    """``x := "e"`` or ``t..f := "e"`` — a specification assignment."""

    target_text: str
    expr_text: str


@dataclass
class AssertSpec(SpecStatement):
    label: str
    formula_text: str
    hints: List[str] = field(default_factory=list)


@dataclass
class AssumeSpec(SpecStatement):
    label: str
    formula_text: str


@dataclass
class NoteSpec(SpecStatement):
    """``note l: "F" by h1, h2`` — assert then assume (a checked lemma)."""

    label: str
    formula_text: str
    hints: List[str] = field(default_factory=list)


@dataclass
class HavocSpec(SpecStatement):
    """``havoc x suchThat "F"``."""

    targets: List[str]
    such_that_text: Optional[str] = None


@dataclass
class LocalSpecVar(SpecStatement):
    """A ghost specification variable local to a method body."""

    name: str
    type_text: str
    init_text: Optional[str] = None
