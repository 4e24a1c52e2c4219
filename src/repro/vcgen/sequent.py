"""Sequents: the labelled implications produced by splitting verification conditions.

A *sequent* (the paper's term, Section 5.1 and Figure 7) is an implication

    A1 & A2 & ... & An  -->  G

where every assumption ``Ai`` and the goal ``G`` carry string labels that
record where they came from (an invariant name, a ``note`` label, a program
path condition, a precondition conjunct, ...).  Labels drive assumption
selection (the ``by`` clause of Section 3.5) and error reporting.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..form import ast as F
from ..form.printer import to_str
from ..form.typecheck import TypeEnv


#: Names produced by the splitter (``x$3``) and the VC generator's havoc
#: incarnations (``first#2``); both are alpha-renamed away in :meth:`Sequent.digest`.
_GENERATED_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.']*[$#][0-9]+")


def _hint_labels(hints: Iterable[str]) -> Set[str]:
    """The assumption labels a ``by`` hint list selects: each hint itself,
    and the invariant it names by its bare name."""
    return {label for hint in hints for label in (hint, f"inv:{hint}")}


@dataclass(frozen=True)
class Labeled:
    """A formula together with the labels attached to it during VC generation."""

    formula: F.Term
    labels: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        prefix = ",".join(self.labels)
        return f"[{prefix}] {to_str(self.formula)}" if prefix else to_str(self.formula)


@dataclass
class Sequent:
    """One proof obligation: assumptions |- goal."""

    assumptions: Tuple[Labeled, ...]
    goal: Labeled
    #: Identifiers from an explicit ``by l1, ..., ln`` clause; when non-empty
    #: only assumptions carrying one of these labels are passed to provers.
    hints: Tuple[str, ...] = ()
    #: Description of the program point this sequent came from.
    origin: str = ""
    env: Optional[TypeEnv] = None

    # -- views ----------------------------------------------------------------

    def assumption_formulas(self) -> Tuple[F.Term, ...]:
        return tuple(a.formula for a in self.assumptions)

    def to_implication(self) -> F.Term:
        """The sequent as a single HOL formula."""
        if not self.assumptions:
            return self.goal.formula
        return F.mk_implies(F.mk_and(self.assumption_formulas()), self.goal.formula)

    def relevant_assumptions(self) -> Tuple[Labeled, ...]:
        """Assumptions filtered by the ``by`` hints (all of them if no hints).

        A hint names an assumption by one of its labels, or an invariant by
        its bare name (``by FirstData`` selects ``inv:FirstData``).
        """
        if not self.hints:
            return self.assumptions
        wanted = _hint_labels(self.hints)
        selected = tuple(
            a for a in self.assumptions if wanted.intersection(a.labels)
        )
        # An explicit hint list that matches nothing would make the sequent
        # unprovable for no good reason; fall back to all assumptions.
        return selected if selected else self.assumptions

    def unmatched_hints(self) -> Tuple[str, ...]:
        """The ``by`` hints that select no assumption (lint rule SPEC05)."""
        labels = {label for a in self.assumptions for label in a.labels}
        return tuple(
            hint for hint in self.hints if not _hint_labels((hint,)) & labels
        )

    def restricted(self) -> "Sequent":
        """A copy of the sequent containing only the hint-selected assumptions."""
        return Sequent(
            assumptions=self.relevant_assumptions(),
            goal=self.goal,
            hints=(),
            origin=self.origin,
            env=self.env,
        )

    def with_extra_assumptions(self, extra: Iterable[Labeled]) -> "Sequent":
        return Sequent(
            assumptions=self.assumptions + tuple(extra),
            goal=self.goal,
            hints=self.hints,
            origin=self.origin,
            env=self.env,
        )

    # -- identity --------------------------------------------------------------

    def digest(self) -> str:
        """A structural digest stable across runs, workers and processes.

        Used as the sequent part of prover-cache keys.  Two sequents that
        differ only in the numbering of generated variables — the splitter's
        ``x$n`` fresh names and the VC generator's ``v#n`` havoc
        incarnations — hash identically: generated names are alpha-renamed
        into canonical indices assigned by each variable's *occurrence
        signature* (the number-masked formulas it appears in), which is
        itself independent of the numbering; the assumption set is sorted so
        that assumption order does not matter either.  Variables whose
        occurrence signatures are fully symmetric may still digest apart
        under renumbering — a conservative (sound) false miss, never a
        collision.  Hints are part of the digest because they change which
        assumptions provers may use.

        The digest is memoised per instance (sequents are treated as
        immutable once built), so repeated cache lookups along a prover
        chain pay the pretty-printing cost only once.
        """
        memo = getattr(self, "_digest_memo", None)
        if memo is not None:
            return memo

        goal = to_str(self.goal.formula)
        raw_assumptions = [to_str(a.formula) for a in self.assumptions]

        def masked(text: str) -> str:
            return _GENERATED_NAME.sub(
                lambda m: re.split(r"[$#]", m.group(0), maxsplit=1)[0] + "$", text
            )

        # Canonical variable order: each generated variable is characterised
        # by the sorted multiset of number-masked formulas it occurs in (with
        # occurrence counts), plus its base name.  This signature does not
        # mention any generated number, so renumbering cannot reorder it —
        # unlike sorting on the raw printed text.
        texts = [goal] + raw_assumptions
        signatures: Dict[str, List[str]] = {}
        for text in texts:
            masked_text = masked(text)
            for name in _GENERATED_NAME.findall(text):
                signatures.setdefault(name, []).append(masked_text)
        mapping: Dict[str, str] = {}
        for name in sorted(
            signatures,
            key=lambda n: (
                re.split(r"[$#]", n, maxsplit=1)[0],
                sorted(signatures[n]),
                len(signatures[n]),
            ),
        ):
            base = re.split(r"[$#]", name, maxsplit=1)[0]
            mapping[name] = f"{base}${len(mapping)}"

        def rename(text: str) -> str:
            return _GENERATED_NAME.sub(lambda m: mapping[m.group(0)], text)

        canonical_goal = rename(goal)
        canonical_assumptions = sorted(rename(a) for a in raw_assumptions)
        payload = "\n".join(
            canonical_assumptions
            + ["|-", canonical_goal, "hints:" + ",".join(sorted(self.hints))]
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()
        self._digest_memo = digest
        return digest

    def size(self) -> int:
        return sum(F.term_size(a.formula) for a in self.assumptions) + F.term_size(
            self.goal.formula
        )

    def pretty(self, max_assumptions: int = 30) -> str:
        lines: List[str] = []
        shown = self.assumptions[:max_assumptions]
        for labeled in shown:
            lines.append("  " + str(labeled))
        if len(self.assumptions) > max_assumptions:
            lines.append(f"  ... ({len(self.assumptions) - max_assumptions} more assumptions)")
        lines.append("  " + "-" * 40)
        lines.append("  " + str(self.goal))
        header = f"sequent [{self.origin}]" if self.origin else "sequent"
        return header + "\n" + "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.pretty()


def sequent(assumptions: Sequence[F.Term], goal: F.Term, origin: str = "") -> Sequent:
    """Convenience constructor used heavily by tests and examples."""
    return Sequent(
        assumptions=tuple(Labeled(a) for a in assumptions),
        goal=Labeled(goal),
        origin=origin,
    )
